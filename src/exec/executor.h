// The execution engine: batch-at-a-time Volcano iterators.
//
// A physical plan executes as a tree of demand-driven operators
// (Open / Next(TupleBatch*) / Close).  One Next call moves up to
// TupleBatch::kDefaultCapacity rows: scans decode into reused batch rows,
// filters narrow a selection vector in place, and every other operator —
// hash, merge and index join, sort, project — fills reused output rows.
// With ExecOptions::threads > 1, exchange operators fan parallelizable
// chains across worker threads (exec/parallel.h); the row sequence is the
// serial one at every thread count.
//
// Plans must be *resolved* before execution: every choose-plan operator
// replaced by its chosen alternative (see runtime/startup.h).  Host
// variables are bound through the ParamEnv.  tests/exec_batch_test.cc
// checks every operator against an independent reference evaluator.

#ifndef DQEP_EXEC_EXECUTOR_H_
#define DQEP_EXEC_EXECUTOR_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "cost/param_env.h"
#include "exec/exec_node.h"
#include "physical/plan.h"
#include "storage/database.h"
#include "storage/tuple.h"
#include "storage/tuple_batch.h"

namespace dqep {

class ExecContext;  // exec/exec_context.h

/// Retired engine selector, kept only because perfbench/traced.cc still
/// names it (see the compatibility block at the end of this file).
enum class ExecMode {
  kTuple,
  kBatch,
};

/// Execution configuration: intra-query parallelism.
///
/// With threads == 1 no thread pool and no exchange operators exist.
/// With threads > 1 exchange operators fan parallelizable subtrees (scan /
/// filter / project / hash-join-probe chains) across worker threads over
/// morsels.  Results are deterministic: the exchange merges morsel
/// outputs in morsel order, so the produced row sequence is identical for
/// every thread count.
struct ExecOptions {
  /// Compatibility only: always kBatch, read by nothing outside
  /// perfbench/.
  ExecMode mode = ExecMode::kBatch;

  /// Worker threads for intra-query parallelism (>= 1).
  int32_t threads = 1;

  /// Heap-file pages per morsel for parallel file scans.
  int64_t morsel_pages = 8;

  /// B-tree row ids per morsel for parallel (filter-)btree scans.
  int64_t morsel_rids = 2048;
};

/// Demand-driven batch iterator.
///
/// Open/Next/Close are non-virtual timing wrappers around the virtual
/// *Impl methods: every call accrues inclusive wall time and thread CPU
/// time (ThreadCpuTimer, so concurrent exchange workers don't inflate
/// each other's counters) into the operator's OperatorCounters.
class BatchIterator : public ExecNode {
 public:
  /// Prepares the iterator (allocates state, opens children).
  void Open() {
    WallTimer timer;
    ThreadCpuTimer cpu;
    OpenImpl();
    counters_.open_seconds += timer.ElapsedSeconds();
    counters_.cpu_seconds += cpu.ElapsedSeconds();
  }

  /// Clears and refills `out`; returns false at end of stream.  A true
  /// return guarantees at least one live row; batches may otherwise be
  /// partially full anywhere in the stream.  Callers should reuse the
  /// same batch across calls so row storage is recycled.
  bool Next(TupleBatch* out) {
    WallTimer timer;
    ThreadCpuTimer cpu;
    bool produced = NextImpl(out);
    counters_.wall_seconds += timer.ElapsedSeconds();
    counters_.cpu_seconds += cpu.ElapsedSeconds();
    ++counters_.next_calls;
    if (produced) {
      ++counters_.batches;
      counters_.tuples += out->num_rows();
    }
    return produced;
  }

  /// Releases resources; the iterator may be re-Opened afterwards.
  void Close() {
    WallTimer timer;
    ThreadCpuTimer cpu;
    CloseImpl();
    counters_.close_seconds += timer.ElapsedSeconds();
    counters_.cpu_seconds += cpu.ElapsedSeconds();
  }

 protected:
  virtual void OpenImpl() = 0;
  virtual bool NextImpl(TupleBatch* out) = 0;
  virtual void CloseImpl() = 0;
};

/// Builds the serial iterator tree for a resolved plan.
///
/// `ctx` is the per-query execution context (exec/exec_context.h); it
/// must outlive the returned tree.  Null means unbounded execution.
/// Under a bounded context hash joins spill grace-style and sorts spill
/// to external merge sort when the tracked build/sort state would exceed
/// the budget; a spilled hash join emits its rows in partition-major
/// order (a different — but deterministic — order from the in-memory
/// join's probe order).
///
/// Fails with InvalidArgument if the plan still contains choose-plan
/// operators (resolve it at start-up first) or references unbound host
/// variables.
Result<std::unique_ptr<BatchIterator>> BuildBatchExecutor(
    const PhysNodePtr& plan, const Database& db, const ParamEnv& env,
    ExecContext* ctx = nullptr);

/// Builds an iterator tree with exchange operators fanning parallelizable
/// chains across options.threads workers (see ExecOptions).  With
/// options.threads == 1 this is exactly BuildBatchExecutor.  The returned
/// tree owns its thread pool; per-worker operator counters are
/// aggregated into the tree's profile nodes at Close, so RenderProfile
/// works unchanged (child wall times are summed across workers and may
/// exceed elapsed wall clock).
Result<std::unique_ptr<BatchIterator>> BuildParallelBatchExecutor(
    const PhysNodePtr& plan, const Database& db, const ParamEnv& env,
    const ExecOptions& options);

/// As above, threading a per-query context: thread count and morsel
/// geometry come from ctx.options(), and the memory budget governs every
/// operator.  Under a bounded context hash joins are kept out of exchange
/// chains (they run serially on the consumer thread), so spill decisions
/// and the output row sequence are identical at every thread count.
Result<std::unique_ptr<BatchIterator>> BuildParallelBatchExecutor(
    const PhysNodePtr& plan, const Database& db, const ParamEnv& env,
    ExecContext& ctx);

/// Opens `root`, drains it, and closes it; returns the rows in production
/// order.  Stops early once `ctx` (nullable) is cancelled.  The output is
/// pre-sized from `plan`'s annotated compile-time cardinality estimate
/// when one is present.  The closed tree keeps its counters for
/// profiles and EXPLAIN ANALYZE.
std::vector<Tuple> DrainRows(BatchIterator& root, const PhysNode& plan,
                             const ExecContext* ctx = nullptr);

/// Convenience: builds with `options`, then DrainRows.
Result<std::vector<Tuple>> ExecutePlan(const PhysNodePtr& plan,
                                       const Database& db,
                                       const ParamEnv& env,
                                       const ExecOptions& options = {});

/// As above, under a per-query context: options from ctx.options(),
/// memory governed by ctx's budget, cancellable via ctx.RequestCancel()
/// (a cancelled run returns the rows produced so far).
Result<std::vector<Tuple>> ExecutePlan(const PhysNodePtr& plan,
                                       const Database& db,
                                       const ParamEnv& env, ExecContext& ctx);

// --- Compatibility for perfbench/ --------------------------------------------
//
// perfbench/traced.cc predates the single engine and still names
// ExecMode, ExecOptions::mode, Iterator and BuildExecutor.  They remain
// declared only for it, until the benchmark is next revised; nothing
// else uses them.

/// Row-at-a-time cursor over a batch tree ("tuple-from-batch"; EXPLAIN
/// ANALYZE sees through it to the batch operators below).
class Iterator : public ExecNode {
 public:
  explicit Iterator(std::unique_ptr<BatchIterator> input);

  void Open();

  /// Copies the next row into `out`; returns false at end of stream.
  bool Next(Tuple* out);

  void Close();

  std::vector<const ExecNode*> child_nodes() const override {
    return {input_.get()};
  }

 private:
  std::unique_ptr<BatchIterator> input_;
  TupleBatch batch_;
  int32_t pos_ = 0;
};

/// BuildBatchExecutor behind an Iterator cursor.
Result<std::unique_ptr<Iterator>> BuildExecutor(const PhysNodePtr& plan,
                                                const Database& db,
                                                const ParamEnv& env,
                                                ExecContext* ctx = nullptr);

}  // namespace dqep

#endif  // DQEP_EXEC_EXECUTOR_H_
