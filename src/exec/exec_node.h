// Common base of every operator and profile node: operator identity,
// output layout, and per-operator perf counters.
//
// Every operator counts its Next calls, tuples and batches produced, and
// inclusive wall time (children included, since Next calls nest).
// next_calls is roughly tuples / batch capacity: the interpretation
// overhead batching amortizes.

#ifndef DQEP_EXEC_EXEC_NODE_H_
#define DQEP_EXEC_EXEC_NODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/tuple.h"

namespace dqep {

/// Perf counters maintained by every operator.
struct OperatorCounters {
  /// Next() invocations (including the final end-of-stream call).
  int64_t next_calls = 0;

  /// Tuples produced (live rows summed over batches).
  int64_t tuples = 0;

  /// Batches produced.
  int64_t batches = 0;

  /// Inclusive wall-clock seconds spent inside Next (children included).
  double wall_seconds = 0.0;

  /// Inclusive wall-clock seconds spent inside Open / Close.  Pipeline
  /// breakers (hash-join build, sort) do their heavy lifting in Open, so
  /// wall_seconds alone under-reports them.
  double open_seconds = 0.0;
  double close_seconds = 0.0;

  /// Inclusive CPU seconds of the calling thread across Open, Next, and
  /// Close (CLOCK_THREAD_CPUTIME_ID — concurrent workers don't inflate
  /// it, unlike process CPU time).  wall - cpu ≈ blocking (I/O, queue
  /// waits in exchange operators).
  double cpu_seconds = 0.0;

  /// Temp heap files this operator created (grace-join partitions,
  /// external-sort runs).  0 unless the operator ran over budget.
  int64_t spill_files = 0;

  /// Tuples written to temp heaps (repartitioned tuples count once per
  /// rewrite, matching the I/O performed).
  int64_t spill_tuples = 0;

  /// Inclusive wall seconds across the whole operator lifecycle
  /// (Open + Next + Close) — the "actual cost" every report compares
  /// against estimates.
  double InclusiveWallSeconds() const {
    return open_seconds + wall_seconds + close_seconds;
  }

  /// Inclusive thread-CPU seconds over the same scope.
  double InclusiveCpuSeconds() const { return cpu_seconds; }
};

/// Base class of BatchIterator and the exchange's profile nodes: the
/// stable surface the profiler and tools see.
class ExecNode {
 public:
  virtual ~ExecNode() = default;

  /// Slot layout of produced tuples.
  const TupleLayout& layout() const { return layout_; }

  /// Operator display name (e.g. "batch-file-scan", "exchange").
  const char* op_name() const { return op_name_; }

  const OperatorCounters& counters() const { return counters_; }

  /// Child operators, for profile rendering.
  virtual std::vector<const ExecNode*> child_nodes() const { return {}; }

 protected:
  TupleLayout layout_;
  const char* op_name_ = "op";
  OperatorCounters counters_;
};

/// Renders the operator tree with counters, one indented line per
/// operator:
///
///   operator                    next_calls    batches     tuples     wall_s      cpu_s   spills spill_rows
///   batch-filter                        13         12      3072   0.001234   0.001120        0          0
///     batch-file-scan                   13         13     12288   0.000987   0.000911        0          0
///
/// wall_s covers Open+Next+Close (children included); cpu_s is the same
/// scope in thread CPU time.
std::string RenderProfile(const ExecNode& root);

}  // namespace dqep

#endif  // DQEP_EXEC_EXEC_NODE_H_
