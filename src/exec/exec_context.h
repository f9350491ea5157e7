// Per-query execution context: the run-time half of the memory grant.
//
// The optimizer prices plans against a memory grant (ParamEnv's
// memory_pages interval, resolved to a point by choose-plan at start-up);
// the ExecContext is where that grant becomes enforceable.  One context
// lives for one query execution and carries:
//
//   - the ExecOptions (threads, morsel sizes),
//   - a tracked memory budget: operators account the bytes of tuples they
//     materialize against a MemoryTracker with a peak watermark, and the
//     memory-hungry operators (hash join, sort) switch to spilling
//     strategies instead of exceeding the budget,
//   - spill accounting (temp files created, tuples/bytes spilled) for
//     profiles and experiments,
//   - a cancellation flag checked by long-running drain loops.
//
// Spill storage is not an OS temp directory: temp heap files are
// allocated from the database's own page store (see storage/temp_heap.h)
// so spill I/O shows up in the same IoStats the cost model predicts, and
// pages are reclaimed on operator close.
//
// A null ExecContext* anywhere in the executor means "legacy unbounded
// execution": no tracking, no spilling, behavior identical to the
// pre-context engine.  A context with memory_pages == 0 tracks usage (the
// watermark is still reported) but never spills.

#ifndef DQEP_EXEC_EXEC_CONTEXT_H_
#define DQEP_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "common/macros.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "storage/page_store.h"

namespace dqep {

namespace obs {
class TraceSession;  // obs/trace.h
}  // namespace obs

class ReoptController;  // exec/reopt_control.h

/// Tracked-allocation accounting against an optional byte budget.
/// Thread-safe: exchange workers and the consumer may account
/// concurrently.  Acquire is unconditional — callers that must stay under
/// budget check WouldExceed first and spill instead of acquiring.
///
/// Usage and peak live in MetricsRegistry cells ("exec.memory.used_bytes"
/// gauge / "exec.memory.peak_bytes" max-gauge): same relaxed atomics as
/// the former private members, but visible in the process-wide snapshot.
/// Accessors read this tracker's own cells, so per-query semantics are
/// unchanged.
class MemoryTracker {
 public:
  /// `budget_bytes` == 0 means unbounded (track, never refuse).
  explicit MemoryTracker(int64_t budget_bytes = 0)
      : budget_bytes_(budget_bytes),
        used_(obs::MetricsRegistry::Instance().NewGauge(
            "exec.memory.used_bytes")),
        peak_(obs::MetricsRegistry::Instance().NewGaugeMax(
            "exec.memory.peak_bytes")) {
    DQEP_CHECK_GE(budget_bytes, 0);
  }

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  bool bounded() const { return budget_bytes_ > 0; }
  int64_t budget_bytes() const { return budget_bytes_; }

  /// True if acquiring `extra_bytes` now would push usage past the
  /// budget.  Always false when unbounded.
  bool WouldExceed(int64_t extra_bytes) const {
    return bounded() && used_.value() + extra_bytes > budget_bytes_;
  }

  void Acquire(int64_t bytes) {
    DQEP_CHECK_GE(bytes, 0);
    peak_.RecordMax(used_.Add(bytes));
  }

  void Release(int64_t bytes) {
    DQEP_CHECK_GE(bytes, 0);
    int64_t after = used_.Add(-bytes);
    DQEP_CHECK_GE(after, 0);  // release without matching acquire
  }

  int64_t used_bytes() const { return used_.value(); }
  int64_t peak_bytes() const { return peak_.value(); }

  /// Bytes still under budget (clamped at 0); INT64_MAX when unbounded.
  int64_t available_bytes() const {
    if (!bounded()) {
      return INT64_MAX;
    }
    int64_t used = used_bytes();
    return used >= budget_bytes_ ? 0 : budget_bytes_ - used;
  }

 private:
  const int64_t budget_bytes_;
  obs::CellHandle used_;
  obs::CellHandle peak_;
};

/// Everything one query execution needs at run time.  Not copyable or
/// movable: operators hold a stable ExecContext* for their lifetime, so
/// the context must outlive the iterator tree built against it.
class ExecContext {
 public:
  /// Unbounded context with default options.
  ExecContext() : ExecContext(ExecOptions{}) {}

  /// `memory_pages` == 0 means unbounded; otherwise the budget is
  /// memory_pages * page_size_bytes tracked bytes.
  explicit ExecContext(const ExecOptions& options, int64_t memory_pages = 0,
                       int32_t page_size_bytes = kPageSize)
      : options_(options),
        memory_pages_(memory_pages),
        tracker_(memory_pages * page_size_bytes),
        temp_files_(obs::MetricsRegistry::Instance().NewCounter(
            "exec.spill.temp_files")),
        tuples_spilled_(obs::MetricsRegistry::Instance().NewCounter(
            "exec.spill.tuples")),
        bytes_spilled_(obs::MetricsRegistry::Instance().NewCounter(
            "exec.spill.bytes")),
        overflows_(obs::MetricsRegistry::Instance().NewCounter(
            "exec.memory.forced_overflows")) {
    DQEP_CHECK_GE(memory_pages, 0);
  }

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  const ExecOptions& options() const { return options_; }
  int64_t memory_pages() const { return memory_pages_; }
  bool bounded() const { return tracker_.bounded(); }

  MemoryTracker& tracker() { return tracker_; }
  const MemoryTracker& tracker() const { return tracker_; }

  /// Cooperative cancellation: drain loops (join build/probe, sort fill,
  /// merge) poll this and cut the query short; Close still releases all
  /// memory and temp files.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Re-arms the context after a mid-query re-optimization pause: the
  /// cancel that stopped the abandoned iterator tree must not leak into
  /// the spliced plan's execution.  Only the re-opt driver (single
  /// thread, between executions) may call this.
  void ResetCancel() { cancelled_.store(false, std::memory_order_relaxed); }

  /// Spill accounting, aggregated across all operators under this
  /// context (and, through the registry cells, into the process-wide
  /// "exec.spill.*" counters).  `RecordSpill` counts tuples written to
  /// temp heaps (a tuple repartitioned at two recursion depths counts
  /// twice, matching the I/O actually performed).
  void RecordTempFile() { temp_files_.Add(1); }
  void RecordSpill(int64_t tuples, int64_t bytes) {
    tuples_spilled_.Add(tuples);
    bytes_spilled_.Add(bytes);
  }

  /// An operator was forced to acquire past the budget: its minimum
  /// working set (one grace-join partition at max repartition depth, one
  /// sort tuple, one merge-join duplicate group, the heads of a two-way
  /// merge) did not fit the headroom left by the rest of the pipeline.
  /// When this stays 0, peak_bytes() <= budget is guaranteed.
  void RecordOverflow() { overflows_.Add(1); }

  int64_t temp_files_created() const { return temp_files_.value(); }
  int64_t tuples_spilled() const { return tuples_spilled_.value(); }
  int64_t bytes_spilled() const { return bytes_spilled_.value(); }
  int64_t overflows() const { return overflows_.value(); }

  /// Optional tracing sink for this query (see obs/trace.h).  Null — the
  /// default — means tracing is off; instrumentation sites must tolerate
  /// that.  The session must outlive the context.
  obs::TraceSession* trace() const { return trace_; }
  void set_trace(obs::TraceSession* trace) { trace_ = trace; }

  /// Optional mid-query re-optimization controller (exec/reopt_control.h).
  /// Null — the default — means checkpoints are disarmed; pipeline
  /// breakers must tolerate that.  The controller must outlive the
  /// iterator tree built against this context.
  ReoptController* reopt() const { return reopt_; }
  void set_reopt(ReoptController* reopt) { reopt_ = reopt; }

 private:
  ExecOptions options_;
  int64_t memory_pages_ = 0;
  MemoryTracker tracker_;
  std::atomic<bool> cancelled_{false};
  obs::CellHandle temp_files_;
  obs::CellHandle tuples_spilled_;
  obs::CellHandle bytes_spilled_;
  obs::CellHandle overflows_;
  obs::TraceSession* trace_ = nullptr;
  ReoptController* reopt_ = nullptr;
};

}  // namespace dqep

#endif  // DQEP_EXEC_EXEC_CONTEXT_H_
