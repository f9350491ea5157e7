// The traced replay: the per-layer view of one workload.
//
// The server cannot be timed layer by layer from outside, so this
// replays the same seeded stream in process, with worker threads that
// share one PaperWorkload, one DynamicPlanCache and one
// AdmissionController (all configured from the default ServerOptions),
// and calls each layer's public function in the order
// ServerSession::RunQuery does:
//
//   PlanQueryWithCache            plan_cache, split into sql (normalize,
//                                 parse) and optimizer (optimize) by the
//                                 phase seconds it returns
//   ResolveDynamicPlan            startup
//   AdmissionController::Admit    admission
//   MakeExecContext + Build*      exec (build)
//   Open/Next/Close               exec (run; storage is inside)
//   RecordExecution               admission
//   ClonePlan + AnnotatePlan      obs (annotate)
//   CollectAnalyzeRows +
//     RenderAnalyze JSON          obs (record)
//   FormatRowLine / FormatOkLine  server (format)
//
// One span per call (name, start, end, parent, query id) is kept in
// memory and written as Chrome-trace JSON when the replay ends; a
// layer's self time is its spans' time minus their children's.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "streams.h"
#include "workload/paper_workload.h"

namespace perfbench {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedResult {
  int64_t queries = 0;  ///< traced queries (warm-up excluded)
  int64_t failed = 0;   ///< queries some layer refused
  double qps = 0.0;
  /// Per-layer metrics, in report order.
  std::vector<Metric> metrics;
  /// The layer with the largest self time per query.
  std::string heaviest_layer;
};

/// Replays `warmup` untraced queries of the (workload, seed) stream, then
/// traces the stream for `seconds` on `threads` workers.  Spans go to
/// `spans_path`.
TracedResult RunTraced(Workload workload, uint64_t seed, int64_t warmup,
                       double seconds, int threads,
                       dqep::PaperWorkload* database,
                       const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
