// EXPLAIN ANALYZE: the plan tree re-rendered with predicted vs. observed
// numbers after a query has executed.
//
// For every operator of the resolved plan this joins three sources:
//   * the compile-time annotations (cost and cardinality *intervals* —
//     the ambiguity the optimizer faced; re-annotate the resolved plan
//     with the compile-time ParamEnv first, since plan rewriting rebuilds
//     nodes above replaced choose-plan operators without annotations),
//   * the start-up resolution (which alternative each choose-plan picked
//     and what every alternative's point cost was, from
//     StartupResult::alternative_costs),
//   * the executed iterator tree's OperatorCounters (actual seconds
//     across Open/Next/Close, actual rows).
//
// Per operator it reports actual cost against the compile-time interval
// (the cost-interval calibration the paper's evaluation turns on) and
// actual vs. estimated cardinality.  Per choose-plan decision it reports
// the *regret*: the chosen alternative's measured cost minus the model's
// start-up estimate for the best alternative not taken.  Negative regret
// means the decision beat the model's price for the road not taken.
//
// The walk descends the dynamic plan, the resolved plan, and the exec
// tree in lockstep; the exec-side row cursor ("tuple-from-batch") and
// exchange operators are transparent.  Model cost
// units are modeled seconds, so predicted and measured columns are
// directly comparable (to the extent the model is calibrated — that gap
// is exactly what this report makes visible).

#ifndef DQEP_OBS_ANALYZE_H_
#define DQEP_OBS_ANALYZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/exec_node.h"
#include "exec/reopt_control.h"
#include "physical/plan.h"
#include "runtime/startup.h"

namespace dqep {

struct QueryRun;  // runtime/query_pipeline.h

namespace obs {

enum class AnalyzeFormat {
  kText,
  kJson,
};

/// Everything RenderAnalyze joins.  `dynamic_root` and `startup` may be
/// null for static plans (no decisions to report); `exec_root` may be
/// null (operator rows then carry estimates only).
struct AnalyzeInput {
  /// The optimizer's plan, possibly containing choose-plan operators.
  const PhysNode* dynamic_root = nullptr;

  /// The resolved plan that actually executed, annotated with
  /// compile-time interval estimates (call AnnotatePlan with the
  /// compile-time env before rendering).
  const PhysNode* resolved_root = nullptr;

  /// Start-up resolution outcome: choices and per-alternative costs.
  const StartupResult* startup = nullptr;

  /// The executed iterator tree (after Close, so counters are final).
  const ExecNode* exec_root = nullptr;

  /// Plan-cache outcome for this query: "hit", "miss", "off", or ""
  /// (planned outside the cache path).  Rendered in the report footer so
  /// "this plan was reused, not re-optimized" is visible next to the
  /// estimates it carried over.
  std::string plan_cache;

  /// Runtime re-optimization checkpoints evaluated during execution
  /// (runtime/reopt.h), in order: triggered and suppressed decisions
  /// each get a report line with the validity interval, the observed
  /// cardinality, and — for triggered ones — the suffix cost before and
  /// after re-entering the decision procedure (their difference is the
  /// realized regret delta).  Null when re-optimization was off.
  const std::vector<ReoptCheckpoint>* reopt = nullptr;
};

/// One joined report line: either an operator of the resolved plan or a
/// choose-plan decision the start-up phase made above it.  Rows come out
/// of the triple-walk in pre-order; a decision row shares its depth with
/// the operator row that follows (the resolved plan spliced the chosen
/// alternative in place of the choose node).
///
/// This is the shared currency of the observability layer: RenderAnalyze
/// formats it, the query log (obs/querylog.*) persists it.
struct AnalyzeRow {
  enum class Kind { kOperator, kDecision };
  Kind kind = Kind::kOperator;
  int depth = 0;

  /// Operator rows: the resolved-plan node.  Decision rows: the dynamic
  /// plan's choose-plan node.  Never null.
  const PhysNode* plan_node = nullptr;

  // --- Operator rows ----------------------------------------------------
  const char* op = "";
  Interval est_cost;  ///< compile-time inclusive cost interval
  Interval est_rows;
  double actual_seconds = 0.0;      ///< inclusive wall (Open+Next+Close)
  double actual_cpu_seconds = 0.0;  ///< inclusive thread CPU, same scope
  int64_t actual_rows = 0;
  bool have_actual = false;
  bool cost_in_interval = false;

  // --- Decision rows ----------------------------------------------------
  size_t alternatives = 0;
  size_t chosen = 0;
  const char* chosen_op = "";
  /// Resolved start-up point cost of the chosen / best-other
  /// alternative; +infinity when unavailable (e.g. abandoned by
  /// branch-and-bound).
  double chosen_est = 0.0;
  double best_other_est = 0.0;
  double regret = 0.0;
  bool have_regret = false;
  /// Every alternative's resolved point cost and operator name, indexed
  /// like the choose node's children (cost +infinity when abandoned).
  std::vector<double> alternative_est;
  std::vector<const char*> alternative_ops;
};

/// The input of one pipeline run (runtime/query_pipeline.h): its
/// dynamic plan, start-up result, closed exec tree, plan-cache outcome,
/// re-opt checkpoints, and annotated plan (AnnotateRun is applied
/// first).  Valid while `run` lives.
AnalyzeInput AnalyzeInputFor(QueryRun& run);

/// Runs the triple-walk and returns the joined rows in pre-order.
std::vector<AnalyzeRow> CollectAnalyzeRows(const AnalyzeInput& input);

/// Triple-walks CollectAnalyzeRows has run in this process (monotonic).
/// A served query walks once however many reports it feeds.
int64_t AnalyzeWalkCount();

/// Renders the analyze report.  Text: one aligned row per operator plus
/// one "choose-plan" line per decision.  JSON: {"operators": [...],
/// "decisions": [...]} with one object per row (depth-encoded tree).
std::string RenderAnalyze(const AnalyzeInput& input, AnalyzeFormat format);

/// As above, from rows CollectAnalyzeRows already returned for `input`.
std::string RenderAnalyze(const std::vector<AnalyzeRow>& rows,
                          const AnalyzeInput& input, AnalyzeFormat format);

/// Inclusive measured seconds of `node`: Open + Next + Close wall time
/// (children included).  The "actual cost" column.
double ActualSeconds(const ExecNode& node);

/// Inclusive thread-CPU seconds of `node` across Open/Next/Close.
double ActualCpuSeconds(const ExecNode& node);

}  // namespace obs
}  // namespace dqep

#endif  // DQEP_OBS_ANALYZE_H_
