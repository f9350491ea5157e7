// Mid-query re-optimization driver (the runtime half of the re-enterable
// decision engine).
//
// ExecuteWithReopt runs a resolved plan under a ReoptController: pipeline
// breakers compare their actual cardinality against the compile-time
// interval carried on the plan, and when a checkpoint fires the driver
//
//   1. splices the captured MaterializedTable over the subtree it
//      replaces (the capture is never wasted: even without a plan change,
//      the finished work is not re-executed),
//   2. builds the suffix Query — the un-executed remainder of the
//      original query with the materialized table as a synthetic leaf —
//      and re-enters the decision procedure (DecisionEngine) for it,
//   3. adopts the re-optimized suffix when its estimated cost beats the
//      same-join-order splice, and
//   4. re-arms the context and restarts execution from the top of the
//      spliced plan.
//
// Restarting is parity-safe because every pipeline breaker completes
// during the root Open() cascade, before the first row is emitted: a
// trigger cancels the tree with zero rows produced.  The loop is bounded
// by ReoptConfig::max_triggers.
//
// The driver always works on a private ClonePlan copy — a plan served
// from the shared plan cache is never mutated or re-annotated in place.
//
// The query pipeline (runtime/query_pipeline.h) runs this driver as its
// re-optimizing mode, handing it the Query the plan was compiled from
// (for a cached template, the parameterized Query kept in the cache
// entry): the original plan and every re-optimized suffix share one
// set of ParamIds and run under one environment.

#ifndef DQEP_RUNTIME_REOPT_H_
#define DQEP_RUNTIME_REOPT_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/reopt_control.h"
#include "logical/query.h"
#include "optimizer/options.h"
#include "physical/plan.h"
#include "runtime/startup.h"
#include "storage/database.h"

namespace dqep {

/// Configuration for one re-optimizing execution.
struct ReoptOptions {
  /// Checkpoint knobs (master switch, slack, trigger budget).
  ReoptConfig config;

  /// Optimizer configuration for suffix re-optimization (the session's
  /// settings, so a re-optimized suffix searches the same space).
  OptimizerOptions optimizer;

  /// Resolution options for the re-optimized suffix (tracing threads
  /// through here as at start-up).
  StartupOptions startup;

  /// Environment used to annotate the plan with compile-time estimate
  /// intervals (the checkpoints' validity intervals).  Null means the
  /// runtime environment — intervals then collapse to points and a
  /// checkpoint fires on any misestimate beyond the slack.  Not owned.
  const ParamEnv* estimate_env = nullptr;
};

/// Outcome of one re-optimizing execution.
struct ReoptExecution {
  std::vector<Tuple> rows;

  /// The plan that produced `rows` (the original resolved plan when no
  /// checkpoint fired, otherwise the last spliced plan), annotated.
  PhysNodePtr final_plan;

  /// Every checkpoint evaluated, in order, with decision fields filled
  /// for triggered ones.  Feeds EXPLAIN ANALYZE and the query log.
  std::vector<ReoptCheckpoint> checkpoints;

  int64_t checkpoints_evaluated = 0;
  int64_t triggers_fired = 0;

  /// Total seconds spent re-entering the decision procedure (suffix
  /// optimization + resolution + splicing), across all triggers.
  double reopt_seconds = 0.0;

  /// The closed iterator tree of the final execution, kept alive for
  /// EXPLAIN ANALYZE's triple-walk.
  std::unique_ptr<BatchIterator> exec_tree;

  const ExecNode* exec_root() const { return exec_tree.get(); }
};

/// Builds the suffix Query for a fired checkpoint: `table` becomes a
/// materialized term standing in for `replaced`'s base relations, other
/// materialized leaves of `current` (earlier captures outside `replaced`)
/// keep their terms, uncovered base terms keep their predicates, and
/// joins internal to a single term are dropped (they were applied when
/// the intermediate was computed).  The projection pins `current`'s
/// output columns so the re-optimized plan emits identical rows.
/// Exposed for tests.
Result<Query> BuildSuffixQuery(const Query& original,
                               const PhysNodePtr& current,
                               const PhysNode* replaced,
                               const MaterializedTablePtr& table,
                               const Catalog& catalog);

/// Executes `resolved_plan` (start-up resolution already done) for
/// `query` under `ctx`, re-optimizing at runtime cardinality checkpoints.
/// `query` must be the Query the plan was compiled from, so its ParamIds
/// are the ones `env` binds: a re-optimized suffix of it is optimized and
/// executed under `env` too (a cached template's parameterized Query,
/// CachedPlanResult::query, not a plain parse of the same text).
/// With options.config.enabled == false this is plain execution plus the
/// cloned/annotated plan and live tree in the result.
Result<ReoptExecution> ExecuteWithReopt(const Query& query,
                                        const PhysNodePtr& resolved_plan,
                                        const Database& db,
                                        const CostModel& model,
                                        const ParamEnv& env, ExecContext& ctx,
                                        const ReoptOptions& options);

}  // namespace dqep

#endif  // DQEP_RUNTIME_REOPT_H_
