// Start-up-time evaluation of dynamic plans (paper §4).
//
// When a dynamic plan is activated, all host variables are bound.  The
// decision procedure of every choose-plan operator is simply a cost
// comparison of its alternatives with the bindings instantiated: the
// original cost functions are re-evaluated bottom-up over the plan DAG,
// each shared subplan exactly once; no cost-function inverses are needed.
// The DAG's structure never changes between runs, so it is flattened
// once into a StartupProgram (runtime/startup_program.h) — per cached
// plan, on the plan cache's miss path — and every run resolves over that
// program's dense node array.
// Optionally, branch-and-bound abandons the evaluation of an alternative
// as soon as its partial cost exceeds the best alternative so far (the
// paper proposes this but did not implement it; we provide it as an
// ablation).

#ifndef DQEP_RUNTIME_STARTUP_H_
#define DQEP_RUNTIME_STARTUP_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "cost/system_config.h"
#include "exec/exec_context.h"
#include "physical/plan.h"

namespace dqep {

class StartupProgram;

/// Options for start-up resolution.
struct StartupOptions {
  /// Abort an alternative's cost evaluation once it exceeds the best
  /// alternative found so far (paper §4; off by default, matching the
  /// paper's experiments).
  bool use_branch_and_bound = false;

  /// Observed output cardinalities for specific nodes (paper §7: once a
  /// subplan has been evaluated into a temporary result, its cardinality
  /// is *known*).  When a node appears here, its estimate is replaced by
  /// the observed value before parents are costed.  Not owned.
  const std::unordered_map<const PhysNode*, double>* observed_cardinalities =
      nullptr;

  /// Optional tracing sink (obs/trace.h): the resolution emits one
  /// "resolve" span plus one "choose-plan decision" span per decision,
  /// carrying every alternative's resolved point cost and compile-time
  /// cost interval.  Null (default) disables tracing.  Not owned.
  obs::TraceSession* trace = nullptr;

  /// The host variables the plan references, checked for bindings
  /// instead of the program's own StartupProgram::params() (e.g.
  /// CachedPlanResult::plan_params).  Must match the plan being
  /// resolved.  Not owned.
  const std::vector<ParamId>* plan_params = nullptr;

  /// Forces specific choose-plan decisions: a node present here resolves
  /// to the mapped alternative index instead of the cheapest one (every
  /// alternative is still costed, so StartupResult::alternative_costs
  /// stays complete).  The oracle-replay driver uses this to measure the
  /// true cost of the road not taken; out-of-range indices are ignored
  /// and the decision falls back to the cost comparison.  Not owned.
  const std::unordered_map<const PhysNode*, size_t>* forced_choices = nullptr;
};

/// Outcome of resolving one dynamic plan under bound parameters.
struct StartupResult {
  /// The chosen plan: all choose-plan operators replaced by their cheapest
  /// alternative.  Shared subplans remain shared.
  PhysNodePtr resolved;

  /// Predicted execution cost of `resolved` under the bindings (a point).
  double execution_cost = 0.0;

  /// Cost-function evaluations performed (== DAG nodes visited).
  int64_t cost_evaluations = 0;

  /// Choose-plan decisions made.
  int64_t decisions = 0;

  /// Nodes skipped thanks to start-up branch-and-bound.
  int64_t nodes_skipped = 0;

  /// Measured CPU seconds spent deciding and rebuilding.
  double measured_cpu_seconds = 0.0;

  /// Modeled decision CPU time (paper-style analytic model, portable
  /// across machines).
  double modeled_cpu_seconds = 0.0;

  /// Chosen alternative index per choose-plan node.
  std::unordered_map<const PhysNode*, size_t> choices;

  /// Every alternative's resolved point cost per choose-plan node,
  /// indexed like the node's children (infinity for alternatives
  /// abandoned by branch-and-bound).  This is what EXPLAIN ANALYZE's
  /// regret report compares actual cost against: the model's start-up
  /// estimate for the road not taken.
  std::unordered_map<const PhysNode*, std::vector<double>> alternative_costs;
};

/// Resolves `program`'s plan under fully bound `env` — the hot path: a
/// cached plan's program is built once and resolved on every hit.
///
/// Fails with InvalidArgument if any referenced host variable is unbound
/// or the memory grant is still an interval.  Works on static plans too
/// (no decisions; returns the plan unchanged).
Result<StartupResult> ResolveDynamicPlan(const StartupProgram& program,
                                         const CostModel& model,
                                         const ParamEnv& env,
                                         const StartupOptions& options = {});

/// As above for a plan without a prebuilt program: builds a transient
/// StartupProgram for `root` first.
Result<StartupResult> ResolveDynamicPlan(const PhysNodePtr& root,
                                         const CostModel& model,
                                         const ParamEnv& env,
                                         const StartupOptions& options = {});

/// The grant → budget handoff: builds the per-query ExecContext from the
/// memory grant the plan was just resolved under.  A point grant (the
/// normal case at start-up, after choose-plan resolution) becomes the
/// context's tracked budget in pages; an interval grant falls back to
/// config.expected_memory_pages.  The optimizer and the executor thereby
/// price and enforce the same number.  Heap-allocated because ExecContext
/// is pinned (operators hold stable pointers to it).
std::unique_ptr<ExecContext> MakeExecContext(const ParamEnv& env,
                                             const SystemConfig& config,
                                             const ExecOptions& options = {});

}  // namespace dqep

#endif  // DQEP_RUNTIME_STARTUP_H_
