// The re-enterable decision engine.
//
// The paper's decision procedure runs once, at start-up time, over the
// dynamic plan's choose-plan operators.  Mid-query re-optimization
// re-enters the same procedure while the query is running: a pipeline
// breaker has materialized an intermediate whose actual cardinality left
// the optimizer's validity interval, so the remaining plan suffix is
// re-optimized against the materialized result as a synthetic leaf
// (PAPERS.md "Revisiting Runtime Dynamic Optimization for Join Queries").
//
// Both entries share one engine:
//
//   * Resolve()          — start-up entry (ResolveDynamicPlan in startup.h
//                          is its door): evaluate every choose-plan's
//                          alternatives under the bound environment over
//                          the plan's StartupProgram
//                          (runtime/startup_program.h), extract the chosen
//                          plan.  Per-resolve state is dense arrays indexed
//                          by program node; the program is read-only, so
//                          concurrent resolutions share one.
//   * ReoptimizeSuffix() — runtime entry.  Optimizes a suffix Query (the
//                          un-executed remainder, with a materialized term
//                          standing in for the finished subtree) under the
//                          runtime bindings, then resolves any residual
//                          choose-plan operators through the same
//                          evaluator the start-up path uses.

#ifndef DQEP_RUNTIME_DECISION_ENGINE_H_
#define DQEP_RUNTIME_DECISION_ENGINE_H_

#include "common/status.h"
#include "cost/cost_model.h"
#include "logical/query.h"
#include "optimizer/optimizer.h"
#include "runtime/startup.h"
#include "runtime/startup_program.h"

namespace dqep {

class DecisionEngine {
 public:
  explicit DecisionEngine(const CostModel& model) : model_(model) {}

  /// Start-up entry: resolves `program`'s plan under fully bound `env`.
  /// See StartupResult (startup.h) for the outcome fields.
  Result<StartupResult> Resolve(const StartupProgram& program,
                                const ParamEnv& env,
                                const StartupOptions& options = {}) const;

  /// Outcome of one runtime re-entry.
  struct SuffixPlan {
    /// The resolved suffix plan, annotated with estimates under `env`.
    PhysNodePtr resolved;

    /// Predicted execution cost of `resolved` under the bindings.
    double execution_cost = 0.0;

    /// The resolution details (decision counts, choices) — feeds the same
    /// observability surfaces as a start-up resolution.
    StartupResult startup;

    /// Seconds the optimizer search itself took.
    double optimize_seconds = 0.0;
  };

  /// Runtime entry: optimizes the remaining query `suffix` (which carries
  /// a materialized term for the finished subtree) under the *runtime*
  /// environment `env` — all host variables bound — and resolves the
  /// result.  `opt_options` is the session's optimizer configuration.
  Result<SuffixPlan> ReoptimizeSuffix(const Query& suffix, const ParamEnv& env,
                                      const OptimizerOptions& opt_options,
                                      const StartupOptions& options = {}) const;

  const CostModel& model() const { return model_; }

 private:
  const CostModel& model_;
};

}  // namespace dqep

#endif  // DQEP_RUNTIME_DECISION_ENGINE_H_
