// Query lifecycles for the three optimization scenarios of paper Figure 3:
//
//   static:   optimize once (time a), then per invocation activate (b) and
//             execute (c_i);
//   run-time: optimize per invocation (a) and execute (d_i), no activation;
//   dynamic:  optimize once into a dynamic plan (e), then per invocation
//             activate + decide (f) and execute (g_i).
//
// Execution costs are the optimizer-predicted costs under the invocation's
// actual bindings (paper §6, footnote 4: comparing predicted costs isolates
// search quality from estimation quality).  Optimization and start-up CPU
// times are truly measured; activation I/O is modeled from plan size.

#ifndef DQEP_RUNTIME_LIFECYCLE_H_
#define DQEP_RUNTIME_LIFECYCLE_H_

#include <memory>
#include <optional>

#include "common/status.h"
#include "cost/cost_model.h"
#include "logical/query.h"
#include "optimizer/optimizer.h"
#include "physical/access_module.h"
#include "runtime/startup.h"
#include "runtime/startup_program.h"

namespace dqep {

/// A query compiled into a stored access module.
struct CompiledQuery {
  OptimizedPlan plan;
  AccessModule module;

  /// The plan's start-up program, built once here like the access
  /// module (compile-time work, not counted in optimize_seconds); every
  /// InvokeDynamic resolves over it.
  std::shared_ptr<const StartupProgram> program;
  /// Measured compile-time optimization CPU seconds (a or e).
  double optimize_seconds = 0.0;

  CompiledQuery(OptimizedPlan optimized, AccessModule access_module)
      : plan(std::move(optimized)), module(std::move(access_module)) {}
};

/// Optimizes `query` and wraps the plan in an access module.
/// Use OptimizerOptions::Static() / ::Dynamic() for the two compile-time
/// scenarios.
Result<CompiledQuery> CompileQuery(const Query& query, const CostModel& model,
                                   const OptimizerOptions& options,
                                   const ParamEnv& compile_env);

/// Outcome of one run-time invocation under bound parameters.
struct InvocationResult {
  /// Activation time: catalog validation + access-module transfer +
  /// (dynamic plans) start-up decision CPU.  Zero for run-time
  /// optimization, which hands the plan straight to the engine.
  double activation_seconds = 0.0;

  /// Predicted execution cost under the invocation's bindings
  /// (c_i / d_i / g_i).
  double execution_cost = 0.0;

  /// Optimization time spent *at this invocation* (run-time optimization
  /// only).
  double optimize_seconds = 0.0;

  /// The plan that would execute (choose-plan free).
  PhysNodePtr executed_plan;

  /// Start-up details (dynamic plans only).
  std::optional<StartupResult> startup;

  /// Total run-time effort of this invocation.
  double TotalSeconds() const {
    return activation_seconds + execution_cost + optimize_seconds;
  }
};

/// Invokes a statically compiled plan: activation b plus execution c_i.
Result<InvocationResult> InvokeStatic(const CompiledQuery& compiled,
                                      const CostModel& model,
                                      const ParamEnv& bound_env);

/// Invokes a dynamic plan: activation + choose-plan decisions f plus
/// execution g_i.
Result<InvocationResult> InvokeDynamic(const CompiledQuery& compiled,
                                       const CostModel& model,
                                       const ParamEnv& bound_env,
                                       const StartupOptions& options = {});

/// Run-time optimization: optimizes `query` from scratch under the bound
/// environment (a) and reports the resulting plan's cost (d_i).
Result<InvocationResult> OptimizeAtRunTime(const Query& query,
                                           const CostModel& model,
                                           const ParamEnv& bound_env);

}  // namespace dqep

#endif  // DQEP_RUNTIME_LIFECYCLE_H_
