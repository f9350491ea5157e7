#include "runtime/lifecycle.h"

#include <utility>

#include "physical/costing.h"

namespace dqep {

Result<CompiledQuery> CompileQuery(const Query& query, const CostModel& model,
                                   const OptimizerOptions& options,
                                   const ParamEnv& compile_env) {
  Optimizer optimizer(&model, options);
  Result<OptimizedPlan> plan = optimizer.Optimize(query, compile_env);
  if (!plan.ok()) {
    return plan.status();
  }
  AccessModule module(plan->root);
  CompiledQuery compiled(std::move(*plan), std::move(module));
  compiled.program = std::make_shared<const StartupProgram>(compiled.plan.root);
  // Scenario totals mix measured CPU with modeled I/O; scale to the
  // modeled testbed's CPU speed (see SystemConfig::cpu_time_scale).
  compiled.optimize_seconds =
      compiled.plan.stats.optimize_seconds * model.config().cpu_time_scale;
  return compiled;
}

Result<InvocationResult> InvokeStatic(const CompiledQuery& compiled,
                                      const CostModel& model,
                                      const ParamEnv& bound_env) {
  if (compiled.module.num_choose_nodes() != 0) {
    return Status::InvalidArgument(
        "InvokeStatic requires a static plan; use InvokeDynamic");
  }
  InvocationResult result;
  const SystemConfig& config = model.config();
  result.activation_seconds = config.activation_constant_seconds +
                              compiled.module.TransferSeconds(config);
  result.executed_plan = compiled.plan.root;
  NodeEstimate estimate =
      EstimateRoot(*compiled.plan.root, model, bound_env,
                   EstimationMode::kExpectedValue);
  // With all parameters bound the estimate is a point.
  result.execution_cost = estimate.cost.lo();
  return result;
}

Result<InvocationResult> InvokeDynamic(const CompiledQuery& compiled,
                                       const CostModel& model,
                                       const ParamEnv& bound_env,
                                       const StartupOptions& options) {
  Result<StartupResult> startup =
      ResolveDynamicPlan(*compiled.program, model, bound_env, options);
  if (!startup.ok()) {
    return startup.status();
  }
  InvocationResult result;
  const SystemConfig& config = model.config();
  result.activation_seconds =
      config.activation_constant_seconds +
      compiled.module.TransferSeconds(config) +
      startup->measured_cpu_seconds * config.cpu_time_scale;
  result.execution_cost = startup->execution_cost;
  result.executed_plan = startup->resolved;
  result.startup = std::move(*startup);
  return result;
}

Result<InvocationResult> OptimizeAtRunTime(const Query& query,
                                           const CostModel& model,
                                           const ParamEnv& bound_env) {
  // With every parameter bound, expected-value estimation is exact and the
  // optimizer returns the plan that is optimal for these bindings.
  Optimizer optimizer(&model, OptimizerOptions::Static());
  Result<OptimizedPlan> plan = optimizer.Optimize(query, bound_env);
  if (!plan.ok()) {
    return plan.status();
  }
  InvocationResult result;
  result.optimize_seconds =
      plan->stats.optimize_seconds * model.config().cpu_time_scale;
  result.execution_cost = plan->cost.lo();
  result.executed_plan = plan->root;
  return result;
}

}  // namespace dqep
