#include "runtime/startup.h"

#include <algorithm>

#include "obs/metrics.h"
#include "runtime/decision_engine.h"
#include "runtime/startup_program.h"

namespace dqep {

namespace {

obs::SharedCounterRef g_resolves_metric("runtime.startup.resolves");
obs::SharedCounterRef g_decisions_metric("runtime.startup.decisions");

}  // namespace

Result<StartupResult> ResolveDynamicPlan(const StartupProgram& program,
                                         const CostModel& model,
                                         const ParamEnv& env,
                                         const StartupOptions& options) {
  // The decision procedure lives in the re-enterable DecisionEngine
  // (runtime/decision_engine.h); this entry point is the start-up door.
  Result<StartupResult> result =
      DecisionEngine(model).Resolve(program, env, options);
  if (result.ok()) {
    g_resolves_metric.Add(1);
    g_decisions_metric.Add(static_cast<int64_t>(result->decisions));
  }
  return result;
}

Result<StartupResult> ResolveDynamicPlan(const PhysNodePtr& root,
                                         const CostModel& model,
                                         const ParamEnv& env,
                                         const StartupOptions& options) {
  return ResolveDynamicPlan(StartupProgram(root), model, env, options);
}

std::unique_ptr<ExecContext> MakeExecContext(const ParamEnv& env,
                                             const SystemConfig& config,
                                             const ExecOptions& options) {
  double pages = env.memory_pages().IsPoint()
                     ? env.memory_pages().lo()
                     : config.expected_memory_pages;
  int64_t budget_pages = std::max<int64_t>(static_cast<int64_t>(pages), 0);
  return std::make_unique<ExecContext>(options, budget_pages);
}

}  // namespace dqep
