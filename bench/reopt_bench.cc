// Mid-query re-optimization bench: quantify what runtime cardinality
// checkpoints buy when compile-time estimates are wrong, and what they
// cost when estimates are right.
//
// Misestimate scenario, per paper chain query (Q2, Q3, Q4, Q5): the plan
// is optimized under bindings whose modeled selectivity is 0.02, then
// executed under bindings whose true selectivity is 0.9 — every breaker
// sees ~45x its estimated cardinality, so the first checkpoint fires
// deterministically.  Three variants are timed over the same runtime
// bindings:
//
//   static  the misestimated plan executed to completion (no checkpoints)
//   reopt   the misestimated plan under ExecuteWithReopt: the finished
//           intermediate becomes a synthetic leaf and the decision
//           procedure re-runs for the remaining suffix
//   oracle  the plan optimized under the true bindings (the re-opt
//           upper bound: zero misestimate, zero checkpoint cost)
//
// Accurate scenario: the oracle plan executed with checkpoints armed
// (estimates exact, nothing fires) vs plain — the pure overhead of
// arming re-optimization, reported as a within-run ratio.
//
// Output is a JSON document on stdout in the unified bench schema
// ({bench, config, rows, metrics} — see bench/bench_common.h); the
// committed copy lives in BENCH_reopt.json (regeneration:
// `build/bench/reopt_bench --json > BENCH_reopt.json`).  The
// `reoptbench` step of tools/run_checks.sh gates on the within-run
// ratios, which hold on any machine speed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "runtime/reopt.h"
#include "runtime/startup.h"

namespace dqep::bench {
namespace {

constexpr int kIterations = 15;  // per variant; the median is reported
constexpr double kMemoryPages = 64.0;
constexpr double kSlack = 2.0;
constexpr double kEstimatedSelectivity = 0.02;
constexpr double kTrueSelectivity = 0.9;

/// Env binding every selection parameter of `query` to the value whose
/// modeled selectivity is `sel`, with a point memory grant.
ParamEnv EnvForSelectivity(const PaperWorkload& workload, const Query& query,
                           double sel) {
  ParamEnv env = workload.BindingsAt(query, sel);
  env.set_memory_pages(Interval::Point(kMemoryPages));
  return env;
}

/// Statically optimizes `query` under `env` and resolves it.
PhysNodePtr PlanUnder(const PaperWorkload& workload, const Query& query,
                      const ParamEnv& env) {
  Optimizer optimizer(&workload.model(), OptimizerOptions::Static());
  auto plan = optimizer.Optimize(query, env);
  if (!plan.ok()) {
    std::fprintf(stderr, "optimize failed: %s\n",
                 plan.status().ToString().c_str());
    std::abort();
  }
  auto startup = ResolveDynamicPlan(plan->root, workload.model(), env);
  if (!startup.ok()) {
    std::fprintf(stderr, "startup failed: %s\n",
                 startup.status().ToString().c_str());
    std::abort();
  }
  return startup->resolved;
}

/// One timed variant: median seconds over kIterations plus whatever the
/// run function reports about its last iteration.
struct Timed {
  double seconds_median = 0.0;
  int64_t rows = 0;
};

Timed Median(const std::function<int64_t()>& run) {
  Timed timed;
  std::vector<double> seconds;
  seconds.reserve(kIterations);
  for (int i = 0; i < kIterations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    timed.rows = run();
    const auto stop = std::chrono::steady_clock::now();
    seconds.push_back(std::chrono::duration<double>(stop - start).count());
  }
  std::sort(seconds.begin(), seconds.end());
  timed.seconds_median = seconds[seconds.size() / 2];
  return timed;
}

int64_t MustExecute(const PhysNodePtr& plan, const Database& db,
                    const ParamEnv& env) {
  auto rows = ExecutePlan(plan, db, env);
  if (!rows.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 rows.status().ToString().c_str());
    std::abort();
  }
  return static_cast<int64_t>(rows->size());
}

void Run() {
  std::unique_ptr<PaperWorkload> workload =
      MustCreateWorkload(/*populate=*/true);

  const std::vector<int32_t> sizes = {2, 4, 6, 10};  // Q2-Q5 (Q1 joins nothing)
  std::vector<JsonObject> rows;
  auto emit = [&rows](const char* name, int32_t relations,
                      const char* scenario, const char* variant,
                      const Timed& timed, int64_t triggers,
                      double reopt_seconds) {
    rows.push_back(JsonObject()
                       .Str("name", name)
                       .Int("relations", relations)
                       .Str("scenario", scenario)
                       .Str("variant", variant)
                       .Num("seconds_median", timed.seconds_median)
                       .Int("rows", timed.rows)
                       .Int("triggers", triggers)
                       .Num("reopt_seconds", reopt_seconds));
  };

  for (int32_t n : sizes) {
    Query query = workload->ChainQuery(n);
    ParamEnv misleading =
        EnvForSelectivity(*workload, query, kEstimatedSelectivity);
    ParamEnv runtime = EnvForSelectivity(*workload, query, kTrueSelectivity);
    PhysNodePtr misplan = PlanUnder(*workload, query, misleading);
    PhysNodePtr oracle_plan = PlanUnder(*workload, query, runtime);

    char q[16];
    std::snprintf(q, sizeof(q), "Q%d", n);
    char name[64];

    Timed static_t = Median(
        [&] { return MustExecute(misplan, workload->db(), runtime); });
    std::snprintf(name, sizeof(name), "reopt/%s/misestimate/static", q);
    emit(name, n, "misestimate", "static", static_t, 0, 0.0);

    int64_t triggers = 0;
    double reopt_seconds = 0.0;
    Timed reopt_t = Median([&] {
      ExecContext ctx{ExecOptions{}};
      ReoptOptions options;
      options.config.enabled = true;
      options.config.slack = kSlack;
      options.optimizer = OptimizerOptions::Static();
      options.estimate_env = &misleading;
      auto executed =
          ExecuteWithReopt(query, misplan, workload->db(), workload->model(),
                           runtime, ctx, options);
      if (!executed.ok()) {
        std::fprintf(stderr, "reopt execution failed: %s\n",
                     executed.status().ToString().c_str());
        std::abort();
      }
      triggers = executed->triggers_fired;
      reopt_seconds = executed->reopt_seconds;
      return static_cast<int64_t>(executed->rows.size());
    });
    std::snprintf(name, sizeof(name), "reopt/%s/misestimate/reopt", q);
    emit(name, n, "misestimate", "reopt", reopt_t, triggers, reopt_seconds);

    Timed oracle_t = Median(
        [&] { return MustExecute(oracle_plan, workload->db(), runtime); });
    std::snprintf(name, sizeof(name), "reopt/%s/misestimate/oracle", q);
    emit(name, n, "misestimate", "oracle", oracle_t, 0, 0.0);

    // Accurate scenario: the oracle plan with checkpoints armed under
    // exact estimates.  Nothing fires; the delta is the arming overhead.
    int64_t quiet_triggers = 0;
    Timed armed_t = Median([&] {
      ExecContext ctx{ExecOptions{}};
      ReoptOptions options;
      options.config.enabled = true;
      options.config.slack = kSlack;
      options.optimizer = OptimizerOptions::Static();
      options.estimate_env = &runtime;
      auto executed =
          ExecuteWithReopt(query, oracle_plan, workload->db(),
                           workload->model(), runtime, ctx, options);
      if (!executed.ok()) {
        std::fprintf(stderr, "armed execution failed: %s\n",
                     executed.status().ToString().c_str());
        std::abort();
      }
      quiet_triggers += executed->triggers_fired;
      return static_cast<int64_t>(executed->rows.size());
    });
    std::snprintf(name, sizeof(name), "reopt/%s/accurate/off", q);
    emit(name, n, "accurate", "off", oracle_t, 0, 0.0);
    std::snprintf(name, sizeof(name), "reopt/%s/accurate/on", q);
    emit(name, n, "accurate", "on", armed_t, quiet_triggers, 0.0);
  }

  PrintBenchDocument("reopt",
                     JsonObject()
                         .Int("iterations_per_variant", kIterations)
                         .Int("workload_seed", kWorkloadSeed)
                         .Num("memory_pages", kMemoryPages)
                         .Num("slack", kSlack)
                         .Num("estimated_selectivity", kEstimatedSelectivity)
                         .Num("true_selectivity", kTrueSelectivity),
                     rows);
}

}  // namespace
}  // namespace dqep::bench

int main(int argc, char** argv) {
  // Output is always the unified JSON document; `--json` is accepted so
  // every bench binary shares one invocation shape.
  (void)argc;
  (void)argv;
  dqep::bench::Run();
  return 0;
}
