// Mid-query re-optimization (runtime/reopt.h, exec/reopt_control.h,
// server \reopt): checkpoint triggering under forced misestimates,
// result parity with plain execution across modes/threads/queries,
// spilled captures under a memory budget, the ClonePlan non-mutation
// contract against the shared plan cache, EXPLAIN ANALYZE / query-log
// surfacing, the adaptive cost throttle, and a server session driving
// \reopt over the wire.
//
// The misestimate recipe: optimize and annotate under an environment
// whose selection parameters are bound for selectivity 0.02, then
// execute under bindings whose true selectivity is 0.9.  Every breaker's
// actual cardinality lands far above the estimate interval, so the
// first checkpoint fires deterministically.  Binding the *same* env on
// both sides makes estimates exact and proves quiescence.

#include "runtime/reopt.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec_context.h"
#include "exec/executor.h"
#include "obs/analyze.h"
#include "obs/querylog.h"
#include "optimizer/optimizer.h"
#include "physical/costing.h"
#include "runtime/plan_cache.h"
#include "runtime/plan_rewrite.h"
#include "runtime/query_pipeline.h"
#include "runtime/startup.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/server.h"
#include "tests/reference_eval.h"
#include "tests/server_fixture.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

class ReoptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = PaperWorkload::Create(/*seed=*/42, /*populate=*/true);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  /// Env binding every selection parameter of `query` to the value whose
  /// true selectivity is `sel`, with a point memory grant.
  ParamEnv EnvForSelectivity(const Query& query, double sel,
                             double memory_pages) const {
    ParamEnv env = workload_->BindingsAt(query, sel);
    env.set_memory_pages(Interval::Point(memory_pages));
    return env;
  }

  /// Optimizes `query` statically under `env` and resolves it (a static
  /// plan passes through resolution unchanged).
  PhysNodePtr PlanUnder(const Query& query, const ParamEnv& env) const {
    Optimizer optimizer(&workload_->model(), OptimizerOptions::Static());
    auto plan = optimizer.Optimize(query, env);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto startup = ResolveDynamicPlan(plan->root, workload_->model(), env);
    EXPECT_TRUE(startup.ok()) << startup.status().ToString();
    return startup->resolved;
  }

  /// Armed re-optimization (slack 2, static suffix search) whose
  /// checkpoint intervals come from `estimates`.
  static ReoptOptions ArmedOptions(const ParamEnv* estimates) {
    ReoptOptions options;
    options.config.enabled = true;
    options.config.slack = 2.0;
    options.optimizer = OptimizerOptions::Static();
    options.estimate_env = estimates;
    return options;
  }

  /// Planning through `cache` under the fixture's memory grant.
  CachedPlanRequest CacheRequest(DynamicPlanCache* cache) const {
    CachedPlanRequest request;
    request.catalog = &workload_->catalog();
    request.model = &workload_->model();
    request.cache = cache;
    request.memory_pages = kMemoryPages;
    return request;
  }

  std::unique_ptr<PaperWorkload> workload_;
  static constexpr double kMemoryPages = 64.0;
};

// ---------------------------------------------------------------------------
// Triggering

TEST_F(ReoptTest, MisestimateFiresCheckpointAndAdoptsMaterializedLeaf) {
  Query query = workload_->ChainQuery(4);
  ParamEnv misleading = EnvForSelectivity(query, 0.02, kMemoryPages);
  ParamEnv runtime = EnvForSelectivity(query, 0.9, kMemoryPages);
  PhysNodePtr resolved = PlanUnder(query, misleading);

  auto baseline = ExecutePlan(resolved, workload_->db(), runtime);
  ASSERT_TRUE(baseline.ok());

  ExecContext ctx((ExecOptions()));
  ReoptOptions options = ArmedOptions(&misleading);
  auto executed = ExecuteWithReopt(query, resolved, workload_->db(),
                                   workload_->model(), runtime, ctx, options);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();

  EXPECT_GE(executed->checkpoints_evaluated, 1);
  EXPECT_GE(executed->triggers_fired, 1);
  EXPECT_GT(executed->reopt_seconds, 0.0);
  ASSERT_NE(executed->final_plan, nullptr);
  // The finished intermediate became a synthetic leaf of the final plan.
  EXPECT_NE(executed->final_plan->ToString().find("Materialized-Scan"),
            std::string::npos);
  // The decision half of a triggered checkpoint is filled in.
  bool saw_trigger = false;
  for (const ReoptCheckpoint& cp : executed->checkpoints) {
    if (cp.triggered) {
      saw_trigger = true;
      EXPECT_GT(cp.pre_cost, 0.0);
      EXPECT_GT(cp.post_cost, 0.0);
      EXPECT_GT(cp.actual_rows, 0);
      EXPECT_GT(static_cast<double>(cp.actual_rows),
                cp.est_hi * options.config.slack);
    }
  }
  EXPECT_TRUE(saw_trigger);
  // Restart-safety: identical rows to the plain execution.
  EXPECT_EQ(Canonicalize(executed->rows), Canonicalize(*baseline));
}

TEST_F(ReoptTest, AccurateEstimatesStayQuiet) {
  Query query = workload_->ChainQuery(4);
  ParamEnv env = EnvForSelectivity(query, 0.5, kMemoryPages);
  PhysNodePtr resolved = PlanUnder(query, env);

  auto baseline = ExecutePlan(resolved, workload_->db(), env);
  ASSERT_TRUE(baseline.ok());

  ExecContext ctx((ExecOptions()));
  ReoptOptions options = ArmedOptions(&env);  // estimates are exact
  auto executed = ExecuteWithReopt(query, resolved, workload_->db(),
                                   workload_->model(), env, ctx, options);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_GE(executed->checkpoints_evaluated, 1);  // breakers still report
  EXPECT_EQ(executed->triggers_fired, 0);
  EXPECT_EQ(Canonicalize(executed->rows), Canonicalize(*baseline));
}

TEST_F(ReoptTest, DisabledIsPlainExecution) {
  Query query = workload_->ChainQuery(2);
  ParamEnv misleading = EnvForSelectivity(query, 0.02, kMemoryPages);
  ParamEnv runtime = EnvForSelectivity(query, 0.9, kMemoryPages);
  PhysNodePtr resolved = PlanUnder(query, misleading);
  auto baseline = ExecutePlan(resolved, workload_->db(), runtime);
  ASSERT_TRUE(baseline.ok());

  ExecContext ctx((ExecOptions()));
  ReoptOptions options;
  options.config.enabled = false;
  options.estimate_env = &misleading;
  auto executed = ExecuteWithReopt(query, resolved, workload_->db(),
                                   workload_->model(), runtime, ctx, options);
  ASSERT_TRUE(executed.ok());
  EXPECT_EQ(executed->checkpoints_evaluated, 0);
  EXPECT_EQ(executed->triggers_fired, 0);
  EXPECT_EQ(Canonicalize(executed->rows), Canonicalize(*baseline));
}

// ---------------------------------------------------------------------------
// The query pipeline re-optimizes a cached template

// A host variable placed after lifted literals: the template's ParamIds
// (literals first, dense) differ from a plain parse's (:v would be 0).
// An adopted suffix is correct only when re-optimization works on the
// Query the plan was compiled from, under the template's bound env —
// the pipeline hands ExecuteWithReopt CachedPlanResult::query, never a
// second parse.  The misestimate recipe through the pipeline: the text's
// literals (selectivity ~0.02) are what start-up resolves and annotates
// against; execution then runs under true selectivities near 1.  A
// miss, then a cache hit with new literals, at threads {1, 4}.
TEST_F(ReoptTest, PipelineReoptimizesCachedTemplateUnderItsOwnParamIds) {
  const CostModel& model = workload_->model();
  const Query chain = workload_->ChainQuery(4);
  auto literal = [&](int32_t term, double sel) {
    return model.ValueForSelectivity(chain.term(term).predicates[0], sel)
        .AsInt64();
  };
  DynamicPlanCache cache(8);
  std::map<std::string, int64_t> bindings;
  CachedPlanRequest request = CacheRequest(&cache);
  request.host_bindings = &bindings;
  for (double sel : {0.02, 0.03}) {
    const std::string sql =
        "SELECT * FROM R1, R2, R3, R4 WHERE R1.b = R2.a AND R2.b = R3.a "
        "AND R3.b = R4.a AND R1.s < " + std::to_string(literal(0, sel)) +
        " AND R2.s < " + std::to_string(literal(1, sel)) +
        " AND R3.s < " + std::to_string(literal(2, sel)) + " AND R4.s < :v";
    bindings["v"] = literal(3, sel);
    for (int32_t threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(sel) + " threads " +
                   std::to_string(threads));
      auto prepared = PrepareQuery(sql, request, workload_->db());
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      EXPECT_STREQ(prepared->cache_status(),
                   sel == 0.02 && threads == 1 ? "miss" : "hit");
      const Query& query = *prepared->planned.query;
      // Lifted literals come first, so a plain parse would number :v 0.
      ASSERT_EQ(prepared->planned.host_params.size(), 1u);
      const ParamId v_id = prepared->planned.host_params[0].second;
      ASSERT_EQ(v_id, 3);

      // Execute under true bindings: literals at selectivity 0.9, :v at
      // 0.6 (distinct from every literal).
      const ParamEnv misleading = prepared->planned.bound;
      ParamEnv& runtime = prepared->planned.bound;
      for (const RelationTerm& term : query.terms()) {
        const SelectionPredicate& pred = term.predicates[0];
        runtime.Bind(pred.operand.param(),
                     model.ValueForSelectivity(
                         pred, pred.operand.param() == v_id ? 0.6 : 0.9));
      }
      const std::vector<Tuple> expected =
          Canonicalize(ReferenceEval(query, workload_->db(), runtime));
      ASSERT_FALSE(expected.empty());

      ReoptOptions options = ArmedOptions(&misleading);
      ExecOptions exec_options;
      exec_options.threads = threads;
      ExecContext ctx(exec_options);
      auto run = ExecuteQuery(std::move(*prepared), ctx, &options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_GT(run->triggers_fired, 0);
      EXPECT_TRUE(std::any_of(
          run->checkpoints.begin(), run->checkpoints.end(),
          [](const ReoptCheckpoint& cp) { return cp.adopted; }));
      EXPECT_EQ(Canonicalize(ToReferenceOrder(
                    run->rows, run->exec_tree->layout(),
                    *run->prepared.planned.query, workload_->db())),
                expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Parity: the paper's Q1-Q5 across thread counts

TEST_F(ReoptTest, ParityAcrossQueriesAndThreads) {
  for (int32_t n : PaperWorkload::PaperQuerySizes()) {
    Query query = workload_->ChainQuery(n);
    ParamEnv misleading = EnvForSelectivity(query, 0.02, kMemoryPages);
    ParamEnv runtime = EnvForSelectivity(query, 0.9, kMemoryPages);
    PhysNodePtr resolved = PlanUnder(query, misleading);
    auto baseline = ExecutePlan(resolved, workload_->db(), runtime);
    ASSERT_TRUE(baseline.ok());
    std::vector<Tuple> expected = Canonicalize(*baseline);

    for (int32_t threads : {1, 4}) {
      ExecOptions exec_options;
      exec_options.threads = threads;
      ExecContext ctx(exec_options);
      ReoptOptions options = ArmedOptions(&misleading);
      auto executed =
          ExecuteWithReopt(query, resolved, workload_->db(),
                           workload_->model(), runtime, ctx, options);
      ASSERT_TRUE(executed.ok())
          << "n=" << n << " threads=" << threads << ": "
          << executed.status().ToString();
      if (n > 1) {
        EXPECT_GE(executed->triggers_fired, 1)
            << "n=" << n << " threads=" << threads;
      }
      EXPECT_EQ(Canonicalize(executed->rows), expected)
          << "n=" << n << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Spilled capture under a memory budget

TEST_F(ReoptTest, SpilledCaptureUnderMemoryBudgetKeepsParity) {
  Query query = workload_->ChainQuery(6);
  const double pages = 16.0;  // tight: forces hash joins to partition
  ParamEnv misleading = EnvForSelectivity(query, 0.02, pages);
  ParamEnv runtime = EnvForSelectivity(query, 0.9, pages);
  PhysNodePtr resolved = PlanUnder(query, misleading);
  auto baseline = ExecutePlan(resolved, workload_->db(), runtime);
  ASSERT_TRUE(baseline.ok());

  std::unique_ptr<ExecContext> ctx =
      MakeExecContext(runtime, workload_->config(), ExecOptions());
  ASSERT_TRUE(ctx->bounded());
  ReoptOptions options = ArmedOptions(&misleading);
  auto executed = ExecuteWithReopt(query, resolved, workload_->db(),
                                   workload_->model(), runtime, *ctx, options);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_GE(executed->triggers_fired, 1);
  EXPECT_EQ(Canonicalize(executed->rows), Canonicalize(*baseline));
}

// ---------------------------------------------------------------------------
// ClonePlan contract: a cached plan is never mutated by re-optimization

TEST_F(ReoptTest, SharedCachedPlanIsNeverMutated) {
  DynamicPlanCache cache(8);
  CachedPlanRequest request = CacheRequest(&cache);
  const std::string sql =
      "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < 900 AND R2.s < 900";
  auto prepared = PrepareQuery(sql, request, workload_->db());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_FALSE(prepared->planned.cache_hit);
  const PhysNodePtr cached = prepared->planned.root;
  const std::string cached_before = cached->ToString();

  // Misleading estimates bind the template's parameters for tiny
  // selectivities; the runtime literals (900) select almost everything.
  ParamEnv misleading =
      EnvForSelectivity(*prepared->planned.query, 0.02, kMemoryPages);
  ExecContext ctx((ExecOptions()));
  ReoptOptions options = ArmedOptions(&misleading);
  auto executed = ExecuteQuery(std::move(*prepared), ctx, &options);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_GE(executed->triggers_fired, 1);

  // The cached DAG is byte-identical, and a second planning round trip
  // still hits and yields the same template.
  EXPECT_EQ(cached->ToString(), cached_before);
  auto replanned = PlanQueryWithCache(sql, request);
  ASSERT_TRUE(replanned.ok());
  EXPECT_TRUE(replanned->cache_hit);
  EXPECT_EQ(replanned->root->ToString(), cached_before);
}

// ---------------------------------------------------------------------------
// Observability: EXPLAIN ANALYZE and the query log carry the checkpoints

TEST_F(ReoptTest, AnalyzeAndQueryLogSurfaceCheckpoints) {
  Query query = workload_->ChainQuery(2);
  ParamEnv misleading = EnvForSelectivity(query, 0.02, kMemoryPages);
  ParamEnv runtime = EnvForSelectivity(query, 0.9, kMemoryPages);
  PhysNodePtr resolved = PlanUnder(query, misleading);

  ExecContext ctx((ExecOptions()));
  ReoptOptions options;
  options.config.enabled = true;
  options.config.slack = 2.0;
  options.optimizer = OptimizerOptions::Static();
  options.estimate_env = &misleading;
  auto executed = ExecuteWithReopt(query, resolved, workload_->db(),
                                   workload_->model(), runtime, ctx, options);
  ASSERT_TRUE(executed.ok());
  ASSERT_GE(executed->triggers_fired, 1);

  obs::AnalyzeInput input;
  input.resolved_root = executed->final_plan.get();
  input.exec_root = executed->exec_root();
  input.reopt = &executed->checkpoints;
  const std::string text =
      obs::RenderAnalyze(input, obs::AnalyzeFormat::kText);
  EXPECT_NE(text.find("reopt checkpoint"), std::string::npos) << text;
  EXPECT_NE(text.find("triggered"), std::string::npos) << text;
  const std::string json =
      obs::RenderAnalyze(input, obs::AnalyzeFormat::kJson);
  EXPECT_NE(json.find("\"reopt_checkpoints\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"triggered\": true"), std::string::npos) << json;

  // Query-log record: the flat reopt_* fields (schema v2) round-trip.
  obs::QueryRecord record = obs::BuildQueryRecord(
      input, obs::CollectAnalyzeRows(input), &workload_->model(), runtime);
  EXPECT_EQ(record.reopt_checkpoints, executed->checkpoints_evaluated);
  EXPECT_EQ(record.reopt_triggers, executed->triggers_fired);
  EXPECT_GT(record.reopt_seconds, 0.0);
  EXPECT_GT(record.reopt_cost_pre, 0.0);
  const std::string line = obs::RenderQueryRecordJson(record);
  EXPECT_NE(line.find("\"v\": 3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"reopt_triggers\""), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// Adaptive cost throttle

TEST(AdaptiveThrottleTest, RateTracksMeasuredThroughputUnderLoadShift) {
  using Clock = std::chrono::steady_clock;
  const double rate = 1.0;
  server::CostThrottle throttle(rate, /*burst_seconds=*/4.0,
                                /*adaptive=*/true);
  ASSERT_TRUE(throttle.adaptive());
  EXPECT_DOUBLE_EQ(throttle.effective_rate(), rate);  // no samples yet

  // Phase 1 — healthy: ~2.0s of work completing every second.  The
  // window throughput saturates the configured rate, which stays the
  // ceiling: effective rate == rate, never above.
  Clock::time_point t = Clock::now();
  for (int i = 0; i < 20; ++i) {
    t += std::chrono::milliseconds(500);
    throttle.RecordCompletionAt(1.0, t);
  }
  EXPECT_DOUBLE_EQ(throttle.effective_rate(), rate);

  // Phase 2 — overload: completions slow to a trickle (0.05s of work per
  // second).  The EWMA follows the window down and the effective rate
  // falls well below the configured ceiling.
  for (int i = 0; i < 40; ++i) {
    t += std::chrono::seconds(1);
    throttle.RecordCompletionAt(0.05, t);
  }
  const double overloaded = throttle.effective_rate();
  EXPECT_LT(overloaded, 0.5 * rate);
  EXPECT_GE(overloaded, 0.1 * rate);  // the floor holds

  // Phase 3 — recovery: fast completions pull the rate back up.
  for (int i = 0; i < 40; ++i) {
    t += std::chrono::milliseconds(250);
    throttle.RecordCompletionAt(1.0, t);
  }
  EXPECT_GT(throttle.effective_rate(), overloaded);
  EXPECT_LE(throttle.effective_rate(), rate);
}

TEST(AdaptiveThrottleTest, NonAdaptiveThrottleIgnoresCompletions) {
  server::CostThrottle throttle(1.0, 4.0, /*adaptive=*/false);
  auto t = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    t += std::chrono::seconds(1);
    throttle.RecordCompletionAt(0.01, t);
  }
  EXPECT_DOUBLE_EQ(throttle.effective_rate(), 1.0);
}

// ---------------------------------------------------------------------------
// Server session: \reopt over the wire

using server::RoundTrip;

TEST(ReoptServerTest, SessionTogglesReoptAndKeepsParity) {
  server::ServerOptions options;
  options.sessions = 1;
  server::ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());
  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);

  // Defaults off; bare \reopt reports the state.
  server::QueryResponse state = RoundTrip(conn.get(), "\\reopt");
  ASSERT_TRUE(state.ok) << state.error;
  ASSERT_EQ(state.rows.size(), 1u);
  EXPECT_NE(state.rows[0].find("reopt: off"), std::string::npos);

  const std::string sql =
      "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < 900 AND R2.s < 900";
  server::QueryResponse plain = RoundTrip(conn.get(), sql);
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_GT(plain.row_count, 0);

  server::QueryResponse toggle = RoundTrip(conn.get(), "\\reopt on 1.5");
  ASSERT_TRUE(toggle.ok) << toggle.error;
  ASSERT_EQ(toggle.rows.size(), 1u);
  EXPECT_NE(toggle.rows[0].find("reopt: on"), std::string::npos);

  server::QueryResponse reopted = RoundTrip(conn.get(), sql);
  ASSERT_TRUE(reopted.ok) << reopted.error;
  std::vector<std::string> lhs = plain.rows;
  std::vector<std::string> rhs = reopted.rows;
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  EXPECT_EQ(lhs, rhs);

  server::QueryResponse bad = RoundTrip(conn.get(), "\\reopt maybe");
  EXPECT_FALSE(bad.ok);
}

TEST(ReoptServerTest, ServerWideDefaultAppliesToNewSessions) {
  server::ServerOptions options;
  options.sessions = 1;
  options.reopt = true;
  options.reopt_slack = 3.0;
  server::ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());
  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);
  server::QueryResponse state = RoundTrip(conn.get(), "\\reopt");
  ASSERT_TRUE(state.ok) << state.error;
  ASSERT_EQ(state.rows.size(), 1u);
  EXPECT_NE(state.rows[0].find("reopt: on (slack 3.00)"), std::string::npos);

  server::QueryResponse result = RoundTrip(
      conn.get(),
      "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < 800 AND R2.s < 800");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.row_count, 0);
  EXPECT_EQ(static_cast<size_t>(result.row_count), result.rows.size());
}

}  // namespace
}  // namespace dqep
