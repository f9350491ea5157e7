// Observability suite (ctest label "obs"): MetricsRegistry semantics and
// 8-thread concurrency, Chrome-trace JSON well-formedness (checked with a
// test-side JSON parser — the trace must load in chrome://tracing, so a
// parse failure here is a real regression), EXPLAIN ANALYZE structure for
// the paper's Q1, and the choose-plan regret arithmetic under bindings
// that deliberately contradict the ones the plan was resolved with.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "obs/analyze.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "physical/costing.h"
#include "runtime/startup.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

using obs::JsonValue;

/// Member `key` of a parsed object, or a null value when absent.
const JsonValue& At(const JsonValue& value, const std::string& key) {
  static const JsonValue kNull;
  const JsonValue* member = value.Find(key);
  return member != nullptr ? *member : kNull;
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistryTest, CountersAggregateAndSurviveRetirement) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  obs::CellHandle a = registry.NewCounter("test.counter");
  a.Add(5);
  {
    obs::CellHandle b = registry.NewCounter("test.counter");
    b.Add(7);
    EXPECT_EQ(registry.Snapshot().at("test.counter").value, 12);
  }
  // b retired: its 7 folds into the metric's retired total.
  EXPECT_EQ(registry.Snapshot().at("test.counter").value, 12);
  a.Add(1);
  EXPECT_EQ(registry.Snapshot().at("test.counter").value, 13);
  EXPECT_EQ(a.value(), 6);  // the per-owner view stays per-owner
}

TEST(MetricsRegistryTest, GaugesDropOnRetirementMaxesPersist) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  obs::CellHandle gauge = registry.NewGauge("test.gauge");
  gauge.Add(10);
  {
    obs::CellHandle other = registry.NewGauge("test.gauge");
    other.Add(32);
    EXPECT_EQ(registry.Snapshot().at("test.gauge").value, 42);
  }
  EXPECT_EQ(registry.Snapshot().at("test.gauge").value, 10);

  {
    obs::CellHandle peak = registry.NewGaugeMax("test.peak");
    peak.RecordMax(99);
    peak.RecordMax(50);
  }
  EXPECT_EQ(registry.Snapshot().at("test.peak").value, 99);
}

TEST(MetricsRegistryTest, HistogramBuckets) {
  EXPECT_EQ(obs::HistogramCell::BucketOf(-3), 0);
  EXPECT_EQ(obs::HistogramCell::BucketOf(0), 0);
  EXPECT_EQ(obs::HistogramCell::BucketOf(1), 1);
  EXPECT_EQ(obs::HistogramCell::BucketOf(2), 2);
  EXPECT_EQ(obs::HistogramCell::BucketOf(3), 2);
  EXPECT_EQ(obs::HistogramCell::BucketOf(4), 3);
  EXPECT_EQ(obs::HistogramCell::BucketOf(1024), 11);

  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  obs::HistogramHandle h = registry.NewHistogram("test.hist_us");
  h.Record(1);
  h.Record(3);
  h.Record(1000);
  obs::MetricValue v = registry.Snapshot().at("test.hist_us");
  EXPECT_EQ(v.count, 3);
  EXPECT_EQ(v.sum, 1004);
}

TEST(MetricsRegistryTest, PercentilesFromLog2Buckets) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  obs::HistogramHandle h = registry.NewHistogram("test.pct_us");
  h.Record(1);     // bucket 1, upper bound 2
  h.Record(3);     // bucket 2, upper bound 4
  h.Record(1000);  // bucket 10, upper bound 1024
  obs::MetricValue v = registry.Snapshot().at("test.pct_us");
  // Percentiles interpolate linearly inside the covering log2 bucket:
  // p50's rank target (1.5 of 3) lands halfway into bucket [2, 4).
  EXPECT_EQ(v.Percentile(0.50), 3);
  EXPECT_EQ(v.Percentile(0.95), 947);
  EXPECT_EQ(v.Percentile(0.99), 1009);

  // Zero-or-negative values land in bucket 0, whose upper bound is 0.
  obs::HistogramHandle zeros = registry.NewHistogram("test.pct_zero");
  zeros.Record(0);
  zeros.Record(-5);
  EXPECT_EQ(registry.Snapshot().at("test.pct_zero").Percentile(0.99), 0);

  // The top bucket pins to 2^62 instead of overflowing 1 << 63.
  obs::HistogramHandle top = registry.NewHistogram("test.pct_top");
  top.Record(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(registry.Snapshot().at("test.pct_top").Percentile(0.5),
            int64_t{1} << 62);

  // Empty histogram: all percentiles are 0.
  obs::MetricValue empty;
  EXPECT_EQ(empty.Percentile(0.5), 0);

  // Both render paths surface the percentile columns.
  EXPECT_NE(registry.RenderText().find("p50="), std::string::npos);
  EXPECT_NE(registry.RenderJson().find("\"p95\""), std::string::npos);
}

TEST(MetricsRegistryTest, PercentileInterpolationTracksExact) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  obs::HistogramHandle h = registry.NewHistogram("test.interp_us");
  // Deterministic pseudo-random sample spanning many buckets.
  std::vector<int64_t> values;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4096; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t value = static_cast<int64_t>((state >> 33) % 100000) + 1;
    values.push_back(value);
    h.Record(value);
  }
  std::sort(values.begin(), values.end());
  obs::MetricValue snap = registry.Snapshot().at("test.interp_us");
  ASSERT_EQ(snap.count, 4096);
  double last = 0.0;
  for (double p : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double interp =
        obs::Log2BucketPercentile(snap.buckets, snap.count, p);
    // Exact nearest-rank percentile from the raw sample.
    size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
    rank = std::min(std::max<size_t>(rank, 1), values.size());
    const double exact = static_cast<double>(values[rank - 1]);
    // The estimate interpolates inside the exact value's covering log2
    // bucket, so it is within a factor of two of the truth — the old
    // bucket-upper-bound rule only guaranteed [exact, 2 * exact].
    EXPECT_GT(interp, exact / 2) << "p=" << p;
    EXPECT_LE(interp, exact * 2) << "p=" << p;
    EXPECT_GE(interp, last) << "p=" << p;  // monotone in p
    last = interp;
  }

  // A uniform fill of one bucket puts the interpolated p50 at the bucket
  // midpoint; the upper-bound rule would report 2048 for every p.
  obs::HistogramHandle uniform = registry.NewHistogram("test.interp_mid");
  for (int64_t value = 1024; value < 2048; ++value) {
    uniform.Record(value);
  }
  obs::MetricValue u = registry.Snapshot().at("test.interp_mid");
  EXPECT_NEAR(obs::Log2BucketPercentile(u.buckets, u.count, 0.5), 1536.0,
              8.0);
}

TEST(MetricsRegistryTest, ResetAllZeroesCountersAndKeepsGauges) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  obs::CellHandle counter = registry.NewCounter("test.reset.counter");
  counter.Add(5);
  {
    obs::CellHandle retired = registry.NewCounter("test.reset.counter");
    retired.Add(7);  // folds into the retired total on scope exit
  }
  obs::CellHandle gauge = registry.NewGauge("test.reset.gauge");
  gauge.Add(11);
  obs::CellHandle peak = registry.NewGaugeMax("test.reset.peak");
  peak.RecordMax(99);
  obs::HistogramHandle hist = registry.NewHistogram("test.reset.hist");
  hist.Record(17);
  hist.Record(4);

  registry.ResetAll();
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.at("test.reset.counter").value, 0);
  // Live gauges mirror current state (open files, pool residency) and
  // must survive a reset.
  EXPECT_EQ(snap.at("test.reset.gauge").value, 11);
  EXPECT_EQ(snap.at("test.reset.peak").value, 0);
  EXPECT_EQ(snap.at("test.reset.hist").count, 0);
  EXPECT_EQ(snap.at("test.reset.hist").sum, 0);

  // Counting resumes cleanly after the reset.
  counter.Add(3);
  hist.Record(8);
  snap = registry.Snapshot();
  EXPECT_EQ(snap.at("test.reset.counter").value, 3);
  EXPECT_EQ(snap.at("test.reset.hist").count, 1);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesFromEightThreads) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Per-thread owned cell plus the process-shared cell plus a
      // histogram: the three update paths the engine uses.
      obs::CellHandle own = registry.NewCounter("test.mt.owned");
      obs::Cell* shared = registry.SharedCounter("test.mt.shared");
      obs::HistogramCell* hist = registry.SharedHistogram("test.mt.hist");
      obs::CellHandle peak = registry.NewGaugeMax("test.mt.peak");
      for (int i = 0; i < kOps; ++i) {
        own.Add(1);
        shared->Add(1);
        hist->Record(i + 1);
        peak.RecordMax(i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("test.mt.owned").value, kThreads * kOps);
  EXPECT_EQ(snapshot.at("test.mt.shared").value, kThreads * kOps);
  EXPECT_EQ(snapshot.at("test.mt.hist").count, kThreads * kOps);
  EXPECT_EQ(snapshot.at("test.mt.peak").value, kOps - 1);
}

TEST(MetricsRegistryTest, RenderJsonIsValidJson) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  registry.NewCounter("test.render.counter").Add(3);
  registry.SharedHistogram("test.render.hist")->Record(17);
  JsonValue root;
  ASSERT_TRUE(obs::ParseJson(registry.RenderJson(), &root));
  ASSERT_TRUE(root.is_object());
  EXPECT_NE(root.Find("test.render.counter"), nullptr);
  EXPECT_NE(root.Find("test.render.hist"), nullptr);
}

// --- Query pipeline fixtures ------------------------------------------------

class ObsQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto workload = PaperWorkload::Create(/*seed=*/42, /*populate=*/true);
    ASSERT_TRUE(workload.ok());
    workload_ = workload->release();
  }

  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  static ParamEnv BindAll(const Query& query, double sel) {
    return workload_->BindingsAt(query, sel);
  }

  static PaperWorkload* workload_;
};

PaperWorkload* ObsQueryTest::workload_ = nullptr;

// The full Q5 lifecycle under tracing must serialize to well-formed
// Chrome-trace JSON carrying optimize / resolve / execute spans and
// exactly one "choose-plan decision" span per decision made.
TEST_F(ObsQueryTest, TraceJsonWellFormedForQ5) {
  obs::TraceSession trace;
  Query query = workload_->ChainQuery(10);
  ParamEnv compile_env = workload_->CompileTimeEnv(false);

  int64_t start = trace.NowMicros();
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
  Result<OptimizedPlan> plan = optimizer.Optimize(query, compile_env);
  ASSERT_TRUE(plan.ok());
  trace.EndSpan("optimize", "query", start);

  ParamEnv bound = BindAll(query, 0.05);
  StartupOptions options;
  options.trace = &trace;
  Result<StartupResult> startup =
      ResolveDynamicPlan(plan->root, workload_->model(), bound, options);
  ASSERT_TRUE(startup.ok());
  ASSERT_GT(startup->decisions, 0);

  start = trace.NowMicros();
  Result<std::vector<Tuple>> rows =
      ExecutePlan(startup->resolved, workload_->db(), bound);
  ASSERT_TRUE(rows.ok());
  trace.EndSpan("execute", "query", start,
                {{"rows", std::to_string(rows->size())}});

  JsonValue root;
  ASSERT_TRUE(obs::ParseJson(trace.ToChromeJson(), &root))
      << trace.ToChromeJson();
  ASSERT_NE(root.Find("traceEvents"), nullptr);
  const JsonValue& events = At(root, "traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.items.empty());

  int64_t optimize_spans = 0, resolve_spans = 0, execute_spans = 0;
  int64_t decision_spans = 0;
  for (const JsonValue& event : events.items) {
    ASSERT_TRUE(event.is_object());
    // Required Chrome-trace fields on every event.
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("ph"), nullptr);
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
    const std::string& ph = At(event, "ph").string_value;
    if (ph == "M") {
      continue;  // thread_name metadata
    }
    ASSERT_EQ(ph, "X");
    ASSERT_NE(event.Find("ts"), nullptr);
    ASSERT_NE(event.Find("dur"), nullptr);
    const std::string& name = At(event, "name").string_value;
    if (name == "optimize") ++optimize_spans;
    if (name == "resolve") ++resolve_spans;
    if (name == "execute") ++execute_spans;
    if (name == "choose-plan decision") {
      ++decision_spans;
      const JsonValue& args = At(event, "args");
      ASSERT_TRUE(args.is_object());
      EXPECT_NE(args.Find("alternatives"), nullptr);
      EXPECT_NE(args.Find("chosen"), nullptr);
      EXPECT_NE(args.Find("alt0_resolved_cost"), nullptr);
      EXPECT_NE(args.Find("alt0_cost_lo"), nullptr);
      EXPECT_NE(args.Find("alt0_cost_hi"), nullptr);
      // The chosen index must address an existing alternative.
      EXPECT_LT(At(args, "chosen").number, At(args, "alternatives").number);
    }
  }
  EXPECT_EQ(optimize_spans, 1);
  EXPECT_EQ(resolve_spans, 1);
  EXPECT_EQ(execute_spans, 1);
  EXPECT_EQ(decision_spans, startup->decisions);
}

TEST_F(ObsQueryTest, ExplainAnalyzeGoldenForQ1) {
  Query query = workload_->ChainQuery(1);
  ParamEnv compile_env = workload_->CompileTimeEnv(false);
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
  Result<OptimizedPlan> plan = optimizer.Optimize(query, compile_env);
  ASSERT_TRUE(plan.ok());

  ParamEnv bound = BindAll(query, 0.1);
  Result<StartupResult> startup =
      ResolveDynamicPlan(plan->root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  ASSERT_GT(startup->decisions, 0);  // Q1's selection is uncertain

  Result<std::unique_ptr<BatchIterator>> iter =
      BuildBatchExecutor(startup->resolved, workload_->db(), bound);
  ASSERT_TRUE(iter.ok());
  size_t row_count = DrainRows(**iter, *startup->resolved).size();

  AnnotatePlan(*startup->resolved, workload_->model(), compile_env,
               EstimationMode::kInterval);
  obs::AnalyzeInput input;
  input.dynamic_root = plan->root.get();
  input.resolved_root = startup->resolved.get();
  input.startup = &*startup;
  input.exec_root = iter->get();

  // Text golden: header plus the operator/decision skeleton (numeric
  // columns vary run to run, the structure must not).
  std::string text = obs::RenderAnalyze(input, obs::AnalyzeFormat::kText);
  EXPECT_EQ(text.compare(0, 8, "operator"), 0) << text;
  EXPECT_NE(text.find("choose-plan: 2 alternatives"), std::string::npos)
      << text;
  EXPECT_NE(text.find("regret"), std::string::npos);
  EXPECT_NE(text.find("startup: 1 decisions"), std::string::npos) << text;
  // The resolved plan's operator sequence must appear in pre-order.
  size_t at = 0;
  std::vector<const char*> expected;
  for (const PhysNode* node = startup->resolved.get();;) {
    expected.push_back(PhysOpKindName(node->kind()));
    if (node->children().empty()) {
      break;
    }
    node = node->child(0).get();  // Q1 resolves to a single chain
  }
  for (const char* op : expected) {
    size_t found = text.find(op, at);
    ASSERT_NE(found, std::string::npos) << op << " missing in\n" << text;
    at = found;
  }

  // JSON structure: parseable, one operator object per resolved node,
  // actual_rows at the root equal to the executed row count, and the
  // in-interval flag consistent with the reported bounds.
  std::string json = obs::RenderAnalyze(input, obs::AnalyzeFormat::kJson);
  JsonValue root;
  ASSERT_TRUE(obs::ParseJson(json, &root)) << json;
  const JsonValue& operators = At(root, "operators");
  ASSERT_TRUE(operators.is_array());
  ASSERT_EQ(operators.items.size(), expected.size());
  const JsonValue& top = operators.items.front();
  EXPECT_EQ(At(top, "op").string_value, expected.front());
  EXPECT_EQ(static_cast<size_t>(At(top, "actual_rows").number), row_count);
  for (const JsonValue& op : operators.items) {
    double lo = At(op, "est_cost_lo").number;
    double hi = At(op, "est_cost_hi").number;
    double actual = At(op, "actual_cost").number;
    EXPECT_LE(lo, hi);
    EXPECT_EQ(At(op, "cost_in_interval").bool_value,
              lo <= actual && actual <= hi);
  }
  const JsonValue& decisions = At(root, "decisions");
  ASSERT_TRUE(decisions.is_array());
  EXPECT_EQ(static_cast<int64_t>(decisions.items.size()),
            startup->decisions);
  EXPECT_EQ(static_cast<int64_t>(At(At(root, "startup"), "decisions").number),
            startup->decisions);
}

// Resolve under near-zero selectivity, execute under high selectivity:
// the decision was made on premises the execution contradicts, and the
// regret report must still be well-defined, with regret equal to the
// chosen alternative's measured cost minus the best not-taken estimate.
TEST_F(ObsQueryTest, ChoosePlanRegretUnderForcedBadBinding) {
  Query query = workload_->ChainQuery(2);
  ParamEnv compile_env = workload_->CompileTimeEnv(false);
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
  Result<OptimizedPlan> plan = optimizer.Optimize(query, compile_env);
  ASSERT_TRUE(plan.ok());

  ParamEnv resolve_env = BindAll(query, 0.001);
  Result<StartupResult> startup =
      ResolveDynamicPlan(plan->root, workload_->model(), resolve_env);
  ASSERT_TRUE(startup.ok());
  ASSERT_GT(startup->decisions, 0);
  ASSERT_FALSE(startup->alternative_costs.empty());

  ParamEnv execute_env = BindAll(query, 0.9);
  Result<std::unique_ptr<BatchIterator>> iter =
      BuildBatchExecutor(startup->resolved, workload_->db(), execute_env);
  ASSERT_TRUE(iter.ok());
  DrainRows(**iter, *startup->resolved);

  AnnotatePlan(*startup->resolved, workload_->model(), compile_env,
               EstimationMode::kInterval);
  obs::AnalyzeInput input;
  input.dynamic_root = plan->root.get();
  input.resolved_root = startup->resolved.get();
  input.startup = &*startup;
  input.exec_root = iter->get();
  std::string json = obs::RenderAnalyze(input, obs::AnalyzeFormat::kJson);
  JsonValue root;
  ASSERT_TRUE(obs::ParseJson(json, &root)) << json;
  const JsonValue& decisions = At(root, "decisions");
  ASSERT_TRUE(decisions.is_array());
  ASSERT_FALSE(decisions.items.empty());
  for (const JsonValue& decision : decisions.items) {
    ASSERT_NE(decision.Find("chosen_est"), nullptr);
    ASSERT_NE(decision.Find("best_other_est"), nullptr);
    ASSERT_NE(decision.Find("chosen_actual"), nullptr);
    ASSERT_NE(decision.Find("regret"), nullptr);
    double actual = At(decision, "chosen_actual").number;
    double best_other = At(decision, "best_other_est").number;
    double regret = At(decision, "regret").number;
    EXPECT_TRUE(std::isfinite(regret));
    EXPECT_NEAR(regret, actual - best_other,
                1e-6 * std::max(1.0, std::fabs(actual - best_other)));
    // Start-up chose the alternative the model priced cheapest under the
    // (bad) resolve bindings.
    EXPECT_LE(At(decision, "chosen_est").number, best_other);
  }
}

// Non-finite span args (infinite cost bounds, NaN ratios) must serialize
// as JSON null, never as bare "inf"/"nan" tokens that break the parser.
TEST(TraceSessionTest, NonFiniteArgsSerializeAsNull) {
  obs::TraceSession trace;
  {
    obs::SpanScope span(&trace, "edge-args", "test");
    span.AddArg("finite", 0.5);
    span.AddArg("pos_inf", std::numeric_limits<double>::infinity());
    span.AddArg("neg_inf", -std::numeric_limits<double>::infinity());
    span.AddArg("nan", std::numeric_limits<double>::quiet_NaN());
  }
  std::string json = trace.ToChromeJson();
  JsonValue root;
  ASSERT_TRUE(obs::ParseJson(json, &root)) << json;
  const JsonValue& events = At(root, "traceEvents");
  ASSERT_TRUE(events.is_array());
  bool found = false;
  for (const JsonValue& event : events.items) {
    if (At(event, "name").string_value != "edge-args") {
      continue;
    }
    found = true;
    const JsonValue& args = At(event, "args");
    EXPECT_TRUE(At(args, "finite").is_number());
    EXPECT_TRUE(At(args, "pos_inf").is_null());
    EXPECT_TRUE(At(args, "neg_inf").is_null());
    EXPECT_TRUE(At(args, "nan").is_null());
  }
  EXPECT_TRUE(found);
}

// The full Q5 lifecycle at --threads 4: resolution decision spans plus
// exchange worker spans from four concurrent tracks must still serialize
// to well-formed Chrome JSON (this is the TSan-exercised path).
TEST_F(ObsQueryTest, TraceJsonWellFormedAtFourThreads) {
  obs::TraceSession trace;
  Query query = workload_->ChainQuery(10);
  ParamEnv compile_env = workload_->CompileTimeEnv(false);
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
  Result<OptimizedPlan> plan = optimizer.Optimize(query, compile_env);
  ASSERT_TRUE(plan.ok());

  ParamEnv bound = BindAll(query, 0.05);
  StartupOptions startup_options;
  startup_options.trace = &trace;
  Result<StartupResult> startup = ResolveDynamicPlan(
      plan->root, workload_->model(), bound, startup_options);
  ASSERT_TRUE(startup.ok());
  ASSERT_GT(startup->decisions, 0);

  ExecOptions exec_options;
  exec_options.threads = 4;
  std::unique_ptr<ExecContext> ctx =
      MakeExecContext(bound, workload_->model().config(), exec_options);
  ctx->set_trace(&trace);
  int64_t start = trace.NowMicros();
  Result<std::vector<Tuple>> rows =
      ExecutePlan(startup->resolved, workload_->db(), bound, *ctx);
  ASSERT_TRUE(rows.ok());
  trace.EndSpan("execute", "query", start,
                {{"rows", std::to_string(rows->size())}});

  JsonValue root;
  ASSERT_TRUE(obs::ParseJson(trace.ToChromeJson(), &root));
  const JsonValue& events = At(root, "traceEvents");
  ASSERT_TRUE(events.is_array());
  int64_t decision_spans = 0;
  for (const JsonValue& event : events.items) {
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("ph"), nullptr);
    if (At(event, "name").string_value == "choose-plan decision") {
      ++decision_spans;
    }
  }
  EXPECT_EQ(decision_spans, startup->decisions);
}

// EXPLAIN ANALYZE parity: the serial engine and the 4-thread exchange
// engine must report the same operator skeleton and the same root row
// count for the same resolved plan (exchange wrappers are transparent to
// the analyze walk).
TEST_F(ObsQueryTest, ExplainAnalyzeParitySerialVsFourThreads) {
  Query query = workload_->ChainQuery(4);
  ParamEnv compile_env = workload_->CompileTimeEnv(false);
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
  Result<OptimizedPlan> plan = optimizer.Optimize(query, compile_env);
  ASSERT_TRUE(plan.ok());
  ParamEnv bound = BindAll(query, 0.3);
  Result<StartupResult> startup =
      ResolveDynamicPlan(plan->root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  AnnotatePlan(*startup->resolved, workload_->model(), compile_env,
               EstimationMode::kInterval);

  auto analyze_json = [&](const ExecNode* exec_root, JsonValue* out) {
    obs::AnalyzeInput input;
    input.dynamic_root = plan->root.get();
    input.resolved_root = startup->resolved.get();
    input.startup = &*startup;
    input.exec_root = exec_root;
    std::string json = obs::RenderAnalyze(input, obs::AnalyzeFormat::kJson);
    return obs::ParseJson(json, out);
  };

  // Serial engine.
  Result<std::unique_ptr<BatchIterator>> serial =
      BuildBatchExecutor(startup->resolved, workload_->db(), bound);
  ASSERT_TRUE(serial.ok());
  size_t serial_rows = DrainRows(**serial, *startup->resolved).size();
  JsonValue serial_doc;
  ASSERT_TRUE(analyze_json(serial->get(), &serial_doc));

  // 4-thread exchange engine over the same resolved plan.
  ExecOptions exec_options;
  exec_options.threads = 4;
  Result<std::unique_ptr<BatchIterator>> parallel = BuildParallelBatchExecutor(
      startup->resolved, workload_->db(), bound, exec_options);
  ASSERT_TRUE(parallel.ok());
  (*parallel)->Open();
  TupleBatch batch;
  size_t parallel_rows = 0;
  while ((*parallel)->Next(&batch)) {
    parallel_rows += batch.num_rows();
  }
  (*parallel)->Close();  // aggregates per-worker counters into the profile
  JsonValue parallel_doc;
  ASSERT_TRUE(analyze_json(parallel->get(), &parallel_doc));

  EXPECT_EQ(serial_rows, parallel_rows);
  const JsonValue& serial_ops = At(serial_doc, "operators");
  const JsonValue& parallel_ops = At(parallel_doc, "operators");
  ASSERT_TRUE(serial_ops.is_array());
  ASSERT_TRUE(parallel_ops.is_array());
  ASSERT_EQ(serial_ops.items.size(), parallel_ops.items.size());
  for (size_t i = 0; i < serial_ops.items.size(); ++i) {
    EXPECT_EQ(At(serial_ops.items[i], "op").string_value,
              At(parallel_ops.items[i], "op").string_value)
        << "operator skeleton diverged at index " << i;
    EXPECT_EQ(At(serial_ops.items[i], "depth").number,
              At(parallel_ops.items[i], "depth").number);
  }
  EXPECT_EQ(
      static_cast<size_t>(At(serial_ops.items.front(), "actual_rows").number),
      serial_rows);
  EXPECT_EQ(
      static_cast<size_t>(At(parallel_ops.items.front(), "actual_rows").number),
      parallel_rows);
  EXPECT_EQ(At(serial_doc, "decisions").items.size(),
            At(parallel_doc, "decisions").items.size());
}

}  // namespace
}  // namespace dqep
