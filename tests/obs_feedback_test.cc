// Feedback-loop suite (ctest label "feedback"): the ISSUE 5 acceptance
// path end to end, in-process.  Q1..Q5 are executed on the paper's
// bindings, logged through obs/querylog.*, calibrated through
// obs/calibrate.*, and the fitted profile is then applied to a fresh
// CostModel to check the two promises the calibration doc makes:
//
//   1. root-level estimation error (mean |log10(est/actual)|) drops by
//      at least 10x, and
//   2. every logged choose-plan decision resolves to the same chosen
//      alternative under the recalibrated model.
//
// Plus the persistence contract: JSONL records round-trip through a file
// (torn tail lines skipped, not fatal) and calibration.json round-trips
// through LoadCostProfile.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "obs/analyze.h"
#include "obs/calibrate.h"
#include "obs/querylog.h"
#include "optimizer/optimizer.h"
#include "physical/costing.h"
#include "runtime/startup.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class FeedbackTest : public ::testing::Test {
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

  /// The paper's run-time situation with every selectivity at 0.4.
  static ParamEnv BindAll(const Query& query, double sel) {
    ParamEnv bound = workload_->CompileTimeEnv(/*uncertain_memory=*/false);
    for (const RelationTerm& term : query.terms()) {
      for (const SelectionPredicate& pred : term.predicates) {
        bound.Bind(pred.operand.param(),
                   workload_->model().ValueForSelectivity(pred, sel));
      }
    }
    return bound;
  }

  static PaperWorkload* workload_;
};

PaperWorkload* FeedbackTest::workload_ = nullptr;

/// Everything the re-resolution check needs to keep alive per query.
struct LoggedQuery {
  Query query;
  OptimizedPlan plan;
  ParamEnv bound;
  StartupResult startup;
};

// The headline acceptance test: log Q1..Q5, calibrate, re-resolve.
TEST_F(FeedbackTest, CalibrationReducesRootErrorAndPreservesDecisions) {
  ParamEnv compile_env = workload_->CompileTimeEnv(false);
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());

  std::vector<LoggedQuery> logged;
  std::vector<obs::QueryLogRecord> records;
  int64_t total_decisions = 0;

  for (int32_t n : PaperWorkload::PaperQuerySizes()) {
    LoggedQuery entry;
    entry.query = workload_->ChainQuery(n);
    Result<OptimizedPlan> plan = optimizer.Optimize(entry.query, compile_env);
    ASSERT_TRUE(plan.ok()) << "Q with " << n << " relations";
    entry.plan = std::move(*plan);

    entry.bound = BindAll(entry.query, 0.4);
    Result<StartupResult> startup = ResolveDynamicPlan(
        entry.plan.root, workload_->model(), entry.bound);
    ASSERT_TRUE(startup.ok());
    entry.startup = std::move(*startup);
    total_decisions += entry.startup.decisions;

    Result<std::unique_ptr<BatchIterator>> iter = BuildBatchExecutor(
        entry.startup.resolved, workload_->db(), entry.bound);
    ASSERT_TRUE(iter.ok());
    DrainRows(**iter, *entry.startup.resolved);

    AnnotatePlan(*entry.startup.resolved, workload_->model(), compile_env,
                 EstimationMode::kInterval);
    obs::AnalyzeInput input;
    input.dynamic_root = entry.plan.root.get();
    input.resolved_root = entry.startup.resolved.get();
    input.startup = &entry.startup;
    input.exec_root = iter->get();

    obs::QueryLogRecord record = obs::BuildQueryLogRecord(
        "chain(" + std::to_string(n) + ")", input, workload_->model(),
        entry.bound);
    // decision_count carries the start-up total (every choose node in the
    // DAG, nested alternatives included); the decisions array holds only
    // the ones on the chosen path, which is all the analyze walk visits.
    EXPECT_EQ(record.decision_count, entry.startup.decisions);
    EXPECT_GT(record.decisions.size(), 0u);
    EXPECT_LE(static_cast<int64_t>(record.decisions.size()),
              entry.startup.decisions);
    EXPECT_GT(record.actual_seconds, 0.0);
    EXPECT_FALSE(record.operators.empty());
    records.push_back(std::move(record));
    logged.push_back(std::move(entry));
  }

  // The paper's five chain queries make 90 choose-plan decisions total.
  EXPECT_EQ(total_decisions, 90);

  Result<obs::CalibrationReport> report =
      obs::Calibrate(records, workload_->config());
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->records, 5);
  EXPECT_EQ(report->root_pairs, 5);
  EXPECT_GT(report->decision_count, 0);
  EXPECT_LE(report->decision_count, total_decisions);
  EXPECT_GT(report->global_scale, 0.0);

  // Promise 1: >= 10x reduction of the root-level error.
  EXPECT_GT(report->root_error_before, 0.0);
  EXPECT_LE(report->root_error_after * 10.0, report->root_error_before)
      << "before=" << report->root_error_before
      << " after=" << report->root_error_after;

  // Promise 2: the profile leaves every logged decision's chosen
  // alternative unchanged when the plans are re-resolved under it.
  SystemConfig recal_config = workload_->config();
  report->profile.ApplyTo(&recal_config);
  CostModel recal_model(&workload_->catalog(), recal_config);
  int64_t compared = 0;
  for (const LoggedQuery& entry : logged) {
    Result<StartupResult> again =
        ResolveDynamicPlan(entry.plan.root, recal_model, entry.bound);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->decisions, entry.startup.decisions);
    for (const auto& [node, index] : entry.startup.choices) {
      auto it = again->choices.find(node);
      ASSERT_NE(it, again->choices.end());
      EXPECT_EQ(it->second, index)
          << "decision flipped under the calibrated profile";
      ++compared;
    }
    // A uniform/trust-region rescale preserves each decision's margin
    // direction, so the resolved plan's predicted cost just rescales.
    EXPECT_GT(again->execution_cost, 0.0);
  }
  EXPECT_EQ(compared, total_decisions);
}

// Scale-only mode must never claim a per-unit fit and must emit equal
// multipliers for every unit constant.
TEST_F(FeedbackTest, ScaleOnlyCalibrationUsesUniformMultipliers) {
  ParamEnv compile_env = workload_->CompileTimeEnv(false);
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
  Query query = workload_->ChainQuery(2);
  Result<OptimizedPlan> plan = optimizer.Optimize(query, compile_env);
  ASSERT_TRUE(plan.ok());
  ParamEnv bound = BindAll(query, 0.4);
  Result<StartupResult> startup =
      ResolveDynamicPlan(plan->root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  Result<std::unique_ptr<BatchIterator>> iter =
      BuildBatchExecutor(startup->resolved, workload_->db(), bound);
  ASSERT_TRUE(iter.ok());
  DrainRows(**iter, *startup->resolved);
  AnnotatePlan(*startup->resolved, workload_->model(), compile_env,
               EstimationMode::kInterval);
  obs::AnalyzeInput input;
  input.dynamic_root = plan->root.get();
  input.resolved_root = startup->resolved.get();
  input.startup = &*startup;
  input.exec_root = iter->get();
  std::vector<obs::QueryLogRecord> records = {
      obs::BuildQueryLogRecord("chain(2)", input, workload_->model(), bound)};

  obs::CalibrationOptions options;
  options.allow_per_unit = false;
  Result<obs::CalibrationReport> report =
      obs::Calibrate(records, workload_->config(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->per_unit_fit_used);
  const CostProfile& p = report->profile;
  EXPECT_DOUBLE_EQ(p.seq_page_io, report->global_scale);
  EXPECT_DOUBLE_EQ(p.random_page_io, report->global_scale);
  EXPECT_DOUBLE_EQ(p.cpu_tuple, report->global_scale);
  EXPECT_DOUBLE_EQ(p.cpu_compare, report->global_scale);
  EXPECT_DOUBLE_EQ(p.cpu_hash, report->global_scale);
  EXPECT_DOUBLE_EQ(p.startup, report->global_scale);
}

// JSONL persistence: records survive a file round trip bit-for-meaning,
// and a torn tail line (crash mid-append) is skipped, not fatal.
TEST_F(FeedbackTest, QueryLogJsonlRoundTripSkipsTornLines) {
  obs::QueryLogRecord record;
  record.query = "select * from r1 where s < ?0";
  record.query_hash = obs::HashQueryText(record.query);
  record.bindings = {{"?0", 123}};
  record.threads = 1;
  record.memory_pages = 64.0;
  record.predicted_cost = 0.25;
  record.decision_count = 1;
  record.cost_evaluations = 7;
  record.actual_seconds = 0.002;
  record.actual_cpu_seconds = 0.0015;
  record.result_rows = 321;
  record.peak_memory_bytes = 1 << 20;
  record.pool_hits = 10;
  record.pool_misses = 3;

  obs::QueryLogOperator op;
  op.op = "FileScan";
  op.depth = 0;
  op.est_cost_lo = 0.1;
  op.est_cost_hi = 0.9;
  op.est_cost_point = 0.25;
  op.est_rows_lo = 100;
  op.est_rows_hi = 1000;
  op.actual_seconds = 0.002;
  op.actual_cpu_seconds = 0.0015;
  op.self_seconds = 0.002;
  op.actual_rows = 321;
  op.have_actual = true;
  op.terms.seq_pages = 80.0;
  op.terms.tuple_ops = 640.0;
  op.have_terms = true;
  record.operators.push_back(op);

  obs::QueryLogDecision decision;
  decision.depth = 0;
  decision.alternatives = 2;
  decision.chosen = 1;
  decision.chosen_op = "FileScan";
  decision.chosen_est = 0.25;
  decision.best_other_est = kInf;  // abandoned alternative -> JSON null
  decision.actual_seconds = 0.002;
  decision.have_actual = true;
  record.decisions.push_back(decision);

  std::string path = ::testing::TempDir() + "/feedback_roundtrip.jsonl";
  std::remove(path.c_str());
  {
    obs::QueryLogWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, &error)) << error;
    ASSERT_TRUE(writer.Append(record));
    ASSERT_TRUE(writer.Append(record));
  }
  // An older v2 record still carries "exec_mode"; then a crash mid-append
  // leaves a torn, unterminated final line.
  std::string old_v2 = obs::RenderQueryLogRecordJson(record);
  ASSERT_EQ(old_v2.front(), '{');
  old_v2.insert(1, "\"exec_mode\": \"tuple\", ");
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs((old_v2 + "\n").c_str(), f);
    std::fputs("{\"query\": \"torn", f);
    std::fclose(f);
  }

  int64_t skipped = 0;
  Result<std::vector<obs::QueryLogRecord>> loaded =
      obs::LoadQueryLog(path, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(skipped, 1);
  ASSERT_EQ(loaded->size(), 3u);

  const obs::QueryLogRecord& back = loaded->front();
  // The loader ignores the retired field: the old record loads unchanged.
  EXPECT_EQ(obs::RenderQueryLogRecordJson((*loaded)[2]),
            obs::RenderQueryLogRecordJson(back));
  EXPECT_EQ(back.query, record.query);
  EXPECT_EQ(back.query_hash, record.query_hash);
  ASSERT_EQ(back.bindings.size(), 1u);
  EXPECT_EQ(back.bindings[0].first, "?0");
  EXPECT_EQ(back.bindings[0].second, 123);
  EXPECT_EQ(back.result_rows, 321);
  EXPECT_EQ(back.pool_hits, 10);
  EXPECT_EQ(back.pool_misses, 3);
  ASSERT_EQ(back.operators.size(), 1u);
  EXPECT_EQ(back.operators[0].op, "FileScan");
  EXPECT_TRUE(back.operators[0].have_actual);
  EXPECT_TRUE(back.operators[0].have_terms);
  EXPECT_NEAR(back.operators[0].terms.seq_pages, 80.0, 1e-12);
  EXPECT_NEAR(back.operators[0].self_seconds, 0.002, 1e-12);
  ASSERT_EQ(back.decisions.size(), 1u);
  EXPECT_EQ(back.decisions[0].chosen, 1);
  EXPECT_NEAR(back.decisions[0].chosen_est, 0.25, 1e-12);
  // Infinity went out as null and must come back as infinity.
  EXPECT_TRUE(std::isinf(back.decisions[0].best_other_est));
  std::remove(path.c_str());
}

// calibration.json written by RenderCostProfileJson must load back via
// LoadCostProfile with the exact multipliers.
TEST_F(FeedbackTest, CostProfileJsonRoundTrip) {
  obs::CalibrationReport report;
  report.global_scale = 0.004;
  report.profile.seq_page_io = 0.0041;
  report.profile.random_page_io = 0.0039;
  report.profile.cpu_tuple = 0.0040;
  report.profile.cpu_compare = 0.0042;
  report.profile.cpu_hash = 0.0038;
  report.profile.startup = 0.004;
  report.root_error_before = 2.4;
  report.root_error_after = 0.06;

  std::string path = ::testing::TempDir() + "/feedback_profile.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::string json = obs::RenderCostProfileJson(report);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  Result<CostProfile> loaded = obs::LoadCostProfile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_NEAR(loaded->seq_page_io, 0.0041, 1e-9);
  EXPECT_NEAR(loaded->random_page_io, 0.0039, 1e-9);
  EXPECT_NEAR(loaded->cpu_tuple, 0.0040, 1e-9);
  EXPECT_NEAR(loaded->cpu_compare, 0.0042, 1e-9);
  EXPECT_NEAR(loaded->cpu_hash, 0.0038, 1e-9);
  EXPECT_NEAR(loaded->startup, 0.004, 1e-9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dqep
