// Differential tests for memory-governed execution: the five paper
// queries through choose-plan resolution at budgets {16, 24, 112} pages
// must spill (grace hash join, external merge sort) yet produce
// byte-identical rows to the unbounded run, with peak tracked memory
// under the budget, no forced overflows, identical row sequences across
// thread counts, and every temp heap file reclaimed on close — including
// early close and cancellation mid-stream.
//
// This binary is part of the sanitizer verify steps (build with
// -DDQEP_SANITIZE=address and =thread).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "runtime/adaptive.h"
#include "runtime/lifecycle.h"
#include "runtime/startup.h"
#include "sql/parser.h"
#include "tests/reference_eval.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

const int64_t kBudgets[] = {16, 24, 112};

/// Thread counts every bounded run is repeated at; above 1 the plan runs
/// behind exchange operators.
const int32_t kThreadCounts[] = {1, 4};

class ExecSpillTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto workload = PaperWorkload::Create(/*seed=*/31, /*populate=*/true);
    ASSERT_TRUE(workload.ok());
    workload_ = workload->release();
  }

  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  /// Fully bound environment whose memory grant is a point at
  /// `budget_pages` — the same number resolution prices against and
  /// MakeExecContext enforces.
  static ParamEnv BoundEnv(Rng* rng, const Query& query,
                           double budget_pages) {
    ParamEnv bound(Interval::Point(budget_pages));
    for (const RelationTerm& term : query.terms()) {
      for (const SelectionPredicate& pred : term.predicates) {
        bound.Bind(pred.operand.param(),
                   workload_->model().ValueForSelectivity(
                       pred, rng->NextDouble(0.2, 1.0)));
      }
    }
    return bound;
  }

  struct BoundedRun {
    std::vector<Tuple> rows;
    int64_t peak_bytes = 0;
    int64_t budget_bytes = 0;
    int64_t temp_files = 0;
    int64_t tuples_spilled = 0;
    int64_t overflows = 0;
  };

  /// Executes `plan` under a fresh budgeted ExecContext and returns the
  /// rows plus the context's accounting.  Asserts the run leaves no
  /// tracked memory and no temp heaps behind.
  static BoundedRun RunBounded(const PhysNodePtr& plan, const ParamEnv& env,
                               int32_t threads) {
    ExecOptions options;
    options.threads = threads;
    std::unique_ptr<ExecContext> ctx =
        MakeExecContext(env, workload_->config(), options);
    auto rows = ExecutePlan(plan, workload_->db(), env, *ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    BoundedRun run;
    if (rows.ok()) {
      run.rows = std::move(*rows);
    }
    run.peak_bytes = ctx->tracker().peak_bytes();
    run.budget_bytes = ctx->tracker().budget_bytes();
    run.temp_files = ctx->temp_files_created();
    run.tuples_spilled = ctx->tuples_spilled();
    run.overflows = ctx->overflows();
    EXPECT_EQ(ctx->tracker().used_bytes(), 0);
    EXPECT_EQ(workload_->db().live_temp_heaps(), 0);
    return run;
  }

  static PaperWorkload* workload_;
};

PaperWorkload* ExecSpillTest::workload_ = nullptr;

TEST(MemoryTrackerTest, AccountsPeakAndHeadroom) {
  MemoryTracker tracker(1000);
  EXPECT_TRUE(tracker.bounded());
  EXPECT_EQ(tracker.budget_bytes(), 1000);
  EXPECT_FALSE(tracker.WouldExceed(1000));
  EXPECT_TRUE(tracker.WouldExceed(1001));
  tracker.Acquire(600);
  EXPECT_EQ(tracker.used_bytes(), 600);
  EXPECT_EQ(tracker.peak_bytes(), 600);
  EXPECT_EQ(tracker.available_bytes(), 400);
  EXPECT_TRUE(tracker.WouldExceed(401));
  EXPECT_FALSE(tracker.WouldExceed(400));
  tracker.Acquire(400);
  EXPECT_EQ(tracker.peak_bytes(), 1000);
  EXPECT_EQ(tracker.available_bytes(), 0);
  tracker.Release(250);
  tracker.Release(750);
  EXPECT_EQ(tracker.used_bytes(), 0);
  EXPECT_EQ(tracker.peak_bytes(), 1000);  // watermark survives release

  MemoryTracker unbounded;
  EXPECT_FALSE(unbounded.bounded());
  EXPECT_FALSE(unbounded.WouldExceed(1 << 30));
  unbounded.Acquire(123);
  EXPECT_EQ(unbounded.peak_bytes(), 123);
}

/// The five paper queries (1, 2, 4, 6, 10 relations): dynamic
/// compilation under an uncertain memory grant, choose-plan resolution
/// at each budget, then bounded execution at every thread count.
class SpillQueryParity : public ExecSpillTest,
                         public ::testing::WithParamInterface<int32_t> {};

TEST_P(SpillQueryParity, BoundedMatchesUnboundedAtEveryBudget) {
  int32_t n = GetParam();
  Query query = workload_->ChainQuery(n);
  // Compile with the memory grant uncertain so the dynamic plan keeps
  // memory-dependent alternatives open for start-up to decide.
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(),
                          workload_->CompileTimeEnv(/*uncertain_memory=*/true));
  ASSERT_TRUE(dyn.ok());

  for (int64_t budget : kBudgets) {
    Rng rng(900 + static_cast<uint64_t>(n));  // same bindings per budget
    ParamEnv bound = BoundEnv(&rng, query, static_cast<double>(budget));
    auto startup =
        ResolveDynamicPlan(dyn->plan.root, workload_->model(), bound);
    ASSERT_TRUE(startup.ok()) << startup.status().ToString();

    // Unbounded (null-context) reference for this budget's plan.
    auto unbounded = ExecutePlan(startup->resolved, workload_->db(), bound);
    ASSERT_TRUE(unbounded.ok());
    std::vector<Tuple> reference = Canonicalize(*unbounded);

    std::vector<Tuple> first_sequence;
    bool have_first = false;
    for (int32_t threads : kThreadCounts) {
      BoundedRun run = RunBounded(startup->resolved, bound, threads);
      // (a) byte-identical rows to the unbounded run.
      EXPECT_EQ(Canonicalize(run.rows), reference)
          << "n=" << n << " budget=" << budget << " threads=" << threads;
      // (b) peak tracked memory stays under the budget, with no forced
      // overflow acquisitions.
      EXPECT_EQ(run.budget_bytes, budget * kPageSize);
      EXPECT_LE(run.peak_bytes, run.budget_bytes)
          << "n=" << n << " budget=" << budget;
      EXPECT_EQ(run.overflows, 0) << "n=" << n << " budget=" << budget;
      // Spill decisions are deterministic, so every thread count
      // produces the same exact row sequence at a fixed budget.
      if (!have_first) {
        first_sequence = run.rows;
        have_first = true;
      } else {
        EXPECT_EQ(run.rows, first_sequence)
            << "n=" << n << " budget=" << budget << " threads=" << threads;
      }
      // (c) joins actually spill at the tight budget (single-relation
      // plans have nothing to spill).
      if (budget == 16 && n >= 2) {
        EXPECT_GT(run.temp_files, 0) << "n=" << n;
        EXPECT_GT(run.tuples_spilled, 0) << "n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, SpillQueryParity,
                         ::testing::ValuesIn(PaperWorkload::PaperQuerySizes()));

/// External sort: a spilled sort's output sequence must be
/// byte-identical to the in-memory stable sort — equal keys included —
/// because runs are formed and merged in arrival order with ties broken
/// toward the earlier run.
TEST_F(ExecSpillTest, ExternalSortExactSequence) {
  auto parsed = ParseQuery("SELECT R1.s, R1.pay FROM R1 ORDER BY R1.s",
                           workload_->catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (int64_t budget : kBudgets) {
    ParamEnv env(Interval::Point(static_cast<double>(budget)));
    Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
    auto plan = optimizer.Optimize(parsed->query, env);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto startup = ResolveDynamicPlan(plan->root, workload_->model(), env);
    ASSERT_TRUE(startup.ok());

    auto unbounded = ExecutePlan(startup->resolved, workload_->db(), env);
    ASSERT_TRUE(unbounded.ok());

    for (int32_t threads : kThreadCounts) {
      BoundedRun run = RunBounded(startup->resolved, env, threads);
      EXPECT_EQ(run.rows, *unbounded)
          << "budget=" << budget << " threads=" << threads;
      EXPECT_LE(run.peak_bytes, budget * kPageSize);
      EXPECT_EQ(run.overflows, 0);
      if (budget == 16 && run.tuples_spilled > 0) {
        EXPECT_GT(run.temp_files, 0);
      }
    }
  }
}

/// A context with memory_pages == 0 tracks the peak watermark but never
/// spills, and the row sequence is exactly the unbounded one.
TEST_F(ExecSpillTest, TrackOnlyContextNeverSpills) {
  Query query = workload_->ChainQuery(2);
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(),
                          workload_->CompileTimeEnv(false));
  ASSERT_TRUE(dyn.ok());
  Rng rng(77);
  ParamEnv bound = BoundEnv(&rng, query, 64.0);
  auto startup = ResolveDynamicPlan(dyn->plan.root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());

  auto legacy = ExecutePlan(startup->resolved, workload_->db(), bound);
  ASSERT_TRUE(legacy.ok());
  ASSERT_GT(legacy->size(), 0u);

  ExecContext ctx(ExecOptions{}, /*memory_pages=*/0);
  EXPECT_FALSE(ctx.bounded());
  auto tracked = ExecutePlan(startup->resolved, workload_->db(), bound, ctx);
  ASSERT_TRUE(tracked.ok());
  EXPECT_EQ(*tracked, *legacy);  // exact sequence: same code path
  EXPECT_GT(ctx.tracker().peak_bytes(), 0);
  EXPECT_EQ(ctx.temp_files_created(), 0);
  EXPECT_EQ(ctx.tuples_spilled(), 0);
  EXPECT_EQ(ctx.tracker().used_bytes(), 0);
  EXPECT_EQ(workload_->db().live_temp_heaps(), 0);
}

/// Picks a plan + environment that spills at 16 pages and returns them.
struct SpillingPlan {
  PhysNodePtr plan;
  ParamEnv env;
};

SpillingPlan MakeSpillingJoinPlan(PaperWorkload* workload) {
  Query query = workload->ChainQuery(2);
  auto dyn = CompileQuery(query, workload->model(),
                          OptimizerOptions::Dynamic(),
                          workload->CompileTimeEnv(true));
  EXPECT_TRUE(dyn.ok());
  Rng rng(901);
  ParamEnv bound(Interval::Point(16.0));
  for (const RelationTerm& term : query.terms()) {
    for (const SelectionPredicate& pred : term.predicates) {
      bound.Bind(pred.operand.param(),
                 workload->model().ValueForSelectivity(
                     pred, rng.NextDouble(0.8, 1.0)));
    }
  }
  auto startup = ResolveDynamicPlan(dyn->plan.root, workload->model(), bound);
  EXPECT_TRUE(startup.ok());
  return SpillingPlan{startup->resolved, bound};
}

/// Temp heap files live while a spilled operator streams and are all
/// reclaimed when the iterator tree is closed early, mid-stream.  No
/// buffer-pool frame stays pinned between operator calls, even while the
/// spilled join streams.
TEST_F(ExecSpillTest, EarlyCloseReclaimsTempHeaps) {
  SpillingPlan spilling = MakeSpillingJoinPlan(workload_);
  std::unique_ptr<ExecContext> ctx =
      MakeExecContext(spilling.env, workload_->config(), ExecOptions{});
  ASSERT_TRUE(ctx->bounded());

  auto iter = BuildBatchExecutor(spilling.plan, workload_->db(), spilling.env,
                                 ctx.get());
  ASSERT_TRUE(iter.ok());
  (*iter)->Open();
  TupleBatch batch;
  ASSERT_TRUE((*iter)->Next(&batch));
  // The spilled join holds partition files while streaming.
  EXPECT_GT(ctx->temp_files_created(), 0);
  EXPECT_GT(workload_->db().live_temp_heaps(), 0);
  EXPECT_EQ(workload_->db().buffer_pool().pinned(), 0);
  (*iter)->Close();
  EXPECT_EQ(workload_->db().live_temp_heaps(), 0);
  EXPECT_EQ(workload_->db().buffer_pool().pinned(), 0);
  EXPECT_EQ(ctx->tracker().used_bytes(), 0);
}

/// Cancellation mid-stream ends the row stream; Close still releases all
/// tracked memory and temp files.
TEST_F(ExecSpillTest, CancellationStopsStreamAndCleansUp) {
  SpillingPlan spilling = MakeSpillingJoinPlan(workload_);
  std::unique_ptr<ExecContext> ctx =
      MakeExecContext(spilling.env, workload_->config(), ExecOptions{});

  auto iter = BuildBatchExecutor(spilling.plan, workload_->db(), spilling.env,
                                 ctx.get());
  ASSERT_TRUE(iter.ok());
  (*iter)->Open();
  TupleBatch batch;
  ASSERT_TRUE((*iter)->Next(&batch));
  ASSERT_TRUE((*iter)->Next(&batch));
  ctx->RequestCancel();
  EXPECT_FALSE((*iter)->Next(&batch));
  (*iter)->Close();
  EXPECT_EQ(workload_->db().live_temp_heaps(), 0);
  EXPECT_EQ(ctx->tracker().used_bytes(), 0);

  // A context cancelled before execution produces a short (possibly
  // empty) result without error, at every thread count.
  for (int32_t threads : kThreadCounts) {
    ExecOptions opts;
    opts.threads = threads;
    std::unique_ptr<ExecContext> cancelled =
        MakeExecContext(spilling.env, workload_->config(), opts);
    cancelled->RequestCancel();
    auto rows = ExecutePlan(spilling.plan, workload_->db(), spilling.env,
                            *cancelled);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(workload_->db().live_temp_heaps(), 0);
    EXPECT_EQ(cancelled->tracker().used_bytes(), 0);
  }
}

/// Observation-assisted resolution under a budgeted context: the
/// observation subplans execute through the same context, and the final
/// result still matches the unbounded run.
TEST_F(ExecSpillTest, ResolveWithObservationUnderBudget) {
  Query query = workload_->ChainQuery(4);
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(),
                          workload_->CompileTimeEnv(true));
  ASSERT_TRUE(dyn.ok());
  Rng rng(902);
  ParamEnv bound = BoundEnv(&rng, query, 16.0);

  std::unique_ptr<ExecContext> ctx =
      MakeExecContext(bound, workload_->config(), ExecOptions{});
  auto adaptive = ResolveWithObservation(dyn->plan.root, workload_->model(),
                                         bound, workload_->db(), *ctx);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  EXPECT_GT(adaptive->observed_subplans, 0);

  auto bounded = ExecutePlan(adaptive->startup.resolved, workload_->db(),
                             bound, *ctx);
  ASSERT_TRUE(bounded.ok());
  EXPECT_LE(ctx->tracker().peak_bytes(), ctx->tracker().budget_bytes());
  auto unbounded =
      ExecutePlan(adaptive->startup.resolved, workload_->db(), bound);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(Canonicalize(*bounded), Canonicalize(*unbounded));
  EXPECT_EQ(workload_->db().live_temp_heaps(), 0);
  EXPECT_EQ(ctx->tracker().used_bytes(), 0);
}

}  // namespace
}  // namespace dqep
