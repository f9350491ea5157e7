// Start-up-time resolution of dynamic plans (paper §4).

#include "runtime/startup.h"
#include "runtime/startup_program.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "physical/costing.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

class StartupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = PaperWorkload::Create(/*seed=*/6, /*populate=*/false);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  OptimizedPlan OptimizeDynamic(const Query& query, bool uncertain_memory) {
    Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
    auto plan = optimizer.Optimize(
        query, workload_->CompileTimeEnv(uncertain_memory));
    EXPECT_TRUE(plan.ok());
    return std::move(*plan);
  }

  std::unique_ptr<PaperWorkload> workload_;
};

TEST_F(StartupTest, ProgramCollectsHostVariables) {
  Query query = workload_->ChainQuery(3);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  StartupProgram program(plan.root);
  EXPECT_EQ(program.params(), (std::vector<ParamId>{0, 1, 2}));
}

TEST_F(StartupTest, ResolutionRemovesAllChooseNodes) {
  Query query = workload_->ChainQuery(4);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  ASSERT_GT(plan.root->CountChooseNodes(), 0);
  Rng rng(1);
  ParamEnv bound = workload_->DrawBindings(&rng, query, false);
  auto startup = ResolveDynamicPlan(plan.root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  EXPECT_EQ(startup->resolved->CountChooseNodes(), 0);
  EXPECT_GT(startup->decisions, 0);
  EXPECT_EQ(startup->decisions, plan.root->CountChooseNodes());
}

TEST_F(StartupTest, UnboundParametersRejected) {
  Query query = workload_->ChainQuery(2);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  ParamEnv partial;  // no bindings at all
  auto startup = ResolveDynamicPlan(plan.root, workload_->model(), partial);
  EXPECT_FALSE(startup.ok());
  EXPECT_EQ(startup.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StartupTest, IntervalMemoryRejected) {
  Query query = workload_->ChainQuery(2);
  OptimizedPlan plan = OptimizeDynamic(query, true);
  Rng rng(2);
  ParamEnv bound = workload_->DrawBindings(&rng, query, false);
  bound.set_memory_pages(workload_->config().UncertainMemoryPages());
  auto startup = ResolveDynamicPlan(plan.root, workload_->model(), bound);
  EXPECT_FALSE(startup.ok());
}

TEST_F(StartupTest, StaticPlanPassesThrough) {
  Query query = workload_->ChainQuery(2);
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Static());
  auto plan =
      optimizer.Optimize(query, workload_->CompileTimeEnv(false));
  ASSERT_TRUE(plan.ok());
  Rng rng(3);
  ParamEnv bound = workload_->DrawBindings(&rng, query, false);
  auto startup = ResolveDynamicPlan(plan->root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  EXPECT_EQ(startup->resolved, plan->root);  // same object, no rebuild
  EXPECT_EQ(startup->decisions, 0);
}

TEST_F(StartupTest, ExecutionCostMatchesResolvedPlanEstimate) {
  Query query = workload_->ChainQuery(3);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  Rng rng(4);
  ParamEnv bound = workload_->DrawBindings(&rng, query, false);
  auto startup = ResolveDynamicPlan(plan.root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  NodeEstimate est = EstimateRoot(*startup->resolved, workload_->model(),
                                  bound, EstimationMode::kExpectedValue);
  EXPECT_DOUBLE_EQ(startup->execution_cost, est.cost.lo());
}

TEST_F(StartupTest, CostWithinCompileTimeInterval) {
  // The realized execution cost always falls inside the compile-time
  // interval of the dynamic plan (soundness of the interval cost model).
  Query query = workload_->ChainQuery(4);
  OptimizedPlan plan = OptimizeDynamic(query, true);
  Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    ParamEnv bound = workload_->DrawBindings(&rng, query, true);
    auto startup = ResolveDynamicPlan(plan.root, workload_->model(), bound);
    ASSERT_TRUE(startup.ok());
    // The interval cost includes decision overheads; allow that slack on
    // the lower bound side.
    double slack = static_cast<double>(plan.root->CountChooseNodes()) *
                   workload_->config().choose_plan_decision_seconds;
    EXPECT_GE(startup->execution_cost + slack + 1e-12, plan.cost.lo());
    EXPECT_LE(startup->execution_cost, plan.cost.hi() + 1e-12);
  }
}

TEST_F(StartupTest, SharedSubplansEvaluatedOnce) {
  Query query = workload_->ChainQuery(4);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  Rng rng(6);
  ParamEnv bound = workload_->DrawBindings(&rng, query, false);
  auto startup = ResolveDynamicPlan(plan.root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  EXPECT_EQ(startup->cost_evaluations,
            plan.root->CountNodes() - plan.root->CountChooseNodes());
  EXPECT_EQ(startup->nodes_skipped, plan.root->CountChooseNodes());
}

TEST_F(StartupTest, BranchAndBoundAgreesWithFullEvaluation) {
  // Start-up B&B is an optimization, not a semantics change: the resolved
  // plan must have identical cost.
  Query query = workload_->ChainQuery(4);
  OptimizedPlan plan = OptimizeDynamic(query, true);
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    ParamEnv bound = workload_->DrawBindings(&rng, query, true);
    auto full = ResolveDynamicPlan(plan.root, workload_->model(), bound);
    StartupOptions bnb;
    bnb.use_branch_and_bound = true;
    auto pruned =
        ResolveDynamicPlan(plan.root, workload_->model(), bound, bnb);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(pruned.ok());
    EXPECT_NEAR(full->execution_cost, pruned->execution_cost,
                1e-9 * (1 + full->execution_cost))
        << "trial " << trial;
  }
}

TEST_F(StartupTest, ChoicesRecordedForEveryChooseNode) {
  Query query = workload_->ChainQuery(3);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  Rng rng(8);
  ParamEnv bound = workload_->DrawBindings(&rng, query, false);
  auto startup = ResolveDynamicPlan(plan.root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  EXPECT_EQ(static_cast<int64_t>(startup->choices.size()),
            plan.root->CountChooseNodes());
  for (const auto& [node, choice] : startup->choices) {
    EXPECT_LT(choice, node->children().size());
  }
}

TEST_F(StartupTest, ModeledCpuTracksEvaluations) {
  Query query = workload_->ChainQuery(4);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  Rng rng(9);
  ParamEnv bound = workload_->DrawBindings(&rng, query, false);
  auto startup = ResolveDynamicPlan(plan.root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  EXPECT_DOUBLE_EQ(startup->modeled_cpu_seconds,
                   workload_->model().StartupDecisionCost(
                       startup->cost_evaluations, startup->decisions));
}

TEST_F(StartupTest, ForcedChoicesOverrideCostComparison) {
  // Replay support: forcing every decision to alternative i must resolve
  // to exactly that road, while the normal cost comparison still records
  // every alternative's cost for reporting.
  Query query = workload_->ChainQuery(3);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  Rng rng(10);
  ParamEnv bound = workload_->DrawBindings(&rng, query, false);
  auto baseline = ResolveDynamicPlan(plan.root, workload_->model(), bound);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->choices.empty());

  // Force each decision, one at a time, to every alternative in turn.
  for (const auto& [node, chosen] : baseline->choices) {
    for (size_t alt = 0; alt < node->children().size(); ++alt) {
      std::unordered_map<const PhysNode*, size_t> force{{node, alt}};
      StartupOptions options;
      options.forced_choices = &force;
      auto forced =
          ResolveDynamicPlan(plan.root, workload_->model(), bound, options);
      ASSERT_TRUE(forced.ok());
      EXPECT_EQ(forced->choices.at(node), alt);
      EXPECT_EQ(forced->resolved->CountChooseNodes(), 0);
      // Alternative costs are still complete: the forced run and the
      // baseline costed the same roads.
      ASSERT_TRUE(forced->alternative_costs.count(node));
      EXPECT_EQ(forced->alternative_costs.at(node),
                baseline->alternative_costs.at(node));
      if (alt == chosen) {
        EXPECT_DOUBLE_EQ(forced->execution_cost, baseline->execution_cost);
      } else {
        EXPECT_GE(forced->execution_cost + 1e-12, baseline->execution_cost);
      }
    }
  }

  // Out-of-range indices fall back to the cost comparison.
  const PhysNode* any = baseline->choices.begin()->first;
  std::unordered_map<const PhysNode*, size_t> bogus{{any, 1000}};
  StartupOptions options;
  options.forced_choices = &bogus;
  auto fallback =
      ResolveDynamicPlan(plan.root, workload_->model(), bound, options);
  ASSERT_TRUE(fallback.ok());
  EXPECT_DOUBLE_EQ(fallback->execution_cost, baseline->execution_cost);
}

TEST_F(StartupTest, ForcedChoicesReviveBranchAndBoundAborts) {
  // Branch-and-bound abandons expensive alternatives mid-evaluation;
  // forcing one must still resolve to it (re-descent at infinite budget).
  Query query = workload_->ChainQuery(4);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  Rng rng(11);
  ParamEnv bound = workload_->DrawBindings(&rng, query, false);
  auto baseline = ResolveDynamicPlan(plan.root, workload_->model(), bound);
  ASSERT_TRUE(baseline.ok());
  for (const auto& [node, chosen] : baseline->choices) {
    for (size_t alt = 0; alt < node->children().size(); ++alt) {
      if (alt == chosen) {
        continue;
      }
      std::unordered_map<const PhysNode*, size_t> force{{node, alt}};
      StartupOptions options;
      options.use_branch_and_bound = true;
      options.forced_choices = &force;
      auto forced =
          ResolveDynamicPlan(plan.root, workload_->model(), bound, options);
      ASSERT_TRUE(forced.ok());
      EXPECT_EQ(forced->choices.at(node), alt);
      EXPECT_EQ(forced->resolved->CountChooseNodes(), 0);
    }
  }
}

TEST_F(StartupTest, DifferentBindingsCanYieldDifferentPlans) {
  // The whole point of dynamic plans: low selectivity -> index plan; high
  // selectivity -> file scan.
  Query query = workload_->ChainQuery(1);
  OptimizedPlan plan = OptimizeDynamic(query, false);
  const SelectionPredicate& pred = query.term(0).predicates[0];

  ParamEnv low;
  low.Bind(0, workload_->model().ValueForSelectivity(pred, 0.001));
  ParamEnv high;
  high.Bind(0, workload_->model().ValueForSelectivity(pred, 0.95));

  auto low_res = ResolveDynamicPlan(plan.root, workload_->model(), low);
  auto high_res = ResolveDynamicPlan(plan.root, workload_->model(), high);
  ASSERT_TRUE(low_res.ok());
  ASSERT_TRUE(high_res.ok());
  EXPECT_NE(low_res->resolved->ToString(), high_res->resolved->ToString());
}

}  // namespace
}  // namespace dqep
