// Projection and ORDER BY: interesting orders through the whole stack
// (parser -> optimizer goals -> enforcers -> execution).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "physical/access_module.h"
#include "runtime/startup.h"
#include "sql/parser.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

class ProjectionOrderByTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = PaperWorkload::Create(/*seed=*/21, /*populate=*/true);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  const CostModel& model() { return workload_->model(); }

  ParamEnv BindAll(const Query& query, double selectivity) {
    return workload_->BindingsAt(query, selectivity);
  }

  std::unique_ptr<PaperWorkload> workload_;
};

TEST_F(ProjectionOrderByTest, ParserAcceptsSelectListAndOrderBy) {
  auto parsed = ParseQuery(
      "SELECT R1.a, R2.b FROM R1, R2 WHERE R1.b = R2.a ORDER BY R1.a",
      workload_->catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->query.projection().size(), 2u);
  EXPECT_EQ(parsed->query.projection()[0],
            (AttrRef{0, ExperimentColumns::kJoinPrev}));
  ASSERT_TRUE(parsed->query.HasOrderBy());
  EXPECT_EQ(parsed->query.order_by(),
            (AttrRef{0, ExperimentColumns::kJoinPrev}));
}

TEST_F(ProjectionOrderByTest, ParserRejectsBadSelectListAndOrderBy) {
  const Catalog& catalog = workload_->catalog();
  EXPECT_FALSE(ParseQuery("SELECT R9.a FROM R1", catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT R1.nope FROM R1", catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R1 ORDER R1.a", catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R1 ORDER BY", catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R1 ORDER BY R2.a", catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R1 ORDER BY R1.pay", catalog).ok());
}

TEST_F(ProjectionOrderByTest, ProjectionShrinksOutput) {
  auto parsed = ParseQuery("SELECT R1.s FROM R1 WHERE R1.s < :v",
                           workload_->catalog());
  ASSERT_TRUE(parsed.ok());
  Optimizer optimizer(&model(), OptimizerOptions::Dynamic());
  auto plan =
      optimizer.Optimize(parsed->query, workload_->CompileTimeEnv(false));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->kind(), PhysOpKind::kProject);
  ParamEnv bound = BindAll(parsed->query, 0.2);
  auto startup = ResolveDynamicPlan(plan->root, model(), bound);
  ASSERT_TRUE(startup.ok());
  auto rows = ExecutePlan(startup->resolved, workload_->db(), bound);
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  for (const Tuple& row : *rows) {
    EXPECT_EQ(row.size(), 1);  // single projected column
    EXPECT_TRUE(row.value(0).is_int64());
  }
}

TEST_F(ProjectionOrderByTest, OrderByProducesSortedOutput) {
  auto parsed = ParseQuery(
      "SELECT * FROM R1 WHERE R1.s < :v ORDER BY R1.s",
      workload_->catalog());
  ASSERT_TRUE(parsed.ok());
  Optimizer optimizer(&model(), OptimizerOptions::Dynamic());
  auto plan =
      optimizer.Optimize(parsed->query, workload_->CompileTimeEnv(false));
  ASSERT_TRUE(plan.ok());
  for (double selectivity : {0.05, 0.6}) {
    ParamEnv bound = BindAll(parsed->query, selectivity);
    auto startup = ResolveDynamicPlan(plan->root, model(), bound);
    ASSERT_TRUE(startup.ok());
    EXPECT_TRUE(startup->resolved->output_order().IsSorted());
    auto rows = ExecutePlan(startup->resolved, workload_->db(), bound);
    ASSERT_TRUE(rows.ok());
    for (size_t i = 1; i < rows->size(); ++i) {
      EXPECT_LE((*rows)[i - 1].value(ExperimentColumns::kSelect).AsInt64(),
                (*rows)[i].value(ExperimentColumns::kSelect).AsInt64());
    }
  }
}

TEST_F(ProjectionOrderByTest, OrderByExploitsInterestingOrders) {
  // At low selectivity the B-tree range scan on the ORDER BY column
  // delivers the order for free; at high selectivity a file scan plus
  // sort enforcer wins.  Both must appear in the dynamic plan.
  auto parsed = ParseQuery(
      "SELECT * FROM R1 WHERE R1.s < :v ORDER BY R1.s",
      workload_->catalog());
  ASSERT_TRUE(parsed.ok());
  Optimizer optimizer(&model(), OptimizerOptions::Dynamic());
  auto plan =
      optimizer.Optimize(parsed->query, workload_->CompileTimeEnv(false));
  ASSERT_TRUE(plan.ok());
  ParamEnv selective = BindAll(parsed->query, 0.01);
  ParamEnv unselective = BindAll(parsed->query, 0.9);
  auto low = ResolveDynamicPlan(plan->root, model(), selective);
  auto high = ResolveDynamicPlan(plan->root, model(), unselective);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_NE(low->resolved->ToString(), high->resolved->ToString());
  // The unselective plan must contain an explicit Sort (file scan cannot
  // deliver the order); the selective one must not need one.
  auto contains_sort = [](const PhysNodePtr& root) {
    for (const PhysNode* node : root->TopologicalOrder()) {
      if (node->kind() == PhysOpKind::kSort) {
        return true;
      }
    }
    return false;
  };
  EXPECT_FALSE(contains_sort(low->resolved));
  EXPECT_TRUE(contains_sort(high->resolved));
}

TEST_F(ProjectionOrderByTest, JoinWithOrderByEndToEnd) {
  auto parsed = ParseQuery(
      "SELECT R1.b, R2.a FROM R1, R2 WHERE R1.b = R2.a AND R1.s < :v "
      "ORDER BY R2.a",
      workload_->catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Optimizer optimizer(&model(), OptimizerOptions::Dynamic());
  auto plan =
      optimizer.Optimize(parsed->query, workload_->CompileTimeEnv(false));
  ASSERT_TRUE(plan.ok());
  ParamEnv bound = BindAll(parsed->query, 0.3);
  auto startup = ResolveDynamicPlan(plan->root, model(), bound);
  ASSERT_TRUE(startup.ok());
  auto rows = ExecutePlan(startup->resolved, workload_->db(), bound);
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  for (size_t i = 0; i < rows->size(); ++i) {
    ASSERT_EQ((*rows)[i].size(), 2);
    // Join predicate holds on the projected columns.
    EXPECT_EQ((*rows)[i].value(0).AsInt64(), (*rows)[i].value(1).AsInt64());
    if (i > 0) {
      EXPECT_LE((*rows)[i - 1].value(1).AsInt64(),
                (*rows)[i].value(1).AsInt64());
    }
  }
}

TEST_F(ProjectionOrderByTest, ProjectedPlanSerializes) {
  auto parsed = ParseQuery(
      "SELECT R1.s FROM R1 WHERE R1.s < :v ORDER BY R1.s",
      workload_->catalog());
  ASSERT_TRUE(parsed.ok());
  Optimizer optimizer(&model(), OptimizerOptions::Dynamic());
  auto plan =
      optimizer.Optimize(parsed->query, workload_->CompileTimeEnv(false));
  ASSERT_TRUE(plan.ok());
  AccessModule module(plan->root);
  auto restored = AccessModule::Deserialize(module.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->root()->ToString(), plan->root->ToString());
  EXPECT_EQ(restored->root()->projections(), plan->root->projections());
}

TEST_F(ProjectionOrderByTest, OptimalityGuaranteeHoldsWithOrderBy) {
  // g = d still holds when the root goal carries a required order.
  Query query = workload_->ChainQuery(3);
  query.SetOrderBy(AttrRef{0, ExperimentColumns::kSelect});
  Optimizer dynamic_opt(&model(), OptimizerOptions::Dynamic());
  auto plan =
      dynamic_opt.Optimize(query, workload_->CompileTimeEnv(false));
  ASSERT_TRUE(plan.ok());
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    ParamEnv bound = workload_->DrawBindings(&rng, query, false);
    auto startup = ResolveDynamicPlan(plan->root, model(), bound);
    Optimizer runtime_opt(&model(), OptimizerOptions::Static());
    auto fresh = runtime_opt.Optimize(query, bound);
    ASSERT_TRUE(startup.ok());
    ASSERT_TRUE(fresh.ok());
    // Sorted goals admit near-tie alternatives (e.g. two merge joins whose
    // costs differ only in floating-point association); allow for the
    // different tie-breaking of the two procedures.
    EXPECT_NEAR(startup->execution_cost, fresh->cost.lo(),
                1e-6 * (1 + fresh->cost.lo()));
  }
}

}  // namespace
}  // namespace dqep
