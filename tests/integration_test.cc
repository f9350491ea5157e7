// End-to-end integration: compile-time optimization -> access module ->
// start-up resolution -> Volcano execution against stored data, checked
// against an independent reference evaluator.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/executor.h"
#include "physical/access_module.h"
#include "runtime/lifecycle.h"
#include "runtime/startup.h"
#include "tests/reference_eval.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = PaperWorkload::Create(/*seed=*/20, /*populate=*/true);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  /// Executes `plan` and canonicalizes into reference column order.
  std::vector<Tuple> RunPlan(const PhysNodePtr& plan, const Query& query,
                             const ParamEnv& env) {
    auto iter = BuildBatchExecutor(plan, workload_->db(), env);
    EXPECT_TRUE(iter.ok()) << iter.status().ToString();
    if (!iter.ok()) {
      return {};
    }
    std::vector<Tuple> rows = DrainRows(**iter, *plan);
    return Canonicalize(
        ToReferenceOrder(rows, (*iter)->layout(), query, workload_->db()));
  }

  std::vector<Tuple> Reference(const Query& query, const ParamEnv& env) {
    return Canonicalize(ReferenceEval(query, workload_->db(), env));
  }

  std::unique_ptr<PaperWorkload> workload_;
};

/// Sweep: for each query size, random bindings; static plan, dynamic plan
/// (resolved), and run-time-optimized plan must all produce exactly the
/// reference result set.
class QuerySizeIntegration : public IntegrationTest,
                             public ::testing::WithParamInterface<int32_t> {};

TEST_P(QuerySizeIntegration, AllPlansProduceReferenceResults) {
  int32_t n = GetParam();
  Query query = workload_->ChainQuery(n);
  ParamEnv compile_env = workload_->CompileTimeEnv(false);
  auto stat = CompileQuery(query, workload_->model(),
                           OptimizerOptions::Static(), compile_env);
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(), compile_env);
  ASSERT_TRUE(stat.ok());
  ASSERT_TRUE(dyn.ok());

  Rng rng(100 + static_cast<uint64_t>(n));
  for (int trial = 0; trial < 3; ++trial) {
    // Keep selectivities low so reference evaluation stays fast.
    ParamEnv bound;
    for (const RelationTerm& term : query.terms()) {
      for (const SelectionPredicate& pred : term.predicates) {
        bound.Bind(pred.operand.param(),
                   workload_->model().ValueForSelectivity(
                       pred, rng.NextDouble(0.0, 0.4)));
      }
    }
    std::vector<Tuple> expected = Reference(query, bound);

    std::vector<Tuple> via_static = RunPlan(stat->plan.root, query, bound);
    EXPECT_EQ(via_static, expected) << "static n=" << n << " t=" << trial;

    auto startup =
        ResolveDynamicPlan(dyn->plan.root, workload_->model(), bound);
    ASSERT_TRUE(startup.ok());
    std::vector<Tuple> via_dynamic =
        RunPlan(startup->resolved, query, bound);
    EXPECT_EQ(via_dynamic, expected) << "dynamic n=" << n << " t=" << trial;

    auto fresh = OptimizeAtRunTime(query, workload_->model(), bound);
    ASSERT_TRUE(fresh.ok());
    std::vector<Tuple> via_runtime =
        RunPlan(fresh->executed_plan, query, bound);
    EXPECT_EQ(via_runtime, expected) << "runtime n=" << n << " t=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(ChainQueries, QuerySizeIntegration,
                         ::testing::Values(1, 2, 3));

TEST_F(IntegrationTest, SerializedModuleExecutesIdentically) {
  // Full production path: compile, serialize to an access module, read it
  // back, resolve, execute.
  Query query = workload_->ChainQuery(2);
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(),
                          workload_->CompileTimeEnv(false));
  ASSERT_TRUE(dyn.ok());
  std::string bytes = dyn->module.Serialize();
  auto restored = AccessModule::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());

  Rng rng(7);
  ParamEnv bound;
  for (const RelationTerm& term : query.terms()) {
    for (const SelectionPredicate& pred : term.predicates) {
      bound.Bind(pred.operand.param(),
                 workload_->model().ValueForSelectivity(
                     pred, rng.NextDouble(0.0, 0.3)));
    }
  }
  auto startup =
      ResolveDynamicPlan(restored->root(), workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  EXPECT_EQ(RunPlan(startup->resolved, query, bound),
            Reference(query, bound));
}

TEST_F(IntegrationTest, AlternativePlansAgreeOnResults) {
  // Every alternative embedded in a dynamic plan computes the same query:
  // execute each top-level alternative and compare.
  Query query = workload_->ChainQuery(2);
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(),
                          workload_->CompileTimeEnv(false));
  ASSERT_TRUE(dyn.ok());
  ASSERT_EQ(dyn->plan.root->kind(), PhysOpKind::kChoosePlan);

  ParamEnv bound = workload_->BindingsAt(query, 0.2);
  std::vector<Tuple> expected = Reference(query, bound);
  int alternatives_checked = 0;
  for (const PhysNodePtr& alt : dyn->plan.root->children()) {
    // Alternatives may contain nested choose nodes; resolve them.
    auto startup = ResolveDynamicPlan(alt, workload_->model(), bound);
    ASSERT_TRUE(startup.ok());
    EXPECT_EQ(RunPlan(startup->resolved, query, bound), expected)
        << "alternative " << alternatives_checked;
    ++alternatives_checked;
  }
  EXPECT_GE(alternatives_checked, 2);
}

TEST_F(IntegrationTest, ActualRowCountWithinEstimatedCardinality) {
  // The interval cardinality of the dynamic plan root bounds the actual
  // result size for any binding (uniformity means approximately; we allow
  // the statistical slack of +/- a few rows at interval edges).
  Query query = workload_->ChainQuery(2);
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(),
                          workload_->CompileTimeEnv(false));
  ASSERT_TRUE(dyn.ok());
  Rng rng(8);
  ParamEnv bound;
  for (const RelationTerm& term : query.terms()) {
    for (const SelectionPredicate& pred : term.predicates) {
      bound.Bind(pred.operand.param(),
                 workload_->model().ValueForSelectivity(
                     pred, rng.NextDouble(0.0, 0.3)));
    }
  }
  auto startup =
      ResolveDynamicPlan(dyn->plan.root, workload_->model(), bound);
  ASSERT_TRUE(startup.ok());
  std::vector<Tuple> rows = RunPlan(startup->resolved, query, bound);
  const Interval& est = dyn->plan.cardinality;
  EXPECT_GE(static_cast<double>(rows.size()), est.lo() - 1.0);
  // Estimates assume independence; actual joins on uniform data can exceed
  // the estimate, but not the all-selectivities-at-1 upper bound.
  EXPECT_LE(static_cast<double>(rows.size()), est.hi() * 1.5 + 10.0);
}

}  // namespace
}  // namespace dqep
