// Property sweeps over freshly generated random catalogs: the paper's
// guarantees must hold for *any* database, not just the default
// experiment seed.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "runtime/lifecycle.h"
#include "runtime/startup.h"
#include "tests/reference_eval.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

// The optimality guarantee g = d across random catalogs, query sizes, and
// uncertainty settings.
TEST_P(SeedSweep, DynamicPlanAlwaysMatchesRunTimeOptimization) {
  auto workload =
      PaperWorkload::Create(GetParam(), /*populate=*/false);
  ASSERT_TRUE(workload.ok());
  Rng rng(GetParam() * 31 + 7);
  for (int32_t n : {1, 3, 5}) {
    Query query = (*workload)->ChainQuery(n);
    for (bool memory : {false, true}) {
      Optimizer dynamic_opt(&(*workload)->model(),
                            OptimizerOptions::Dynamic());
      auto plan = dynamic_opt.Optimize(
          query, (*workload)->CompileTimeEnv(memory));
      ASSERT_TRUE(plan.ok());
      for (int trial = 0; trial < 5; ++trial) {
        ParamEnv bound = (*workload)->DrawBindings(&rng, query, memory);
        auto startup =
            ResolveDynamicPlan(plan->root, (*workload)->model(), bound);
        ASSERT_TRUE(startup.ok());
        Optimizer runtime_opt(&(*workload)->model(),
                              OptimizerOptions::Static());
        auto fresh = runtime_opt.Optimize(query, bound);
        ASSERT_TRUE(fresh.ok());
        EXPECT_NEAR(startup->execution_cost, fresh->cost.lo(),
                    1e-6 * (1 + fresh->cost.lo()))
            << "seed=" << GetParam() << " n=" << n << " memory=" << memory;
      }
    }
  }
}

// The execution engine agrees with the naive reference evaluator on
// random catalogs and data.
TEST_P(SeedSweep, ExecutionMatchesReference) {
  auto workload =
      PaperWorkload::Create(GetParam(), /*populate=*/true);
  ASSERT_TRUE(workload.ok());
  Rng rng(GetParam() ^ 0x5eed);
  Query query = (*workload)->ChainQuery(2);
  auto dyn = CompileQuery(query, (*workload)->model(),
                          OptimizerOptions::Dynamic(),
                          (*workload)->CompileTimeEnv(false));
  ASSERT_TRUE(dyn.ok());
  for (int trial = 0; trial < 2; ++trial) {
    ParamEnv bound;
    for (const RelationTerm& term : query.terms()) {
      for (const SelectionPredicate& pred : term.predicates) {
        bound.Bind(pred.operand.param(),
                   (*workload)->model().ValueForSelectivity(
                       pred, rng.NextDouble(0.0, 0.35)));
      }
    }
    auto startup =
        ResolveDynamicPlan(dyn->plan.root, (*workload)->model(), bound);
    ASSERT_TRUE(startup.ok());
    auto iter =
        BuildBatchExecutor(startup->resolved, (*workload)->db(), bound);
    ASSERT_TRUE(iter.ok());
    std::vector<Tuple> rows = DrainRows(**iter, *startup->resolved);
    std::vector<Tuple> actual = Canonicalize(ToReferenceOrder(
        rows, (*iter)->layout(), query, (*workload)->db()));
    std::vector<Tuple> expected = Canonicalize(
        ReferenceEval(query, (*workload)->db(), bound));
    EXPECT_EQ(actual, expected) << "seed=" << GetParam();
  }
}

// Access modules round-trip on random catalogs.
TEST_P(SeedSweep, AccessModuleRoundTrips) {
  auto workload =
      PaperWorkload::Create(GetParam(), /*populate=*/false);
  ASSERT_TRUE(workload.ok());
  Query query = (*workload)->ChainQuery(4);
  Optimizer optimizer(&(*workload)->model(), OptimizerOptions::Dynamic());
  auto plan =
      optimizer.Optimize(query, (*workload)->CompileTimeEnv(true));
  ASSERT_TRUE(plan.ok());
  AccessModule module(plan->root);
  auto restored = AccessModule::Deserialize(module.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->root()->ToString(), plan->root->ToString());
}

INSTANTIATE_TEST_SUITE_P(RandomCatalogs, SeedSweep,
                         ::testing::Values(2, 17, 101, 4242, 90210));

}  // namespace
}  // namespace dqep
