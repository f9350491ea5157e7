// Differential test of start-up resolution: the StartupProgram evaluator
// (runtime/decision_engine.cc) against the map-based evaluator it
// replaced (tests/reference_startup.h).  Costs are computed by the same
// EstimateNode calls in the same order, so every reported figure must be
// bit-identical, not merely close: choices, every alternative's cost,
// the execution cost, the evaluation / decision / skipped-node counts,
// and the resolved plan itself.

#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "runtime/plan_cache.h"
#include "runtime/startup.h"
#include "runtime/startup_program.h"
#include "tests/reference_startup.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

constexpr int kBindings = 200;
const double kGrants[] = {16.0, 24.0, 64.0, 112.0};

/// Exact equality of everything a resolution reports (measured CPU time
/// aside).
void ExpectSameResolution(const StartupResult& expected,
                          const StartupResult& actual,
                          const std::string& where) {
  EXPECT_EQ(actual.choices, expected.choices) << where;
  EXPECT_EQ(actual.alternative_costs, expected.alternative_costs) << where;
  EXPECT_EQ(actual.execution_cost, expected.execution_cost) << where;
  EXPECT_EQ(actual.cost_evaluations, expected.cost_evaluations) << where;
  EXPECT_EQ(actual.decisions, expected.decisions) << where;
  EXPECT_EQ(actual.nodes_skipped, expected.nodes_skipped) << where;
  EXPECT_EQ(actual.modeled_cpu_seconds, expected.modeled_cpu_seconds)
      << where;
  ASSERT_NE(actual.resolved, nullptr) << where;
  EXPECT_EQ(actual.resolved->ToString(), expected.resolved->ToString())
      << where;
}

/// One compiled DAG and its program, built once like a cache entry's.
struct CompiledDag {
  std::string label;
  PhysNodePtr root;
  std::unique_ptr<StartupProgram> program;
};

class StartupDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    auto workload = PaperWorkload::Create(GetParam(), /*populate=*/false);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  /// The n-way chain's dynamic plan compiled under an uncertain grant
  /// (interval) and under each point grant of kGrants.
  std::vector<CompiledDag> CompileDags(const Query& query) {
    std::vector<CompiledDag> dags;
    Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
    auto add = [&](const std::string& label, const ParamEnv& env) {
      auto plan = optimizer.Optimize(query, env);
      EXPECT_TRUE(plan.ok());
      dags.push_back(CompiledDag{
          label, plan->root, std::make_unique<StartupProgram>(plan->root)});
    };
    add("interval", workload_->CompileTimeEnv(/*uncertain_memory=*/true));
    for (double grant : kGrants) {
      add("grant" + std::to_string(static_cast<int>(grant)),
          ParamEnv(Interval::Point(grant)));
    }
    return dags;
  }

  std::unique_ptr<PaperWorkload> workload_;
};

// Q1–Q5 over the catalog, 200 seeded bindings each at every grant, with
// branch-and-bound off and on, forced choices, observed cardinalities,
// and both the prebuilt program and a transient one.
TEST_P(StartupDiffTest, ProgramEvaluatorMatchesReference) {
  const CostModel& model = workload_->model();
  Rng rng(GetParam() * 7919 + 1);
  for (int32_t n : PaperWorkload::PaperQuerySizes()) {
    Query query = workload_->ChainQuery(n);
    std::vector<CompiledDag> dags = CompileDags(query);
    for (int b = 0; b < kBindings; ++b) {
      const double grant = kGrants[b % 4];
      // The interval DAG every other binding, else the DAG compiled at
      // this binding's grant.
      const CompiledDag& dag = dags[(b / 4) % 2 == 0 ? 0 : 1 + b % 4];
      ParamEnv bound = workload_->DrawBindings(&rng, query, false);
      bound.set_memory_pages(Interval::Point(grant));
      const std::vector<const PhysNode*> order = dag.root->TopologicalOrder();

      StartupOptions options;
      std::unordered_map<const PhysNode*, size_t> forced;
      std::unordered_map<const PhysNode*, double> observed;
      if (b % 5 == 1) {
        // Force a few decisions, some out of range (they fall back).
        for (const PhysNode* node : order) {
          if (node->kind() == PhysOpKind::kChoosePlan &&
              rng.NextDouble(0, 1) < 0.3) {
            forced[node] = rng.NextDouble(0, 1) < 0.2
                               ? 1000
                               : static_cast<size_t>(rng.NextInt(
                                     0, static_cast<int64_t>(
                                            node->children().size()) - 1));
          }
        }
        options.forced_choices = &forced;
      }
      if (b % 7 == 2) {
        for (const PhysNode* node : order) {
          if (node->kind() != PhysOpKind::kChoosePlan &&
              rng.NextDouble(0, 1) < 0.1) {
            observed[node] = rng.NextDouble(0, 2000);
          }
        }
        options.observed_cardinalities = &observed;
      }
      for (bool bnb : {false, true}) {
        options.use_branch_and_bound = bnb;
        const std::string where =
            "seed=" + std::to_string(GetParam()) + " n=" + std::to_string(n) +
            " dag=" + dag.label + " binding=" + std::to_string(b) +
            " bnb=" + std::to_string(bnb);
        auto expected =
            reference::ReferenceResolve(dag.root, model, bound, options);
        ASSERT_TRUE(expected.ok()) << where;
        auto actual =
            b % 2 == 0
                ? ResolveDynamicPlan(*dag.program, model, bound, options)
                : ResolveDynamicPlan(dag.root, model, bound, options);
        ASSERT_TRUE(actual.ok()) << where;
        ExpectSameResolution(*expected, *actual, where);
        if (::testing::Test::HasFailure()) {
          return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalogs, StartupDiffTest,
                         ::testing::Values(6, 2, 17, 101, 4242, 90210));

class StartupProgramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = PaperWorkload::Create(/*seed=*/6, /*populate=*/false);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  std::unique_ptr<PaperWorkload> workload_;
};

TEST_F(StartupProgramTest, FlattensTheDagInTopologicalOrder) {
  Query query = workload_->ChainQuery(4);
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
  auto plan = optimizer.Optimize(query, workload_->CompileTimeEnv(false));
  ASSERT_TRUE(plan.ok());
  StartupProgram program(plan->root);
  std::vector<const PhysNode*> order = plan->root->TopologicalOrder();
  ASSERT_EQ(program.size(), order.size());
  EXPECT_EQ(&program.node(program.root_index()), plan->root.get());
  std::unordered_map<const PhysNode*, uint32_t> index;
  uint32_t chooses = 0;
  for (uint32_t i = 0; i < program.size(); ++i) {
    const PhysNode& node = program.node(i);
    EXPECT_EQ(&node, order[i]);
    index[&node] = i;
    ASSERT_EQ(program.child_end(i) - program.child_begin(i),
              node.children().size());
    for (uint32_t edge = program.child_begin(i); edge < program.child_end(i);
         ++edge) {
      // Children come first and the ranges name them in child order.
      uint32_t child = program.child_at(edge);
      EXPECT_LT(child, i);
      EXPECT_EQ(&program.node(child),
                node.child(edge - program.child_begin(i)).get());
    }
    if (node.kind() == PhysOpKind::kChoosePlan) {
      EXPECT_EQ(program.choose_ordinal(i), static_cast<int32_t>(chooses));
      EXPECT_EQ(program.choose_node(program.choose_ordinal(i)), i);
      ++chooses;
    } else {
      EXPECT_EQ(program.choose_ordinal(i), -1);
    }
  }
  EXPECT_EQ(chooses, program.choose_count());
  EXPECT_EQ(static_cast<int64_t>(chooses), plan->root->CountChooseNodes());
  EXPECT_EQ(program.edge_count(), program.child_end(program.root_index()));
  EXPECT_EQ(program.params(), reference::ReferencePlanParams(*plan->root));
}

TEST_F(StartupProgramTest, TraceSpansMatchReference) {
  // The same decision spans, in the same order, with the same arguments
  // (timings aside).
  Query query = workload_->ChainQuery(4);
  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
  auto plan = optimizer.Optimize(query, workload_->CompileTimeEnv(false));
  ASSERT_TRUE(plan.ok());
  Rng rng(12);
  for (bool bnb : {false, true}) {
    ParamEnv bound = workload_->DrawBindings(&rng, query, false);
    obs::TraceSession expected_trace;
    obs::TraceSession actual_trace;
    StartupOptions options;
    options.use_branch_and_bound = bnb;
    options.trace = &expected_trace;
    ASSERT_TRUE(reference::ReferenceResolve(plan->root, workload_->model(),
                                            bound, options)
                    .ok());
    options.trace = &actual_trace;
    ASSERT_TRUE(
        ResolveDynamicPlan(plan->root, workload_->model(), bound, options)
            .ok());
    std::vector<obs::TraceEvent> expected = expected_trace.Events();
    std::vector<obs::TraceEvent> actual = actual_trace.Events();
    ASSERT_EQ(actual.size(), expected.size());
    ASSERT_GT(actual.size(), 1u);
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].name, expected[i].name) << i;
      EXPECT_EQ(actual[i].category, expected[i].category) << i;
      EXPECT_EQ(actual[i].args, expected[i].args) << i;
    }
  }
}

TEST_F(StartupProgramTest, CachedProgramMatchesReferenceAcrossThreads) {
  // A plan-cache entry's program is shared read-only: four threads
  // resolving it at once must each get the reference answer.
  DynamicPlanCache cache;
  CachedPlanRequest request;
  request.catalog = &workload_->catalog();
  request.model = &workload_->model();
  request.cache = &cache;
  Rng literal_rng(13);
  const std::string sql = PaperWorkload::ChainSql(
      6, workload_->DrawChainLiterals(6, &literal_rng, 0.5));
  auto miss = PlanQueryWithCache(sql, request);
  ASSERT_TRUE(miss.ok());
  ASSERT_FALSE(miss->cache_hit);
  ASSERT_NE(miss->program, nullptr);
  EXPECT_EQ(miss->plan_params, miss->program->params());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  // Each thread's bindings come from its own cache hit with its own
  // literals; the references are computed up front, single-threaded.
  std::vector<std::vector<CachedPlanResult>> hits(kThreads);
  std::vector<std::vector<StartupResult>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      auto hit = PlanQueryWithCache(
          PaperWorkload::ChainSql(
              6, workload_->DrawChainLiterals(6, &literal_rng, 1.0)),
          request);
      ASSERT_TRUE(hit.ok());
      ASSERT_TRUE(hit->cache_hit);
      ASSERT_EQ(hit->program, miss->program);
      StartupOptions options;
      options.use_branch_and_bound = i % 2 == 1;
      auto reference_result = reference::ReferenceResolve(
          hit->root, workload_->model(), hit->bound, options);
      ASSERT_TRUE(reference_result.ok());
      expected[t].push_back(std::move(*reference_result));
      hits[t].push_back(std::move(*hit));
    }
  }
  std::vector<std::vector<StartupResult>> actual(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        StartupOptions options;
        options.use_branch_and_bound = i % 2 == 1;
        const CachedPlanResult& hit = hits[t][static_cast<size_t>(i)];
        auto result = ResolveDynamicPlan(*hit.program, workload_->model(),
                                         hit.bound, options);
        DQEP_CHECK(result.ok());
        actual[t].push_back(std::move(*result));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      ExpectSameResolution(expected[t][static_cast<size_t>(i)],
                           actual[t][static_cast<size_t>(i)],
                           "thread=" + std::to_string(t) +
                               " query=" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace dqep
