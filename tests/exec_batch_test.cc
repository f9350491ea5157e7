// The execution engine against an independent oracle: every result is
// compared, as a multiset in reference column order, with
// tests/reference_eval.h — a nested-loop evaluator that shares no code
// with the engine.  Covers the five paper queries through choose-plan
// resolution, plans forced (StartupOptions::forced_choices) onto merge
// joins and onto index joins with residual predicates, each at memory
// budgets {16, 112} pages and thread counts {1, 4}; merge-join duplicate
// groups and their forced overflows; cancellation mid-stream; order
// preservation; and the per-operator perf counters.
//
// This binary is part of the sanitizer steps (label `exec`).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/spill.h"
#include "runtime/lifecycle.h"
#include "runtime/startup.h"
#include "tests/reference_eval.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

const int64_t kBudgets[] = {16, 112};
const int32_t kThreadCounts[] = {1, 4};

class ExecBatchTest : public ::testing::Test {
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

  /// Bindings with selectivities in [lo, hi] and a memory grant that is a
  /// point at `budget_pages` — the number resolution prices against and
  /// MakeExecContext enforces.
  static ParamEnv DrawBindings(Rng* rng, const Query& query, double lo,
                               double hi, double budget_pages) {
    ParamEnv bound(Interval::Point(budget_pages));
    for (const RelationTerm& term : query.terms()) {
      for (const SelectionPredicate& pred : term.predicates) {
        bound.Bind(pred.operand.param(),
                   workload_->model().ValueForSelectivity(
                       pred, rng->NextDouble(lo, hi)));
      }
    }
    return bound;
  }

  /// Dynamic plan compiled with the memory grant uncertain, so start-up
  /// keeps memory-dependent alternatives open.
  static PhysNodePtr CompileDynamic(const Query& query) {
    auto dyn = CompileQuery(query, workload_->model(),
                            OptimizerOptions::Dynamic(),
                            workload_->CompileTimeEnv(/*uncertain_memory=*/
                                                      true));
    EXPECT_TRUE(dyn.ok()) << dyn.status().ToString();
    return dyn.ok() ? dyn->plan.root : nullptr;
  }

  struct BoundedRun {
    std::vector<Tuple> rows;  // production order
    TupleLayout layout;
    int64_t overflows = 0;
    int64_t peak_bytes = 0;
    int64_t budget_bytes = 0;
  };

  /// Executes `plan` under a fresh budgeted context with `threads`
  /// workers.  Asserts the run leaves no tracked memory and no temp heaps
  /// behind.
  static BoundedRun Run(const PhysNodePtr& plan, const ParamEnv& env,
                        int32_t threads) {
    ExecOptions options;
    options.threads = threads;
    std::unique_ptr<ExecContext> ctx =
        MakeExecContext(env, workload_->config(), options);
    BoundedRun run;
    auto iter = BuildParallelBatchExecutor(plan, workload_->db(), env, *ctx);
    EXPECT_TRUE(iter.ok()) << iter.status().ToString();
    if (!iter.ok()) {
      return run;
    }
    run.rows = DrainRows(**iter, *plan, ctx.get());
    run.layout = (*iter)->layout();
    run.overflows = ctx->overflows();
    run.peak_bytes = ctx->tracker().peak_bytes();
    run.budget_bytes = ctx->tracker().budget_bytes();
    EXPECT_EQ(ctx->tracker().used_bytes(), 0);
    EXPECT_EQ(workload_->db().live_temp_heaps(), 0);
    return run;
  }

  static std::vector<Tuple> Expected(const Query& query, const ParamEnv& env) {
    return Canonicalize(ReferenceEval(query, workload_->db(), env));
  }

  static std::vector<Tuple> Actual(const BoundedRun& run, const Query& query) {
    return Canonicalize(
        ToReferenceOrder(run.rows, run.layout, query, workload_->db()));
  }

  /// Runs `plan` at every thread count: each result must equal the
  /// reference multiset, and the row sequence (and forced-overflow count)
  /// must not depend on the thread count.  Returns the serial run.
  static BoundedRun CheckAgainstReference(const PhysNodePtr& plan,
                                          const Query& query,
                                          const ParamEnv& env,
                                          const std::string& where) {
    std::vector<Tuple> expected = Expected(query, env);
    BoundedRun serial;
    for (int32_t threads : kThreadCounts) {
      BoundedRun run = Run(plan, env, threads);
      EXPECT_EQ(Actual(run, query), expected)
          << where << " threads=" << threads;
      if (threads == 1) {
        serial = std::move(run);
        continue;
      }
      EXPECT_EQ(run.rows, serial.rows) << where << " threads=" << threads;
      EXPECT_EQ(run.overflows, serial.overflows)
          << where << " threads=" << threads;
    }
    return serial;
  }

  static PaperWorkload* workload_;
};

PaperWorkload* ExecBatchTest::workload_ = nullptr;

/// Resolves `dynamic` under `env` with every choose-plan decision that can
/// reach an operator of `kind` forced onto such an alternative (one that
/// is itself of `kind` preferred), so the resolved plan contains one.
/// Null when the dynamic plan offers no such alternative.
PhysNodePtr ResolveForcing(const PhysNodePtr& dynamic, const CostModel& model,
                           const ParamEnv& env, PhysOpKind kind) {
  std::unordered_map<const PhysNode*, bool> reaches;
  std::function<bool(const PhysNode&)> reach = [&](const PhysNode& node) {
    auto it = reaches.find(&node);
    if (it != reaches.end()) {
      return it->second;
    }
    bool found = node.kind() == kind;
    for (const PhysNodePtr& child : node.children()) {
      found = reach(*child) || found;
    }
    reaches[&node] = found;
    return found;
  };
  if (!reach(*dynamic)) {
    return nullptr;
  }
  std::unordered_map<const PhysNode*, size_t> force;
  for (const PhysNode* node : dynamic->TopologicalOrder()) {
    if (node->kind() != PhysOpKind::kChoosePlan) {
      continue;
    }
    std::optional<size_t> pick;
    for (size_t alt = 0; alt < node->children().size(); ++alt) {
      const PhysNode& child = *node->child(alt);
      if (child.kind() == kind) {
        pick = alt;
        break;
      }
      if (!pick.has_value() && reach(child)) {
        pick = alt;
      }
    }
    if (pick.has_value()) {
      force[node] = *pick;
    }
  }
  StartupOptions options;
  options.forced_choices = &force;
  auto startup = ResolveDynamicPlan(dynamic, model, env, options);
  EXPECT_TRUE(startup.ok()) << startup.status().ToString();
  return startup.ok() ? startup->resolved : nullptr;
}

/// The first operator of `kind` in a resolved plan (pre-order).
const PhysNode* FindKind(const PhysNode& node, PhysOpKind kind) {
  if (node.kind() == kind) {
    return &node;
  }
  for (const PhysNodePtr& child : node.children()) {
    if (const PhysNode* found = FindKind(*child, kind)) {
      return found;
    }
  }
  return nullptr;
}

/// The five paper queries (1, 2, 4, 6, 10 relations): dynamic
/// compilation, choose-plan resolution under random bindings at each
/// budget, then execution at every thread count.
class PaperQueryReference : public ExecBatchTest,
                            public ::testing::WithParamInterface<int32_t> {};

TEST_P(PaperQueryReference, MatchesReferenceAtEveryBudgetAndThreadCount) {
  int32_t n = GetParam();
  Query query = workload_->ChainQuery(n);
  PhysNodePtr dynamic = CompileDynamic(query);
  ASSERT_NE(dynamic, nullptr);
  int64_t total_rows = 0;
  for (int64_t budget : kBudgets) {
    Rng rng(900 + static_cast<uint64_t>(n));  // same bindings per budget
    for (int trial = 0; trial < 3; ++trial) {
      ParamEnv bound =
          DrawBindings(&rng, query, 0.3, 1.0, static_cast<double>(budget));
      auto startup = ResolveDynamicPlan(dynamic, workload_->model(), bound);
      ASSERT_TRUE(startup.ok()) << startup.status().ToString();
      BoundedRun run = CheckAgainstReference(
          startup->resolved, query, bound,
          "n=" + std::to_string(n) + " budget=" + std::to_string(budget) +
              " trial=" + std::to_string(trial));
      total_rows += static_cast<int64_t>(run.rows.size());
    }
  }
  // The sweep should exercise non-empty results, not just vacuous parity.
  EXPECT_GT(total_rows, 0) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, PaperQueryReference,
                         ::testing::ValuesIn(PaperWorkload::PaperQuerySizes()));

/// Merge-join plans forced out of the dynamic plan.  The paper workload's
/// join columns have domains smaller than their relations, so the right
/// input carries duplicate-key groups that every matching left row must
/// rescan.  A group is the join's minimum working set and cannot spill:
/// acquiring it past the budget is a forced overflow, counted the same at
/// every thread count (and, when none fires, peak memory stays within the
/// budget).
TEST_F(ExecBatchTest, ForcedMergeJoinMatchesReference) {
  for (int32_t n : {2, 3}) {
    Query query = workload_->ChainQuery(n);
    PhysNodePtr dynamic = CompileDynamic(query);
    ASSERT_NE(dynamic, nullptr);
    for (int64_t budget : kBudgets) {
      Rng rng(300 + static_cast<uint64_t>(n));
      ParamEnv bound =
          DrawBindings(&rng, query, 0.3, 0.6, static_cast<double>(budget));
      PhysNodePtr plan = ResolveForcing(dynamic, workload_->model(), bound,
                                        PhysOpKind::kMergeJoin);
      ASSERT_NE(plan, nullptr) << "n=" << n;
      const PhysNode* merge = FindKind(*plan, PhysOpKind::kMergeJoin);
      ASSERT_NE(merge, nullptr) << plan->ToString();
      std::string where =
          "n=" + std::to_string(n) + " budget=" + std::to_string(budget);
      BoundedRun run = CheckAgainstReference(plan, query, bound, where);
      ASSERT_FALSE(run.rows.empty()) << where;
      if (run.overflows == 0) {
        EXPECT_LE(run.peak_bytes, run.budget_bytes) << where;
      }
      // Duplicate-key groups: more result rows than distinct merge keys.
      int32_t key_slot = run.layout.SlotOf(merge->joins().front().left);
      ASSERT_GE(key_slot, 0);
      std::set<int64_t> keys;
      for (const Tuple& row : run.rows) {
        keys.insert(row.value(key_slot).AsInt64());
      }
      EXPECT_LT(keys.size(), run.rows.size()) << where;
    }
  }
}

/// A duplicate group larger than the whole budget: the merge join must
/// still produce every row, count exactly one forced overflow per tuple
/// acquired past the budget, and release the group's bytes.
TEST_F(ExecBatchTest, MergeJoinGroupPastBudgetRecordsForcedOverflows) {
  Database db;
  std::vector<ColumnInfo> columns = {
      {.name = "k", .type = ColumnType::kInt64, .domain_size = 8,
       .width_bytes = 8},
      {.name = "w", .type = ColumnType::kInt64, .domain_size = 8,
       .width_bytes = 8},
  };
  auto l = db.CreateTable("L", columns, 8);
  auto r = db.CreateTable("R", columns, 6);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(db.CreateIndex(*l, 0).ok());
  ASSERT_TRUE(db.CreateIndex(*r, 0).ok());
  for (int64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(db.table(*l).Insert(Tuple({Value(k), Value(k)})).ok());
  }
  int64_t w = 0;
  for (int64_t k : {1, 1, 3, 5, 5, 5}) {
    ASSERT_TRUE(db.table(*r).Insert(Tuple({Value(k), Value(w++)})).ok());
  }
  // B-tree scans deliver key order, so the merge join is the only
  // operator that tracks memory.
  JoinPredicate join{AttrRef{*l, 0}, AttrRef{*r, 0}};
  PhysNodePtr plan =
      PhysNode::MergeJoin({join}, PhysNode::BTreeScan(db.catalog(), *l, 0),
                          PhysNode::BTreeScan(db.catalog(), *r, 0));
  const int64_t row_bytes =
      exec_internal::TrackedTupleBytes(Tuple({Value(int64_t{0}),
                                              Value(int64_t{0})}));
  // A two-row budget: the three-row group for key 5 overflows once.
  ExecContext ctx(ExecOptions{}, /*memory_pages=*/1,
                  /*page_size_bytes=*/static_cast<int32_t>(2 * row_bytes));
  auto rows = ExecutePlan(plan, db, ParamEnv(), ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 6u);
  EXPECT_EQ(ctx.overflows(), 1);
  EXPECT_EQ(ctx.tracker().peak_bytes(), 3 * row_bytes);
  EXPECT_EQ(ctx.tracker().used_bytes(), 0);
}

/// Index-join plans forced out of the dynamic plan: every chain term has
/// a selection on its `s` column, which the index join applies as a
/// residual predicate to each fetched inner row.
TEST_F(ExecBatchTest, ForcedIndexJoinWithResidualsMatchesReference) {
  for (int32_t n : {2, 3}) {
    Query query = workload_->ChainQuery(n);
    PhysNodePtr dynamic = CompileDynamic(query);
    ASSERT_NE(dynamic, nullptr);
    for (int64_t budget : kBudgets) {
      Rng rng(400 + static_cast<uint64_t>(n));
      ParamEnv bound =
          DrawBindings(&rng, query, 0.3, 0.6, static_cast<double>(budget));
      PhysNodePtr plan = ResolveForcing(dynamic, workload_->model(), bound,
                                        PhysOpKind::kIndexJoin);
      ASSERT_NE(plan, nullptr) << "n=" << n;
      const PhysNode* index = FindKind(*plan, PhysOpKind::kIndexJoin);
      ASSERT_NE(index, nullptr) << plan->ToString();
      EXPECT_FALSE(index->predicates().empty());
      std::string where =
          "n=" + std::to_string(n) + " budget=" + std::to_string(budget);
      BoundedRun run = CheckAgainstReference(plan, query, bound, where);
      EXPECT_FALSE(run.rows.empty()) << where;
    }
  }
}

/// Cancelling after the k-th batch ends the stream of a forced merge- or
/// index-join plan (and of the spilling hash join under budget 16); Close
/// then leaves no tracked memory, no live temp heap and no pinned frame.
TEST_F(ExecBatchTest, CancellationAtKthBatchReleasesEverything) {
  Query query = workload_->ChainQuery(3);
  PhysNodePtr dynamic = CompileDynamic(query);
  ASSERT_NE(dynamic, nullptr);
  for (PhysOpKind kind : {PhysOpKind::kMergeJoin, PhysOpKind::kIndexJoin,
                          PhysOpKind::kHashJoin}) {
    for (int64_t budget : kBudgets) {
      Rng rng(500);
      ParamEnv bound =
          DrawBindings(&rng, query, 0.6, 1.0, static_cast<double>(budget));
      PhysNodePtr plan =
          ResolveForcing(dynamic, workload_->model(), bound, kind);
      ASSERT_NE(plan, nullptr);
      for (int32_t threads : kThreadCounts) {
        for (int k : {1, 3}) {
          SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                       " budget=" + std::to_string(budget) + " threads=" +
                       std::to_string(threads) + " k=" + std::to_string(k));
          ExecOptions options;
          options.threads = threads;
          std::unique_ptr<ExecContext> ctx =
              MakeExecContext(bound, workload_->config(), options);
          auto iter =
              BuildParallelBatchExecutor(plan, workload_->db(), bound, *ctx);
          ASSERT_TRUE(iter.ok()) << iter.status().ToString();
          (*iter)->Open();
          TupleBatch batch;
          for (int i = 0; i < k; ++i) {
            ASSERT_TRUE((*iter)->Next(&batch));
          }
          ctx->RequestCancel();
          EXPECT_FALSE((*iter)->Next(&batch));
          (*iter)->Close();
          EXPECT_EQ(ctx->tracker().used_bytes(), 0);
          EXPECT_EQ(workload_->db().live_temp_heaps(), 0);
          EXPECT_EQ(workload_->db().buffer_pool().pinned(), 0);
        }
      }
    }
  }
}

TEST_F(ExecBatchTest, SortOrderSurvivesBatching) {
  // A sort at the root must survive batch-wise delivery: compare exact
  // sequences, not canonicalized multisets.
  const Catalog& catalog = workload_->catalog();
  AttrRef attr{0, ExperimentColumns::kSelect};
  PhysNodePtr plan = PhysNode::Sort(attr, PhysNode::FileScan(catalog, 0));
  auto rows = ExecutePlan(plan, workload_->db(), ParamEnv());
  ASSERT_TRUE(rows.ok());
  ASSERT_GT(rows->size(), static_cast<size_t>(TupleBatch::kDefaultCapacity));
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LE((*rows)[i - 1].value(ExperimentColumns::kSelect).AsInt64(),
              (*rows)[i].value(ExperimentColumns::kSelect).AsInt64());
  }
  std::vector<Tuple> expected = workload_->db().table(0).heap().Materialize();
  EXPECT_EQ(Canonicalize(*rows), Canonicalize(expected));
}

TEST_F(ExecBatchTest, UnresolvedChoosePlanIsRejected) {
  Query query = workload_->ChainQuery(2);
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(),
                          workload_->CompileTimeEnv(false));
  ASSERT_TRUE(dyn.ok());
  ASSERT_GT(dyn->plan.root->CountChooseNodes(), 0);
  ParamEnv env;
  EXPECT_FALSE(BuildBatchExecutor(dyn->plan.root, workload_->db(), env).ok());
}

TEST_F(ExecBatchTest, PerfCountersTrackProduction) {
  const Catalog& catalog = workload_->catalog();
  SelectionPredicate pred;
  pred.attr = AttrRef{0, ExperimentColumns::kSelect};
  pred.op = CompareOp::kLt;
  pred.operand =
      Operand::Literal(workload_->model().ValueForSelectivity(pred, 0.5));
  PhysNodePtr plan =
      PhysNode::Filter({pred}, PhysNode::FileScan(catalog, 0));
  ParamEnv env;

  // The root's tuples counter equals the result size, one Next call per
  // produced batch plus the final end-of-stream call.
  auto iter = BuildBatchExecutor(plan, workload_->db(), env);
  ASSERT_TRUE(iter.ok());
  int64_t rows = static_cast<int64_t>(DrainRows(**iter, *plan).size());
  ASSERT_GT(rows, 0);
  const OperatorCounters& c = (*iter)->counters();
  EXPECT_EQ(c.tuples, rows);
  EXPECT_GT(c.batches, 0);
  EXPECT_EQ(c.next_calls, c.batches + 1);
  EXPECT_LT(c.next_calls, rows);
  ASSERT_EQ((*iter)->child_nodes().size(), 1u);
  EXPECT_GE((*iter)->child_nodes()[0]->counters().tuples, rows);

  // The rendered profile mentions every operator in the tree.
  std::string profile = RenderProfile(**iter);
  EXPECT_NE(profile.find("batch-filter"), std::string::npos);
  EXPECT_NE(profile.find("batch-file-scan"), std::string::npos);
}

}  // namespace
}  // namespace dqep
