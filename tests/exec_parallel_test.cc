// Differential tests for morsel-driven parallel execution: the exchange
// operator must produce, at every thread count, the exact row sequence of
// the serial engine — for the five paper queries through choose-plan
// resolution under random bindings, for handcrafted plans (B-tree
// leaves, merge and index joins above exchanges), and under non-default morsel
// sizes.  Also checks per-worker counter aggregation, buffer-pool
// statistics under concurrent readers, and unresolved-plan rejection.
//
// This binary is the target of the thread-sanitizer verify step (build
// with -DDQEP_SANITIZE=thread); trial counts are kept small so the TSan
// run stays fast.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"
#include "runtime/lifecycle.h"
#include "runtime/startup.h"
#include "tests/reference_eval.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

/// Thread counts every differential sweep runs at.  1 must take the
/// serial code path; the rest exercise the exchange.
const int32_t kThreadCounts[] = {1, 2, 4, 8};

class ExecParallelTest : public ::testing::Test {
 protected:
  // One shared workload for the whole suite: populating ten relations is
  // the dominant cost under TSan, and every test only reads it.
  static void SetUpTestSuite() {
    auto workload = PaperWorkload::Create(/*seed=*/31, /*populate=*/true);
    ASSERT_TRUE(workload.ok());
    workload_ = workload->release();
  }

  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  static ParamEnv DrawBindings(Rng* rng, const Query& query, double lo,
                               double hi) {
    ParamEnv bound;
    for (const RelationTerm& term : query.terms()) {
      for (const SelectionPredicate& pred : term.predicates) {
        bound.Bind(pred.operand.param(),
                   workload_->model().ValueForSelectivity(
                       pred, rng->NextDouble(lo, hi)));
      }
    }
    return bound;
  }

  /// Executes `plan` with `threads` workers and returns the rows in
  /// production order.
  static std::vector<Tuple> Run(const PhysNodePtr& plan, const ParamEnv& env,
                                int32_t threads) {
    ExecOptions options;
    options.threads = threads;
    auto rows = ExecutePlan(plan, workload_->db(), env, options);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? std::move(*rows) : std::vector<Tuple>();
  }

  static PaperWorkload* workload_;
};

PaperWorkload* ExecParallelTest::workload_ = nullptr;

/// The five paper queries (1, 2, 4, 6, 10 relations): dynamic
/// compilation, choose-plan resolution under random bindings, then
/// execution at every thread count must reproduce the serial engine's
/// exact row sequence.
class ParallelQueryParity : public ExecParallelTest,
                            public ::testing::WithParamInterface<int32_t> {};

TEST_P(ParallelQueryParity, AllThreadCountsMatchSerial) {
  int32_t n = GetParam();
  Query query = workload_->ChainQuery(n);
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(),
                          workload_->CompileTimeEnv(false));
  ASSERT_TRUE(dyn.ok());

  Rng rng(700 + static_cast<uint64_t>(n));
  int64_t total_rows = 0;
  for (int trial = 0; trial < 3; ++trial) {
    ParamEnv bound = DrawBindings(&rng, query, 0.2, 1.0);
    auto startup =
        ResolveDynamicPlan(dyn->plan.root, workload_->model(), bound);
    ASSERT_TRUE(startup.ok());
    std::vector<Tuple> serial_batch = Run(startup->resolved, bound, 1);
    for (int32_t threads : kThreadCounts) {
      std::vector<Tuple> parallel = Run(startup->resolved, bound, threads);
      // Exact sequence, not just multiset: the exchange merges morsels in
      // scan order, so every thread count flattens identically.
      EXPECT_EQ(parallel, serial_batch)
          << "n=" << n << " trial=" << trial << " threads=" << threads;
    }
    total_rows += static_cast<int64_t>(serial_batch.size());
  }
  EXPECT_GT(total_rows, 0) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, ParallelQueryParity,
                         ::testing::ValuesIn(PaperWorkload::PaperQuerySizes()));

TEST_F(ExecParallelTest, BTreeLeafMorselsMatchSerial) {
  // A filtered B-tree scan parallelizes over rid ranges, not page ranges;
  // output must stay in index order at every thread count.
  SelectionPredicate pred;
  pred.attr = AttrRef{0, ExperimentColumns::kSelect};
  pred.op = CompareOp::kLt;
  pred.operand =
      Operand::Literal(workload_->model().ValueForSelectivity(pred, 0.8));
  PhysNodePtr plan = PhysNode::FilterBTreeScan(workload_->catalog(), 0, pred);
  ParamEnv env;
  std::vector<Tuple> serial = Run(plan, env, 1);
  ASSERT_GT(serial.size(), 0u);
  for (int32_t threads : kThreadCounts) {
    EXPECT_EQ(Run(plan, env, threads), serial) << "threads=" << threads;
  }

  // Small rid morsels force many morsels per worker.
  ExecOptions tiny;
  tiny.threads = 4;
  tiny.morsel_rids = 16;
  auto rows = ExecutePlan(plan, workload_->db(), env, tiny);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, serial);
}

TEST_F(ExecParallelTest, TinyPageMorselsMatchSerial) {
  // morsel_pages=1 maximizes morsel count and reorder-buffer pressure.
  SelectionPredicate pred;
  pred.attr = AttrRef{0, ExperimentColumns::kSelect};
  pred.op = CompareOp::kLt;
  pred.operand =
      Operand::Literal(workload_->model().ValueForSelectivity(pred, 0.5));
  PhysNodePtr plan =
      PhysNode::Filter({pred}, PhysNode::FileScan(workload_->catalog(), 0));
  ParamEnv env;
  std::vector<Tuple> serial = Run(plan, env, 1);
  ASSERT_GT(serial.size(), 0u);
  ExecOptions options;
  options.threads = 8;
  options.morsel_pages = 1;
  auto rows = ExecutePlan(plan, workload_->db(), env, options);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, serial);
}

TEST_F(ExecParallelTest, HashJoinSharedBuildMatchesSerial) {
  // Handcrafted hash join: the build side is drained once into the shared
  // table, the probe side fans out over morsels.  Exact-sequence parity
  // checks that per-key match order equals the serial multimap's
  // insertion order.
  JoinPredicate join;
  join.left = AttrRef{0, ExperimentColumns::kJoinNext};
  join.right = AttrRef{1, ExperimentColumns::kJoinPrev};
  const Catalog& catalog = workload_->catalog();
  PhysNodePtr plan =
      PhysNode::HashJoin({join}, PhysNode::FileScan(catalog, 0),
                         PhysNode::FileScan(catalog, 1));
  ParamEnv env;
  std::vector<Tuple> serial = Run(plan, env, 1);
  ASSERT_GT(serial.size(), 0u);
  for (int32_t threads : kThreadCounts) {
    EXPECT_EQ(Run(plan, env, threads), serial) << "threads=" << threads;
  }
}

TEST_F(ExecParallelTest, MergeAndIndexJoinsRunUnderParallelBuild) {
  // Operators outside the parallelizable chain (sort, merge join, index
  // join) must still execute correctly when the plan is built through
  // BuildParallelBatchExecutor — their scan subtrees may pick up
  // exchanges, the rest runs serially on the consumer thread.
  JoinPredicate join;
  join.left = AttrRef{0, ExperimentColumns::kJoinNext};
  join.right = AttrRef{1, ExperimentColumns::kJoinPrev};
  const Catalog& catalog = workload_->catalog();
  PhysNodePtr merge = PhysNode::MergeJoin(
      {join},
      PhysNode::Sort(join.left, PhysNode::FileScan(catalog, 0)),
      PhysNode::Sort(join.right, PhysNode::FileScan(catalog, 1)));
  SelectionPredicate residual;
  residual.attr = AttrRef{1, ExperimentColumns::kSelect};
  residual.op = CompareOp::kLt;
  residual.operand = Operand::Literal(
      workload_->model().ValueForSelectivity(residual, 0.5));
  PhysNodePtr index = PhysNode::IndexJoin(catalog, join, {residual},
                                          PhysNode::FileScan(catalog, 0));
  ParamEnv env;
  for (const PhysNodePtr& plan : {merge, index}) {
    std::vector<Tuple> serial = Run(plan, env, 1);
    ASSERT_GT(serial.size(), 0u);
    for (int32_t threads : {2, 4}) {
      EXPECT_EQ(Run(plan, env, threads), serial) << "threads=" << threads;
    }
  }
}

TEST_F(ExecParallelTest, CountersAggregateAcrossWorkers) {
  // A full table scan under the exchange: the per-worker leaf counters
  // folded at close must sum to exactly the table's row count, and the
  // rendered profile must show the exchange heading the chain.
  const Catalog& catalog = workload_->catalog();
  PhysNodePtr plan = PhysNode::FileScan(catalog, 0);
  ParamEnv env;
  ExecOptions options;
  options.threads = 4;
  auto iter = BuildParallelBatchExecutor(plan, workload_->db(), env, options);
  ASSERT_TRUE(iter.ok());
  (*iter)->Open();
  TupleBatch batch;
  int64_t rows = 0;
  while ((*iter)->Next(&batch)) {
    rows += static_cast<int64_t>(batch.num_rows());
  }
  (*iter)->Close();
  ASSERT_GT(rows, 0);

  const OperatorCounters& xc = (*iter)->counters();
  EXPECT_EQ(xc.tuples, rows);
  EXPECT_GT(xc.batches, 0);

  // Walk to the leaf of the aggregated profile skeleton.
  const ExecNode* node = iter->get();
  while (!node->child_nodes().empty()) {
    ASSERT_EQ(node->child_nodes().size(), 1u);
    node = node->child_nodes()[0];
  }
  EXPECT_EQ(node->counters().tuples, rows);
  EXPECT_GT(node->counters().batches, 0);

  std::string profile = RenderProfile(**iter);
  EXPECT_NE(profile.find("exchange"), std::string::npos);
  EXPECT_NE(profile.find("batch-file-scan"), std::string::npos);
}

TEST_F(ExecParallelTest, UnresolvedChoosePlanIsRejected) {
  Query query = workload_->ChainQuery(2);
  auto dyn = CompileQuery(query, workload_->model(),
                          OptimizerOptions::Dynamic(),
                          workload_->CompileTimeEnv(false));
  ASSERT_TRUE(dyn.ok());
  ASSERT_GT(dyn->plan.root->CountChooseNodes(), 0);
  ParamEnv env;
  ExecOptions options;
  options.threads = 4;
  EXPECT_FALSE(
      BuildParallelBatchExecutor(dyn->plan.root, workload_->db(), env, options)
          .ok());
}

TEST_F(ExecParallelTest, ExchangeSurvivesEarlyClose) {
  // Closing before exhaustion must cancel the workers without deadlock or
  // leaks, and the iterator must be re-openable afterwards.
  const Catalog& catalog = workload_->catalog();
  PhysNodePtr plan = PhysNode::FileScan(catalog, 0);
  ParamEnv env;
  ExecOptions options;
  options.threads = 4;
  options.morsel_pages = 1;
  auto iter = BuildParallelBatchExecutor(plan, workload_->db(), env, options);
  ASSERT_TRUE(iter.ok());
  std::vector<Tuple> serial = Run(plan, env, 1);
  for (int round = 0; round < 3; ++round) {
    (*iter)->Open();
    TupleBatch batch;
    ASSERT_TRUE((*iter)->Next(&batch));  // partial drain
    (*iter)->Close();
  }
  // Full drain after repeated early closes still yields the full result.
  (*iter)->Open();
  std::vector<Tuple> rows;
  TupleBatch batch;
  while ((*iter)->Next(&batch)) {
    for (int32_t i = 0; i < batch.num_rows(); ++i) {
      rows.push_back(batch.row(i));
    }
  }
  (*iter)->Close();
  EXPECT_EQ(rows, serial);
}

TEST_F(ExecParallelTest, BufferPoolStatsAreSaneUnderConcurrentScans) {
  // Many threads scanning the same table concurrently: the pool's atomic
  // statistics must stay internally consistent (no lost or negative
  // counts) and every reader must see every row.
  Database& db = workload_->db();
  db.ResetIoStats();
  const Table& table = db.table(0);
  const int kReaders = 8;
  std::atomic<int64_t> total_rows{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&table, &total_rows] {
      HeapFile::Scanner scanner = table.heap().CreateScanner();
      Tuple tuple;
      int64_t rows = 0;
      while (scanner.Next(&tuple)) {
        ++rows;
      }
      total_rows.fetch_add(rows);
    });
  }
  for (std::thread& t : readers) {
    t.join();
  }
  const BufferPool& pool = db.buffer_pool();
  int64_t expected = kReaders * static_cast<int64_t>(
                                    db.catalog().relation(0).cardinality());
  EXPECT_EQ(total_rows.load(), expected);
  EXPECT_GE(pool.hits(), 0);
  EXPECT_GE(pool.misses(), 0);
  EXPECT_GE(pool.sequential_misses(), 0);
  EXPECT_LE(pool.sequential_misses(), pool.misses());
  // Every page access is either a hit or a miss; eight full scans of the
  // table touch its pages eight times over.
  EXPECT_GT(pool.hits() + pool.misses(), 0);
}

TEST_F(ExecParallelTest, SingleThreadOptionsBypassExchange) {
  // threads=1 must not introduce an exchange: the profile is the plain
  // serial batch chain.
  const Catalog& catalog = workload_->catalog();
  PhysNodePtr plan = PhysNode::FileScan(catalog, 0);
  ParamEnv env;
  ExecOptions options;
  options.threads = 1;
  auto iter = BuildParallelBatchExecutor(plan, workload_->db(), env, options);
  ASSERT_TRUE(iter.ok());
  (*iter)->Open();
  TupleBatch batch;
  while ((*iter)->Next(&batch)) {
  }
  (*iter)->Close();
  std::string profile = RenderProfile(**iter);
  EXPECT_EQ(profile.find("exchange"), std::string::npos);
  EXPECT_NE(profile.find("batch-file-scan"), std::string::npos);
}

}  // namespace
}  // namespace dqep
