// Operator-level execution tests on a small handcrafted database.

#include "exec/executor.h"

#include <gtest/gtest.h>

#include "tests/reference_eval.h"

namespace dqep {
namespace {

/// Two tiny relations with known contents.
///   L(k, v):  k = 0..7, v = k * 10
///   R(k, w):  k in {1, 1, 3, 5, 5, 5}, w = row index
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<ColumnInfo> l_cols = {
        {.name = "k", .type = ColumnType::kInt64, .domain_size = 8,
         .width_bytes = 8},
        {.name = "v", .type = ColumnType::kInt64, .domain_size = 80,
         .width_bytes = 8},
    };
    auto l = db_.CreateTable("L", std::move(l_cols), 8);
    ASSERT_TRUE(l.ok());
    l_ = *l;
    ASSERT_TRUE(db_.CreateIndex(l_, 0).ok());
    for (int64_t k = 0; k < 8; ++k) {
      ASSERT_TRUE(db_.table(l_).Insert(Tuple({Value(k), Value(k * 10)})).ok());
    }

    std::vector<ColumnInfo> r_cols = {
        {.name = "k", .type = ColumnType::kInt64, .domain_size = 8,
         .width_bytes = 8},
        {.name = "w", .type = ColumnType::kInt64, .domain_size = 8,
         .width_bytes = 8},
    };
    auto r = db_.CreateTable("R", std::move(r_cols), 6);
    ASSERT_TRUE(r.ok());
    r_ = *r;
    ASSERT_TRUE(db_.CreateIndex(r_, 0).ok());
    int64_t row = 0;
    for (int64_t k : {1, 1, 3, 5, 5, 5}) {
      ASSERT_TRUE(db_.table(r_).Insert(Tuple({Value(k), Value(row++)})).ok());
    }
  }

  std::vector<Tuple> Run(const PhysNodePtr& plan,
                         const ParamEnv& env = ParamEnv()) {
    auto rows = ExecutePlan(plan, db_, env);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? *rows : std::vector<Tuple>();
  }

  Database db_;
  RelationId l_ = kInvalidRelation;
  RelationId r_ = kInvalidRelation;
};

TEST_F(ExecutorTest, FileScanProducesAllRows) {
  auto rows = Run(PhysNode::FileScan(db_.catalog(), l_));
  EXPECT_EQ(rows.size(), 8u);
}

TEST_F(ExecutorTest, BTreeScanProducesKeyOrder) {
  auto rows = Run(PhysNode::BTreeScan(db_.catalog(), r_, 0));
  ASSERT_EQ(rows.size(), 6u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].value(0).AsInt64(), rows[i].value(0).AsInt64());
  }
}

TEST_F(ExecutorTest, FilterWithLiteral) {
  SelectionPredicate pred{AttrRef{l_, 0}, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{3}))};
  auto rows = Run(PhysNode::Filter({pred}, PhysNode::FileScan(db_.catalog(), l_)));
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(ExecutorTest, FilterWithBoundParam) {
  SelectionPredicate pred{AttrRef{l_, 0}, CompareOp::kGe, Operand::Param(0)};
  ParamEnv env;
  env.Bind(0, Value(int64_t{6}));
  auto rows = Run(
      PhysNode::Filter({pred}, PhysNode::FileScan(db_.catalog(), l_)), env);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(ExecutorTest, UnboundParamFailsCleanly) {
  SelectionPredicate pred{AttrRef{l_, 0}, CompareOp::kLt, Operand::Param(9)};
  auto plan = PhysNode::Filter({pred}, PhysNode::FileScan(db_.catalog(), l_));
  auto rows = ExecutePlan(plan, db_, ParamEnv());
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, FilterBTreeScanAllOperators) {
  struct Case {
    CompareOp op;
    int64_t operand;
    size_t expected;
  };
  // R keys: 1, 1, 3, 5, 5, 5.
  for (const Case& c : {Case{CompareOp::kLt, 3, 2}, Case{CompareOp::kLe, 3, 3},
                        Case{CompareOp::kEq, 5, 3}, Case{CompareOp::kGe, 3, 4},
                        Case{CompareOp::kGt, 3, 3}}) {
    SelectionPredicate pred{AttrRef{r_, 0}, c.op,
                            Operand::Literal(Value(c.operand))};
    auto rows = Run(PhysNode::FilterBTreeScan(db_.catalog(), r_, pred));
    EXPECT_EQ(rows.size(), c.expected)
        << "op=" << CompareOpName(c.op) << " v=" << c.operand;
    // Results arrive in key order.
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LE(rows[i - 1].value(0).AsInt64(), rows[i].value(0).AsInt64());
    }
  }
}

TEST_F(ExecutorTest, FilterBTreeScanAgreesWithFilter) {
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kEq,
                       CompareOp::kGe, CompareOp::kGt}) {
    for (int64_t v = 0; v <= 6; ++v) {
      SelectionPredicate pred{AttrRef{r_, 0}, op,
                              Operand::Literal(Value(v))};
      auto via_index =
          Run(PhysNode::FilterBTreeScan(db_.catalog(), r_, pred));
      auto via_filter = Run(
          PhysNode::Filter({pred}, PhysNode::FileScan(db_.catalog(), r_)));
      EXPECT_EQ(Canonicalize(via_index), Canonicalize(via_filter))
          << CompareOpName(op) << " " << v;
    }
  }
}

JoinPredicate LRJoin() { return JoinPredicate{AttrRef{0, 0}, AttrRef{1, 0}}; }

TEST_F(ExecutorTest, HashJoinMatchesExpected) {
  auto plan = PhysNode::HashJoin({LRJoin()},
                                 PhysNode::FileScan(db_.catalog(), l_),
                                 PhysNode::FileScan(db_.catalog(), r_));
  auto rows = Run(plan);
  // L.k unique; R has keys 1x2, 3x1, 5x3 -> 6 result rows.
  EXPECT_EQ(rows.size(), 6u);
  for (const Tuple& row : rows) {
    EXPECT_EQ(row.value(0).AsInt64(), row.value(2).AsInt64());
  }
}

TEST_F(ExecutorTest, HashJoinBuildSideSwapGivesSameRows) {
  auto a = Run(PhysNode::HashJoin({LRJoin()},
                                  PhysNode::FileScan(db_.catalog(), l_),
                                  PhysNode::FileScan(db_.catalog(), r_)));
  JoinPredicate reversed{AttrRef{1, 0}, AttrRef{0, 0}};
  auto b = Run(PhysNode::HashJoin({reversed},
                                  PhysNode::FileScan(db_.catalog(), r_),
                                  PhysNode::FileScan(db_.catalog(), l_)));
  EXPECT_EQ(a.size(), b.size());
}

TEST_F(ExecutorTest, MergeJoinMatchesHashJoin) {
  JoinPredicate join = LRJoin();
  auto merge = PhysNode::MergeJoin(
      {join},
      PhysNode::Sort(join.left, PhysNode::FileScan(db_.catalog(), l_)),
      PhysNode::Sort(join.right, PhysNode::FileScan(db_.catalog(), r_)));
  auto hash = PhysNode::HashJoin({join},
                                 PhysNode::FileScan(db_.catalog(), l_),
                                 PhysNode::FileScan(db_.catalog(), r_));
  EXPECT_EQ(Canonicalize(Run(merge)), Canonicalize(Run(hash)));
}

TEST_F(ExecutorTest, MergeJoinDuplicateGroupsCrossProduct) {
  // Join R with itself shape: L keys restricted to {1,3,5} against R.
  SelectionPredicate odd{AttrRef{l_, 0}, CompareOp::kGe,
                         Operand::Literal(Value(int64_t{5}))};
  JoinPredicate join = LRJoin();
  auto merge = PhysNode::MergeJoin(
      {join},
      PhysNode::Sort(join.left,
                     PhysNode::Filter({odd},
                                      PhysNode::FileScan(db_.catalog(), l_))),
      PhysNode::Sort(join.right, PhysNode::FileScan(db_.catalog(), r_)));
  // L rows with k>=5: {5,6,7}; R has three 5s -> 3 result rows.
  EXPECT_EQ(Run(merge).size(), 3u);
}

TEST_F(ExecutorTest, IndexJoinMatchesHashJoin) {
  JoinPredicate join = LRJoin();
  auto index = PhysNode::IndexJoin(db_.catalog(), join, {},
                                   PhysNode::FileScan(db_.catalog(), l_));
  auto hash = PhysNode::HashJoin({join},
                                 PhysNode::FileScan(db_.catalog(), l_),
                                 PhysNode::FileScan(db_.catalog(), r_));
  // Both produce (L, R) column order here.
  EXPECT_EQ(Canonicalize(Run(index)), Canonicalize(Run(hash)));
}

TEST_F(ExecutorTest, IndexJoinAppliesResidualPredicate) {
  JoinPredicate join = LRJoin();
  SelectionPredicate residual{AttrRef{r_, 1}, CompareOp::kLt,
                              Operand::Literal(Value(int64_t{4}))};
  auto plan = PhysNode::IndexJoin(db_.catalog(), join, {residual},
                                  PhysNode::FileScan(db_.catalog(), l_));
  // R rows with w < 4: keys 1,1,3,5 -> matches 1,1,3,5 -> 4 rows.
  EXPECT_EQ(Run(plan).size(), 4u);
}

TEST_F(ExecutorTest, SortOrdersRows) {
  auto plan = PhysNode::Sort(AttrRef{r_, 1},
                             PhysNode::BTreeScan(db_.catalog(), r_, 0));
  auto rows = Run(plan);
  ASSERT_EQ(rows.size(), 6u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].value(1).AsInt64(), rows[i].value(1).AsInt64());
  }
}

TEST_F(ExecutorTest, ChoosePlanMustBeResolvedFirst) {
  PhysNodePtr a = PhysNode::FileScan(db_.catalog(), l_);
  PhysNodePtr b = PhysNode::FileScan(db_.catalog(), l_);
  auto choose = PhysNode::ChoosePlan({a, b}, SortOrder());
  auto rows = ExecutePlan(choose, db_, ParamEnv());
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, IteratorRestartable) {
  auto plan = PhysNode::FileScan(db_.catalog(), l_);
  auto iter = BuildBatchExecutor(plan, db_, ParamEnv());
  ASSERT_TRUE(iter.ok());
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(DrainRows(**iter, *plan).size(), 8u) << "round " << round;
  }
}

TEST_F(ExecutorTest, EmptyInputsHandled) {
  SelectionPredicate none{AttrRef{l_, 0}, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{0}))};
  auto empty = PhysNode::Filter({none}, PhysNode::FileScan(db_.catalog(), l_));
  EXPECT_TRUE(Run(empty).empty());
  JoinPredicate join = LRJoin();
  auto hash_empty_build = PhysNode::HashJoin(
      {join}, empty, PhysNode::FileScan(db_.catalog(), r_));
  EXPECT_TRUE(Run(hash_empty_build).empty());
  auto merge_empty = PhysNode::MergeJoin(
      {join}, PhysNode::Sort(join.left, empty),
      PhysNode::Sort(join.right, PhysNode::FileScan(db_.catalog(), r_)));
  EXPECT_TRUE(Run(merge_empty).empty());
  auto index_empty = PhysNode::IndexJoin(db_.catalog(), join, {}, empty);
  EXPECT_TRUE(Run(index_empty).empty());
}

}  // namespace
}  // namespace dqep
