// The embedded-SQL front end: lexer, parser, semantic analysis, and
// end-to-end equivalence with hand-built queries.

#include "sql/parser.h"

#include <vector>

#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "sql/lexer.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

// --- Lexer ------------------------------------------------------------------

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("SELECT select SeLeCt FROM where AND");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 7u);  // 6 + end
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kSelect);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kSelect);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kSelect);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kFrom);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kWhere);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kAnd);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto tokens = Tokenize("* , . = < <= > >=");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& token : *tokens) {
    kinds.push_back(token.kind);
  }
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kStar, TokenKind::kComma, TokenKind::kDot,
                       TokenKind::kEq, TokenKind::kLt, TokenKind::kLe,
                       TokenKind::kGt, TokenKind::kGe, TokenKind::kEnd}));
}

TEST(LexerTest, IntegersAndIdentifiers) {
  auto tokens = Tokenize("R1.score 12345");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "R1");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kDot);
  EXPECT_EQ((*tokens)[2].text, "score");
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kInteger);
  EXPECT_EQ((*tokens)[3].integer, 12345);
}

TEST(LexerTest, HostVariables) {
  auto tokens = Tokenize(":limit :v_2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kHostVariable);
  EXPECT_EQ((*tokens)[0].text, "limit");
  EXPECT_EQ((*tokens)[1].text, "v_2");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT ; FROM").ok());
  EXPECT_FALSE(Tokenize(":").ok());
  EXPECT_FALSE(Tokenize(": 5").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

// --- Parser -----------------------------------------------------------------

class SqlParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = PaperWorkload::Create(/*seed=*/11, /*populate=*/false);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  const Catalog& catalog() { return workload_->catalog(); }

  std::unique_ptr<PaperWorkload> workload_;
};

TEST_F(SqlParserTest, SingleTableNoPredicate) {
  auto parsed = ParseQuery("SELECT * FROM R1", catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->query.num_terms(), 1);
  EXPECT_TRUE(parsed->query.joins().empty());
  EXPECT_TRUE(parsed->params.empty());
}

TEST_F(SqlParserTest, SelectionWithHostVariable) {
  auto parsed =
      ParseQuery("SELECT * FROM R1 WHERE R1.s < :limit", catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->query.term(0).predicates.size(), 1u);
  const SelectionPredicate& pred = parsed->query.term(0).predicates[0];
  EXPECT_EQ(pred.op, CompareOp::kLt);
  EXPECT_TRUE(pred.HasParam());
  ASSERT_EQ(parsed->params.count("limit"), 1u);
  EXPECT_EQ(parsed->params.at("limit"), pred.operand.param());
}

TEST_F(SqlParserTest, JoinQueryMatchesFigureTwo) {
  auto parsed = ParseQuery(
      "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < :v", catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->query.num_terms(), 2);
  ASSERT_EQ(parsed->query.joins().size(), 1u);
  EXPECT_EQ(parsed->query.term(0).predicates.size(), 1u);
  EXPECT_TRUE(parsed->query.term(1).predicates.empty());
}

TEST_F(SqlParserTest, LiteralNormalization) {
  // "5 < R1.s" normalizes to "R1.s > 5".
  auto parsed = ParseQuery("SELECT * FROM R1 WHERE 5 < R1.s", catalog());
  ASSERT_TRUE(parsed.ok());
  const SelectionPredicate& pred = parsed->query.term(0).predicates[0];
  EXPECT_EQ(pred.op, CompareOp::kGt);
  EXPECT_EQ(pred.operand.literal().AsInt64(), 5);
}

TEST_F(SqlParserTest, SharedHostVariableGetsOneParamId) {
  auto parsed = ParseQuery(
      "SELECT * FROM R1 WHERE R1.s < :v AND R1.a < :v", catalog());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->params.size(), 1u);
  EXPECT_EQ(parsed->query.term(0).predicates[0].operand.param(),
            parsed->query.term(0).predicates[1].operand.param());
}

TEST_F(SqlParserTest, ChainOfFourParses) {
  auto parsed = ParseQuery(
      "SELECT * FROM R1, R2, R3, R4 "
      "WHERE R1.b = R2.a AND R2.b = R3.a AND R3.b = R4.a "
      "AND R1.s < :p1 AND R2.s < :p2 AND R3.s < :p3 AND R4.s < :p4",
      catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->query.num_terms(), 4);
  EXPECT_EQ(parsed->query.joins().size(), 3u);
  EXPECT_EQ(parsed->params.size(), 4u);
}

TEST_F(SqlParserTest, SemanticErrors) {
  EXPECT_FALSE(ParseQuery("SELECT * FROM NoSuchTable", catalog()).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM R1 WHERE R1.nope < 5", catalog()).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM R1 WHERE R2.s < 5", catalog()).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R1, R1", catalog()).ok());
  // Disconnected join graph (no join predicate).
  EXPECT_FALSE(ParseQuery("SELECT * FROM R1, R2", catalog()).ok());
  // Non-equality join.
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM R1, R2 WHERE R1.b < R2.a", catalog()).ok());
  // Constant-only predicate.
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM R1 WHERE 1 = 1", catalog()).ok());
}

TEST_F(SqlParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseQuery("", catalog()).ok());
  EXPECT_FALSE(ParseQuery("SELECT R1 FROM R1", catalog()).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM", catalog()).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R1 WHERE", catalog()).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R1 R2", catalog()).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM R1 WHERE R1.s <", catalog()).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM R1 WHERE R1 . ", catalog()).ok());
}

TEST_F(SqlParserTest, ParsedQueryOptimizesLikeHandBuilt) {
  // The SQL route and the programmatic route produce the same plan.
  auto parsed = ParseQuery(
      "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < :v AND R2.s < :w",
      catalog());
  ASSERT_TRUE(parsed.ok());
  Query manual = workload_->ChainQuery(2);
  // '*' over a join lists every FROM relation's columns in FROM order.
  std::vector<AttrRef> star;
  for (const RelationTerm& term : manual.terms()) {
    for (int32_t c = 0; c < catalog().relation(term.relation).num_columns();
         ++c) {
      star.push_back(AttrRef{term.relation, c});
    }
  }
  manual.SetProjection(star);
  EXPECT_EQ(parsed->query.projection(), star);

  Optimizer optimizer(&workload_->model(), OptimizerOptions::Dynamic());
  ParamEnv env = workload_->CompileTimeEnv(false);
  auto from_sql = optimizer.Optimize(parsed->query, env);
  auto from_manual = optimizer.Optimize(manual, env);
  ASSERT_TRUE(from_sql.ok());
  ASSERT_TRUE(from_manual.ok());
  EXPECT_EQ(from_sql->root->ToString(), from_manual->root->ToString());
  EXPECT_EQ(from_sql->cost, from_manual->cost);
}

}  // namespace
}  // namespace dqep
