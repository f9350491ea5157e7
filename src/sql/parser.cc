#include "sql/parser.h"

#include <vector>

#include "sql/lexer.h"

namespace dqep {

namespace {

/// One side of a conjunct before classification.
struct ParsedOperand {
  enum class Kind { kAttribute, kInteger, kHostVariable } kind;
  AttrRef attr;        // kAttribute
  int64_t integer = 0;  // kInteger
  std::string variable;  // kHostVariable
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Catalog& catalog,
         bool parameterize = false)
      : tokens_(std::move(tokens)),
        catalog_(catalog),
        parameterize_(parameterize) {}

  Result<ParsedQuery> Parse() {
    DQEP_RETURN_IF_ERROR(Expect(TokenKind::kSelect));
    // Select list: '*' or a list of column references (resolved after the
    // FROM clause has introduced the tables).
    bool select_star = Peek().kind == TokenKind::kStar;
    std::vector<std::pair<std::string, std::string>> select_list;
    if (select_star) {
      Advance();
    } else {
      do {
        if (Peek().kind != TokenKind::kIdentifier) {
          return ErrorHere("expected '*' or column reference");
        }
        std::string table = Advance().text;
        DQEP_RETURN_IF_ERROR(Expect(TokenKind::kDot));
        if (Peek().kind != TokenKind::kIdentifier) {
          return ErrorHere("expected column name");
        }
        select_list.emplace_back(table, Advance().text);
        if (Peek().kind != TokenKind::kComma) {
          break;
        }
        Advance();
      } while (true);
    }
    DQEP_RETURN_IF_ERROR(Expect(TokenKind::kFrom));
    DQEP_RETURN_IF_ERROR(ParseTable());
    while (Peek().kind == TokenKind::kComma) {
      Advance();
      DQEP_RETURN_IF_ERROR(ParseTable());
    }
    if (Peek().kind == TokenKind::kWhere) {
      Advance();
      DQEP_RETURN_IF_ERROR(ParseConjunct());
      while (Peek().kind == TokenKind::kAnd) {
        Advance();
        DQEP_RETURN_IF_ERROR(ParseConjunct());
      }
    }
    if (Peek().kind == TokenKind::kOrder) {
      Advance();
      DQEP_RETURN_IF_ERROR(Expect(TokenKind::kBy));
      Result<AttrRef> attr = ResolveColumn();
      if (!attr.ok()) {
        return attr.status();
      }
      result_.query.SetOrderBy(*attr);
    }
    if (Peek().kind != TokenKind::kEnd) {
      return ErrorHere("unexpected trailing input");
    }
    if (!select_star) {
      std::vector<AttrRef> projection;
      for (const auto& [table, column] : select_list) {
        Result<AttrRef> attr = ResolveNamedColumn(table, column);
        if (!attr.ok()) {
          return attr.status();
        }
        projection.push_back(*attr);
      }
      result_.query.SetProjection(std::move(projection));
    }
    DQEP_RETURN_IF_ERROR(result_.query.Validate(catalog_));
    return std::move(result_);
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }
  const Token& Advance() { return tokens_[index_++]; }

  Status ErrorHere(const std::string& message) const {
    return Status::InvalidArgument(
        message + " (near offset " + std::to_string(Peek().position) +
        ", got " + TokenKindName(Peek().kind) + ")");
  }

  Status Expect(TokenKind kind) {
    if (Peek().kind != kind) {
      return ErrorHere(std::string("expected ") + TokenKindName(kind));
    }
    Advance();
    return Status::OK();
  }

  Status ParseTable() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return ErrorHere("expected table name");
    }
    std::string name = Advance().text;
    Result<RelationId> relation = catalog_.FindRelation(name);
    if (!relation.ok()) {
      return Status::InvalidArgument("unknown table '" + name + "'");
    }
    if (result_.query.TermOf(*relation) >= 0) {
      return Status::InvalidArgument("table '" + name +
                                     "' listed twice (self-joins are not "
                                     "supported)");
    }
    RelationTerm term;
    term.relation = *relation;
    result_.query.AddTerm(std::move(term));
    return Status::OK();
  }

  /// Resolves "table.column" tokens at the current position.
  Result<AttrRef> ResolveColumn() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return ErrorHere("expected column reference");
    }
    std::string table = Advance().text;
    DQEP_RETURN_IF_ERROR(Expect(TokenKind::kDot));
    if (Peek().kind != TokenKind::kIdentifier) {
      return ErrorHere("expected column name");
    }
    return ResolveNamedColumn(table, Advance().text);
  }

  Result<AttrRef> ResolveNamedColumn(const std::string& table,
                                     const std::string& column) {
    Result<RelationId> relation = catalog_.FindRelation(table);
    if (!relation.ok()) {
      return Status::InvalidArgument("unknown table '" + table + "'");
    }
    if (result_.query.TermOf(*relation) < 0) {
      return Status::InvalidArgument("table '" + table +
                                     "' is not listed in FROM");
    }
    int32_t column_index = catalog_.relation(*relation).FindColumn(column);
    if (column_index < 0) {
      return Status::InvalidArgument("unknown column '" + table + "." +
                                     column + "'");
    }
    return AttrRef{*relation, column_index};
  }

  Result<ParsedOperand> ParseOperand() {
    ParsedOperand operand;
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kInteger:
        operand.kind = ParsedOperand::Kind::kInteger;
        operand.integer = Advance().integer;
        return operand;
      case TokenKind::kHostVariable:
        operand.kind = ParsedOperand::Kind::kHostVariable;
        operand.variable = Advance().text;
        return operand;
      case TokenKind::kIdentifier: {
        std::string table = Advance().text;
        DQEP_RETURN_IF_ERROR(Expect(TokenKind::kDot));
        if (Peek().kind != TokenKind::kIdentifier) {
          return ErrorHere("expected column name");
        }
        Result<AttrRef> attr = ResolveNamedColumn(table, Advance().text);
        if (!attr.ok()) {
          return attr.status();
        }
        operand.kind = ParsedOperand::Kind::kAttribute;
        operand.attr = *attr;
        return operand;
      }
      default:
        return ErrorHere("expected column, integer, or host variable");
    }
  }

  Result<CompareOp> ParseCompareOp() {
    switch (Peek().kind) {
      case TokenKind::kEq:
        Advance();
        return CompareOp::kEq;
      case TokenKind::kLt:
        Advance();
        return CompareOp::kLt;
      case TokenKind::kLe:
        Advance();
        return CompareOp::kLe;
      case TokenKind::kGt:
        Advance();
        return CompareOp::kGt;
      case TokenKind::kGe:
        Advance();
        return CompareOp::kGe;
      default:
        return ErrorHere("expected comparison operator");
    }
  }

  static CompareOp Flip(CompareOp op) {
    switch (op) {
      case CompareOp::kLt:
        return CompareOp::kGt;
      case CompareOp::kLe:
        return CompareOp::kGe;
      case CompareOp::kGt:
        return CompareOp::kLt;
      case CompareOp::kGe:
        return CompareOp::kLe;
      case CompareOp::kEq:
        return CompareOp::kEq;
    }
    return op;
  }

  ParamId ParamFor(const std::string& name) {
    auto it = result_.params.find(name);
    if (it != result_.params.end()) {
      return it->second;
    }
    ParamId id = next_param_++;
    result_.params.emplace(name, id);
    return id;
  }

  /// Lifts one literal occurrence into a fresh synthetic parameter.
  ParamId LiftLiteral(int64_t value) {
    ParamId id = next_param_++;
    result_.lifted_params.push_back(id);
    result_.lifted_values.push_back(value);
    return id;
  }

  Status AddSelection(const AttrRef& attr, CompareOp op,
                      const ParsedOperand& rhs) {
    SelectionPredicate pred;
    pred.attr = attr;
    pred.op = op;
    if (rhs.kind == ParsedOperand::Kind::kInteger) {
      pred.operand = parameterize_
                         ? Operand::Param(LiftLiteral(rhs.integer))
                         : Operand::Literal(Value(rhs.integer));
    } else {
      pred.operand = Operand::Param(ParamFor(rhs.variable));
    }
    int32_t term = result_.query.TermOf(attr.relation);
    DQEP_CHECK_GE(term, 0);
    result_.query.mutable_term(term).predicates.push_back(std::move(pred));
    return Status::OK();
  }

  Status ParseConjunct() {
    Result<ParsedOperand> lhs = ParseOperand();
    if (!lhs.ok()) {
      return lhs.status();
    }
    Result<CompareOp> op = ParseCompareOp();
    if (!op.ok()) {
      return op.status();
    }
    Result<ParsedOperand> rhs = ParseOperand();
    if (!rhs.ok()) {
      return rhs.status();
    }
    bool lhs_attr = lhs->kind == ParsedOperand::Kind::kAttribute;
    bool rhs_attr = rhs->kind == ParsedOperand::Kind::kAttribute;
    if (lhs_attr && rhs_attr) {
      if (lhs->attr.relation == rhs->attr.relation) {
        return Status::Unimplemented(
            "single-table column-to-column predicates are not supported");
      }
      if (*op != CompareOp::kEq) {
        return Status::Unimplemented(
            "only equality join predicates are supported");
      }
      result_.query.AddJoin(JoinPredicate{lhs->attr, rhs->attr});
      return Status::OK();
    }
    if (lhs_attr) {
      return AddSelection(lhs->attr, *op, *rhs);
    }
    if (rhs_attr) {
      // Normalize "5 < R.a" to "R.a > 5".
      return AddSelection(rhs->attr, Flip(*op), *lhs);
    }
    return Status::Unimplemented(
        "predicates must reference at least one column");
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
  const Catalog& catalog_;
  /// Lift integer literals into synthetic parameters (the plan cache's
  /// parameterization pass).
  bool parameterize_ = false;
  /// Next dense ParamId, shared by host variables and lifted literals so
  /// the assignment is a pure function of the token stream.
  ParamId next_param_ = 0;
  ParsedQuery result_;
};

Result<ParsedQuery> ParseImpl(const std::string& sql, const Catalog& catalog,
                              bool parameterize) {
  Result<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) {
    return tokens.status();
  }
  Parser parser(std::move(*tokens), catalog, parameterize);
  return parser.Parse();
}

}  // namespace

Result<ParsedQuery> ParseQuery(const std::string& sql,
                               const Catalog& catalog) {
  return ParseImpl(sql, catalog, /*parameterize=*/false);
}

Result<ParsedQuery> ParseQueryParameterized(const std::string& sql,
                                            const Catalog& catalog) {
  return ParseImpl(sql, catalog, /*parameterize=*/true);
}

}  // namespace dqep
