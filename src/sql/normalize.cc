#include "sql/normalize.h"

#include "common/hash.h"
#include "sql/lexer.h"

namespace dqep {

namespace {

/// Canonical spelling of one token: keywords and punctuation as the
/// lexer names them; integer literals render as '?' (their values are
/// collected by the caller).
std::string CanonicalToken(const Token& token) {
  switch (token.kind) {
    case TokenKind::kIdentifier:
      return token.text;
    case TokenKind::kInteger:
      return "?";
    case TokenKind::kHostVariable:
      return ":" + token.text;
    case TokenKind::kEnd:
      return "";
    default:
      return TokenKindName(token.kind);
  }
}

}  // namespace

Result<NormalizedQuery> NormalizeQuery(const std::string& sql) {
  Result<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) {
    return tokens.status();
  }
  NormalizedQuery out;
  out.template_text.reserve(sql.size());
  bool suppress_space = false;  // no space after '.' (and none before it)
  for (const Token& token : *tokens) {
    if (token.kind == TokenKind::kEnd) {
      break;
    }
    if (token.kind == TokenKind::kInteger) {
      out.literals.push_back(token.integer);
    }
    // "R1.s" and "R1, R2" render tight: no space around '.', none
    // before ','.  Everything else is single-space-separated.
    bool tight = token.kind == TokenKind::kDot ||
                 token.kind == TokenKind::kComma;
    if (!out.template_text.empty() && !tight && !suppress_space) {
      out.template_text += ' ';
    }
    out.template_text += CanonicalToken(token);
    suppress_space = token.kind == TokenKind::kDot;
  }
  out.fingerprint = Fnv1a64(out.template_text);
  return out;
}

}  // namespace dqep
