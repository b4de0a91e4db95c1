// Lexer for the Devil IDL.
#pragma once

#include <string_view>
#include <vector>

#include "devil/token.h"
#include "support/diagnostics.h"
#include "support/source.h"

namespace devil {

class Lexer {
 public:
  Lexer(const support::SourceBuffer& buffer, support::DiagnosticEngine& diags)
      : buf_(buffer), diags_(diags) {}

  /// Lexes the whole buffer. The last token is always kEof. Each token is
  /// decided by the bytes up to and including its end offset (the lexer
  /// looks at most one byte past a token), so an edit leaves every token
  /// that ends before it unchanged.
  [[nodiscard]] std::vector<Token> lex_all();

 private:
  Token next();
  Token make(TokKind kind, support::SourceLoc begin, std::string_view text);
  /// The source bytes from `begin` up to the current position.
  [[nodiscard]] std::string_view spelling(support::SourceLoc begin) const;
  /// Advances over characters matching `pred`, none of which is '\n'.
  void skip_while(bool (*pred)(char));
  char peek(int ahead = 0) const;
  char advance();
  bool match(char expected);
  void skip_trivia();

  [[nodiscard]] support::SourceLoc here() const { return loc_; }

  const support::SourceBuffer& buf_;
  support::DiagnosticEngine& diags_;
  support::SourceLoc loc_;
};

}  // namespace devil
