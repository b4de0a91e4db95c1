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
  /// Lexes `buffer` from `start`, which must be the start of the buffer or
  /// the end of a token lexed from the same bytes.
  Lexer(const support::SourceBuffer& buffer, support::DiagnosticEngine& diags,
        support::SourceLoc start = {})
      : buf_(buffer), diags_(diags), loc_(start) {}

  /// Lexes the rest of the buffer. The last token is always kEof. Each token
  /// is decided by the bytes up to and including its end offset (the lexer
  /// looks at most one byte past a token), so an edit leaves every token
  /// that ends before it unchanged. The tokens' `text` views the buffer:
  /// keep the buffer alive while the tokens are in use.
  [[nodiscard]] std::vector<Token> lex_all();

  /// The next token; kEof once the buffer is exhausted.
  Token next();

 private:
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
