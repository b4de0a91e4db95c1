// Recursive-descent parser for the Devil IDL.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "devil/ast.h"
#include "devil/token.h"
#include "support/diagnostics.h"

namespace devil {

class Parser {
 public:
  /// Largest width or bit index, and most values one offset or integer set
  /// may expand to. The corpus and its mutants stay below 1,000.
  static constexpr uint64_t kMaxExpansion = 65536;

  Parser(std::vector<Token> tokens, support::DiagnosticEngine& diags)
      : toks_(std::move(tokens)), diags_(diags) {}

  /// Parses one specification. Returns nullopt on a parse error (diagnostics
  /// explain why). Mutation-generated specs are syntactically valid by
  /// construction (§3.1), so in the campaigns a parse failure is a bug in the
  /// mutation engine, not a detected mutant.
  [[nodiscard]] std::optional<Specification> parse();

 private:
  const Token& peek(int ahead = 0) const;
  const Token& advance();
  bool check(TokKind k) const { return peek().is(k); }
  bool accept(TokKind k);
  bool expect(TokKind k, const char* what);
  [[noreturn]] void fail();

  DeviceDecl parse_device();
  PortParam parse_port_param();
  RegisterDecl parse_register();
  VariableDecl parse_variable(bool is_private);
  PortExpr parse_port_expr();
  PreAction parse_pre_action();
  RegFragment parse_fragment();
  TypeExpr parse_type();
  std::vector<EnumItem> parse_enum_items();
  uint64_t parse_int(const char* what);
  /// A width or bit index: an integer no larger than kMaxExpansion (DVL039).
  int parse_size(const char* what);
  /// One `lo` or `lo..hi` group of an offset or integer set, appended to
  /// `out`. Returns false for an empty range (lo > hi). A group that would
  /// take the set past kMaxExpansion values is DVL039, reported before
  /// anything is expanded.
  bool parse_values(std::vector<uint64_t>& out, const char* what,
                    const char* upper_what);

  std::vector<Token> toks_;
  support::DiagnosticEngine& diags_;
  size_t pos_ = 0;
  bool ok_ = true;
};

struct ParseError {};

}  // namespace devil
