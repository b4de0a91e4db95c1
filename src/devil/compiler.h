// Facade over the Devil pipeline: lex -> parse -> sema -> codegen.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "devil/ast.h"
#include "devil/codegen.h"
#include "devil/sema.h"
#include "devil/token.h"
#include "support/diagnostics.h"
#include "support/source.h"

namespace devil {

/// Result of compiling one specification. `spec` owns the AST; `info` holds
/// pointers into it, so keep the whole result alive while using `info`.
struct CompileResult {
  support::DiagnosticEngine diags;
  std::unique_ptr<Specification> spec;     // null on parse failure
  std::optional<DeviceInfo> info;          // nullopt on semantic errors
  std::string stubs;                       // empty unless ok()

  [[nodiscard]] bool ok() const { return info.has_value(); }
};

/// Checks `text` and, when consistent, generates stubs in `mode`.
/// `name` is used in diagnostics and as the debug __FILE__ tag.
[[nodiscard]] CompileResult compile_spec(const std::string& name,
                                         const std::string& text,
                                         CodegenMode mode);

/// Checks only (Table 2 campaign does not need codegen). Exactly
/// `lex_spec` followed by `check_tokens`.
[[nodiscard]] CompileResult check_spec(const std::string& name,
                                       const std::string& text);

/// First stage of `check_spec`: the tokens of `buf`, with the lexer's
/// diagnostics reported into `result.diags`. Timed as Stage::kDevilLex.
[[nodiscard]] std::vector<Token> lex_spec(const support::SourceBuffer& buf,
                                          CompileResult& result);

/// Remaining stages of `check_spec`: parses and checks `tokens` from
/// `lex_spec` into the same `result`; does nothing when lexing failed.
/// Timed as Stage::kDevilParse and Stage::kDevilSema. The Table 2 campaign
/// calls the two halves itself to key each mutant on its tokens in between.
void check_tokens(std::vector<Token> tokens, CompileResult& result);

/// One-line inventory of a checked device (ports/registers/variables), used
/// by the figure benches and examples.
[[nodiscard]] std::string describe_device(const DeviceInfo& info);

}  // namespace devil
