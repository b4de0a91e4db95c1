// Facade over the Devil pipeline: lex -> parse -> sema -> codegen.
#pragma once

#include <cstddef>
#include <cstdint>
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
/// The tokens view `buf` (see Token), which must outlive them.
[[nodiscard]] std::vector<Token> lex_spec(const support::SourceBuffer& buf,
                                          CompileResult& result);

/// One contiguous edit of a source text: the `old_len` bytes at `offset`
/// were replaced by `new_len` bytes.
struct TextEdit {
  size_t offset = 0;
  size_t old_len = 0;
  size_t new_len = 0;
};

/// How `relex_spec` assembled its stream. Tokens [0, begin) are base tokens,
/// [begin, end) were relexed from the edited buffer, and the rest are the
/// base stream's last tokens, shifted past the edit. The stream has
/// `line_delta` more lines than the base text.
struct RelexWindow {
  size_t begin = 0;
  size_t end = 0;
  int64_t line_delta = 0;
};

/// `lex_spec` of `buf`, the base text after `edit`, built from `base`, the
/// base text's `lex_spec` tokens, which must have lexed without errors.
/// Base tokens that end before the edit are kept. The lexer restarts at the
/// end of the last one and runs until a token ends at or past the edit, at
/// the shifted end of a base token; the base tokens after that one are
/// appended with their offsets, lines and (on that token's line) columns
/// shifted. The result equals `lex_spec(buf, ...)` token for token and
/// diagnostic for diagnostic. Its tokens view `buf` and the base buffer,
/// which must both outlive them. Timed as Stage::kDevilLex.
[[nodiscard]] std::vector<Token> relex_spec(const support::SourceBuffer& buf,
                                            const std::vector<Token>& base,
                                            const TextEdit& edit,
                                            CompileResult& result,
                                            RelexWindow* window = nullptr);

/// Remaining stages of `check_spec`: parses and checks `tokens` from
/// `lex_spec` or `relex_spec` into the same `result`; does nothing when
/// lexing failed. Timed as Stage::kDevilParse and Stage::kDevilSema. The
/// Table 2 campaign calls the two halves itself to key each mutant on its
/// tokens in between, and checks in `CheckMode::kFirstError`: it reads only
/// the verdict, which equals the full check's.
void check_tokens(std::vector<Token> tokens, CompileResult& result,
                  CheckMode mode = CheckMode::kFull);

/// One-line inventory of a checked device (ports/registers/variables), used
/// by the figure benches and examples.
[[nodiscard]] std::string describe_device(const DeviceInfo& info);

}  // namespace devil
