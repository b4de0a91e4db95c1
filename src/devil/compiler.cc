#include "devil/compiler.h"

#include <algorithm>
#include <sstream>

#include "devil/lexer.h"
#include "devil/parser.h"
#include "support/metrics.h"

namespace devil {

std::vector<Token> lex_spec(const support::SourceBuffer& buf,
                            CompileResult& result) {
  support::StageTimer timer(support::Stage::kDevilLex);
  Lexer lexer(buf, result.diags);
  return lexer.lex_all();
}

std::vector<Token> relex_spec(const support::SourceBuffer& buf,
                              const std::vector<Token>& base,
                              const TextEdit& edit, CompileResult& result,
                              RelexWindow* window) {
  support::StageTimer timer(support::Stage::kDevilLex);
  // Base tokens that end before the edit are decided by unchanged bytes
  // (Lexer::lex_all). The EOF token is always relexed.
  const size_t keep = static_cast<size_t>(
      std::partition_point(base.begin(), base.end() - 1,
                           [&](const Token& t) {
                             return t.range.end.offset < edit.offset;
                           }) -
      base.begin());
  std::vector<Token> out;
  out.reserve(base.size() + 8);
  out.insert(out.end(), base.begin(), base.begin() + keep);

  // The lexer's only state is its position: once a relexed token ends past
  // the edit where a base token ends, shifted, every later token is that
  // base token's successor, shifted.
  Lexer lexer(buf, result.diags,
              keep == 0 ? support::SourceLoc{} : base[keep - 1].range.end);
  const int64_t delta = static_cast<int64_t>(edit.new_len) -
                        static_cast<int64_t>(edit.old_len);
  const int64_t edit_end = static_cast<int64_t>(edit.offset + edit.new_len);
  size_t anchor = keep;  // candidate base token to resume after
  bool resync = false;
  while (!resync) {
    out.push_back(lexer.next());
    const Token& t = out.back();
    if (t.is(TokKind::kEof)) break;
    const int64_t end = t.range.end.offset;
    if (end < edit_end) continue;
    // Never resume after EOF: the relexed stream must still end in one.
    while (anchor + 1 < base.size() &&
           base[anchor].range.end.offset + delta < end) {
      ++anchor;
    }
    resync = anchor + 1 < base.size() &&
             base[anchor].range.end.offset + delta == end;
  }

  const size_t window_end = out.size();
  if (resync) {
    const support::SourceLoc old_end = base[anchor].range.end;
    const support::SourceLoc new_end = out.back().range.end;
    // Unsigned arithmetic wraps, so adding a negative delta is exact.
    const uint32_t offset_shift = new_end.offset - old_end.offset;
    const uint32_t line_shift = new_end.line - old_end.line;
    const uint32_t column_shift = new_end.column - old_end.column;
    auto shift = [&](support::SourceLoc& loc) {
      // Tokens never span a newline, and a column only depends on the bytes
      // since the line's start: only the anchor's line moves sideways.
      if (loc.line == old_end.line) loc.column += column_shift;
      loc.offset += offset_shift;
      loc.line += line_shift;
    };
    out.insert(out.end(), base.begin() + anchor + 1, base.end());
    for (size_t i = window_end; i < out.size(); ++i) {
      shift(out[i].range.begin);
      shift(out[i].range.end);
    }
  }
  if (window) {
    window->begin = keep;
    window->end = window_end;
    window->line_delta = static_cast<int64_t>(out.back().range.end.line) -
                         static_cast<int64_t>(base.back().range.end.line);
  }
  return out;
}

void check_tokens(std::vector<Token> tokens, CompileResult& result,
                  CheckMode mode) {
  if (result.diags.has_errors()) return;
  {
    support::StageTimer timer(support::Stage::kDevilParse);
    Parser parser(std::move(tokens), result.diags);
    auto spec = parser.parse();
    if (!spec) return;
    result.spec = std::make_unique<Specification>(std::move(*spec));
  }
  support::StageTimer timer(support::Stage::kDevilSema);
  Sema sema(result.diags, mode);
  result.info = sema.check(*result.spec);
}

CompileResult compile_spec(const std::string& name, const std::string& text,
                           CodegenMode mode) {
  CompileResult result = check_spec(name, text);
  if (result.ok()) result.stubs = generate_stubs(*result.info, mode, name);
  return result;
}

CompileResult check_spec(const std::string& name, const std::string& text) {
  CompileResult result;
  support::SourceBuffer buf(name, text);
  check_tokens(lex_spec(buf, result), result);
  return result;
}

std::string describe_device(const DeviceInfo& info) {
  std::ostringstream os;
  os << "device " << info.decl->name << ": " << info.decl->params.size()
     << " port(s), " << info.decl->registers.size() << " register(s), "
     << info.decl->variables.size() << " variable(s)\n";
  for (const auto& r : info.decl->registers) {
    const RegInfo& ri = info.registers.at(r.name);
    os << "  register " << r.name << " : bit[" << r.size_bits << "] "
       << (ri.access == Access::kRead
               ? "read-only"
               : ri.access == Access::kWrite ? "write-only" : "read-write")
       << " mask '" << ri.mask << "'\n";
  }
  for (const auto& v : info.decl->variables) {
    const VarInfo& vi = info.variables.at(v.name);
    os << "  " << (v.is_private ? "private " : "") << "variable " << v.name
       << " : " << vi.width_bits << " bit(s), type-id " << vi.type_id << "\n";
  }
  return os.str();
}

}  // namespace devil
