#include "mutation/devil_mutator.h"

#include <algorithm>
#include <string_view>

#include "devil/lexer.h"
#include "support/diagnostics.h"

namespace mutation {

namespace {

using devil::Token;
using devil::TokKind;

bool contains(const std::vector<std::string>& v, std::string_view s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

const std::vector<std::string>* class_members(const DevilNames& names,
                                              std::string_view ident) {
  if (contains(names.ports, ident)) return &names.ports;
  if (contains(names.registers, ident)) return &names.registers;
  if (contains(names.variables, ident)) return &names.variables;
  return nullptr;
}

struct ScanState {
  const std::vector<Token>& toks;
  const DevilNames& names;
  std::vector<Site> sites;

  const Token& prev(size_t i) const {
    return toks[i == 0 ? 0 : i - 1];
  }
  const Token& next(size_t i) const {
    return toks[i + 1 < toks.size() ? i + 1 : toks.size() - 1];
  }

  void add(const Token& t, SiteKind kind, std::string charset = {}) {
    Site s;
    s.kind = kind;
    s.offset = t.range.begin.offset;
    s.length = t.range.size();
    s.line = t.range.begin.line;
    s.original = t.text;
    s.charset = std::move(charset);
    sites.push_back(std::move(s));
  }
};

}  // namespace

std::vector<Site> scan_devil_sites(const std::string& source,
                                   const DevilNames& names) {
  support::DiagnosticEngine diags;
  support::SourceBuffer buf("spec.dil", source);
  devil::Lexer lexer(buf, diags);
  auto toks = lexer.lex_all();
  if (diags.has_errors()) return {};  // un-lexable input: no sites

  ScanState st{toks, names, {}};

  // Brace contexts: true when the `{...}` we are inside is an integer
  // range/set (opened after `@` or after `int`), where "," <-> ".." is a
  // syntactically valid swap.
  std::vector<bool> brace_is_range;

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    switch (t.kind) {
      case TokKind::kLBrace: {
        bool range_ctx = st.prev(i).is(TokKind::kAt) ||
                         st.prev(i).is(TokKind::kKwInt);
        brace_is_range.push_back(range_ctx);
        break;
      }
      case TokKind::kRBrace:
        if (!brace_is_range.empty()) brace_is_range.pop_back();
        break;

      case TokKind::kInt: {
        // Integer literal: offsets, widths, bit indices, range bounds,
        // pre-action values. The literal rules apply (hex class when the
        // spelling is 0x..., decimal otherwise).
        if (!mutate_int_literal(std::string(t.text), false).empty()) {
          st.add(t, SiteKind::kLiteral);
        }
        break;
      }
      case TokKind::kBitString: {
        // Class depends on context: `mask '...'` admits {0,1,*,.};
        // enum patterns after an arrow admit {0,1} only.
        bool is_pattern = st.prev(i).is(TokKind::kArrowRead) ||
                          st.prev(i).is(TokKind::kArrowWrite) ||
                          st.prev(i).is(TokKind::kArrowBoth);
        st.add(t, SiteKind::kLiteral, is_pattern ? "01" : "01*.");
        break;
      }

      case TokKind::kComma:
      case TokKind::kDotDot:
        if (!brace_is_range.empty() && brace_is_range.back()) {
          st.add(t, SiteKind::kOperator);
        }
        break;

      case TokKind::kArrowRead:
      case TokKind::kArrowWrite:
      case TokKind::kArrowBoth:
        st.add(t, SiteKind::kOperator);
        break;

      case TokKind::kIdent: {
        // Declaration sites are excluded (§3.2): a register/variable/device
        // name right after its keyword, a port parameter (followed by ':'),
        // or an enum item name (followed by an arrow).
        const Token& p = st.prev(i);
        if (p.is(TokKind::kKwRegister) || p.is(TokKind::kKwVariable) ||
            p.is(TokKind::kKwDevice)) {
          break;
        }
        const Token& n = st.next(i);
        if (n.is(TokKind::kColon) || n.is(TokKind::kArrowRead) ||
            n.is(TokKind::kArrowWrite) || n.is(TokKind::kArrowBoth)) {
          break;
        }
        const auto* cls = class_members(names, t.text);
        if (cls && cls->size() > 1) {
          st.add(t, SiteKind::kIdentifier);
        }
        break;
      }
      default:
        break;
    }
  }
  return st.sites;
}

std::vector<Mutant> generate_devil_mutants(const std::vector<Site>& sites,
                                           const DevilNames& names) {
  std::vector<Mutant> out;
  for (size_t i = 0; i < sites.size(); ++i) {
    const Site& s = sites[i];
    switch (s.kind) {
      case SiteKind::kLiteral:
        if (!s.charset.empty()) {
          for (auto& text : mutate_bit_string(s.original, s.charset)) {
            out.push_back(Mutant{i, std::move(text)});
          }
        } else {
          for (auto& text : mutate_int_literal(s.original, false)) {
            out.push_back(Mutant{i, std::move(text)});
          }
        }
        break;
      case SiteKind::kOperator: {
        if (s.original == ",") {
          out.push_back(Mutant{i, ".."});
        } else if (s.original == "..") {
          out.push_back(Mutant{i, ","});
        } else {
          for (const char* arrow : {"<=", "=>", "<=>"}) {
            if (s.original != arrow) out.push_back(Mutant{i, arrow});
          }
        }
        break;
      }
      case SiteKind::kIdentifier: {
        const auto* cls = class_members(names, s.original);
        if (!cls) break;
        for (const auto& cand : *cls) {
          if (cand != s.original) out.push_back(Mutant{i, cand});
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace mutation
