#include "mutation/c_mutator.h"

#include <cctype>
#include <set>

namespace mutation {

const std::vector<OperatorRule>& c_operator_rules() {
  // Reconstruction of Table 1. The paper's examples: bit-mask '&' confused
  // with '&&' ("some programmers prefer the operator which possesses a
  // different semantics"), shifts reversed, and +/- slips. Replacements stay
  // within the equivalent class of symbols (§3.1).
  static const std::vector<OperatorRule> rules = {
      {"&", {"&&", "|"}},
      {"|", {"||", "&"}},
      {"^", {"&", "|"}},
      {"&&", {"&", "||"}},
      {"||", {"|", "&&"}},
      {"<<", {">>"}},
      {">>", {"<<"}},
      {"~", {"!"}},
      {"!", {"~"}},
      {"+", {"-"}},
      {"-", {"+"}},
      {"&=", {"|="}},
      {"|=", {"&="}},
      {"<<=", {">>="}},
      {">>=", {"<<="}},
      {"==", {"!="}},
      {"!=", {"=="}},
  };
  return rules;
}

namespace {

const OperatorRule* rule_for(const std::string& op) {
  for (const auto& r : c_operator_rules()) {
    if (r.op == op) return &r;
  }
  return nullptr;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

const std::set<std::string>& type_keywords() {
  static const std::set<std::string> kw = {
      "void", "int", "u8", "u16", "u32", "s8", "s16", "s32", "cstring",
  };
  return kw;
}

const std::set<std::string>& c_keywords() {
  static const std::set<std::string> kw = {
      "void",  "int",    "u8",     "u16",     "u32",      "s8",
      "s16",   "s32",    "cstring", "struct", "const",    "static",
      "inline", "if",    "else",   "while",   "for",      "do",
      "return", "break", "continue", "switch", "case",    "default",
      "define", "__FILE__",
  };
  return kw;
}

/// Raw scanner over C-ish source that tracks MUT_BEGIN/MUT_END regions and
/// #define bodies. Independent from the MiniC lexer on purpose: mutation
/// needs original byte offsets and must see tokens *before* macro expansion.
class SiteScanner {
 public:
  SiteScanner(const std::string& src, const CScanOptions& opt)
      : src_(src), opt_(opt), in_region_(opt.whole_file) {}

  std::vector<Site> run() {
    while (pos_ < src_.size()) {
      if (!skip_trivia()) break;
      if (pos_ >= src_.size()) break;
      scan_token();
    }
    return sites_;
  }

 private:
  char peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  void bump() {
    if (src_[pos_] == '\n') {
      ++line_;
      if (!pending_define_.empty()) pending_define_.clear();
    }
    ++pos_;
  }

  /// Returns false at EOF. Handles comments (and the region markers hidden
  /// inside them) plus #define headers.
  bool skip_trivia() {
    for (;;) {
      char c = peek();
      if (c == '\0') return false;
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        bump();
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        size_t start = pos_;
        while (peek() != '\n' && peek() != '\0') bump();
        handle_marker(src_.substr(start, pos_ - start));
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        size_t start = pos_;
        bump();
        bump();
        while (!(peek() == '*' && peek(1) == '/') && peek() != '\0') bump();
        if (peek() != '\0') {
          bump();
          bump();
        }
        handle_marker(src_.substr(start, pos_ - start));
        continue;
      }
      if (c == '#') {
        // "#define NAME" — remember the macro name; until end of line all
        // sites carry it so the campaign can map them to use lines.
        bump();
        while (peek() == ' ' || peek() == '\t') bump();
        std::string word;
        while (is_ident_char(peek())) {
          word += peek();
          bump();
        }
        if (word == "define") {
          while (peek() == ' ' || peek() == '\t') bump();
          std::string name;
          while (is_ident_char(peek())) {
            name += peek();
            bump();
          }
          pending_define_ = name;
        } else {
          while (peek() != '\n' && peek() != '\0') bump();
        }
        continue;
      }
      return true;
    }
  }

  void handle_marker(const std::string& comment) {
    if (comment.find("MUT_BEGIN") != std::string::npos) in_region_ = true;
    if (comment.find("MUT_END") != std::string::npos) {
      in_region_ = opt_.whole_file;
    }
  }

  void add_site(SiteKind kind, size_t offset, size_t length) {
    if (!in_region_) return;
    Site s;
    s.kind = kind;
    s.offset = offset;
    s.length = length;
    s.line = line_;
    s.original = src_.substr(offset, length);
    s.define_name = pending_define_;
    sites_.push_back(std::move(s));
  }

  void scan_token() {
    size_t start = pos_;
    char c = peek();

    if (is_ident_start(c)) {
      while (is_ident_char(peek())) bump();
      std::string text = src_.substr(start, pos_ - start);
      if (c_keywords().count(text)) {
        prev_token_ = text;
        return;
      }
      // Declaration sites are not mutated (renaming a declaration is a
      // different error than confusing two names); a declaration is an
      // identifier right after a type keyword.
      bool is_decl = type_keywords().count(prev_token_) > 0;
      // Identifier sites only where a same-class alternative exists.
      if (!is_decl && !opt_.classes.candidates(text).empty()) {
        add_site(SiteKind::kIdentifier, start, pos_ - start);
      }
      prev_token_ = text;
      return;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (c == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        bump();
        bump();
        while (std::isxdigit(static_cast<unsigned char>(peek()))) bump();
      } else {
        while (std::isdigit(static_cast<unsigned char>(peek()))) bump();
      }
      while (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L')
        bump();
      add_site(SiteKind::kLiteral, start, pos_ - start);
      prev_token_ = src_.substr(start, pos_ - start);
      return;
    }

    if (c == '"') {
      bump();
      while (peek() != '"' && peek() != '\n' && peek() != '\0') {
        if (peek() == '\\') bump();
        bump();
      }
      if (peek() == '"') bump();
      prev_token_ = "\"\"";
      return;  // string contents are not in the error model
    }

    if (c == '\'') {  // char literal (not mutated)
      bump();
      while (peek() != '\'' && peek() != '\n' && peek() != '\0') bump();
      if (peek() == '\'') bump();
      return;
    }

    // ++ / -- are not in the error model (mutating half of one would not be
    // syntactically valid); consume them whole.
    if ((c == '+' && peek(1) == '+') || (c == '-' && peek(1) == '-')) {
      bump();
      bump();
      return;
    }

    // Operator: greedy 3-, 2-, then 1-char match against the rule table
    // (plus the non-mutable punctuation, consumed silently).
    for (size_t len = 3; len >= 1; --len) {
      if (pos_ + len > src_.size()) continue;
      std::string op = src_.substr(pos_, len);
      if (rule_for(op)) {
        // Guard against splitting longer operators: "<<=" must not match
        // "<<" etc. Check the following character does not extend it.
        char next = pos_ + len < src_.size() ? src_[pos_ + len] : '\0';
        if ((op == "<<" || op == ">>" || op == "==" || op == "!=") &&
            next == '=') {
          continue;
        }
        if ((op == "&" && (next == '&' || next == '=')) ||
            (op == "|" && (next == '|' || next == '=')) ||
            (op == "^" && next == '=') || (op == "!" && next == '=') ||
            (op == "<" && next == '<') || (op == ">" && next == '>') ||
            (op == "+" && (next == '+' || next == '=')) ||
            (op == "-" && (next == '-' || next == '='))) {
          continue;
        }
        for (size_t i = 0; i < len; ++i) bump();
        add_site(SiteKind::kOperator, start, len);
        prev_token_ = op;
        return;
      }
    }
    prev_token_ = std::string(1, c);
    bump();  // punctuation we do not mutate
  }

  const std::string& src_;
  const CScanOptions& opt_;
  std::vector<Site> sites_;
  size_t pos_ = 0;
  uint32_t line_ = 1;
  bool in_region_;
  std::string pending_define_;
  std::string prev_token_;
};

const std::set<std::string>& builtin_names() {
  static const std::set<std::string> names = {
      "inb",  "inw",   "inl",    "outb",   "outw",    "outl",
      "panic", "printk", "strcmp", "udelay", "dil_eq", "dil_val",
      "devil_init",
  };
  return names;
}

/// Collects every identifier occurring in `src` (excluding keywords and
/// builtins). §3.3: "the mutation rules for identifiers replace an
/// identifier with any other defined identifier" — in a driver file every
/// identifier that appears is defined somewhere in it (macro, function,
/// global or local), so the occurrence set is the defined set.
std::vector<std::string> collect_identifiers(const std::string& src,
                                             bool include_functions) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  size_t pos = 0;
  while (pos < src.size()) {
    char c = src[pos];
    if (is_ident_start(c)) {
      std::string name;
      while (pos < src.size() && is_ident_char(src[pos])) name += src[pos++];
      // When include_functions is false, an identifier directly applied to
      // arguments (a function name) is treated as a different level of
      // abstraction (§3.1) and stays out of the confusion class.
      size_t look = pos;
      while (look < src.size() && (src[look] == ' ' || src[look] == '\t'))
        ++look;
      bool is_function = look < src.size() && src[look] == '(';
      if ((include_functions || !is_function) && !c_keywords().count(name) &&
          !builtin_names().count(name) && seen.insert(name).second) {
        out.push_back(name);
      }
      continue;
    }
    // Numeric literals: consume fully so "0x1f7" does not leak an "x1f7"
    // pseudo-identifier.
    if (std::isdigit(static_cast<unsigned char>(c))) {
      while (pos < src.size() && is_ident_char(src[pos])) ++pos;
      continue;
    }
    // Skip comments and string literals so their words do not count.
    if (c == '/' && pos + 1 < src.size() && src[pos + 1] == '/') {
      while (pos < src.size() && src[pos] != '\n') ++pos;
      continue;
    }
    if (c == '/' && pos + 1 < src.size() && src[pos + 1] == '*') {
      pos += 2;
      while (pos + 1 < src.size() &&
             !(src[pos] == '*' && src[pos + 1] == '/'))
        ++pos;
      pos += 2;
      continue;
    }
    if (c == '"') {
      ++pos;
      while (pos < src.size() && src[pos] != '"') {
        if (src[pos] == '\\') ++pos;
        ++pos;
      }
      ++pos;
      continue;
    }
    ++pos;
  }
  return out;
}

/// Finds identifiers following `marker` in `src` (one per occurrence).
std::vector<std::string> idents_after(const std::string& src,
                                      const std::string& marker) {
  std::vector<std::string> out;
  size_t pos = 0;
  while ((pos = src.find(marker, pos)) != std::string::npos) {
    pos += marker.size();
    while (pos < src.size() && src[pos] == ' ') ++pos;
    std::string name;
    while (pos < src.size() && is_ident_char(src[pos])) name += src[pos++];
    if (!name.empty()) out.push_back(name);
  }
  return out;
}

}  // namespace

std::vector<Site> scan_c_sites(const std::string& source,
                               const CScanOptions& options) {
  return SiteScanner(source, options).run();
}

std::vector<Mutant> generate_c_mutants(const std::vector<Site>& sites,
                                       const IdentifierClasses& classes) {
  std::vector<Mutant> out;
  for (size_t i = 0; i < sites.size(); ++i) {
    const Site& s = sites[i];
    switch (s.kind) {
      case SiteKind::kLiteral:
        for (auto& text : mutate_int_literal(s.original)) {
          out.push_back(Mutant{i, std::move(text)});
        }
        break;
      case SiteKind::kOperator:
        if (const OperatorRule* r = rule_for(s.original)) {
          for (const auto& m : r->mutants) out.push_back(Mutant{i, m});
        }
        break;
      case SiteKind::kIdentifier:
        for (auto& cand : classes.candidates(s.original)) {
          out.push_back(Mutant{i, std::move(cand)});
        }
        break;
    }
  }
  return out;
}

IdentifierClasses classes_for_c_driver(const std::string& source) {
  IdentifierClasses classes;
  // §3.3: every identifier defined in the file is a legal replacement for
  // any other — macros, functions, globals and locals are all plain
  // integers (or worse) to the C compiler. Replacements that land out of
  // scope are exactly the mutants a compiler rejects.
  // Plain C: "any other defined identifier" (§3.3) — macros, functions,
  // globals and locals are one confusion class; the compiler's only defence
  // is scoping and the function/object distinction.
  for (const auto& name : collect_identifiers(source, true)) {
    classes.add(name, "identifier");
  }
  return classes;
}

IdentifierClasses classes_for_cdevil_driver(const std::string& stubs,
                                            const std::string& driver) {
  IdentifierClasses classes;
  // Devil stub functions, one class per semantic role (§3.3).
  for (const auto& n : idents_after(stubs, "static inline")) {
    // The identifier after the return type; handled below via get_/set_.
    (void)n;
  }
  for (const auto& n : idents_after(stubs, "struct ")) {
    if (n.size() > 2 && n.rfind("_t") == n.size() - 2) classes.add(n, "type");
  }
  for (const auto& n : idents_after(stubs, "#define ")) {
    if (n.size() > 2 && n.rfind("_t") == n.size() - 2) {
      classes.add(n, "type");  // production-mode type alias macros
    } else {
      classes.add(n, "value");  // production-mode enum value macros
    }
  }
  for (const auto& n : idents_after(stubs, "const ")) {
    (void)n;  // the type name; the value name is found below
  }
  // Debug-mode value constants: `const <T> NAME = {...}`.
  {
    size_t pos = 0;
    while ((pos = stubs.find("const ", pos)) != std::string::npos) {
      pos += 6;
      // Skip the type name.
      while (pos < stubs.size() && is_ident_char(stubs[pos])) ++pos;
      while (pos < stubs.size() && stubs[pos] == ' ') ++pos;
      std::string name;
      while (pos < stubs.size() && is_ident_char(stubs[pos]))
        name += stubs[pos++];
      if (!name.empty()) classes.add(name, "value");
    }
  }
  // Stub entry points.
  for (const auto& n : idents_after(stubs, "inline ")) (void)n;
  {
    size_t pos = 0;
    while ((pos = stubs.find("get_", pos)) != std::string::npos) {
      if (pos > 0 && is_ident_char(stubs[pos - 1])) {  // devil_raw_get_...
        pos += 4;
        continue;
      }
      std::string name = "get_";
      size_t p = pos + 4;
      while (p < stubs.size() && is_ident_char(stubs[p])) name += stubs[p++];
      classes.add(name, "get");
      pos = p;
    }
    pos = 0;
    while ((pos = stubs.find("set_", pos)) != std::string::npos) {
      if (pos > 0 && is_ident_char(stubs[pos - 1])) {
        pos += 4;
        continue;
      }
      std::string name = "set_";
      size_t p = pos + 4;
      while (p < stubs.size() && is_ident_char(stubs[p])) name += stubs[p++];
      classes.add(name, "set");
      pos = p;
    }
    pos = 0;
    while ((pos = stubs.find("mk_", pos)) != std::string::npos) {
      if (pos > 0 && is_ident_char(stubs[pos - 1])) {
        pos += 3;
        continue;
      }
      std::string name = "mk_";
      size_t p = pos + 3;
      while (p < stubs.size() && is_ident_char(stubs[p])) name += stubs[p++];
      classes.add(name, "mk");
      pos = p;
    }
  }
  // Everything else in the driver follows the general C rule: one class of
  // all defined identifiers (§3.3). Devil-interface names were classified
  // above and keep their own (narrower) classes.
  for (const auto& name : collect_identifiers(driver, false)) {
    classes.add(name, "identifier");
  }
  return classes;
}

}  // namespace mutation
