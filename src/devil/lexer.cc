#include "devil/lexer.h"

#include <cstdint>

namespace devil {

const char* tok_kind_name(TokKind k) {
  switch (k) {
    case TokKind::kEof: return "<eof>";
    case TokKind::kError: return "<error>";
    case TokKind::kIdent: return "identifier";
    case TokKind::kInt: return "integer";
    case TokKind::kBitString: return "bit string";
    case TokKind::kKwDevice: return "'device'";
    case TokKind::kKwRegister: return "'register'";
    case TokKind::kKwVariable: return "'variable'";
    case TokKind::kKwPrivate: return "'private'";
    case TokKind::kKwVolatile: return "'volatile'";
    case TokKind::kKwRead: return "'read'";
    case TokKind::kKwWrite: return "'write'";
    case TokKind::kKwTrigger: return "'trigger'";
    case TokKind::kKwMask: return "'mask'";
    case TokKind::kKwPre: return "'pre'";
    case TokKind::kKwPort: return "'port'";
    case TokKind::kKwBit: return "'bit'";
    case TokKind::kKwInt: return "'int'";
    case TokKind::kKwSigned: return "'signed'";
    case TokKind::kKwBool: return "'bool'";
    case TokKind::kLBrace: return "'{'";
    case TokKind::kRBrace: return "'}'";
    case TokKind::kLParen: return "'('";
    case TokKind::kRParen: return "')'";
    case TokKind::kLBracket: return "'['";
    case TokKind::kRBracket: return "']'";
    case TokKind::kAt: return "'@'";
    case TokKind::kColon: return "':'";
    case TokKind::kSemi: return "';'";
    case TokKind::kComma: return "','";
    case TokKind::kEq: return "'='";
    case TokKind::kHash: return "'#'";
    case TokKind::kDotDot: return "'..'";
    case TokKind::kArrowRead: return "'<='";
    case TokKind::kArrowWrite: return "'=>'";
    case TokKind::kArrowBoth: return "'<=>'";
  }
  return "?";
}

namespace {
struct Keyword {
  std::string_view spelling;
  TokKind kind;
};
constexpr Keyword kKeywords[] = {
    {"device", TokKind::kKwDevice},     {"register", TokKind::kKwRegister},
    {"variable", TokKind::kKwVariable}, {"private", TokKind::kKwPrivate},
    {"volatile", TokKind::kKwVolatile}, {"read", TokKind::kKwRead},
    {"write", TokKind::kKwWrite},       {"trigger", TokKind::kKwTrigger},
    {"mask", TokKind::kKwMask},         {"pre", TokKind::kKwPre},
    {"port", TokKind::kKwPort},         {"bit", TokKind::kKwBit},
    {"int", TokKind::kKwInt},           {"signed", TokKind::kKwSigned},
    {"bool", TokKind::kKwBool},
};

TokKind word_kind(std::string_view word) {
  for (const Keyword& kw : kKeywords) {
    if (kw.spelling == word) return kw.kind;
  }
  return TokKind::kIdent;
}

// ASCII classes, as <cctype> has them in the "C" locale.
bool is_alpha(char c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_ident_start(char c) { return is_alpha(c) || c == '_'; }
bool is_ident_char(char c) { return is_ident_start(c) || is_digit(c); }
bool is_hex_digit(char c) {
  return is_digit(c) || ((c | 0x20) >= 'a' && (c | 0x20) <= 'f');
}
uint64_t hex_value(char c) {
  if (c <= '9') return static_cast<uint64_t>(c - '0');
  return static_cast<uint64_t>((c | 0x20) - 'a' + 10);
}
/// Everything a bit string may span before its closing quote; the
/// character check comes after, so a bad character is still reported.
bool is_bit_string_char(char c) {
  return c != '\'' && c != '\n' && c != '\0';
}
}  // namespace

char Lexer::peek(int ahead) const {
  size_t i = loc_.offset + static_cast<size_t>(ahead);
  return i < buf_.text().size() ? buf_.text()[i] : '\0';
}

char Lexer::advance() {
  char c = peek();
  if (c == '\0') return c;
  ++loc_.offset;
  if (c == '\n') {
    ++loc_.line;
    loc_.column = 1;
  } else {
    ++loc_.column;
  }
  return c;
}

bool Lexer::match(char expected) {
  if (peek() != expected) return false;
  advance();
  return true;
}

void Lexer::skip_trivia() {
  for (;;) {
    char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      while (peek() != '\n' && peek() != '\0') advance();
    } else if (c == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!(peek() == '*' && peek(1) == '/') && peek() != '\0') advance();
      if (peek() != '\0') {
        advance();
        advance();
      }
    } else {
      return;
    }
  }
}

Token Lexer::make(TokKind kind, support::SourceLoc begin,
                  std::string_view text) {
  Token t;
  t.kind = kind;
  t.range = {begin, loc_};
  t.text = text;
  return t;
}

std::string_view Lexer::spelling(support::SourceLoc begin) const {
  return buf_.text().substr(begin.offset, loc_.offset - begin.offset);
}

void Lexer::skip_while(bool (*pred)(char)) {
  // Callers only skip characters that never include '\n'.
  while (pred(peek())) {
    ++loc_.offset;
    ++loc_.column;
  }
}

Token Lexer::next() {
  skip_trivia();
  support::SourceLoc begin = loc_;
  char c = peek();
  if (c == '\0') return make(TokKind::kEof, begin, "");

  if (is_ident_start(c)) {
    skip_while(is_ident_char);
    std::string_view text = spelling(begin);
    return make(word_kind(text), begin, text);
  }

  if (is_digit(c)) {
    const bool hex = c == '0' && (peek(1) == 'x' || peek(1) == 'X');
    if (hex) {
      advance();
      advance();
    }
    skip_while(hex ? is_hex_digit : is_digit);
    std::string_view text = spelling(begin);
    std::string_view digits = text.substr(hex ? 2 : 0);
    if (digits.empty()) {
      diags_.error("DVL010", begin, "incomplete hexadecimal literal");
      return make(TokKind::kError, begin, text);
    }
    uint64_t value = 0;
    const uint64_t base = hex ? 16 : 10;
    for (char d : digits) {
      uint64_t v = hex_value(d);
      if (value > (UINT64_MAX - v) / base) {
        diags_.error("DVL016", begin,
                     "integer literal does not fit in 64 bits");
        return make(TokKind::kError, begin, text);
      }
      value = value * base + v;
    }
    Token t = make(TokKind::kInt, begin, text);
    t.int_value = value;
    return t;
  }

  if (c == '\'') {
    advance();
    skip_while(is_bit_string_char);
    std::string_view text = spelling(begin).substr(1);
    if (!match('\'')) {
      diags_.error("DVL011", begin, "unterminated bit string");
      return make(TokKind::kError, begin, text);
    }
    for (char bc : text) {
      if (bc != '0' && bc != '1' && bc != '*' && bc != '.') {
        diags_.error("DVL012", begin,
                     std::string("invalid character '") + bc +
                         "' in bit string (expected 0, 1, *, .)");
        return make(TokKind::kError, begin, text);
      }
    }
    return make(TokKind::kBitString, begin, text);
  }

  advance();
  switch (c) {
    case '{': return make(TokKind::kLBrace, begin, "{");
    case '}': return make(TokKind::kRBrace, begin, "}");
    case '(': return make(TokKind::kLParen, begin, "(");
    case ')': return make(TokKind::kRParen, begin, ")");
    case '[': return make(TokKind::kLBracket, begin, "[");
    case ']': return make(TokKind::kRBracket, begin, "]");
    case '@': return make(TokKind::kAt, begin, "@");
    case ':': return make(TokKind::kColon, begin, ":");
    case ';': return make(TokKind::kSemi, begin, ";");
    case ',': return make(TokKind::kComma, begin, ",");
    case '#': return make(TokKind::kHash, begin, "#");
    case '.':
      if (match('.')) return make(TokKind::kDotDot, begin, "..");
      diags_.error("DVL013", begin, "stray '.' (did you mean '..'?)");
      return make(TokKind::kError, begin, ".");
    case '=':
      if (match('>')) return make(TokKind::kArrowWrite, begin, "=>");
      return make(TokKind::kEq, begin, "=");
    case '<':
      if (match('=')) {
        if (match('>')) return make(TokKind::kArrowBoth, begin, "<=>");
        return make(TokKind::kArrowRead, begin, "<=");
      }
      diags_.error("DVL014", begin, "stray '<'");
      return make(TokKind::kError, begin, "<");
    default:
      diags_.error("DVL015", begin,
                   std::string("unexpected character '") + c + "'");
      return make(TokKind::kError, begin, spelling(begin));
  }
}

std::vector<Token> Lexer::lex_all() {
  std::vector<Token> out;
  // The corpus specs average 3.5 to 5 bytes per token.
  out.reserve(buf_.text().size() / 3 + 1);
  do {
    out.push_back(next());
  } while (!out.back().is(TokKind::kEof));
  return out;
}

}  // namespace devil
