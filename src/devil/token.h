// Token model for the Devil IDL (paper §2.1, Fig. 3).
#pragma once

#include <cstdint>
#include <string_view>

#include "support/source.h"

namespace devil {

enum class TokKind {
  kEof,
  kError,

  // Literals and identifiers.
  kIdent,       // logitech_busmouse, sig_reg, MASTER, ...
  kInt,         // 42, 0x1f0
  kBitString,   // '1001000.' — mask / bit-pattern literal (chars 0 1 * .)

  // Keywords.
  kKwDevice,
  kKwRegister,
  kKwVariable,
  kKwPrivate,
  kKwVolatile,
  kKwRead,
  kKwWrite,
  kKwTrigger,
  kKwMask,
  kKwPre,
  kKwPort,
  kKwBit,
  kKwInt,
  kKwSigned,
  kKwBool,

  // Punctuation / operators.
  kLBrace,      // {
  kRBrace,      // }
  kLParen,      // (
  kRParen,      // )
  kLBracket,    // [
  kRBracket,    // ]
  kAt,          // @
  kColon,       // :
  kSemi,        // ;
  kComma,       // ,
  kEq,          // =
  kHash,        // #   (register concatenation)
  kDotDot,      // ..  (ranges)
  kArrowRead,   // <=  (read mapping: bits -> name)
  kArrowWrite,  // =>  (write mapping: name -> bits)
  kArrowBoth,   // <=> (bidirectional mapping)
};

[[nodiscard]] const char* tok_kind_name(TokKind k);

/// One lexed token. Trivially copyable: `text` views the bytes of the
/// support::SourceBuffer the token was lexed from, so a token must not
/// outlive that buffer. The parser copies every name and pattern it keeps
/// into the AST, so a parsed Specification does not depend on the buffer.
struct Token {
  TokKind kind = TokKind::kEof;
  support::SourceRange range;
  std::string_view text;  // raw spelling (bit strings keep their quotes off)
  uint64_t int_value = 0; // valid when kind == kInt

  [[nodiscard]] bool is(TokKind k) const { return kind == k; }
};

}  // namespace devil
