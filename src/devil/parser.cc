#include "devil/parser.h"

#include <string>
#include <utility>

namespace devil {

const Token& Parser::peek(int ahead) const {
  size_t i = pos_ + static_cast<size_t>(ahead);
  if (i >= toks_.size()) i = toks_.size() - 1;  // EOF token
  return toks_[i];
}

const Token& Parser::advance() {
  const Token& t = toks_[pos_];
  if (pos_ + 1 < toks_.size()) ++pos_;
  return t;
}

bool Parser::accept(TokKind k) {
  if (!check(k)) return false;
  advance();
  return true;
}

bool Parser::expect(TokKind k, const char* what) {
  if (accept(k)) return true;
  std::string msg = std::string("expected ") + tok_kind_name(k) + " " + what +
                    ", found " + tok_kind_name(peek().kind);
  if (!peek().text.empty()) msg.append(" '").append(peek().text).append("'");
  diags_.error("DVL020", peek().range.begin, std::move(msg));
  fail();
}

void Parser::fail() { throw ParseError{}; }

std::optional<Specification> Parser::parse() {
  try {
    Specification spec;
    spec.device = parse_device();
    if (!check(TokKind::kEof)) {
      diags_.error("DVL021", peek().range.begin,
                   "trailing tokens after device declaration");
      return std::nullopt;
    }
    return spec;
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

DeviceDecl Parser::parse_device() {
  DeviceDecl dev;
  dev.loc = peek().range.begin;
  expect(TokKind::kKwDevice, "to begin a specification");
  if (!check(TokKind::kIdent)) {
    diags_.error("DVL022", peek().range.begin, "expected device name");
    fail();
  }
  dev.name = advance().text;

  expect(TokKind::kLParen, "to open the port parameter list");
  if (!check(TokKind::kRParen)) {
    dev.params.push_back(parse_port_param());
    while (accept(TokKind::kComma)) dev.params.push_back(parse_port_param());
  }
  expect(TokKind::kRParen, "to close the port parameter list");

  expect(TokKind::kLBrace, "to open the device body");
  while (!check(TokKind::kRBrace) && !check(TokKind::kEof)) {
    if (check(TokKind::kKwRegister)) {
      dev.registers.push_back(parse_register());
    } else if (check(TokKind::kKwVariable)) {
      dev.variables.push_back(parse_variable(/*is_private=*/false));
    } else if (check(TokKind::kKwPrivate)) {
      advance();
      if (!check(TokKind::kKwVariable)) {
        diags_.error("DVL023", peek().range.begin,
                     "'private' must be followed by 'variable'");
        fail();
      }
      dev.variables.push_back(parse_variable(/*is_private=*/true));
    } else {
      diags_.error("DVL024", peek().range.begin,
                   std::string("expected 'register' or 'variable', found ") +
                       tok_kind_name(peek().kind));
      fail();
    }
  }
  expect(TokKind::kRBrace, "to close the device body");
  return dev;
}

// base : bit[8] port @ {0..3}
PortParam Parser::parse_port_param() {
  PortParam p;
  p.loc = peek().range.begin;
  if (!check(TokKind::kIdent)) {
    diags_.error("DVL025", peek().range.begin, "expected port parameter name");
    fail();
  }
  p.name = advance().text;
  expect(TokKind::kColon, "after port parameter name");
  expect(TokKind::kKwBit, "in port parameter type");
  expect(TokKind::kLBracket, "in port width");
  p.width_bits = parse_size("port width");
  expect(TokKind::kRBracket, "after port width");
  expect(TokKind::kKwPort, "in port parameter type");
  expect(TokKind::kAt, "before the port offset range");
  expect(TokKind::kLBrace, "to open the offset range");
  do {
    if (!parse_values(p.offsets, "offset", "range upper bound")) {
      p.has_empty_range = true;  // sema reports DVL102
    }
  } while (accept(TokKind::kComma));
  expect(TokKind::kRBrace, "to close the offset range");
  return p;
}

// base @ 1  |  base
PortExpr Parser::parse_port_expr() {
  PortExpr pe;
  pe.loc = peek().range.begin;
  if (!check(TokKind::kIdent)) {
    diags_.error("DVL026", peek().range.begin, "expected port name");
    fail();
  }
  pe.base = advance().text;
  if (accept(TokKind::kAt)) {
    pe.has_offset = true;
    pe.offset = parse_int("port offset");
  }
  return pe;
}

PreAction Parser::parse_pre_action() {
  PreAction pa;
  expect(TokKind::kLBrace, "to open the pre-action");
  pa.loc = peek().range.begin;
  if (!check(TokKind::kIdent)) {
    diags_.error("DVL027", peek().range.begin,
                 "expected variable name in pre-action");
    fail();
  }
  pa.var = advance().text;
  expect(TokKind::kEq, "in pre-action assignment");
  pa.value = parse_int("pre-action value");
  expect(TokKind::kRBrace, "to close the pre-action");
  return pa;
}

// register name = [read|write] port [, more bindings/pre/mask] : bit[N];
RegisterDecl Parser::parse_register() {
  RegisterDecl reg;
  reg.loc = peek().range.begin;
  expect(TokKind::kKwRegister, "");
  if (!check(TokKind::kIdent)) {
    diags_.error("DVL028", peek().range.begin, "expected register name");
    fail();
  }
  reg.name = advance().text;
  expect(TokKind::kEq, "after register name");

  auto parse_binding = [&] {
    PortBinding b;
    if (accept(TokKind::kKwRead)) {
      b.access = Access::kRead;
    } else if (accept(TokKind::kKwWrite)) {
      b.access = Access::kWrite;
    } else {
      b.access = Access::kReadWrite;
    }
    b.port = parse_port_expr();
    reg.bindings.push_back(std::move(b));
  };
  parse_binding();

  while (accept(TokKind::kComma)) {
    if (check(TokKind::kKwRead) || check(TokKind::kKwWrite)) {
      parse_binding();
    } else if (accept(TokKind::kKwPre)) {
      reg.pre_actions.push_back(parse_pre_action());
    } else if (accept(TokKind::kKwMask)) {
      if (!check(TokKind::kBitString)) {
        diags_.error("DVL029", peek().range.begin,
                     "expected bit-string literal after 'mask'");
        fail();
      }
      const Token& t = advance();
      reg.mask.pattern = t.text;
      reg.mask.loc = t.range.begin;
    } else {
      diags_.error("DVL030", peek().range.begin,
                   "expected 'read', 'write', 'pre' or 'mask' in register "
                   "attribute list");
      fail();
    }
  }

  expect(TokKind::kColon, "before register size");
  expect(TokKind::kKwBit, "in register size");
  expect(TokKind::kLBracket, "in register size");
  reg.size_bits = parse_size("register size");
  expect(TokKind::kRBracket, "after register size");
  expect(TokKind::kSemi, "to end the register declaration");
  return reg;
}

// x_high[3..0]  |  index_reg[4]  |  sig_reg
RegFragment Parser::parse_fragment() {
  RegFragment f;
  f.loc = peek().range.begin;
  if (!check(TokKind::kIdent)) {
    diags_.error("DVL031", peek().range.begin,
                 "expected register name in variable definition");
    fail();
  }
  f.reg = advance().text;
  if (accept(TokKind::kLBracket)) {
    f.has_range = true;
    f.msb = parse_size("bit index");
    if (accept(TokKind::kDotDot)) {
      f.lsb = parse_size("bit index");
    } else {
      f.lsb = f.msb;
    }
    expect(TokKind::kRBracket, "after bit range");
  }
  return f;
}

std::vector<EnumItem> Parser::parse_enum_items() {
  std::vector<EnumItem> items;
  do {
    EnumItem item;
    item.loc = peek().range.begin;
    if (!check(TokKind::kIdent)) {
      diags_.error("DVL032", peek().range.begin,
                   "expected symbolic name in enumerated type");
      fail();
    }
    item.name = advance().text;
    if (accept(TokKind::kArrowBoth)) {
      item.dir = MappingDir::kBoth;
    } else if (accept(TokKind::kArrowWrite)) {
      item.dir = MappingDir::kWrite;
    } else if (accept(TokKind::kArrowRead)) {
      item.dir = MappingDir::kRead;
    } else {
      diags_.error("DVL033", peek().range.begin,
                   "expected '<=', '=>' or '<=>' in enumerated type");
      fail();
    }
    if (!check(TokKind::kBitString)) {
      diags_.error("DVL034", peek().range.begin,
                   "expected bit-string literal in enumerated type");
      fail();
    }
    const Token& t = advance();
    item.pattern = t.text;
    items.push_back(std::move(item));
  } while (accept(TokKind::kComma));
  return items;
}

// int(8) | signed int(8) | bool | { ... } | int{0,2,3} | int{0..5}
TypeExpr Parser::parse_type() {
  TypeExpr ty;
  ty.loc = peek().range.begin;
  if (accept(TokKind::kKwSigned)) {
    ty.kind = TypeKind::kSignedInt;
    expect(TokKind::kKwInt, "after 'signed'");
    expect(TokKind::kLParen, "in integer type");
    ty.width_bits = parse_size("type width");
    expect(TokKind::kRParen, "after type width");
    return ty;
  }
  if (accept(TokKind::kKwBool)) {
    ty.kind = TypeKind::kBool;
    ty.width_bits = 1;
    return ty;
  }
  if (accept(TokKind::kKwInt)) {
    if (accept(TokKind::kLParen)) {
      ty.kind = TypeKind::kInt;
      ty.width_bits = parse_size("type width");
      expect(TokKind::kRParen, "after type width");
      return ty;
    }
    expect(TokKind::kLBrace, "in integer-set type");
    ty.kind = TypeKind::kIntSet;
    do {
      parse_values(ty.set_values, "set element", "set range upper bound");
    } while (accept(TokKind::kComma));
    expect(TokKind::kRBrace, "to close the integer-set type");
    return ty;
  }
  if (accept(TokKind::kLBrace)) {
    ty.kind = TypeKind::kEnum;
    ty.items = parse_enum_items();
    expect(TokKind::kRBrace, "to close the enumerated type");
    return ty;
  }
  diags_.error("DVL035", peek().range.begin, "expected a Devil type");
  fail();
}

// variable name = frag [# frag]* [, attrs] : type ;
VariableDecl Parser::parse_variable(bool is_private) {
  VariableDecl var;
  var.is_private = is_private;
  var.loc = peek().range.begin;
  expect(TokKind::kKwVariable, "");
  if (!check(TokKind::kIdent)) {
    diags_.error("DVL036", peek().range.begin, "expected variable name");
    fail();
  }
  var.name = advance().text;
  expect(TokKind::kEq, "after variable name");

  var.fragments.push_back(parse_fragment());
  while (accept(TokKind::kHash)) var.fragments.push_back(parse_fragment());

  while (accept(TokKind::kComma)) {
    if (accept(TokKind::kKwVolatile)) {
      var.is_volatile = true;
    } else if (accept(TokKind::kKwWrite)) {
      expect(TokKind::kKwTrigger, "after 'write' attribute");
      var.write_trigger = true;
    } else {
      diags_.error("DVL037", peek().range.begin,
                   "expected 'volatile' or 'write trigger' attribute");
      fail();
    }
  }

  expect(TokKind::kColon, "before variable type");
  var.type = parse_type();
  expect(TokKind::kSemi, "to end the variable declaration");
  return var;
}

int Parser::parse_size(const char* what) {
  support::SourceLoc loc = peek().range.begin;
  uint64_t v = parse_int(what);
  if (v > kMaxExpansion) {
    diags_.error("DVL039", loc,
                 std::string(what) + " " + std::to_string(v) +
                     " is above the limit of " +
                     std::to_string(kMaxExpansion));
    fail();
  }
  return static_cast<int>(v);
}

bool Parser::parse_values(std::vector<uint64_t>& out, const char* what,
                          const char* upper_what) {
  support::SourceLoc loc = peek().range.begin;
  uint64_t lo = parse_int(what);
  uint64_t hi = lo;
  if (accept(TokKind::kDotDot)) {
    hi = parse_int(upper_what);
    if (lo > hi) return false;
  }
  // hi - lo + 1 wraps to 0 for the whole uint64 range: compare the span.
  if (out.size() >= kMaxExpansion || hi - lo >= kMaxExpansion - out.size()) {
    diags_.error("DVL039", loc,
                 "set would hold more than " +
                     std::to_string(kMaxExpansion) + " values");
    fail();
  }
  for (uint64_t v = lo;; ++v) {
    out.push_back(v);
    if (v == hi) break;
  }
  return true;
}

uint64_t Parser::parse_int(const char* what) {
  if (!check(TokKind::kInt)) {
    diags_.error("DVL038", peek().range.begin,
                 std::string("expected integer ") + what);
    fail();
  }
  return advance().int_value;
}

}  // namespace devil
