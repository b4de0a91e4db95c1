// Unit tests for the Devil lexer and parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "devil/compiler.h"
#include "devil/lexer.h"
#include "devil/parser.h"
#include "support/diagnostics.h"

namespace {

using devil::TokKind;

/// Lexed tokens together with the buffer their `text` views.
struct Lexed {
  std::unique_ptr<support::SourceBuffer> buf;
  std::vector<devil::Token> toks;

  [[nodiscard]] size_t size() const { return toks.size(); }
  const devil::Token& operator[](size_t i) const { return toks[i]; }
};

Lexed lex(const std::string& text, support::DiagnosticEngine& diags) {
  Lexed out{std::make_unique<support::SourceBuffer>("test.dil", text), {}};
  devil::Lexer lexer(*out.buf, diags);
  out.toks = lexer.lex_all();
  return out;
}

Lexed lex_ok(const std::string& text) {
  support::DiagnosticEngine diags;
  auto toks = lex(text, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return toks;
}

std::optional<devil::Specification> parse(const std::string& text,
                                          support::DiagnosticEngine& diags) {
  auto lexed = lex(text, diags);
  if (diags.has_errors()) return std::nullopt;
  devil::Parser parser(std::move(lexed.toks), diags);
  return parser.parse();
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(DevilLexer, KeywordsAndIdentifiers) {
  auto toks = lex_ok("device register variable foo_bar");
  ASSERT_EQ(toks.size(), 5u);  // + EOF
  EXPECT_EQ(toks[0].kind, TokKind::kKwDevice);
  EXPECT_EQ(toks[1].kind, TokKind::kKwRegister);
  EXPECT_EQ(toks[2].kind, TokKind::kKwVariable);
  EXPECT_EQ(toks[3].kind, TokKind::kIdent);
  EXPECT_EQ(toks[3].text, "foo_bar");
}

TEST(DevilLexer, DecimalAndHexLiterals) {
  auto toks = lex_ok("42 0x1f0");
  EXPECT_EQ(toks[0].int_value, 42u);
  EXPECT_EQ(toks[1].int_value, 0x1f0u);
}

TEST(DevilLexer, BitStrings) {
  auto toks = lex_ok("'1001000.' '01*.'");
  EXPECT_EQ(toks[0].kind, TokKind::kBitString);
  EXPECT_EQ(toks[0].text, "1001000.");
  EXPECT_EQ(toks[1].text, "01*.");
}

TEST(DevilLexer, RejectsBadBitStringChar) {
  support::DiagnosticEngine diags;
  lex("'10x1'", diags);
  EXPECT_TRUE(diags.has_code("DVL012"));
}

TEST(DevilLexer, RejectsUnterminatedBitString) {
  support::DiagnosticEngine diags;
  lex("'101", diags);
  EXPECT_TRUE(diags.has_code("DVL011"));
}

TEST(DevilLexer, LargestLiteralsFit) {
  auto toks =
      lex_ok("18446744073709551615 0xffffffffffffffff 0x000000000000000001");
  EXPECT_EQ(toks[0].int_value, UINT64_MAX);
  EXPECT_EQ(toks[1].int_value, UINT64_MAX);
  EXPECT_EQ(toks[2].int_value, 1u);
}

TEST(DevilLexer, RejectsDecimalLiteralPast64Bits) {
  support::DiagnosticEngine diags;
  auto toks = lex("99999999999999999999", diags);
  EXPECT_TRUE(diags.has_code("DVL016")) << diags.render();
  EXPECT_EQ(toks[0].kind, TokKind::kError);
  EXPECT_EQ(toks[0].text, "99999999999999999999");
}

TEST(DevilLexer, RejectsHexLiteralPast64Bits) {
  support::DiagnosticEngine diags;
  auto toks = lex("0x1ffffffffffffffff", diags);
  EXPECT_TRUE(diags.has_code("DVL016")) << diags.render();
  EXPECT_EQ(toks[0].kind, TokKind::kError);
}

TEST(DevilLexer, CheckSpecRejectsOversizedLiteralInPortRange) {
  // Untrusted text: the literal must become a diagnostic, not an exception.
  for (const char* hi : {"99999999999999999999", "0x1ffffffffffffffff"}) {
    auto r = devil::check_spec(
        "test.dil", std::string("device d (p : bit[8] port @ {0..") + hi +
                        "}) { register r = p @ 0 : bit[8]; "
                        "variable v = r : int(8); }");
    EXPECT_FALSE(r.ok()) << hi;
    EXPECT_TRUE(r.diags.has_code("DVL016")) << hi << "\n" << r.diags.render();
  }
}

TEST(DevilLexer, ArrowOperators) {
  auto toks = lex_ok("<= => <=>");
  EXPECT_EQ(toks[0].kind, TokKind::kArrowRead);
  EXPECT_EQ(toks[1].kind, TokKind::kArrowWrite);
  EXPECT_EQ(toks[2].kind, TokKind::kArrowBoth);
}

TEST(DevilLexer, RangeAndPunctuation) {
  auto toks = lex_ok("{0..3} @ # [7..0] ;");
  EXPECT_EQ(toks[0].kind, TokKind::kLBrace);
  EXPECT_EQ(toks[2].kind, TokKind::kDotDot);
  EXPECT_EQ(toks[5].kind, TokKind::kAt);
  EXPECT_EQ(toks[6].kind, TokKind::kHash);
}

TEST(DevilLexer, CommentsAreSkipped) {
  auto toks = lex_ok("// line comment\n/* block */ device");
  EXPECT_EQ(toks[0].kind, TokKind::kKwDevice);
}

TEST(DevilLexer, TracksLineNumbers) {
  auto toks = lex_ok("a\nb\n  c");
  EXPECT_EQ(toks[0].range.begin.line, 1u);
  EXPECT_EQ(toks[1].range.begin.line, 2u);
  EXPECT_EQ(toks[2].range.begin.line, 3u);
  EXPECT_EQ(toks[2].range.begin.column, 3u);
}

TEST(DevilLexer, TokenRangesCoverSpelling) {
  auto toks = lex_ok("  0x1f0");
  EXPECT_EQ(toks[0].range.begin.offset, 2u);
  EXPECT_EQ(toks[0].range.size(), 5u);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const char* kMinimal = R"(
device d (base : bit[8] port @ {0..0}) {
  register r = base @ 0 : bit[8];
  variable v = r : int(8);
}
)";

TEST(DevilParser, ParsesMinimalDevice) {
  support::DiagnosticEngine diags;
  auto spec = parse(kMinimal, diags);
  ASSERT_TRUE(spec.has_value()) << diags.render();
  EXPECT_EQ(spec->device.name, "d");
  ASSERT_EQ(spec->device.params.size(), 1u);
  EXPECT_EQ(spec->device.params[0].name, "base");
  EXPECT_EQ(spec->device.params[0].width_bits, 8);
  ASSERT_EQ(spec->device.registers.size(), 1u);
  ASSERT_EQ(spec->device.variables.size(), 1u);
}

TEST(DevilParser, PortParamRange) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[16] port @ {2..5}) {"
      " register r = p @ 2 : bit[16]; variable v = r : int(16); }",
      diags);
  ASSERT_TRUE(spec);
  EXPECT_EQ(spec->device.params[0].offsets,
            (std::vector<uint64_t>{2, 3, 4, 5}));
}

TEST(DevilParser, RegisterAccessKeywords) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..1}) {"
      " register a = read p @ 0 : bit[8];"
      " register b = write p @ 1 : bit[8];"
      " variable va = a : int(8); variable vb = b : int(8); }",
      diags);
  ASSERT_TRUE(spec);
  EXPECT_EQ(spec->device.registers[0].access(), devil::Access::kRead);
  EXPECT_EQ(spec->device.registers[1].access(), devil::Access::kWrite);
}

TEST(DevilParser, SplitReadWriteBindings) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..1}) {"
      " register r = read p @ 0, write p @ 1 : bit[8];"
      " variable v = r : int(8); }",
      diags);
  ASSERT_TRUE(spec) << diags.render();
  EXPECT_EQ(spec->device.registers[0].bindings.size(), 2u);
  EXPECT_EQ(spec->device.registers[0].access(), devil::Access::kReadWrite);
}

TEST(DevilParser, MaskAttribute) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..0}) {"
      " register r = p @ 0, mask '1.0.....' : bit[8];"
      " variable v = r[6] : int(1); variable w = r[4..0] : int(5); }",
      diags);
  ASSERT_TRUE(spec);
  EXPECT_EQ(spec->device.registers[0].mask.pattern, "1.0.....");
}

TEST(DevilParser, PreActions) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..1}) {"
      " register ix = write p @ 1 : bit[8];"
      " private variable sel = ix : int(8);"
      " register r = read p @ 0, pre {sel = 3} : bit[8];"
      " variable v = r : int(8); }",
      diags);
  ASSERT_TRUE(spec) << diags.render();
  const auto& r = spec->device.registers[1];
  ASSERT_EQ(r.pre_actions.size(), 1u);
  EXPECT_EQ(r.pre_actions[0].var, "sel");
  EXPECT_EQ(r.pre_actions[0].value, 3u);
}

TEST(DevilParser, ConcatenationAndRanges) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..1}) {"
      " register hi = p @ 0 : bit[8]; register lo = p @ 1 : bit[8];"
      " variable v = hi[3..0] # lo[7..4], volatile : int(8);"
      " variable rest_hi = hi[7..4] : int(4);"
      " variable rest_lo = lo[3..0] : int(4); }",
      diags);
  ASSERT_TRUE(spec) << diags.render();
  const auto& v = spec->device.variables[0];
  ASSERT_EQ(v.fragments.size(), 2u);
  EXPECT_EQ(v.fragments[0].msb, 3);
  EXPECT_EQ(v.fragments[1].lsb, 4);
  EXPECT_TRUE(v.is_volatile);
}

TEST(DevilParser, EnumTypesAllArrowKinds) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..0}) {"
      " register r = p @ 0, mask '******..' : bit[8];"
      " variable v = r[1..0] : { A <=> '00', B <=> '01', C <=> '10',"
      " D <=> '11' }; }",
      diags);
  ASSERT_TRUE(spec) << diags.render();
  const auto& ty = spec->device.variables[0].type;
  EXPECT_EQ(ty.kind, devil::TypeKind::kEnum);
  ASSERT_EQ(ty.items.size(), 4u);
  EXPECT_EQ(ty.items[0].dir, devil::MappingDir::kBoth);
}

TEST(DevilParser, IntSetTypesWithRanges) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..0}) {"
      " register r = p @ 0, mask '******..' : bit[8];"
      " variable v = r[1..0] : int{0,2..3}; }",
      diags);
  ASSERT_TRUE(spec) << diags.render();
  const auto& ty = spec->device.variables[0].type;
  EXPECT_EQ(ty.kind, devil::TypeKind::kIntSet);
  EXPECT_EQ(ty.set_values, (std::vector<uint64_t>{0, 2, 3}));
}

TEST(DevilParser, SignedIntAndBoolAndWriteTrigger) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..0}) {"
      " register r = p @ 0 : bit[8];"
      " variable v = r[7..1], write trigger : signed int(7);"
      " variable b = r[0] : bool; }",
      diags);
  ASSERT_TRUE(spec) << diags.render();
  EXPECT_EQ(spec->device.variables[0].type.kind, devil::TypeKind::kSignedInt);
  EXPECT_TRUE(spec->device.variables[0].write_trigger);
  EXPECT_EQ(spec->device.variables[1].type.kind, devil::TypeKind::kBool);
}

TEST(DevilParser, ReportsMissingSemicolon) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..0}) {"
      " register r = p @ 0 : bit[8] }",
      diags);
  EXPECT_FALSE(spec);
  EXPECT_TRUE(diags.has_errors());
}

TEST(DevilParser, ReportsTrailingTokens) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..0}) {"
      " register r = p @ 0 : bit[8]; variable v = r : int(8); } stray",
      diags);
  EXPECT_FALSE(spec);
  EXPECT_TRUE(diags.has_code("DVL021"));
}

TEST(DevilParser, ReportsBadAttribute) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..0}) {"
      " variable v = r, bogus : int(8); }",
      diags);
  EXPECT_FALSE(spec);
}

// ---------------------------------------------------------------------------
// Expansion bounds (DVL039): each hostile input gets a diagnostic before
// anything is expanded.
// ---------------------------------------------------------------------------

devil::CompileResult check_device(const std::string& params,
                                  const std::string& body) {
  return devil::check_spec("test.dil",
                           "device d (" + params + ") {\n" + body + "\n}");
}

TEST(DevilParser, DVL039_PortRangeToTheTopOfUint64) {
  // Before the bound, `v <= hi` never failed and the loop did not end.
  auto r = check_device("p : bit[8] port @ {0..0xffffffffffffffff}",
                        "register r = p @ 0 : bit[8];"
                        " variable v = r : int(8);");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL039")) << r.diags.render();
}

TEST(DevilParser, DVL039_PortRangeOfABillionOffsets) {
  auto r = check_device("p : bit[8] port @ {0..1000000000}",
                        "register r = p @ 0 : bit[8];"
                        " variable v = r : int(8);");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL039")) << r.diags.render();
}

TEST(DevilParser, DVL039_IntegerSetOfABillionValues) {
  auto r = check_device("p : bit[8] port @ {0..0}",
                        "register r = p @ 0 : bit[8];"
                        " variable v = r : int{0..1000000000};");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL039")) << r.diags.render();
}

TEST(DevilParser, DVL039_RegisterTenMillionBitsWide) {
  auto r = check_device("base : bit[8] port @ {0..0}",
                        "register r = base @ 0 : bit[10000000];"
                        " variable v = r : int(8);");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL039")) << r.diags.render();
}

TEST(DevilParser, DVL039_BoundIsInclusiveAndCountsEveryGroup) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0..65535}) {"
      " register r = p @ 0 : bit[65536]; variable v = r[65536..0] : int(8); }",
      diags);
  ASSERT_TRUE(spec) << diags.render();
  EXPECT_EQ(spec->device.params[0].offsets.size(), 65536u);

  support::DiagnosticEngine more;
  EXPECT_FALSE(
      parse("device d (p : bit[8] port @ {0..65535, 65536}) {}", more));
  EXPECT_TRUE(more.has_code("DVL039"));
  support::DiagnosticEngine over;
  EXPECT_FALSE(parse("device d (p : bit[8] port @ {7, 0..65535}) {}", over));
  EXPECT_TRUE(over.has_code("DVL039"));
  support::DiagnosticEngine wide;
  EXPECT_FALSE(parse("device d (p : bit[65537] port @ {0}) {}", wide));
  EXPECT_TRUE(wide.has_code("DVL039"));
}

TEST(DevilSemaBounds, DVL221_TwoVariablesOverA65536BitRegisterStayBounded) {
  // One DVL221 per bit per earlier claim used to mean 65,536 diagnostics
  // here; each register now reports a bounded number plus one summary.
  auto r = check_device("p : bit[8] port @ {0..0}",
                        "register r = p @ 0 : bit[65536];"
                        " variable v = r : int(8);"
                        " variable w = r : int(8);");
  EXPECT_FALSE(r.ok());
  size_t overlaps = 0;
  for (const auto& d : r.diags.all()) overlaps += d.code == "DVL221" ? 1 : 0;
  EXPECT_GT(overlaps, 1u);
  EXPECT_LE(overlaps, 65u);
  EXPECT_LE(r.diags.all().size(), 100u);
  const auto& last = r.diags.all().back();
  EXPECT_EQ(last.code, "DVL221");
  EXPECT_NE(last.message.find("65472 more bit claim(s) of register 'r'"),
            std::string::npos)
      << last.message;
}

TEST(DevilParser, RangeEndingAtTheTopOfUint64Terminates) {
  support::DiagnosticEngine diags;
  auto spec = parse(
      "device d (p : bit[8] port @ {0xfffffffffffffffe..0xffffffffffffffff})"
      " { register r = p @ 0 : bit[8]; variable v = r : int(8); }",
      diags);
  ASSERT_TRUE(spec) << diags.render();
  EXPECT_EQ(spec->device.params[0].offsets,
            (std::vector<uint64_t>{UINT64_MAX - 1, UINT64_MAX}));
}

}  // namespace
