// Unit tests for the Devil semantic checker — one test per consistency rule
// (paper §2.2). Each negative test asserts the *specific* rule code fires,
// so a mutant killed by the wrong check would show up here.
#include <gtest/gtest.h>

#include "devil/compiler.h"

namespace {

devil::CompileResult check(const std::string& body_or_spec) {
  return devil::check_spec("test.dil", body_or_spec);
}

/// Wraps register/variable declarations in a single-port device.
std::string dev(const std::string& body, const std::string& params =
                                              "p : bit[8] port @ {0..0}") {
  return "device d (" + params + ") {\n" + body + "\n}";
}

TEST(DevilSema, AcceptsMinimalConsistentSpec) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(8);"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

// ---- intra-layer: ports ---------------------------------------------------

TEST(DevilSema, DVL100_DuplicatePortParam) {
  auto r = check(
      "device d (p : bit[8] port @ {0..0}, p : bit[8] port @ {0..0}) {"
      " register r = p @ 0 : bit[8]; variable v = r : int(8); }");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL100"));
}

TEST(DevilSema, DVL101_InvalidPortWidth) {
  auto r = check(dev("register r = p @ 0 : bit[12]; variable v = r : int(12);",
                     "p : bit[12] port @ {0..0}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL101"));
}

TEST(DevilSema, DVL102_EmptyPortRange) {
  auto r = check(dev("register r = p @ 3 : bit[8]; variable v = r : int(8);",
                     "p : bit[8] port @ {3..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL102"));
}

TEST(DevilSema, PortOffsetSetsSupported) {
  // Non-contiguous offset sets: `@ {0, 2}` claims exactly those offsets.
  auto r = check(dev("register a = p @ 0 : bit[8]; register b = p @ 2 : bit[8];"
                     "variable va = a : int(8); variable vb = b : int(8);",
                     "p : bit[8] port @ {0, 2}"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

TEST(DevilSema, DVL113_OffsetOutsideOffsetSet) {
  auto r = check(dev("register a = p @ 1 : bit[8]; variable v = a : int(8);",
                     "p : bit[8] port @ {0, 2}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL113"));
}

TEST(DevilSema, DVL103_DuplicateOffsetInSet) {
  auto r = check(dev("register a = p @ 0 : bit[8]; variable v = a : int(8);",
                     "p : bit[8] port @ {0, 0}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL103"));
}

// ---- intra-layer: registers --------------------------------------------------

TEST(DevilSema, DVL110_DuplicateRegister) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "register r = p @ 0 : bit[8];"
                     "variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL110"));
}

TEST(DevilSema, DVL112_UnknownPort) {
  auto r = check(dev("register r = q @ 0 : bit[8]; variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL112"));
}

TEST(DevilSema, DVL113_OffsetOutsideRange) {
  auto r = check(dev("register r = p @ 7 : bit[8]; variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL113"));
}

TEST(DevilSema, DVL114_MaskSizeMismatch) {
  auto r = check(dev("register r = p @ 0, mask '....' : bit[8];"
                     "variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL114"));
}

TEST(DevilSema, DVL115_RegisterWiderThanPort) {
  auto r = check(dev("register r = p @ 0 : bit[16]; variable v = r : int(16);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL115"));
}

TEST(DevilSema, DVL116_TwoReadBindings) {
  auto r = check(dev("register r = read p @ 0, read p @ 1 : bit[8];"
                     "variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL116"));
}

// ---- intra-layer: variables -----------------------------------------------------

TEST(DevilSema, DVL120_DuplicateVariable) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "variable v = r[7..4] : int(4);"
                     "variable v = r[3..0] : int(4);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL120"));
}

TEST(DevilSema, DVL121_UnknownRegisterInFragment) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = s : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL121"));
}

TEST(DevilSema, DVL122_BitRangeOutOfBounds) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r[9..0] : int(10);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL122"));
}

TEST(DevilSema, DVL123_VariableOnIrrelevantBit) {
  auto r = check(dev("register r = p @ 0, mask '0.......' : bit[8];"
                     "variable v = r[7] : int(1);"
                     "variable w = r[6..0] : int(7);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL123"));
}

TEST(DevilSema, DVL130_WidthMismatchWithType) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(4);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL130"));
}

TEST(DevilSema, DVL131_EnumPatternLengthMismatch) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[1..0] : { A <=> '00', B <=> '1' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL131"));
}

TEST(DevilSema, DVL132_EnumPatternBadChar) {
  auto r = check(dev("register r = p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A <=> '*', B <=> '0' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL132"));
}

TEST(DevilSema, DVL133_DuplicateSymbolicName) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[0] : { A <=> '1', A <=> '0' };"
                     "variable w = r[1] : int(1);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL133"));
}

TEST(DevilSema, DVL133_SymbolicNamesUniqueAcrossVariables) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[0] : { ON <=> '1', OFF <=> '0' };"
                     "variable w = r[1] : { ON <=> '1', ALSO <=> '0' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL133"));
}

TEST(DevilSema, DVL134_DuplicateReadPattern) {
  auto r = check(dev("register r = p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A <=> '1', B <= '1' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL134"));
}

TEST(DevilSema, DVL135_DuplicateSetElement) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[1..0] : int{1,1,2};"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL135"));
}

TEST(DevilSema, DVL138_SetElementTooWide) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[1..0] : int{0,2,3,5};"));
  EXPECT_FALSE(r.ok());
  // 5 needs 3 bits; the widths also mismatch — the targeted code must fire.
  EXPECT_TRUE(r.diags.has_code("DVL138") || r.diags.has_code("DVL130"));
}

// ---- inter-layer: access consistency -----------------------------------------------

TEST(DevilSema, DVL200_ReadMappingOnWriteOnlyVariable) {
  auto r = check(dev("register r = write p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A <= '1', B <= '0' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL200"));
}

TEST(DevilSema, DVL201_WriteMappingOnReadOnlyVariable) {
  auto r = check(dev("register r = read p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A => '1', B => '0' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL201"));
}

TEST(DevilSema, DVL210_ReadMappingNotExhaustive) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[1..0] : { A <=> '00', B <=> '01' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL210"));
}

TEST(DevilSema, DVL202_WriteOnlyEnumNeedsWriteMapping) {
  // A write-only variable whose type has read mappings errs twice over;
  // the dedicated code for "no write mapping" must be among the errors.
  auto r = check(dev("register r = write p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A <= '1' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL202"));
}

// ---- pre-actions ---------------------------------------------------------------------

TEST(DevilSema, DVL150_PreActionUnknownVariable) {
  auto r = check(dev("register r = p @ 0, pre {sel = 1} : bit[8];"
                     "variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL150"));
}

TEST(DevilSema, DVL151_PreActionReadOnlyVariable) {
  auto r = check(dev("register s = read p @ 1 : bit[8];"
                     "variable sel = s : int(8);"
                     "register r = p @ 0, pre {sel = 1} : bit[8];"
                     "variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL151"));
}

TEST(DevilSema, DVL152_PreActionValueOutOfRange) {
  auto r = check(dev("register s = write p @ 1, mask '......**' : bit[8];"
                     "private variable sel = s[7..2] : int(6);"
                     "register r = p @ 0, pre {sel = 64} : bit[8];"
                     "variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL152"));
}

// ---- overlap ---------------------------------------------------------------------------

TEST(DevilSema, DVL220_PortReusedWithoutDisjointness) {
  auto r = check(dev("register a = p @ 0 : bit[8];"
                     "register b = p @ 0 : bit[8];"
                     "variable va = a : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL220"));
}

TEST(DevilSema, PortReuseAllowedWithDisjointPreActions) {
  auto r = check(dev("register s = write p @ 1, mask '*******.' : bit[8];"
                     "private variable sel = s[0] : int(1);"
                     "register a = read p @ 0, pre {sel = 0} : bit[8];"
                     "register b = read p @ 0, pre {sel = 1} : bit[8];"
                     "variable va = a : int(8); variable vb = b : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

TEST(DevilSema, PortReuseAllowedWithDisjointMasks) {
  auto r = check(dev("register a = write p @ 0, mask '....0000' : bit[8];"
                     "register b = write p @ 0, mask '0000....' : bit[8];"
                     "variable va = a[7..4] : int(4);"
                     "variable vb = b[3..0] : int(4);"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

TEST(DevilSema, PortReadAndWriteByDifferentRegistersAllowed) {
  auto r = check(dev("register a = read p @ 0 : bit[8];"
                     "register b = write p @ 0 : bit[8];"
                     "variable va = a : int(8); variable vb = b : int(8);"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

TEST(DevilSema, DVL221_RegisterBitInTwoVariables) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "variable v = r[3..0] : int(4);"
                     "variable w = r[7..3] : int(5);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL221"));
}

// ---- no omission -------------------------------------------------------------------------

TEST(DevilSema, DVL230_UnusedRegister) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "register s = p @ 1 : bit[8];"
                     "variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL230"));
}

TEST(DevilSema, DVL231_UncoveredRelevantBit) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "variable v = r[6..0] : int(7);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL231"));
}

TEST(DevilSema, DVL232_UnusedPortParam) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(8);",
                     "p : bit[8] port @ {0..0}, q : bit[8] port @ {0..0}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL232"));
}

TEST(DevilSema, DVL233_UnusedDeclaredOffset) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL233"));
}

// ---- resolved model ------------------------------------------------------------------------

TEST(DevilSema, TypeIdsAreSpecUnique) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "variable v = r[7..4] : int(4);"
                     "variable w = r[3..0] : int(4);"));
  ASSERT_TRUE(r.ok()) << r.diags.render();
  EXPECT_NE(r.info->variables.at("v").type_id,
            r.info->variables.at("w").type_id);
}

TEST(DevilSema, VariableAccessDerivedFromRegisters) {
  auto r = check(dev("register a = read p @ 0 : bit[8];"
                     "register b = write p @ 1 : bit[8];"
                     "variable va = a : int(8); variable vb = b : int(8);",
                     "p : bit[8] port @ {0..1}"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.info->variables.at("va").access, devil::Access::kRead);
  EXPECT_EQ(r.info->variables.at("vb").access, devil::Access::kWrite);
}

TEST(DevilSema, DescribeDeviceListsEntities) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(8);"));
  ASSERT_TRUE(r.ok());
  std::string text = devil::describe_device(*r.info);
  EXPECT_NE(text.find("register r"), std::string::npos);
  EXPECT_NE(text.find("variable v"), std::string::npos);
}

// ---- first-error mode --------------------------------------------------------------------

/// `check` in devil::CheckMode::kFirstError, as the Table 2 campaign runs it.
devil::CompileResult check_first_error(const std::string& spec) {
  devil::CompileResult result;
  const support::SourceBuffer buf("test.dil", spec);
  devil::check_tokens(devil::lex_spec(buf, result), result,
                      devil::CheckMode::kFirstError);
  return result;
}

TEST(DevilSema, FirstErrorModeStopsAFloodAtItsFirstDiagnostic) {
  // The full check reports one error per unused port offset or uncovered
  // register bit in each: 65,535 DVL233 or DVL231 reports.
  struct Hostile {
    const char* spec;
    const char* first_code;
  };
  const Hostile hostile[] = {
      {"device d (p : bit[8] port @ {0..65535}) {\n"
       "  register r = p @ 0 : bit[8];\n"
       "  variable v = r : int(8);\n"
       "}\n",
       "DVL233"},
      {"device d (p : bit[8] port @ {0}) {\n"
       "  register r = p @ 0, mask '1' : bit[65536];\n"
       "  variable v = r[0] : int(1);\n"
       "}\n",
       "DVL111"},
      {"device d (p : bit[8] port @ {0}) {\n"
       "  register r = p @ 0 : bit[65536];\n"
       "  variable v = r[0] : int(1);\n"
       "}\n",
       "DVL111"},
  };
  for (const Hostile& h : hostile) {
    const auto full = check(h.spec);
    EXPECT_FALSE(full.ok()) << h.spec;
    ASSERT_GE(full.diags.all().size(), 65535u) << h.spec;
    EXPECT_EQ(full.diags.all().front().code, h.first_code) << h.spec;

    const auto first = check_first_error(h.spec);
    EXPECT_FALSE(first.ok()) << h.spec;
    ASSERT_EQ(first.diags.all().size(), 1u) << first.diags.render();
    EXPECT_EQ(first.diags.all().front().to_string(),
              full.diags.all().front().to_string());
  }
}

}  // namespace
