// Seeded MiniC source fuzz: random byte-fragment edits of the campaign
// drivers through both tail front ends.
//
// Each edit replaces a few bytes of a C or CDevil driver (ide and busmouse)
// at a token start or end, a comment or `#define`, or anywhere, with
// fragments that open, close or extend tokens, comments, string literals and
// directives. The text is untrusted, so both `compile_tail` (the campaign's
// cached VM path) and `compile_with_prefix` (the walker's whole-unit path)
// must return a diagnostic or a unit, never crash; they must agree on
// acceptance and on the first diagnostic, which is what a campaign record
// keeps; and every accepted edit must lower without a kInternal fault. Both
// share the prefix-seeded tail lex, so a plain `compile` of the
// concatenated text, which lexes it in one piece, must agree with them too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "eval/campaign_spec.h"
#include "minic/bytecode/bytecode.h"
#include "minic/lexer.h"
#include "minic/program.h"
#include "support/diagnostics.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace {

constexpr uint64_t kSeed = 0x5eed'c0de;
constexpr size_t kEditsPerDriver = 1024;

/// Byte fragments the random edits are built from: everything that starts,
/// ends or extends a token, a comment, a literal or a directive, plus line
/// breaks.
constexpr const char* kFragments[] = {
    "\n", "\"", "'", "/*", "*/", "//", "#define ", "#", "\\", "(", ")",
    "{",  "}",  ";", ",",  "=",  "<",  ">",        "&", "|",  "+", "-",
    "*",  "0",  "1", "0x", "9",  "a",  "_",        "Z", " ",  ".",
};

/// One campaign driver: its stub prefix text, prepared, its text and the
/// offsets the edits favour (token starts and ends, comment and directive
/// marks).
struct Driver {
  std::string label;
  std::string prefix_text;
  minic::PreparedPrefix prefix;
  std::string text;
  std::vector<size_t> anchors;
};

Driver make_driver(const std::string& label,
                   const eval::DriverCampaignConfig& cfg) {
  Driver d;
  d.label = label;
  d.prefix_text = cfg.stubs.empty() ? std::string() : cfg.stubs + "\n";
  d.prefix = minic::prepare_prefix(cfg.unit_name, d.prefix_text);
  d.text = cfg.driver;
  EXPECT_TRUE(d.prefix.ok()) << label;
  support::DiagnosticEngine diags;
  support::SourceBuffer buf(cfg.unit_name, d.text);
  minic::LexOptions options;
  options.seed_macros = &d.prefix.macros;
  for (const minic::Token& t : minic::lex_unit(buf, diags, options).tokens) {
    if (t.from_expansion) continue;
    d.anchors.push_back(t.loc.offset);
    d.anchors.push_back(t.loc.offset + t.text.size());
  }
  EXPECT_FALSE(diags.has_errors()) << label << "\n" << diags.render();
  for (const char* mark : {"/*", "*/", "//", "#define", "\"", "\n"}) {
    for (size_t at = d.text.find(mark); at != std::string::npos;
         at = d.text.find(mark, at + 1)) {
      d.anchors.push_back(at);
    }
  }
  return d;
}

/// The C and CDevil drivers of the ide and busmouse campaigns, exactly as
/// the campaigns prepare them.
std::vector<Driver> campaign_drivers() {
  std::vector<Driver> out;
  const eval::CampaignSpec spec;
  for (const auto& drivers : eval::campaign_spec_corpus(spec)) {
    const std::string device = drivers.device;
    if (device != "ide" && device != "busmouse") continue;
    auto cfgs = eval::driver_configs_for(spec, drivers);
    out.push_back(make_driver(device + " C", cfgs.c));
    out.push_back(make_driver(device + " CDevil", cfgs.cdevil));
  }
  return out;
}

/// Replaces 0 to 8 bytes at a favoured offset (give or take a byte) or
/// anywhere with 0 to 8 fragment bytes.
std::string random_edit(support::SplitMix64& rng, const Driver& d) {
  std::string text = d.text;
  size_t at = rng.next_below(text.size() + 1);
  if (rng.chance(3, 4)) {
    const size_t nudged =
        d.anchors[rng.next_below(d.anchors.size())] + rng.next_below(3);
    at = nudged == 0 ? 0 : std::min(nudged - 1, text.size());
  }
  const size_t old_len = std::min<size_t>(rng.next_below(9), text.size() - at);
  const size_t new_len = rng.next_below(9);
  std::string bytes;
  while (bytes.size() < new_len) {
    bytes += kFragments[rng.next_below(std::size(kFragments))];
  }
  bytes.resize(new_len);
  return text.replace(at, old_len, bytes);
}

/// Empty when `a` and `b` agree on acceptance and first diagnostic, else
/// what differs.
std::string compare_verdicts(const char* a_name,
                             const support::DiagnosticEngine& a, bool a_ok,
                             const char* b_name,
                             const support::DiagnosticEngine& b, bool b_ok) {
  if (a_ok != b_ok) {
    return std::string(a_name) + (a_ok ? " accepts, " : " rejects, ") +
           b_name + (b_ok ? " accepts:\n" : " rejects:\n") +
           (a_ok ? b.render() : a.render());
  }
  if (a_ok) return "";
  if (a.all().empty() || b.all().empty()) return "rejected without a diagnostic";
  const std::string first_a = a.all().front().to_string();
  const std::string first_b = b.all().front().to_string();
  if (first_a == first_b) return "";
  return std::string(a_name) + " and " + b_name +
         " differ in the first diagnostic:\n  " + first_a + "\n  " + first_b;
}

/// Empty when the front ends agree on `text`, else what differs.
/// `accepted` gets the verdict.
std::string compare_front_ends(const Driver& d, const std::string& text,
                               bool& accepted) {
  minic::SplicedProgram tail = minic::compile_tail(d.prefix, text);
  minic::Program whole = minic::compile_with_prefix(d.prefix, text);
  minic::Program full = minic::compile(d.prefix.name, d.prefix_text + text);
  accepted = tail.ok();
  if (!tail.internal_error.empty()) {
    return "compile_tail lowering fault: " + tail.internal_error;
  }
  std::string diff = compare_verdicts("compile_tail", tail.diags, tail.ok(),
                                      "compile_with_prefix", whole.diags,
                                      whole.ok());
  if (diff.empty()) {
    diff = compare_verdicts("compile_with_prefix", whole.diags, whole.ok(),
                            "compile", full.diags, full.ok());
  }
  if (!diff.empty() || !whole.ok()) return diff;
  try {
    (void)minic::bytecode::compile_unit(*whole.unit);
  } catch (const minic::Fault& f) {
    return "whole-unit lowering fault: " + f.message;
  }
  return "";
}

TEST(MinicFuzz, RandomEditsAgreeAcrossTailFrontEndsAndNeverCrash) {
  support::SplitMix64 rng(kSeed);
  size_t accepted = 0;
  size_t rejected = 0;
  const std::vector<Driver> drivers = campaign_drivers();
  ASSERT_EQ(drivers.size(), 4u);
  for (const Driver& d : drivers) {
    std::vector<std::string> edits;
    edits.reserve(kEditsPerDriver);
    for (size_t n = 0; n < kEditsPerDriver; ++n) {
      edits.push_back(random_edit(rng, d));
    }
    std::vector<std::string> diffs(edits.size());
    std::vector<uint8_t> ok(edits.size());
    support::parallel_for(edits.size(), 0, [&](size_t i) {
      bool accepted_i = false;
      diffs[i] = compare_front_ends(d, edits[i], accepted_i);
      ok[i] = accepted_i ? 1 : 0;
    });
    for (size_t i = 0; i < edits.size(); ++i) {
      EXPECT_EQ(diffs[i], "") << d.label << " edit " << i;
      ++(ok[i] != 0 ? accepted : rejected);
    }
  }
  // The sweep reaches both verdicts (290 and 3,806 of the 4,096 edits at
  // this seed), so it exercises the checkers and lowering as well as the
  // lexer.
  EXPECT_GT(accepted, 200u);
  EXPECT_GT(rejected, 2000u);
}

}  // namespace
