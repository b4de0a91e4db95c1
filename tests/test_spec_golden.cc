// Golden diagnostics for every Table 2 spec mutant. Each of the 16,604
// mutants is run through `devil::check_spec`; its rendered diagnostics plus
// the ok flag are hashed, and the hashes are folded in mutant order into one
// digest per spec. The digests were recorded before the Devil front end was
// reworked for speed, so any change to a DVL code, a location, a message or
// their order in any mutant shows up here. The same test pins the campaign
// rows (sites, mutants, detected, deduped, survivor samples) at 1 and 4
// threads. The campaign checks in first-error mode; the DevilFirstError
// tests hold that mode to the full check on every mutant and on seeded
// random edits.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "corpus/specs.h"
#include "devil/compiler.h"
#include "devil_edits.h"
#include "eval/spec_campaign.h"
#include "mutation/devil_mutator.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"

namespace {

struct GoldenSpec {
  const char* digest;  // fnv128 fold of every mutant's diagnostics hash
  size_t sites;
  size_t mutants;
  size_t detected;
  size_t deduped;
  std::vector<std::string> survivors;  // first undetected samples
};

const std::vector<GoldenSpec>& golden() {
  static const std::vector<GoldenSpec> g = {
      // Logitech Busmouse
      {"9037cf683e7aefe981cbc1dbf5aa929d",
       71,
       1608,
       1522,
       77,
       {"line 9: '1001000.' -> ''0001000.''",
        "line 9: '1001000.' -> ''*001000.''",
        "line 9: '1001000.' -> ''1101000.''",
        "line 9: '1001000.' -> ''1*01000.''",
        "line 9: '1001000.' -> ''1011000.''",
        "line 9: '1001000.' -> ''10*1000.''",
        "line 9: '1001000.' -> ''1000000.''",
        "line 9: '1001000.' -> ''100*000.''"}},
      // PCI Bus Master (Intel 82371FB)
      {"0f183e99f769ad0f993cc2b06a629b0e",
       70,
       1156,
       1130,
       84,
       {"line 4: '32' -> '032'",
        "line 7: '****.**.' -> ''0***.**.''",
        "line 7: '****.**.' -> ''1***.**.''",
        "line 7: '****.**.' -> ''*0**.**.''",
        "line 7: '****.**.' -> ''*1**.**.''",
        "line 7: '****.**.' -> ''**0*.**.''",
        "line 7: '****.**.' -> ''**1*.**.''",
        "line 7: '****.**.' -> ''***0.**.''"}},
      // IDE (Intel PIIX4)
      {"5ba75995aa644b64f46b1b238d64f790",
       168,
       2029,
       1982,
       47,
       {"line 2: '16' -> '016'",
        "line 6: '16' -> '016'",
        "line 7: '16' -> '016'",
        "line 32: '1.1.....' -> ''0.1.....''",
        "line 32: '1.1.....' -> ''*.1.....''",
        "line 32: '1.1.....' -> ''1.0.....''",
        "line 32: '1.1.....' -> ''1.*.....''",
        "line 33: '<=>' -> '<='"}},
      // Ethernet NE2000 (ns8390)
      {"2c27e98dc27c1e12a78b40a9a89ee98e",
       243,
       6161,
       6035,
       227,
       {"line 2: '15' -> '015'",
        "line 3: '16' -> '016'",
        "line 12: '<=>' -> '<='",
        "line 13: '<=>' -> '<='",
        "line 14: '<=>' -> '<='",
        "line 15: '<=>' -> '<='",
        "line 19: '0' -> '02'",
        "line 19: '0' -> '03'"}},
      // Graphic card (Permedia 2)
      {"e1d1b323107459770b2b03189ce9c5fb",
       124,
       5650,
       5207,
       187,
       {"line 2: '32' -> '032'",
        "line 2: '15' -> '015'",
        "line 5: '32' -> '032'",
        "line 6: '<=' -> '<=>'",
        "line 6: '<=' -> '<=>'",
        "line 7: '31' -> '031'",
        "line 7: '31' -> '031'",
        "line 10: '****************................' -> ''0***************................''"}},
  };
  return g;
}

/// Checks every mutant of `spec` over all cores and folds the per-mutant
/// hashes in mutant order.
std::string diagnostics_digest(const corpus::SpecEntry& spec) {
  const auto baseline = devil::check_spec(spec.file, spec.text);
  EXPECT_TRUE(baseline.ok()) << baseline.diags.render();
  if (!baseline.ok()) return "";
  const mutation::DevilNames names = devil_edits::names_from(*baseline.info);
  const auto sites = mutation::scan_devil_sites(spec.text, names);
  const auto mutants = mutation::generate_devil_mutants(sites, names);
  std::vector<std::pair<uint64_t, uint64_t>> hashes(mutants.size());
  support::parallel_for(mutants.size(), 0, [&](size_t i) {
    const auto result = devil::check_spec(
        spec.file, mutation::apply_mutant(spec.text, sites, mutants[i]));
    hashes[i] = support::fnv128(result.diags.render() +
                                (result.ok() ? "1" : "0"));
  });
  support::Fnv128 fold;
  for (const auto& [hi, lo] : hashes) fold.update_u64(hi).update_u64(lo);
  return fold.hex();
}

TEST(SpecGolden, DiagnosticsOfEveryMutantUnchanged) {
  const auto& specs = corpus::all_specs();
  ASSERT_EQ(specs.size(), golden().size());
  for (size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(diagnostics_digest(specs[s]), golden()[s].digest)
        << specs[s].name;
  }
}

TEST(SpecGolden, CampaignRowsPinnedAtOneAndFourThreads) {
  const auto& specs = corpus::all_specs();
  ASSERT_EQ(specs.size(), golden().size());
  for (unsigned threads : {1u, 4u}) {
    const auto rows = eval::run_all_spec_campaigns(threads);
    ASSERT_EQ(rows.size(), specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
      const GoldenSpec& g = golden()[s];
      const std::string label =
          specs[s].name + " at " + std::to_string(threads) + " thread(s)";
      EXPECT_EQ(rows[s].sites, g.sites) << label;
      EXPECT_EQ(rows[s].mutants, g.mutants) << label;
      EXPECT_EQ(rows[s].detected, g.detected) << label;
      EXPECT_EQ(rows[s].deduped, g.deduped) << label;
      EXPECT_EQ(rows[s].undetected_samples, g.survivors) << label;
    }
  }
}

/// Empty when `devil::CheckMode::kFirstError` agrees with `check_spec` on
/// `buf`: the same verdict and, for a rejected text, exactly one diagnostic
/// that renders as the full check's first. Lexing has no first-error mode,
/// so a text that does not lex keeps all of the lexer's diagnostics in both.
/// `accepted` gets the full check's verdict.
std::string first_error_mismatch(const support::SourceBuffer& buf,
                                 bool& accepted) {
  const auto full = devil::check_spec(buf.name(), std::string(buf.text()));
  accepted = full.ok();
  devil::CompileResult first;
  auto tokens = devil::lex_spec(buf, first);
  const bool lexed = !first.diags.has_errors();
  devil::check_tokens(std::move(tokens), first,
                      devil::CheckMode::kFirstError);
  if (first.ok() != full.ok()) {
    return std::string("full check ") + (full.ok() ? "accepts" : "rejects") +
           ", first-error mode does not:\n" + full.diags.render() + "vs\n" +
           first.diags.render();
  }
  if (full.ok() || !lexed) {
    if (first.diags.render() == full.diags.render()) return "";
    return "diagnostics differ:\n" + full.diags.render() + "vs\n" +
           first.diags.render();
  }
  const auto& got = first.diags.all();
  if (got.size() == 1 &&
      got.front().to_string() == full.diags.all().front().to_string()) {
    return "";
  }
  return "first-error mode reported\n" + first.diags.render() +
         "for a full check starting\n" + full.diags.all().front().to_string();
}

TEST(DevilFirstError, EverySpecMutantKeepsItsVerdictAndFirstDiagnostic) {
  size_t checked = 0, rejected = 0;
  for (const corpus::SpecEntry& spec : corpus::all_specs()) {
    const auto baseline = devil::check_spec(spec.file, spec.text);
    ASSERT_TRUE(baseline.ok()) << baseline.diags.render();
    const auto names = devil_edits::names_from(*baseline.info);
    const auto sites = mutation::scan_devil_sites(spec.text, names);
    const auto mutants = mutation::generate_devil_mutants(sites, names);
    std::vector<std::string> diffs(mutants.size());
    std::vector<uint8_t> accepted(mutants.size());
    support::parallel_for(mutants.size(), 0, [&](size_t i) {
      bool ok = false;
      diffs[i] = first_error_mismatch(
          support::SourceBuffer(spec.file, mutation::apply_mutant(
                                               spec.text, sites, mutants[i])),
          ok);
      accepted[i] = ok;
    });
    for (size_t i = 0; i < mutants.size(); ++i) {
      EXPECT_EQ(diffs[i], "") << spec.name << " mutant " << i;
      rejected += accepted[i] ? 0 : 1;
    }
    checked += mutants.size();
  }
  EXPECT_EQ(checked, 16604u);
  EXPECT_EQ(rejected, 15876u);  // the detected column of Table 2
}

TEST(DevilFirstError, RandomEditsKeepTheirVerdictAndFirstDiagnostic) {
  support::SplitMix64 rng(devil_edits::kSeed);
  size_t checked = 0, rejected = 0;
  for (const corpus::SpecEntry& spec : corpus::all_specs()) {
    const devil_edits::Base base(spec);
    const auto edits = devil_edits::random_edits(rng, base);
    std::vector<std::string> diffs(edits.size());
    std::vector<uint8_t> accepted(edits.size());
    support::parallel_for(edits.size(), 0, [&](size_t i) {
      bool ok = false;
      diffs[i] = first_error_mismatch(
          support::SourceBuffer(spec.file, edits[i].apply(spec.text)), ok);
      accepted[i] = ok;
    });
    for (size_t i = 0; i < edits.size(); ++i) {
      const devil::TextEdit& edit = edits[i].edit;
      EXPECT_EQ(diffs[i], "")
          << spec.name << " edit " << i << " at " << edit.offset << ": -"
          << edit.old_len << " +'" << edits[i].bytes << "'";
      rejected += accepted[i] ? 0 : 1;
    }
    checked += edits.size();
  }
  EXPECT_EQ(checked, 10240u);
  // Most random edits break the spec; some (whitespace, a comment) do not.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, checked);
}

}  // namespace
