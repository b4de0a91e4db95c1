// Tests for the evaluation harness: outcome classification, the two
// campaign drivers and the campaign flag table.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/campaign_spec.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/report.h"
#include "eval/spec_campaign.h"
#include "support/metrics.h"

namespace {

using eval::Outcome;

// A tiny driver + a campaign configured to mutate all of it, for targeted
// outcome checks via hand-written "mutants" (we inject the bug directly).
eval::DriverCampaignConfig tiny(const std::string& driver) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = driver;
  cfg.device = eval::ide_binding();
  cfg.sample_percent = 100;
  return cfg;
}

TEST(Tally, AccumulatesMutantsAndSites) {
  eval::Tally t;
  t.add(Outcome::kBoot, 1);
  t.add(Outcome::kBoot, 1);
  t.add(Outcome::kBoot, 2);
  t.add(Outcome::kHalt, 3);
  EXPECT_EQ(t.mutants_of(Outcome::kBoot), 3u);
  EXPECT_EQ(t.sites_of(Outcome::kBoot), 2u);
  EXPECT_EQ(t.total_mutants, 4u);
  EXPECT_EQ(t.detected(), 0u);
  t.add(Outcome::kCompileTime, 4);
  t.add(Outcome::kRunTime, 5);
  EXPECT_EQ(t.detected(), 2u);
}

TEST(SpecCampaign, BusmouseRowMatchesPaperShape) {
  auto row = eval::run_spec_campaign(corpus::all_specs()[0]);
  EXPECT_EQ(row.name, "Logitech Busmouse");
  EXPECT_GT(row.sites, 30u);
  EXPECT_GT(row.mutants, 500u);
  // Paper Table 2: 88.8%..95.4% detected across specs.
  double pct = 100.0 * static_cast<double>(row.detected) /
               static_cast<double>(row.mutants);
  EXPECT_GT(pct, 85.0);
  EXPECT_LT(pct, 100.0);  // some mutants survive (e.g. '*' <-> fixed bits)
}

TEST(SpecCampaign, SurvivorSamplesReported) {
  auto row = eval::run_spec_campaign(corpus::all_specs()[0], 4);
  EXPECT_LE(row.undetected_samples.size(), 4u);
  EXPECT_FALSE(row.undetected_samples.empty());
}

TEST(SpecCampaign, RejectsBrokenBaselineSpec) {
  corpus::SpecEntry bad{"broken", "broken.dil",
                        "device d (p : bit[8] port @ {0..0}) { }"};
  EXPECT_THROW(eval::run_spec_campaign(bad), std::logic_error);
}

TEST(SpecCampaign, LexesEveryMutantOnce) {
  auto count = [](support::Stage stage) {
    return support::Metrics::snapshot()
        .stages[static_cast<size_t>(stage)]
        .count();
  };
  support::Metrics::set_enabled(true);
  const uint64_t lex0 = count(support::Stage::kDevilLex);
  const uint64_t parse0 = count(support::Stage::kDevilParse);
  const uint64_t sema0 = count(support::Stage::kDevilSema);
  eval::SpecCampaignConfig cfg;
  cfg.threads = 2;
  const auto row = eval::run_spec_campaign(corpus::all_specs()[0], cfg);
  const uint64_t lexed = count(support::Stage::kDevilLex) - lex0;
  const uint64_t parsed = count(support::Stage::kDevilParse) - parse0;
  const uint64_t checked = count(support::Stage::kDevilSema) - sema0;
  support::Metrics::set_enabled(false);
  // The unmutated spec and each mutant once, duplicates included; only the
  // texts that lex are parsed, and only those that parse reach sema.
  EXPECT_EQ(lexed, row.mutants + 1);
  EXPECT_GT(row.deduped, 0u);
  EXPECT_LE(parsed, lexed);
  EXPECT_LE(checked, parsed);
  EXPECT_GT(checked, row.mutants / 2);
}

TEST(SpecCampaign, DeterministicAcrossRuns) {
  auto a = eval::run_spec_campaign(corpus::all_specs()[1]);
  auto b = eval::run_spec_campaign(corpus::all_specs()[1]);
  EXPECT_EQ(a.mutants, b.mutants);
  EXPECT_EQ(a.detected, b.detected);
}

// ---- driver campaign preconditions -----------------------------------------

TEST(DriverCampaign, RejectsNonCompilingBaseline) {
  auto cfg = tiny("int ide_boot() { return undefined_thing; }");
  EXPECT_THROW((void)eval::run_driver_campaign(cfg), std::logic_error);
}

TEST(DriverCampaign, RejectsFaultingBaseline) {
  auto cfg = tiny("int ide_boot() { panic(\"boom\"); return 1; }");
  EXPECT_THROW((void)eval::run_driver_campaign(cfg), std::logic_error);
}

TEST(DriverCampaign, RejectsNonPositiveFingerprint) {
  auto cfg = tiny("int ide_boot() { return 0; }");
  EXPECT_THROW((void)eval::run_driver_campaign(cfg), std::logic_error);
}

// ---- classification through real mini-campaigns ------------------------------

TEST(DriverCampaign, LiteralMutantsClassified) {
  // A driver whose only mutable region is one literal: port 0x1f7 (status).
  // Its mutants hit mapped registers, unmapped ports (stuck 0xff -> the
  // status poll loops forever), and the O-typo (compile error).
  auto cfg = tiny(R"(
int ide_boot() {
  int s;
  /* MUT_BEGIN */
  s = inb(0x1f7);
  /* MUT_END */
  while (s & 0x80) { s = inb(0x1f7); }
  return s + 1;
}
)");
  auto res = eval::run_driver_campaign(cfg);
  // Sites: the 0x1f7 literal, plus the `s` identifier (confusable with the
  // file's other defined identifier, the function name).
  EXPECT_EQ(res.total_sites, 2u);
  EXPECT_GT(res.sampled_mutants, 30u);
  // The O-typo mutant is a compile error.
  EXPECT_GE(res.tally.mutants_of(Outcome::kCompileTime), 1u);
  // Reading a different mapped register boots with a wrong fingerprint.
  EXPECT_GE(res.tally.mutants_of(Outcome::kDamagedBoot), 1u);
}

TEST(DriverCampaign, DeadCodeRequiresUnexecutedSite) {
  auto cfg = tiny(R"(
int helper(int x) {
  if (x == 12345) {
    /* MUT_BEGIN */
    return 0x42;
    /* MUT_END */
  }
  return 7;
}
int ide_boot() { return helper(1); }
)");
  auto res = eval::run_driver_campaign(cfg);
  EXPECT_GT(res.sampled_mutants, 0u);
  // Everything that compiles is dead (the O-typo variant is caught at
  // compile time before executability matters).
  EXPECT_EQ(res.tally.mutants_of(Outcome::kDeadCode) +
                res.tally.mutants_of(Outcome::kCompileTime),
            res.sampled_mutants);
  EXPECT_GT(res.tally.mutants_of(Outcome::kDeadCode), 0u);
}

TEST(DriverCampaign, MacroSiteDeadOnlyIfUsesUnexecuted) {
  // The macro is used on an executed line, so its body mutants are live.
  auto cfg = tiny(R"(
/* MUT_BEGIN */
#define MAGIC 0x2a
/* MUT_END */
int ide_boot() { return MAGIC + 1; }
)");
  auto res = eval::run_driver_campaign(cfg);
  EXPECT_GT(res.sampled_mutants, 0u);
  EXPECT_EQ(res.tally.mutants_of(Outcome::kDeadCode), 0u);
  // Changing the value changes the fingerprint: damaged boot.
  EXPECT_GT(res.tally.mutants_of(Outcome::kDamagedBoot), 0u);
}

TEST(DriverCampaign, SamplingIsDeterministicAndScales) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.sample_percent = 10;
  auto a = eval::run_driver_campaign(cfg);
  auto b = eval::run_driver_campaign(cfg);
  EXPECT_EQ(a.sampled_mutants, b.sampled_mutants);
  EXPECT_EQ(a.tally.mutants, b.tally.mutants);
  EXPECT_LT(a.sampled_mutants, a.total_mutants / 5);
}

// ---- report rendering -----------------------------------------------------------

TEST(Report, Table2ContainsAllSpecs) {
  std::vector<eval::SpecCampaignRow> rows;
  for (const auto& spec : corpus::all_specs()) {
    eval::SpecCampaignRow r;
    r.name = spec.name;
    r.code_lines = 10;
    r.sites = 5;
    r.mutants = 100;
    r.detected = 90;
    rows.push_back(r);
  }
  std::string t = eval::render_table2(rows);
  EXPECT_NE(t.find("Logitech Busmouse"), std::string::npos);
  EXPECT_NE(t.find("90.0 %"), std::string::npos);
}

TEST(Report, DriverTableShowsRuntimeRowOnlyWhenPresent) {
  eval::DriverCampaignResult r;
  r.total_sites = 3;
  r.sampled_mutants = 10;
  r.tally.add(Outcome::kBoot, 0);
  std::string without = eval::render_driver_table("T", r);
  EXPECT_EQ(without.find("Run-time check"), std::string::npos);
  r.tally.add(Outcome::kRunTime, 1);
  r.sampled_mutants = 11;
  std::string with = eval::render_driver_table("T", r);
  EXPECT_NE(with.find("Run-time check"), std::string::npos);
}

TEST(Report, ComparisonComputesRatios) {
  eval::DriverCampaignResult c, d;
  c.sampled_mutants = 100;
  for (int i = 0; i < 20; ++i) c.tally.add(Outcome::kCompileTime, 0);
  for (int i = 0; i < 40; ++i) c.tally.add(Outcome::kBoot, 1);
  d.sampled_mutants = 100;
  for (int i = 0; i < 60; ++i) d.tally.add(Outcome::kCompileTime, 0);
  for (int i = 0; i < 10; ++i) d.tally.add(Outcome::kBoot, 1);
  std::string s = eval::render_comparison(c, d);
  EXPECT_NE(s.find("3.0x more errors detected"), std::string::npos);
  EXPECT_NE(s.find("4.0x fewer undetected errors"), std::string::npos);
}

// ---- campaign flag table --------------------------------------------------------

// Every row of the flag table reaches a handler: a valid non-default value
// moves the spec off its defaults. A row added without a branch in
// apply_campaign_flag fails here rather than at run time with "unhandled
// campaign flag", and a new value-carrying row fails until it gets a value.
TEST(CampaignFlags, EveryRowAppliesANonDefaultValue) {
  const std::map<std::string, std::string> valid = {
      {"--device", "busmouse"},       {"--threads", "4"},
      {"--seed", "7"},                {"--sample-percent", "50"},
      {"--step-budget", "300000"},    {"--watchdog-ms", "0"},
      {"--fault-triggers", "3,5"},    {"--fault-sample-percent", "50"},
      {"--survivor-samples", "2"}};
  for (const eval::CampaignFlag& flag : eval::campaign_spec_flags()) {
    SCOPED_TRACE(flag.flag);
    EXPECT_EQ(eval::find_campaign_flag(flag.flag), &flag);
    std::string value;
    if (flag.value_name) {
      auto it = valid.find(flag.flag);
      ASSERT_NE(it, valid.end()) << "value-carrying row without a test value";
      value = it->second;
    }
    eval::CampaignSpec spec;
    EXPECT_EQ(eval::apply_campaign_flag(spec, flag, value), "");
    EXPECT_NE(spec, eval::CampaignSpec{});
  }
}

// Each value-carrying row rejects a malformed value with the diagnostic the
// CLI prints: the handler's own, or for --device (any name parses) the
// first validation diagnostic.
TEST(CampaignFlags, EveryValueRowRejectsAMalformedValue) {
  const std::map<std::string, std::pair<std::string, std::string>> bad = {
      {"--device", {"floppy", "unknown device 'floppy'"}},
      {"--threads", {"-3", "--threads: '-3' is not a thread count"}},
      {"--seed", {"1e9", "--seed: '1e9' is not a seed"}},
      {"--sample-percent",
       {"150", "--sample-percent: '150' is not a percentage"}},
      {"--step-budget", {"0", "--step-budget: '0' is not a step budget"}},
      {"--watchdog-ms",
       {"100000000", "--watchdog-ms: '100000000' is not a millisecond count"}},
      {"--fault-triggers",
       {"1,,2",
        "--fault-triggers: '1,,2' is not a comma-separated offset list"}},
      {"--fault-sample-percent",
       {"0", "--fault-sample-percent: '0' is not a percentage"}},
      {"--survivor-samples",
       {"many", "--survivor-samples: 'many' is not a count"}}};
  for (const eval::CampaignFlag& flag : eval::campaign_spec_flags()) {
    if (!flag.value_name) continue;
    SCOPED_TRACE(flag.flag);
    auto it = bad.find(flag.flag);
    ASSERT_NE(it, bad.end()) << "value-carrying row without a rejected value";
    const auto& [value, prefix] = it->second;
    eval::CampaignSpec spec;
    std::string diag = eval::apply_campaign_flag(spec, flag, value);
    if (diag.empty()) {
      std::vector<std::string> diags = eval::validate_campaign_spec(spec);
      ASSERT_FALSE(diags.empty());
      diag = diags.front();
    }
    EXPECT_EQ(diag.rfind(prefix, 0), 0u) << diag;
  }
}

}  // namespace
