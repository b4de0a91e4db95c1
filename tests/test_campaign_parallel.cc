// Determinism guarantees of the parallel campaign engine: any thread count
// must produce byte-identical results, the prefix token cache must be
// indistinguishable from whole-unit compilation, and the sampling RNG must
// be stable across platforms (it defines which mutants a campaign boots).
#include <gtest/gtest.h>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/spec_campaign.h"
#include "minic/program.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace {

void expect_identical(const eval::DriverCampaignResult& a,
                      const eval::DriverCampaignResult& b) {
  EXPECT_EQ(a.clean_fingerprint, b.clean_fingerprint);
  EXPECT_EQ(a.total_sites, b.total_sites);
  EXPECT_EQ(a.total_mutants, b.total_mutants);
  EXPECT_EQ(a.sampled_mutants, b.sampled_mutants);
  EXPECT_EQ(a.deduped_mutants, b.deduped_mutants);
  EXPECT_EQ(a.tally.mutants, b.tally.mutants);
  EXPECT_EQ(a.tally.sites, b.tally.sites);
  EXPECT_EQ(a.tally.total_mutants, b.tally.total_mutants);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].mutant_index, b.records[i].mutant_index) << i;
    EXPECT_EQ(a.records[i].site, b.records[i].site) << i;
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << i;
    EXPECT_EQ(a.records[i].detail, b.records[i].detail) << i;
    EXPECT_EQ(a.records[i].deduped, b.records[i].deduped) << i;
  }
}

TEST(ParallelCampaign, CDriverIdenticalAtAnyThreadCount) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.sample_percent = 10;  // keep the test quick; coverage spans outcomes
  cfg.threads = 1;
  auto serial = eval::run_driver_campaign(cfg);
  cfg.threads = 4;
  auto parallel = eval::run_driver_campaign(cfg);
  expect_identical(serial, parallel);
}

TEST(ParallelCampaign, CDevilDriverIdenticalAtAnyThreadCount) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  ASSERT_TRUE(spec.ok()) << spec.diags.render();
  eval::DriverCampaignConfig cfg;
  cfg.stubs = spec.stubs;
  cfg.driver = corpus::cdevil_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.is_cdevil = true;
  cfg.sample_percent = 10;
  cfg.threads = 1;
  auto serial = eval::run_driver_campaign(cfg);
  cfg.threads = 4;
  auto parallel = eval::run_driver_campaign(cfg);
  expect_identical(serial, parallel);
}

TEST(ParallelCampaign, RepeatedCampaignsReuseAstSlabs) {
  // Every campaign spawns fresh workers, which parse mutant tails out of the
  // AST slab pool and donate their free lists when they exit. Once the pool
  // has warmed up, further campaigns must be served from donated memory:
  // the slab count (the pool's footprint, never freed) stays flat.
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.sample_percent = 10;
  cfg.bytecode_patch = false;  // every mutant parses its tail
  cfg.threads = 4;
  for (int i = 0; i < 3; ++i) (void)eval::run_driver_campaign(cfg);
  const size_t warm = minic::ast_pool_slabs();
  for (int i = 0; i < 8; ++i) (void)eval::run_driver_campaign(cfg);
  EXPECT_EQ(minic::ast_pool_slabs(), warm);
}

TEST(ParallelCampaign, SpecCampaignIdenticalAtAnyThreadCount) {
  const auto& spec = corpus::all_specs()[0];
  auto serial = eval::run_spec_campaign(spec);
  eval::SpecCampaignConfig config;
  config.threads = 4;
  auto parallel = eval::run_spec_campaign(spec, config);
  EXPECT_EQ(serial.mutants, parallel.mutants);
  EXPECT_EQ(serial.detected, parallel.detected);
  EXPECT_EQ(serial.undetected_samples, parallel.undetected_samples);
}

TEST(ParallelCampaign, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(support::resolve_threads(0, 1000), 1u);
  EXPECT_EQ(support::resolve_threads(8, 3), 3u);   // never more than jobs
  EXPECT_EQ(support::resolve_threads(2, 0), 1u);   // never zero
}

TEST(ParallelCampaign, ParallelForRethrowsSmallestFailingIndex) {
  EXPECT_NO_THROW(support::parallel_for(100, 4, [](size_t) {}));
  try {
    support::parallel_for(100, 4, [](size_t i) {
      if (i == 97 || i == 13) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "13");
  }
}

// The prefix token cache must be indistinguishable from full compilation:
// same acceptance, same diagnostics, same line numbers, same coverage
// bookkeeping (macro use lines live in the unit).
TEST(PreparedPrefix, SpliceMatchesWholeUnitCompile) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  ASSERT_TRUE(spec.ok());
  const std::string prefix_text = spec.stubs + "\n";
  const std::string& driver = corpus::cdevil_ide_driver();

  auto whole = minic::compile("ide.dil", prefix_text + driver);
  ASSERT_TRUE(whole.ok()) << whole.diags.render();

  auto prefix = minic::prepare_prefix("ide.dil", prefix_text);
  ASSERT_TRUE(prefix.ok()) << prefix.diags.render();
  auto spliced = minic::compile_with_prefix(prefix, driver);
  ASSERT_TRUE(spliced.ok()) << spliced.diags.render();

  EXPECT_EQ(whole.unit->structs.size(), spliced.unit->structs.size());
  EXPECT_EQ(whole.unit->globals.size(), spliced.unit->globals.size());
  EXPECT_EQ(whole.unit->functions.size(), spliced.unit->functions.size());
  EXPECT_EQ(whole.unit->macro_use_lines, spliced.unit->macro_use_lines);
}

TEST(PreparedPrefix, SpliceReportsTailErrorsAtUnitLines) {
  auto prefix = minic::prepare_prefix("u.c", "#define A 1\n\n");
  ASSERT_TRUE(prefix.ok());
  // Error on tail line 2 -> unit line 4 (prefix occupies lines 1-2).
  auto broken = minic::compile_with_prefix(prefix,
                                           "int f() {\n  return A + x;\n}\n");
  ASSERT_FALSE(broken.ok());
  auto direct = minic::compile("u.c",
                               "#define A 1\n\nint f() {\n  return A + x;\n}\n");
  ASSERT_FALSE(direct.ok());
  ASSERT_FALSE(broken.diags.all().empty());
  ASSERT_FALSE(direct.diags.all().empty());
  EXPECT_EQ(broken.diags.all().front().to_string(),
            direct.diags.all().front().to_string());
}

TEST(PreparedPrefix, TailMayRedefineNothingButDefineFreely) {
  auto prefix = minic::prepare_prefix("u.c", "#define A 1\n");
  ASSERT_TRUE(prefix.ok());
  // Redefining a prefix macro is an error, exactly as in one buffer.
  EXPECT_FALSE(minic::compile_with_prefix(prefix,
                                          "#define A 2\nint f() { return A; }")
                   .ok());
  // A fresh macro in the tail expands fine.
  EXPECT_TRUE(minic::compile_with_prefix(
                  prefix, "#define B 2\nint f() { return A + B; }")
                  .ok());
}

// The sampling RNG defines the experiment set; golden values pin it across
// platforms and refactors (SplitMix64 with the default campaign seed).
TEST(SampleIndices, StableAcrossPlatforms) {
  auto picks = support::sample_indices(40, 25, 20010325);
  EXPECT_EQ(picks, (std::vector<size_t>{2, 22, 24, 31}));
  auto none = support::sample_indices(100, 0, 20010325);
  EXPECT_TRUE(none.empty());
  auto all = support::sample_indices(5, 100, 20010325);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(support::SplitMix64(20010325).next(), 5647700371745929731ULL);
}

}  // namespace
