// Process-level campaign sharding: shard artifacts must merge into results
// byte-identical to the single-process campaign — records, tallies,
// dedup/prefix-cache counters and the rendered report tables — for every
// device in campaign_drivers(), across a JSON serialize/parse round trip.
// The merge must reject anything that does not tile exactly one campaign
// (mismatched config fingerprints, duplicate/missing/overlapping slices,
// corrupt or truncated artifacts), for mutation and fault bundles alike, and
// shard artifacts must be invariant under the worker thread count inside
// each shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/campaign_kinds.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/merge.h"
#include "eval/report.h"
#include "eval/shard.h"

namespace {

using eval::DriverCampaignConfig;
using eval::DriverCampaignResult;
using eval::ShardArtifact;
using eval::ShardBundle;
using eval::ShardSpec;

/// The C and CDevil configs for one corpus device, as the CLI builds them.
std::pair<DriverCampaignConfig, DriverCampaignConfig> device_configs(
    const corpus::CampaignDrivers& drivers, unsigned threads) {
  eval::DeviceBinding binding = eval::binding_for(drivers.device);

  DriverCampaignConfig c;
  c.driver = drivers.c_driver();
  c.device = binding;
  c.sample_percent = drivers.sample_percent;
  c.threads = threads;

  auto spec = devil::compile_spec(drivers.spec_file, drivers.spec(),
                                  devil::CodegenMode::kDebug);
  EXPECT_TRUE(spec.ok()) << spec.diags.render();
  DriverCampaignConfig d;
  d.stubs = spec.stubs;
  d.driver = drivers.cdevil_driver();
  d.device = binding;
  d.is_cdevil = true;
  d.sample_percent = drivers.sample_percent;
  d.threads = threads;
  return {std::move(c), std::move(d)};
}

DriverCampaignConfig busmouse_c_config(unsigned sample_percent = 100,
                                       unsigned threads = 1) {
  DriverCampaignConfig cfg;
  cfg.driver = corpus::c_busmouse_driver();
  cfg.device = eval::busmouse_binding();
  cfg.sample_percent = sample_percent;
  cfg.threads = threads;
  return cfg;
}

void expect_same_result(const DriverCampaignResult& a,
                        const DriverCampaignResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.device, b.device) << label;
  EXPECT_EQ(a.entry, b.entry) << label;
  EXPECT_EQ(a.total_sites, b.total_sites) << label;
  EXPECT_EQ(a.total_mutants, b.total_mutants) << label;
  EXPECT_EQ(a.sampled_mutants, b.sampled_mutants) << label;
  EXPECT_EQ(a.deduped_mutants, b.deduped_mutants) << label;
  EXPECT_EQ(a.prefix_cache_hits, b.prefix_cache_hits) << label;
  EXPECT_EQ(a.clean_fingerprint, b.clean_fingerprint) << label;
  EXPECT_EQ(a.tally.mutants, b.tally.mutants) << label;
  EXPECT_EQ(a.tally.sites, b.tally.sites) << label;
  EXPECT_EQ(a.tally.total_mutants, b.tally.total_mutants) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    const std::string at = label + " record #" + std::to_string(i);
    EXPECT_EQ(a.records[i].mutant_index, b.records[i].mutant_index) << at;
    EXPECT_EQ(a.records[i].site, b.records[i].site) << at;
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << at;
    EXPECT_EQ(a.records[i].detail, b.records[i].detail) << at;
    EXPECT_EQ(a.records[i].deduped, b.records[i].deduped) << at;
  }
}

/// Shards `config` N ways (JSON round-tripping every artifact), merges, and
/// returns the merged result.
DriverCampaignResult shard_and_merge(const DriverCampaignConfig& config,
                                     unsigned count) {
  std::vector<ShardBundle> bundles;
  for (unsigned i = 1; i <= count; ++i) {
    ShardBundle bundle;
    bundle.shard = ShardSpec{i, count};
    bundle.campaigns.push_back(
        eval::run_campaign_shard(config, "C", bundle.shard));
    bundles.push_back(
        eval::parse_shard_bundle(eval::serialize_shard_bundle(bundle)));
  }
  auto merged = eval::merge_shard_bundles(bundles);
  EXPECT_EQ(merged.size(), 1u);
  return std::move(merged.front().result);
}

// ---------------------------------------------------------------------------
// Shard spec and slice arithmetic.
// ---------------------------------------------------------------------------

TEST(ShardSpecTest, ParsesValidSpecs) {
  EXPECT_EQ(eval::parse_shard_spec("1/3").index, 1u);
  EXPECT_EQ(eval::parse_shard_spec("1/3").count, 3u);
  EXPECT_EQ(eval::parse_shard_spec("3/3").index, 3u);
  EXPECT_EQ(eval::parse_shard_spec("1/1").count, 1u);
  EXPECT_EQ(eval::parse_shard_spec("12/400").count, 400u);
}

TEST(ShardSpecTest, RejectsInvalidSpecs) {
  for (const char* bad : {"0/3", "4/3", "3", "", "/", "1/", "/3", "a/b",
                          "1/0", "0/0", "1/3x", "x1/3", "-1/3", "1//3",
                          "1.5/3", " 1/3"}) {
    EXPECT_THROW((void)eval::parse_shard_spec(bad), std::invalid_argument)
        << "spec '" << bad << "' should be rejected";
  }
  try {
    (void)eval::parse_shard_spec("4/3");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("4/3"), std::string::npos);
  }
}

TEST(ShardSpecTest, SliceBoundsTileTheSample) {
  for (size_t sample : {0u, 1u, 7u, 100u, 2012u}) {
    for (size_t count : {1u, 2u, 3u, 7u, 64u}) {
      size_t expected_begin = 0;
      for (size_t ix = 0; ix < count; ++ix) {
        auto [lo, hi] =
            eval::sample_slice_bounds(sample, eval::SampleSlice{ix, count});
        EXPECT_EQ(lo, expected_begin) << sample << " " << count << " " << ix;
        EXPECT_LE(hi - lo, sample / count + 1);
        expected_begin = hi;
      }
      EXPECT_EQ(expected_begin, sample);
    }
  }
}

TEST(ShardSpecTest, RunCampaignShardRejectsBadSpecs) {
  auto cfg = busmouse_c_config();
  EXPECT_THROW((void)eval::run_campaign_shard(cfg, "C", ShardSpec{0, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)eval::run_campaign_shard(cfg, "C", ShardSpec{4, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)eval::run_campaign_shard(cfg, "C", ShardSpec{1, 0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The flagship guarantee: a merged 3-shard campaign is byte-identical to
// the single-process run — records, tallies, counters and the rendered
// tables — for every device with a campaign corpus.
// ---------------------------------------------------------------------------

TEST(ShardMergeTest, ThreeShardsMergeByteIdenticalForAllDevices) {
  for (const auto& drivers : corpus::campaign_drivers()) {
    auto [c_cfg, d_cfg] = device_configs(drivers, /*threads=*/2);
    auto c_single = eval::run_driver_campaign(c_cfg);
    auto d_single = eval::run_driver_campaign(d_cfg);

    // Three shard "processes", each bundling both campaigns, round-tripped
    // through the JSON artifact format as real processes would.
    std::vector<ShardBundle> bundles;
    for (unsigned i = 1; i <= 3; ++i) {
      ShardBundle bundle;
      bundle.shard = ShardSpec{i, 3};
      bundle.campaigns.push_back(
          eval::run_campaign_shard(c_cfg, "C", bundle.shard));
      bundle.campaigns.push_back(
          eval::run_campaign_shard(d_cfg, "CDevil", bundle.shard));
      bundles.push_back(
          eval::parse_shard_bundle(eval::serialize_shard_bundle(bundle)));
    }
    // Merge order must not matter: hand the bundles over shuffled.
    std::swap(bundles[0], bundles[2]);
    auto merged = eval::merge_shard_bundles(bundles);
    ASSERT_EQ(merged.size(), 2u) << drivers.device;
    EXPECT_EQ(merged[0].label, "C");
    EXPECT_EQ(merged[1].label, "CDevil");

    const std::string tag(drivers.device);
    expect_same_result(merged[0].result, c_single, tag + "/C");
    expect_same_result(merged[1].result, d_single, tag + "/CDevil");
    EXPECT_EQ(eval::render_campaign_tables(merged[0].result,
                                           merged[1].result),
              eval::render_campaign_tables(c_single, d_single))
        << tag;
  }
}

TEST(ShardMergeTest, OneOfOneEqualsUnsharded) {
  auto cfg = busmouse_c_config();
  auto single = eval::run_driver_campaign(cfg);
  expect_same_result(shard_and_merge(cfg, 1), single, "busmouse 1/1");
}

TEST(ShardMergeTest, MoreShardsThanMutantsYieldsEmptyShards) {
  // A 3% sample of the busmouse corpus is a few dozen mutants; shard it
  // far wider than the sample so many slices are empty, and the merge must
  // still reassemble the exact unsharded result.
  auto cfg = busmouse_c_config(/*sample_percent=*/3);
  auto single = eval::run_driver_campaign(cfg);
  ASSERT_GT(single.sampled_mutants, 0u);
  const unsigned count = static_cast<unsigned>(single.sampled_mutants) + 5;

  std::vector<ShardBundle> bundles;
  size_t empty_shards = 0;
  for (unsigned i = 1; i <= count; ++i) {
    ShardBundle bundle;
    bundle.shard = ShardSpec{i, count};
    bundle.campaigns.push_back(
        eval::run_campaign_shard(cfg, "C", bundle.shard));
    if (bundle.campaigns.front().records.empty()) ++empty_shards;
    bundles.push_back(
        eval::parse_shard_bundle(eval::serialize_shard_bundle(bundle)));
  }
  EXPECT_GE(empty_shards, 5u);
  auto merged = eval::merge_shard_bundles(bundles);
  ASSERT_EQ(merged.size(), 1u);
  expect_same_result(merged.front().result, single, "busmouse oversharded");
}

TEST(ShardMergeTest, ShardArtifactsInvariantUnderThreadCount) {
  // 1 vs 4 worker threads inside the shard: the serialized artifact must
  // not change by a byte.
  for (unsigned shard_ix : {1u, 2u, 3u}) {
    ShardBundle one, four;
    one.shard = four.shard = ShardSpec{shard_ix, 3};
    one.campaigns.push_back(eval::run_campaign_shard(
        busmouse_c_config(100, /*threads=*/1), "C", one.shard));
    four.campaigns.push_back(eval::run_campaign_shard(
        busmouse_c_config(100, /*threads=*/4), "C", four.shard));
    EXPECT_EQ(eval::serialize_shard_bundle(one),
              eval::serialize_shard_bundle(four))
        << "shard " << shard_ix << "/3";
  }
}

TEST(ShardMergeTest, CrossShardDuplicatesAreReDeduped) {
  // Shard-local dedup cannot see across slices, so the shard-local dedup
  // counts must never exceed the global count the merge reconstructs —
  // and the merged count must equal the unsharded campaign's.
  auto cfg = busmouse_c_config();
  auto single = eval::run_driver_campaign(cfg);
  std::vector<ShardBundle> bundles;
  size_t local_deduped = 0;
  for (unsigned i = 1; i <= 3; ++i) {
    ShardBundle bundle;
    bundle.shard = ShardSpec{i, 3};
    bundle.campaigns.push_back(
        eval::run_campaign_shard(cfg, "C", bundle.shard));
    local_deduped += bundle.campaigns.front().deduped_mutants;
    bundles.push_back(std::move(bundle));
  }
  auto merged = eval::merge_shard_bundles(bundles);
  EXPECT_EQ(merged.front().result.deduped_mutants, single.deduped_mutants);
  EXPECT_LE(local_deduped, single.deduped_mutants);
}

// ---------------------------------------------------------------------------
// Merge rejections: anything that does not tile exactly one campaign.
// ---------------------------------------------------------------------------

/// Merges `bundles` as both kinds (a bundle set of one kind merges to an
/// empty list as the other) and expects a rejection naming `needle`.
void expect_merge_error(std::vector<ShardBundle> bundles,
                        const std::string& needle) {
  try {
    (void)eval::merge_shard_bundles(bundles);
    (void)eval::merge_fault_bundles(bundles);
    FAIL() << "merge should have rejected: " << needle;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

/// Two-way sharding of the small busmouse C campaign, reused by the
/// rejection tests.
std::vector<ShardBundle> two_shards(const DriverCampaignConfig& cfg) {
  std::vector<ShardBundle> bundles;
  for (unsigned i = 1; i <= 2; ++i) {
    ShardBundle bundle;
    bundle.shard = ShardSpec{i, 2};
    bundle.campaigns.push_back(
        eval::run_campaign_shard(cfg, "C", bundle.shard));
    bundles.push_back(std::move(bundle));
  }
  return bundles;
}

/// The same two-way sharding for the busmouse C driver's fault campaign.
std::vector<ShardBundle> two_fault_shards() {
  eval::FaultCampaignConfig cfg;
  cfg.base = busmouse_c_config();
  std::vector<ShardBundle> bundles;
  for (unsigned i = 1; i <= 2; ++i) {
    ShardBundle bundle;
    bundle.shard = ShardSpec{i, 2};
    bundle.fault_campaigns.push_back(
        eval::run_fault_campaign_shard(cfg, "C", bundle.shard));
    bundles.push_back(std::move(bundle));
  }
  return bundles;
}

/// Runs `check(bundles, artifacts_of)` once per campaign kind on that
/// kind's two-shard set; `artifacts_of(bundle)` is the kind's artifact
/// list in a bundle.
template <class Check>
void for_each_kind(Check check) {
  check(two_shards(busmouse_c_config()),
        [](ShardBundle& b) -> auto& { return b.campaigns; });
  check(two_fault_shards(),
        [](ShardBundle& b) -> auto& { return b.fault_campaigns; });
}

TEST(ShardMergeTest, RejectsFingerprintMismatch) {
  auto cfg = busmouse_c_config();
  auto bundles = two_shards(cfg);
  // Same device, same shard shape — but a different campaign seed. The
  // fingerprint must catch it.
  auto other = cfg;
  other.seed += 1;
  ShardBundle rogue;
  rogue.shard = ShardSpec{2, 2};
  rogue.campaigns.push_back(eval::run_campaign_shard(other, "C", rogue.shard));
  bundles[1] = std::move(rogue);
  expect_merge_error(std::move(bundles), "fingerprint mismatch");
}

TEST(ShardMergeTest, RejectsDuplicateShard) {
  for_each_kind([](std::vector<ShardBundle> bundles, auto) {
    bundles.push_back(bundles[1]);  // 1/2, 2/2, 2/2
    expect_merge_error(std::move(bundles), "duplicate shard 2/2");
  });
}

TEST(ShardMergeTest, RejectsMissingShard) {
  for_each_kind([](std::vector<ShardBundle> bundles, auto) {
    bundles.pop_back();  // only 1/2
    expect_merge_error(std::move(bundles), "missing shard 2/2");
  });
}

TEST(ShardMergeTest, RejectsShardCountMismatch) {
  for_each_kind([](std::vector<ShardBundle> bundles, auto) {
    ShardBundle third = bundles[1];
    third.shard = ShardSpec{3, 3};
    bundles.push_back(std::move(third));
    expect_merge_error(std::move(bundles), "shard count mismatch");
  });
}

TEST(ShardMergeTest, RejectsDisagreeingCampaignLists) {
  for_each_kind([](const std::vector<ShardBundle>& two, auto artifacts_of) {
    // Shard 2 "forgot" one campaign.
    auto bundles = two;
    artifacts_of(bundles[1]).clear();
    expect_merge_error(bundles, "carries 0 ");

    bundles = two;
    artifacts_of(bundles[1]).front().label = "CDevil";
    expect_merge_error(std::move(bundles), "in that position");
  });
  auto bundles = two_shards(busmouse_c_config());
  bundles[1].campaigns.clear();
  expect_merge_error(std::move(bundles), "carries 0 campaigns");
  bundles = two_fault_shards();
  bundles[1].fault_campaigns.clear();
  expect_merge_error(std::move(bundles), "carries 0 fault campaigns");
}

TEST(ShardMergeTest, RejectsSlicesThatDoNotTileTheSample) {
  for_each_kind([](std::vector<ShardBundle> bundles, auto artifacts_of) {
    artifacts_of(bundles[1]).front().slice_begin += 1;
    expect_merge_error(std::move(bundles), "covers sample positions");
  });
}

TEST(ShardMergeTest, RejectsMetadataDisagreementDespiteEqualFingerprints) {
  for_each_kind([](std::vector<ShardBundle> bundles, auto artifacts_of) {
    artifacts_of(bundles[1]).front().entry = "other_entry";
    expect_merge_error(std::move(bundles), "despite equal fingerprints");
  });
}

TEST(ShardMergeTest, RejectsBaselineTelemetryDisagreement) {
  for_each_kind([](std::vector<ShardBundle> bundles, auto artifacts_of) {
    artifacts_of(bundles[1]).front().baseline_steps += 1;
    expect_merge_error(std::move(bundles), "baseline boot telemetry");
  });
}

TEST(ShardMergeTest, RejectsEmptyInput) {
  expect_merge_error({}, "no shard artifacts");
}

// ---------------------------------------------------------------------------
// Corrupt and truncated artifacts must be rejected at parse time with a
// diagnostic, never half-read.
// ---------------------------------------------------------------------------

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)eval::parse_shard_bundle(text);
    FAIL() << "parse should have rejected: " << needle;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(ShardArtifactTest, SerializeParseRoundTripIsByteStable) {
  ShardBundle bundle;
  bundle.shard = ShardSpec{2, 3};
  bundle.campaigns.push_back(eval::run_campaign_shard(
      busmouse_c_config(), "C", bundle.shard));
  std::string text = eval::serialize_shard_bundle(bundle);
  EXPECT_EQ(eval::serialize_shard_bundle(eval::parse_shard_bundle(text)),
            text);
}

TEST(ShardArtifactTest, RejectsTruncatedAndCorruptArtifacts) {
  // Per kind: the shard-1 bundle, its record key, and an outcome edit.
  struct Case {
    ShardBundle bundle;
    std::string record;
    std::string outcome, tampered;
  };
  std::vector<Case> cases;
  cases.push_back({two_shards(busmouse_c_config())[0], "{\"mutant\":",
                   "\"outcome\":\"boot\"", "\"outcome\":\"halt\""});
  cases.push_back({two_fault_shards()[0], "{\"scenario\":",
                   "\"outcome\":\"clean\"", "\"outcome\":\"crash\""});
  for (const Case& c : cases) {
    const std::string text = eval::serialize_shard_bundle(c.bundle);

    // Truncation at any of a few depths: always a parse diagnostic.
    expect_parse_error(text.substr(0, text.size() / 2), "JSON parse error");
    expect_parse_error(text.substr(0, 10), "JSON parse error");
    expect_parse_error("", "JSON parse error");
    expect_parse_error("hello", "not a shard artifact");
    expect_parse_error(R"({"format":"something-else","version":1})",
                       "format tag");
    expect_parse_error(R"({"format":"devil-repro-shard","version":99})",
                       "version 99");

    // A flipped outcome makes the stored tally disagree with the records.
    std::string tampered = text;
    size_t at = tampered.find(c.outcome);
    ASSERT_NE(at, std::string::npos);
    tampered.replace(at, c.outcome.size(), c.tampered);
    expect_parse_error(tampered, "corrupt artifact?");

    // A missing required field is named.
    std::string renamed = text;
    at = renamed.find("\"entry\":");
    ASSERT_NE(at, std::string::npos);
    renamed.replace(at, 8, "\"entrX\":");
    expect_parse_error(renamed, "missing field 'entry'");

    // Dropping a record breaks the slice coverage.
    std::string shorter = text;
    at = shorter.find(c.record);
    size_t end = shorter.find("}," + c.record);
    ASSERT_NE(at, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    shorter.erase(at, end + 2 - at);
    expect_parse_error(shorter, "truncated artifact?");
  }
}

TEST(ShardArtifactTest, RejectsInconsistentFaultRecords) {
  const ShardBundle clean = two_fault_shards()[0];
  auto reparse = [](const ShardBundle& b) {
    return eval::serialize_shard_bundle(b);
  };

  // An untriggered scenario boots like the baseline, so it must be clean;
  // the triggered count is kept consistent so only the record is wrong.
  ShardBundle untriggered = clean;
  eval::FaultShardArtifact& a = untriggered.fault_campaigns.front();
  auto fired = std::find_if(a.records.begin(), a.records.end(),
                            [](const eval::FaultRecord& r) {
                              return r.triggered &&
                                     r.outcome != eval::FaultOutcome::kCleanBoot;
                            });
  ASSERT_NE(fired, a.records.end());
  fired->triggered = false;
  a.triggered -= 1;
  expect_parse_error(reparse(untriggered), "untriggered scenario");

  ShardBundle miscounted = clean;
  miscounted.fault_campaigns.front().triggered += 1;
  expect_parse_error(reparse(miscounted), "triggered says");

  const std::string kind =
      std::string("\"kind\":\"") +
      hw::fault_kind_name(clean.fault_campaigns.front().records[0].plan.kind) +
      "\"";
  std::string unknown = reparse(clean);
  const size_t at = unknown.find(kind);
  ASSERT_NE(at, std::string::npos);
  unknown.replace(at, kind.size(), "\"kind\":\"stuck-sideways\"");
  expect_parse_error(unknown, "unknown fault kind 'stuck-sideways'");
}

TEST(ShardArtifactTest, LoadReportsMissingFile) {
  try {
    (void)eval::load_shard_bundle("/nonexistent/shard.json");
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/shard.json"),
              std::string::npos);
  }
}

// --- atomic artifact writes ---------------------------------------------------
//
// save_shard_bundle writes FILE.tmp and renames it into place: a failed or
// interrupted save must never leave a partial FILE, and must never destroy
// a good artifact that was already there.

ShardBundle tiny_bundle() {
  ShardBundle bundle;
  bundle.shard = ShardSpec{1, 1};
  bundle.campaigns.push_back(eval::run_campaign_shard(
      busmouse_c_config(), "C", bundle.shard));
  return bundle;
}

TEST(ShardArtifactTest, SaveToUnwritablePathThrowsAndLeavesNothing) {
  const std::string path = "/devil-repro-no-such-dir/shard.json";
  try {
    eval::save_shard_bundle(path, tiny_bundle());
    FAIL() << "expected ArtifactWriteError";
  } catch (const eval::ArtifactWriteError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open for writing"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(ShardArtifactTest, SaveIsAtomicAndLeavesNoTemporary) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "devil_repro_atomic_save.json")
          .string();
  // A stale artifact at the target is replaced, not appended to.
  { std::ofstream(path) << "stale garbage\n"; }
  ShardBundle bundle = tiny_bundle();
  eval::save_shard_bundle(path, bundle);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  ShardBundle back = eval::load_shard_bundle(path);
  EXPECT_EQ(eval::serialize_shard_bundle(back),
            eval::serialize_shard_bundle(bundle));
  std::remove(path.c_str());
}

}  // namespace
