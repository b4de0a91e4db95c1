// Seeded mutation fuzzing of the artifact parsers, parse_shard_bundle and
// parse_metrics. Real artifacts — a busmouse mutation bundle and a
// busmouse-irq fault bundle, both with flight-recorder traces and embedded
// process metrics, and a metrics artifact — are mutated by byte flips,
// truncations, digit edits and dropped fields. Every mutated input must
// either parse and re-serialize to exactly its own bytes, or be rejected
// with std::runtime_error; any other exception fails the test, and the
// sanitizer build catches memory errors on the way.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/campaign_spec.h"
#include "eval/metrics.h"
#include "eval/shard.h"
#include "support/rng.h"

namespace {

eval::ProcessMetrics sample_process_metrics() {
  eval::ProcessMetrics pm;
  pm.threads = 2;
  pm.wall_ns = 1'234'567;
  for (size_t s = 0; s < support::kStageCount; ++s) {
    pm.stages[s].add(100 * (s + 1));
    pm.stages[s].add(s);
  }
  pm.pool_fresh = 4;
  pm.pool_recycled = 900;
  pm.hang_proofs = 3;
  pm.hang_burns = 2;
  pm.worker_records.add(50);
  pm.worker_records.add(60);
  return pm;
}

corpus::CampaignDrivers corpus_device(const eval::CampaignSpec& spec,
                                      const std::string& name) {
  for (const auto& d : eval::campaign_spec_corpus(spec)) {
    if (d.device == name) return d;
  }
  throw std::runtime_error("no corpus device " + name);
}

/// Shard 1/2 of the device's C campaign of the spec's kind, recorder on.
eval::ShardBundle seed_bundle(eval::CampaignKind kind, const char* device) {
  eval::CampaignSpec spec;
  spec.kind = kind;
  spec.flight_recorder = true;
  spec.sample_percent = 10;
  spec.fault_sample_percent = 25;
  eval::ShardBundle bundle;
  bundle.shard = eval::ShardSpec{1, 2};
  if (kind == eval::CampaignKind::kFault) {
    auto cfgs = eval::fault_configs_for(spec, corpus_device(spec, device));
    bundle.fault_campaigns.push_back(
        eval::run_fault_campaign_shard(cfgs.c, "C", bundle.shard));
  } else {
    auto cfgs = eval::driver_configs_for(spec, corpus_device(spec, device));
    bundle.campaigns.push_back(
        eval::run_campaign_shard(cfgs.c, "C", bundle.shard));
  }
  bundle.has_metrics = true;
  bundle.metrics = sample_process_metrics();
  return bundle;
}

/// One random edit: a byte flip, a truncation, a digit rewrite, or a
/// dropped `,"key":value` member (cut up to the next member or closer).
std::string mutate(const std::string& text, support::SplitMix64& rng) {
  std::string out = text;
  switch (rng.next_below(4)) {
    case 0: {
      size_t at = rng.next_below(out.size());
      out[at] = static_cast<char>(out[at] ^ (1u << rng.next_below(8)));
      break;
    }
    case 1:
      out.resize(rng.next_below(out.size()));
      break;
    case 2: {
      std::vector<size_t> digits;
      for (size_t i = 0; i < out.size(); ++i) {
        if (out[i] >= '0' && out[i] <= '9') digits.push_back(i);
      }
      if (!digits.empty()) {
        out[digits[rng.next_below(digits.size())]] =
            static_cast<char>('0' + rng.next_below(10));
      }
      break;
    }
    default: {
      size_t from = out.find(",\"", rng.next_below(out.size()));
      if (from == std::string::npos) break;
      size_t to = out.find_first_of(",}]", out.find(':', from + 2));
      if (to != std::string::npos) out.erase(from, to - from);
      break;
    }
  }
  return out;
}

/// Feeds `iterations` mutants of `seed` through `round_trip`; returns how
/// many parsed (the rest must have thrown std::runtime_error).
size_t fuzz(const std::string& seed, uint64_t rng_seed, size_t iterations,
            const std::function<std::string(const std::string&)>& round_trip) {
  support::SplitMix64 rng(rng_seed);
  size_t parsed = 0;
  for (size_t i = 0; i < iterations; ++i) {
    std::string input = mutate(seed, rng);
    if (rng.chance(1, 4)) input = mutate(input, rng);
    std::string again;
    try {
      again = round_trip(input);
    } catch (const std::runtime_error&) {
      continue;
    }
    ++parsed;
    EXPECT_EQ(again, input) << "mutant #" << i << " parsed but does not "
                            << "re-serialize to its own bytes";
  }
  return parsed;
}

std::string shard_round_trip(const std::string& text) {
  return eval::serialize_shard_bundle(eval::parse_shard_bundle(text));
}

std::string metrics_round_trip(const std::string& text) {
  return eval::serialize_metrics(eval::parse_metrics(text));
}

TEST(ArtifactFuzz, ShardBundlesRoundTripOrThrow) {
  for (auto [kind, device] :
       {std::pair{eval::CampaignKind::kDriver, "busmouse"},
        std::pair{eval::CampaignKind::kFault, "busmouse-irq"}}) {
    const std::string seed =
        eval::serialize_shard_bundle(seed_bundle(kind, device));
    ASSERT_EQ(shard_round_trip(seed), seed);
    const size_t parsed = fuzz(seed, 0x5eed0001 + seed.size(), 600,
                               shard_round_trip);
    // Digit edits of free fields (steps, ports, metrics timings) must be
    // among the accepted inputs, or the property is vacuous.
    EXPECT_GT(parsed, 0u) << device;
    EXPECT_LT(parsed, 600u) << device;
  }
}

TEST(ArtifactFuzz, MetricsArtifactsRoundTripOrThrow) {
  eval::MetricsArtifact artifact;
  for (const auto& a : seed_bundle(eval::CampaignKind::kDriver, "busmouse")
                           .campaigns) {
    artifact.campaigns.push_back(eval::shard_metrics_row(a));
  }
  for (const auto& a :
       seed_bundle(eval::CampaignKind::kFault, "busmouse-irq")
           .fault_campaigns) {
    artifact.fault_campaigns.push_back(eval::shard_metrics_row(a));
  }
  artifact.process = sample_process_metrics();
  const std::string seed = eval::serialize_metrics(artifact);
  ASSERT_EQ(metrics_round_trip(seed), seed);
  const size_t parsed = fuzz(seed, 0x5eed0002, 1500, metrics_round_trip);
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 1500u);
}

}  // namespace
