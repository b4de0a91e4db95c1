// Golden shard artifacts. The serialized bytes of four shard bundle sets
// are pinned by fnv128 digest: a 2-shard busmouse C+CDevil bundle with the
// flight recorder on, the same bundle with dedup off (so records carry no
// `key` field), the same bundle on the tree walker, and a 2-shard
// busmouse-irq fault bundle with the recorder on. The first, second and
// fourth digests were recorded before the mutation and fault shard paths
// were folded into one, so any change to a field, its order, its omission
// rule or a record in either artifact kind shows up here. Process metrics
// are left out: they are timings.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "corpus/drivers.h"
#include "eval/campaign_spec.h"
#include "eval/shard.h"
#include "support/strings.h"

namespace {

corpus::CampaignDrivers corpus_device(const char* name,
                                      const eval::CampaignSpec& spec) {
  for (const auto& d : eval::campaign_spec_corpus(spec)) {
    if (std::string(d.device) == name) return d;
  }
  throw std::runtime_error(std::string("no corpus device ") + name);
}

/// fnv128 hex digest of each shard's serialized bundle, shard 1 first.
std::vector<std::string> shard_digests(const eval::CampaignSpec& spec,
                                       const char* device) {
  std::vector<std::string> digests;
  for (unsigned i = 1; i <= 2; ++i) {
    eval::ShardBundle bundle;
    bundle.shard = eval::ShardSpec{i, 2};
    const corpus::CampaignDrivers drivers = corpus_device(device, spec);
    if (spec.kind == eval::CampaignKind::kFault) {
      auto cfgs = eval::fault_configs_for(spec, drivers);
      bundle.fault_campaigns.push_back(
          eval::run_fault_campaign_shard(cfgs.c, "C", bundle.shard));
      bundle.fault_campaigns.push_back(
          eval::run_fault_campaign_shard(cfgs.cdevil, "CDevil", bundle.shard));
    } else {
      auto cfgs = eval::driver_configs_for(spec, drivers);
      bundle.campaigns.push_back(
          eval::run_campaign_shard(cfgs.c, "C", bundle.shard));
      bundle.campaigns.push_back(
          eval::run_campaign_shard(cfgs.cdevil, "CDevil", bundle.shard));
    }
    auto [hi, lo] = support::fnv128(eval::serialize_shard_bundle(bundle));
    digests.push_back(support::hex128(hi, lo));
  }
  return digests;
}

eval::CampaignSpec recorder_spec(eval::CampaignKind kind) {
  eval::CampaignSpec spec;
  spec.kind = kind;
  spec.flight_recorder = true;
  spec.threads = 2;
  return spec;
}

TEST(ShardGolden, BusmouseMutationBundleWithFlightRecorder) {
  EXPECT_EQ(shard_digests(recorder_spec(eval::CampaignKind::kDriver),
                          "busmouse"),
            (std::vector<std::string>{"6611cb08476d4ac3a5b1717338f2fa45",
                                      "92a9071ec7ea6067c7f79901656c9c7c"}));
}

TEST(ShardGolden, BusmouseMutationBundleWithoutDedup) {
  eval::CampaignSpec spec = recorder_spec(eval::CampaignKind::kDriver);
  spec.dedup = false;
  EXPECT_EQ(shard_digests(spec, "busmouse"),
            (std::vector<std::string>{"861b056b4c0b8aced4ead8374d697dac",
                                      "c90fb7d5be40b48b835f13a738266f1c"}));
}

// The walker's fingerprint folds a constant where the removed
// compiled-prefix cache flag was; its digests were recorded while that flag
// still existed.
TEST(ShardGolden, BusmouseWalkerMutationBundleWithFlightRecorder) {
  eval::CampaignSpec spec = recorder_spec(eval::CampaignKind::kDriver);
  spec.engine = minic::ExecEngine::kTreeWalker;
  EXPECT_EQ(shard_digests(spec, "busmouse"),
            (std::vector<std::string>{"8e374df74d80c050dd426c263e7533d0",
                                      "a272603eb46dec88b406a225e0dbe8f5"}));
}

TEST(ShardGolden, BusmouseIrqFaultBundleWithFlightRecorder) {
  EXPECT_EQ(shard_digests(recorder_spec(eval::CampaignKind::kFault),
                          "busmouse-irq"),
            (std::vector<std::string>{"debed669dd3a608e1374b24948789209",
                                      "133776e4d17344ed71348ba16d1f21c1"}));
}

}  // namespace
