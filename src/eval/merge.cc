#include "eval/merge.h"

#include <algorithm>
#include <stdexcept>

#include "eval/campaign_kinds.h"
#include "eval/report.h"

namespace eval {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("shard merge: " + message);
}

/// Sorts `shards` by their 1-based index and checks the indices are exactly
/// 1..count; `suffix` extends the duplicate/missing diagnostics ("", or
/// " in campaign ide/C").
template <class T>
std::vector<std::pair<unsigned, const T*>> sort_and_check_indices(
    std::vector<std::pair<unsigned, const T*>> shards, unsigned count,
    const std::string& suffix) {
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  unsigned expected = 1;
  for (const auto& [index, shard] : shards) {
    if (index != expected) {
      fail((index < expected ? "duplicate shard " : "missing shard ") +
           std::to_string(index < expected ? index : expected) + "/" +
           std::to_string(count) + suffix);
    }
    ++expected;
  }
  if (expected != count + 1) {
    fail("missing shard " + std::to_string(expected) + "/" +
         std::to_string(count) + suffix);
  }
  return shards;
}

/// Merges one campaign's shard artifacts, given in any order.
template <class K>
typename K::Result merge_artifacts(
    const OrderedShards<typename K::Artifact>& shards) {
  const auto& first = *shards.front().second;
  const std::string name =
      std::string(K::kCampaign) + " " + first.device + "/" + first.label;
  const unsigned count = static_cast<unsigned>(shards.size());
  const std::string vs_first =
      " disagrees with shard " + std::to_string(shards.front().first);

  for (const auto& [index, a] : shards) {
    // Every artifact must come from the same campaign configuration: the
    // fingerprint pins driver text, device binding, seed, engine and flags.
    if (a->fingerprint != first.fingerprint) {
      fail("config fingerprint mismatch for " + name + ": shard " +
           std::to_string(index) + " ran " + a->fingerprint + ", shard " +
           std::to_string(shards.front().first) + " ran " + first.fingerprint +
           " — these artifacts are from different campaign configurations "
           "and cannot be merged");
    }
    // Belt and braces for hand-edited artifacts: the fields the merge
    // copies forward must agree even if the fingerprints were doctored.
    if (a->device != first.device || a->label != first.label ||
        a->entry != first.entry || a->engine != first.engine ||
        a->sample_size != first.sample_size ||
        a->clean_fingerprint != first.clean_fingerprint ||
        K::metadata(*a) != K::metadata(first)) {
      fail("shard " + std::to_string(index) + " of " + name + vs_first +
           " on campaign metadata despite equal fingerprints (corrupt "
           "artifact?)");
    }
    // Baseline telemetry is deterministic: every shard re-boots the same
    // unmutated driver, so step counts and opcode profiles must agree.
    if (a->baseline_steps != first.baseline_steps ||
        !(a->baseline_opcodes == first.baseline_opcodes)) {
      fail("shard " + std::to_string(index) + " of " + name + vs_first +
           " on the baseline boot telemetry (corrupt artifact?)");
    }
  }

  const auto ordered = sort_and_check_indices(shards, count, " in " + name);

  // The slices must be the canonical i/N floor partition of the sample —
  // anything else means a shard ran with a different count or the artifact
  // was truncated.
  for (const auto& [index, a] : ordered) {
    auto [lo, hi] = sample_slice_bounds(first.sample_size,
                                        SampleSlice{index - 1, count});
    if (a->slice_begin != lo || a->slice_end != hi) {
      fail("shard " + std::to_string(index) + "/" + std::to_string(count) +
           " of " + name + " covers sample positions [" +
           std::to_string(a->slice_begin) + ", " +
           std::to_string(a->slice_end) + ") but the " +
           std::to_string(count) + "-way split of " +
           std::to_string(first.sample_size) + " sampled " + K::kUnits +
           " expects [" + std::to_string(lo) + ", " + std::to_string(hi) +
           ")");
    }
  }

  typename K::Result merged;
  merged.set_baseline(first);
  merged.records.reserve(first.sample_size);
  // Concatenating in shard order restores sample order; the kind rewrites
  // what shard-local runs could not know.
  K::merge(merged, ordered);
  for (const auto& rec : merged.records) K::tally(merged.tally, rec);
  return merged;
}

/// Merges the kind-K campaigns of whole bundles: validates the shard
/// coordinates, requires every bundle to carry the same campaign list
/// (device/label, in order) and merges each campaign across the bundles.
template <class K>
std::vector<MergedCampaignOf<typename K::Result>> merge_bundles(
    const std::vector<ShardBundle>& bundles) {
  if (bundles.empty()) fail("no shard artifacts to merge");

  const unsigned count = bundles.front().shard.count;
  std::vector<std::pair<unsigned, const ShardBundle*>> indexed;
  indexed.reserve(bundles.size());
  for (const ShardBundle& b : bundles) {
    if (b.shard.count != count) {
      fail("shard count mismatch: got artifacts from a " +
           std::to_string(count) + "-way and a " +
           std::to_string(b.shard.count) + "-way sharding");
    }
    indexed.emplace_back(b.shard.index, &b);
  }
  indexed = sort_and_check_indices(std::move(indexed), count, "");

  // Every shard process must have run the same campaign list, in order —
  // the bundles are slices of one run, not a grab bag.
  const unsigned ref_index = indexed.front().first;
  const auto& reference = indexed.front().second->*K::kBundle;
  auto name = [](const typename K::Artifact& a) {
    return a.device + "/" + a.label;
  };
  for (const auto& [index, bundle] : indexed) {
    const auto& campaigns = bundle->*K::kBundle;
    if (campaigns.size() != reference.size()) {
      fail("shard " + std::to_string(index) + " carries " +
           std::to_string(campaigns.size()) + " " + K::kCampaign +
           "s but shard " + std::to_string(ref_index) + " carries " +
           std::to_string(reference.size()));
    }
    for (size_t j = 0; j < reference.size(); ++j) {
      if (name(campaigns[j]) != name(reference[j])) {
        fail("shard " + std::to_string(index) + " " + K::kCampaign + " #" +
             std::to_string(j) + " is " + name(campaigns[j]) + " but shard " +
             std::to_string(ref_index) + " ran " + name(reference[j]) +
             " in that position");
      }
    }
  }

  std::vector<MergedCampaignOf<typename K::Result>> merged;
  merged.reserve(reference.size());
  for (size_t j = 0; j < reference.size(); ++j) {
    OrderedShards<typename K::Artifact> shards;
    shards.reserve(indexed.size());
    for (const auto& [index, bundle] : indexed) {
      shards.emplace_back(index, &(bundle->*K::kBundle)[j]);
    }
    merged.push_back({reference[j].device, reference[j].label,
                      reference[j].engine, merge_artifacts<K>(shards)});
  }
  return merged;
}

/// Appends the report body of one kind's merged campaigns.
template <class Result>
void render_merged(std::string& out,
                   const std::vector<MergedCampaignOf<Result>>& merged) {
  using K = traits_of<Result>;
  // Standard bundles carry a C campaign followed by a CDevil campaign per
  // device; print those as the paper's paired tables. Anything else (a
  // hand-built bundle) still renders, one table per campaign.
  for (size_t i = 0; i < merged.size(); ++i) {
    const auto& m = merged[i];
    if (i + 1 < merged.size() && m.device == merged[i + 1].device &&
        m.label == "C" && merged[i + 1].label == "CDevil") {
      out += render_device_section(m.device, m.result, merged[i + 1].result);
      ++i;
      continue;
    }
    std::string title = K::kCampaign;
    title[0] = static_cast<char>(title[0] - 'a' + 'A');
    out += "=== " + m.device + K::kBanner + " ===\n\n";
    out += render_table(title + " " + m.label + " (" + m.device + ")",
                        m.result);
    out += "\n";
  }
}

}  // namespace

std::vector<MergedCampaign> merge_shard_bundles(
    const std::vector<ShardBundle>& bundles) {
  return merge_bundles<MutationTraits>(bundles);
}

std::vector<MergedFaultCampaign> merge_fault_bundles(
    const std::vector<ShardBundle>& bundles) {
  return merge_bundles<FaultTraits>(bundles);
}

bool merge_bundle_metrics(const std::vector<ShardBundle>& bundles,
                          ProcessMetrics* out) {
  bool any = false;
  ProcessMetrics merged;
  // Counter sums and bucket-wise histogram merges are commutative and
  // associative, so the bundle order cannot change the aggregate.
  for (const ShardBundle& b : bundles) {
    if (!b.has_metrics) continue;
    merge_process_metrics(merged, b.metrics);
    any = true;
  }
  if (any && out) *out = merged;
  return any;
}

std::string render_merged_report(
    const std::vector<MergedCampaign>& merged,
    const std::vector<MergedFaultCampaign>& fault_merged) {
  std::string out;
  render_merged(out, merged);
  render_merged(out, fault_merged);
  return out;
}

}  // namespace eval
