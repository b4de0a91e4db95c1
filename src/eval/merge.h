// Recombines shard artifacts (eval/shard.h) into results that are
// byte-identical to the single-process run — records, tallies, counters and
// therefore eval/report.h's rendered tables. One implementation serves both
// campaign kinds; their one difference, the record rewrite (mutants re-dedup
// across shards, fault scenarios are concatenated as they are), is the
// kind's `merge` in eval/campaign_kinds.h.
//
// A set of artifacts merges only when it tiles exactly one run: every
// bundle has the same shard count, the indices are exactly 1..N, every
// bundle carries the same campaign list, and each campaign's shards agree
// on the config fingerprint, the campaign metadata and the baseline
// telemetry and cover the canonical i/N slices of its sample. Anything else
// throws std::runtime_error naming the offence.
#pragma once

#include <string>
#include <vector>

#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/shard.h"

namespace eval {

/// One campaign reassembled from all its shards.
template <class Result>
struct MergedCampaignOf {
  std::string device;
  std::string label;   // "C" / "CDevil" (ShardHeader::label)
  std::string engine;  // shard-validated minic::exec_engine_name
  Result result;
};
using MergedCampaign = MergedCampaignOf<DriverCampaignResult>;
using MergedFaultCampaign = MergedCampaignOf<FaultCampaignResult>;

/// Merges the driver-mutation campaigns of whole bundles (one per shard
/// process). Campaigns come back in the bundles' common list order.
[[nodiscard]] std::vector<MergedCampaign> merge_shard_bundles(
    const std::vector<ShardBundle>& bundles);

/// The same for the fault campaigns of the bundles; bundles without fault
/// campaigns merge to an empty list.
[[nodiscard]] std::vector<MergedFaultCampaign> merge_fault_bundles(
    const std::vector<ShardBundle>& bundles);

/// Aggregates the embedded process metrics of every bundle that carries any
/// (eval/metrics.h merge_process_metrics: counter sums, bucket-wise
/// histogram merges — order-independent). Returns false, leaving `out`
/// untouched, when no bundle embeds metrics.
bool merge_bundle_metrics(const std::vector<ShardBundle>& bundles,
                          ProcessMetrics* out);

/// Renders merged campaigns as the single-process report body: adjacent
/// C/CDevil campaigns of one device print as the paper's paired section
/// (eval/report.h render_device_section); anything else (a hand-built
/// bundle) falls back to one table per campaign. Mutation campaigns print
/// before fault campaigns. This is the byte string `--merge` prints —
/// identical to the single-process run's output minus its two header lines.
[[nodiscard]] std::string render_merged_report(
    const std::vector<MergedCampaign>& merged,
    const std::vector<MergedFaultCampaign>& fault_merged);

}  // namespace eval
