// Process-level campaign sharding: run one `shard i/N` slice of a boot
// campaign (driver mutation or fault injection) and serialize the result as
// a mergeable artifact.
//
// An artifact has one shape for both kinds (eval/campaign_kinds.h holds the
// per-kind differences). A ShardHeader names the campaign, pins its
// configuration by fingerprint, gives the slice of the sample it covers and
// carries the baseline telemetry every shard recomputes. The kind adds its
// campaign-wide totals and shard-local counters, a shard-local tally and one
// record per sampled mutant or scenario. A merge (eval/merge.h) needs nothing
// else to reassemble the exact single-process result. It rejects any set
// whose fingerprints, shard counts or slice bounds do not tile one campaign.
//
// Shard indices are 1-based in specs and artifacts ("shard 1/3".."3/3"),
// matching the CLI `--shard i/N`; the in-process SampleSlice stays 0-based.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/metrics.h"

namespace eval {

/// 1-based shard coordinates: this process runs slice `index` of `count`.
struct ShardSpec {
  unsigned index = 1;
  unsigned count = 1;

  [[nodiscard]] std::string to_string() const {
    return std::to_string(index) + "/" + std::to_string(count);
  }
};

/// Parses "i/N" (1 <= i <= N, decimal, no extra characters). Throws
/// std::invalid_argument with a diagnostic naming the bad spec otherwise —
/// "0/3" and "4/3" are rejected, not clamped.
[[nodiscard]] ShardSpec parse_shard_spec(const std::string& text);

/// One sampled mutant's outcome inside a shard artifact: the MutantRecord
/// plus the sideband the merge needs (whether this record compiled through
/// the prefix cache, and the 128-bit canonical dedup-key hash used to
/// re-dedup across shards; the hash is (0,0) when the campaign ran with
/// dedup off).
struct ShardRecord {
  MutantRecord rec;
  bool cache_hit = false;
  uint64_t key_hi = 0;
  uint64_t key_lo = 0;
};

/// The fields every shard artifact carries, whatever its kind: the
/// campaign's baseline, which every shard recomputes (the merge validates
/// agreement), plus `label`, which distinguishes the paper's two campaigns
/// per device ("C", "CDevil"), the engine, the config fingerprint — a
/// 128-bit hex digest of every config field that can change records or
/// counters (see campaign_fingerprint) — and the slice of the sample the
/// shard covers.
struct ShardHeader : CampaignBaseline {
  std::string label;
  std::string engine;  // minic::exec_engine_name of the engine that ran
  std::string fingerprint;
  size_t sample_size = 0;  // full campaign sample, before slicing
  size_t slice_begin = 0;  // this shard's range, in sample positions
  size_t slice_end = 0;
};

/// One driver-mutation campaign's shard slice. Tallies and counters are
/// shard-local (dedup never crosses shards); the merge recomputes the
/// global ones.
struct ShardArtifact : ShardHeader {
  bool dedup = true;
  size_t total_sites = 0;
  size_t total_mutants = 0;
  size_t deduped_mutants = 0;
  size_t prefix_cache_hits = 0;
  /// Bytecode-patch telemetry: sums of the records' `patched` and
  /// `patch_fallback` bits. Deliberately absent from the fingerprint —
  /// patching can never change records or tallies, only these counters.
  size_t patch_hits = 0;
  size_t patch_fallbacks = 0;
  Tally tally;
  std::vector<ShardRecord> records;
};

/// One fault-injection campaign's shard slice (eval/fault_campaign.h).
/// `fingerprint` is fault_campaign_fingerprint; the triggered count and the
/// tally are shard-local. Fault scenarios are never deduped, so the records
/// carry no sideband.
struct FaultShardArtifact : ShardHeader {
  size_t total_scenarios = 0;  // full matrix, before sampling
  size_t triggered = 0;        // records whose fault fired
  FaultTally tally;
  std::vector<FaultRecord> records;
};

/// A serialized shard file: the shard coordinates plus one artifact per
/// campaign the process ran (the CLI writes C and CDevil per device, of one
/// kind: `--faults` runs fill `fault_campaigns`, other runs `campaigns`).
/// An empty `fault_campaigns` list is not serialized at all.
struct ShardBundle {
  ShardSpec shard;
  std::vector<ShardArtifact> campaigns;
  std::vector<FaultShardArtifact> fault_campaigns;
  /// Optional process telemetry for this shard (the CLI embeds it when run
  /// with `--metrics`). Timings only — never part of merge validation; the
  /// merge aggregates whatever bundles carry it (eval/merge.h).
  bool has_metrics = false;
  ProcessMetrics metrics;
};

/// Fingerprint of everything in `config` that determines campaign results
/// and counters (see ShardArtifact::fingerprint). 32 hex chars.
[[nodiscard]] std::string campaign_fingerprint(
    const DriverCampaignConfig& config);

/// Runs slice `spec` of the campaign and packages the artifact. The
/// underlying kernel is run_driver_campaign_slice, so an artifact's records
/// are byte-identical to the matching subrange of the unsharded campaign,
/// at any thread count. Throws std::invalid_argument on a bad `spec`.
[[nodiscard]] ShardArtifact run_campaign_shard(
    const DriverCampaignConfig& config, const std::string& label,
    ShardSpec spec);

/// Fingerprint of everything in a fault-campaign config that determines
/// records and counters: the embedded campaign fingerprint (driver, stubs,
/// device, entry, seed, step budget, engine, ...) plus the fault knobs
/// (trigger list, scenario sample percent). 32 hex chars.
[[nodiscard]] std::string fault_campaign_fingerprint(
    const FaultCampaignConfig& config);

/// The fault-campaign form of run_campaign_shard (kernel:
/// run_fault_campaign_slice).
[[nodiscard]] FaultShardArtifact run_fault_campaign_shard(
    const FaultCampaignConfig& config, const std::string& label,
    ShardSpec spec);

/// JSON round trip. serialize is byte-stable (equal bundles yield equal
/// bytes). parse accepts exactly the bytes serialize writes: it validates
/// the format tag, version and every field's presence, order and type,
/// rejects unknown fields, non-canonical JSON and written-out defaults the
/// writer omits, recomputes the per-artifact tally and counters from the
/// records, and throws std::runtime_error with a clear diagnostic
/// otherwise. So parse(text) either throws or re-serializes to `text`.
[[nodiscard]] std::string serialize_shard_bundle(const ShardBundle& bundle);
[[nodiscard]] ShardBundle parse_shard_bundle(const std::string& text);

/// Thrown when a shard artifact cannot be written (unwritable directory,
/// full disk, rename failure). The CLI maps it to exit code 2; the message
/// names the path and the failing step. The target file is never left
/// partially written: writes go to `<path>.tmp` and the temporary is
/// removed on failure.
class ArtifactWriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Shard-local metrics row (eval/metrics.h) of a ShardArtifact or a
/// FaultShardArtifact: the deterministic counters of one artifact's slice.
/// Only comparable against the same slice — the merged artifact's rows are
/// the globally comparable ones.
template <class Artifact>
[[nodiscard]] CampaignMetricsRow shard_metrics_row(const Artifact& a);

/// Atomically writes `text` (plus a trailing newline) to `path` via the
/// `<path>.tmp` + rename protocol described on ArtifactWriteError. Shared by
/// every artifact writer (shard bundles, metrics artifacts) so they all have
/// the same crash/full-disk story and diagnostics.
void write_artifact_atomically(const std::string& path,
                               const std::string& text);

/// Reads an artifact file written by write_artifact_atomically, without its
/// trailing newline. Throws std::runtime_error naming the path when the
/// file cannot be read.
[[nodiscard]] std::string read_artifact_file(const std::string& path);

/// Loads an artifact file through `parse`, prefixing its errors with the
/// path.
template <class Parse>
[[nodiscard]] auto load_artifact(const std::string& path, Parse parse) {
  const std::string text = read_artifact_file(path);
  try {
    return parse(text);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// File convenience wrappers. save is atomic: the bundle is written to
/// `<path>.tmp` and renamed over `path` only after a successful flush, so a
/// crash or full disk never leaves a partial or lost artifact; write
/// failures throw ArtifactWriteError. load/parse errors throw
/// std::runtime_error prefixed with the path.
void save_shard_bundle(const std::string& path, const ShardBundle& bundle);
[[nodiscard]] ShardBundle load_shard_bundle(const std::string& path);

}  // namespace eval
