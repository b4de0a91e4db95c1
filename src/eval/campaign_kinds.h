// The two boot-campaign kinds run one experiment: perturb something (the
// driver text for Tables 3/4, the device for the fault tables F3/F4), boot,
// sort the outcome into a bucket and tabulate C against CDevil. Everything
// after the boot — shard artifacts (eval/shard.h), their merge
// (eval/merge.h) and the report (eval/report.h) — is written once, as
// templates over a kind. This header holds each kind's differences as one
// traits table:
//
//  - its config, result, record and shard-artifact types;
//  - its outcome list with short (artifact) and long (table) names;
//  - its artifact header fields and per-record JSON fields, in serialized
//    order, which the shard writer and the shard reader both walk;
//  - its diagnostic and report wording ("campaign"/"fault campaign",
//    "mutants"/"scenarios");
//  - its merge rewrite: mutants re-dedup across shards, scenarios do not.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "eval/campaign_spec.h"
#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/metrics.h"
#include "eval/shard.h"

namespace eval {

/// Shard artifacts in sample order, each with its 1-based shard index.
template <class Artifact>
using OrderedShards = std::vector<std::pair<unsigned, const Artifact*>>;

/// Driver-mutation campaigns (Tables 3/4).
struct MutationTraits {
  using Config = DriverCampaignConfig;
  using Result = DriverCampaignResult;
  using Record = MutantRecord;
  using Artifact = ShardArtifact;
  using Tally = eval::Tally;

  static constexpr const char* kCampaign = "campaign";
  static constexpr const char* kUnits = "mutants";
  static constexpr Outcome kOutcomes[] = {
      Outcome::kCompileTime, Outcome::kRunTime,      Outcome::kDeadCode,
      Outcome::kBoot,        Outcome::kCrash,        Outcome::kInfiniteLoop,
      Outcome::kHalt,        Outcome::kDamagedBoot,
  };
  static constexpr auto& name = outcome_name;
  static constexpr auto& short_name = outcome_short;

  static constexpr auto kBundle = &ShardBundle::campaigns;
  static constexpr const char* kBundleKey = "campaigns";
  static constexpr auto kMetricsRows = &MetricsArtifact::campaigns;

  static constexpr auto& configs_for = driver_configs_for;
  static constexpr auto& run = run_driver_campaign;
  static constexpr auto& run_slice = run_driver_campaign_slice;
  static constexpr auto& run_shard = run_campaign_shard;
  static constexpr auto& fingerprint = campaign_fingerprint;
  static constexpr auto& metrics_row = campaign_metrics_row;
  static const DriverCampaignConfig& base(const Config& c) { return c; }

  static const auto& counts(const Tally& t) { return t.mutants; }
  static size_t count(const Tally& t, Outcome o) { return t.mutants_of(o); }
  static size_t key_count(const Tally& t, Outcome o) { return t.sites_of(o); }
  static void tally(Tally& t, const Record& r) { t.add(r.outcome, r.site); }
  static const Record& record(const ShardRecord& r) { return r.rec; }
  template <class T>
  static size_t generated(const T& x) { return x.total_mutants; }
  static size_t sampled(const Result& r) { return r.sampled_mutants; }

  // --- shard artifact ------------------------------------------------------
  /// Kind fields between the header's fingerprint and baseline_steps.
  template <class IO, class A>
  static void header_fields(IO& io, A& a) {
    io.field("dedup", a.dedup);
    io.field("sample_size", a.sample_size);
    io.field("slice_begin", a.slice_begin);
    io.field("slice_end", a.slice_end);
    io.field("total_sites", a.total_sites);
    io.field("total_mutants", a.total_mutants);
    io.field("clean_fingerprint", a.clean_fingerprint);
    io.field("deduped_mutants", a.deduped_mutants);
    io.field("prefix_cache_hits", a.prefix_cache_hits);
    io.field("patch_hits", a.patch_hits);
    io.field("patch_fallbacks", a.patch_fallbacks);
  }
  template <class IO, class R>
  static void record_fields(IO& io, R& r, const Artifact& a) {
    io.field("mutant", r.rec.mutant_index);
    io.field("site", r.rec.site);
    io.named("outcome", r.rec.outcome, kOutcomes, outcome_short, "outcome");
    io.field("steps", r.rec.steps);
    io.optional("detail", r.rec.detail);
    io.optional("deduped", r.rec.deduped);
    io.optional("cache_hit", r.cache_hit);
    io.optional("patched", r.rec.patched);
    io.optional("patch_fallback", r.rec.patch_fallback);
    if (a.dedup) io.hex128("key", r.key_hi, r.key_lo);
    io.optional("trace", r.rec.trace);
  }
  /// Header counters the reader re-derives from the records' bits.
  template <class F>
  static void counted(const Artifact& a, F&& f) {
    f("deduped_mutants", a.deduped_mutants,
      [](const ShardRecord& r) { return r.rec.deduped; });
    f("prefix_cache_hits", a.prefix_cache_hits,
      [](const ShardRecord& r) { return r.cache_hit; });
    f("patch_hits", a.patch_hits,
      [](const ShardRecord& r) { return r.rec.patched; });
    f("patch_fallbacks", a.patch_fallbacks,
      [](const ShardRecord& r) { return r.rec.patch_fallback; });
  }
  static void check_record(const ShardRecord&, const std::string&) {}
  /// Campaign-wide fields every shard of one campaign must agree on.
  static auto metadata(const Artifact& a) {
    return std::tie(a.dedup, a.total_sites, a.total_mutants);
  }
  /// Fills the kind fields and records of a slice's artifact.
  static void pack(Artifact& a, Result&& res, const Config& config,
                   const CampaignSideband& side) {
    a.dedup = config.dedup;
    a.total_sites = res.total_sites;
    a.total_mutants = res.total_mutants;
    a.deduped_mutants = res.deduped_mutants;
    a.prefix_cache_hits = res.prefix_cache_hits;
    a.patch_hits = res.patch_hits;
    a.patch_fallbacks = res.patch_fallbacks;
    a.records.resize(res.records.size());
    for (size_t i = 0; i < res.records.size(); ++i) {
      ShardRecord& r = a.records[i];
      r.rec = std::move(res.records[i]);
      r.cache_hit = side.prefix_cache_hit[i] != 0;
      if (config.dedup) {
        std::tie(r.key_hi, r.key_lo) = side.canonical_hash[i];
      }
    }
  }
  /// The inverse of pack, as far as the metrics row reads: shard-local
  /// counters and the records.
  static void unpack(Result& res, const Artifact& a) {
    res.deduped_mutants = a.deduped_mutants;
    res.prefix_cache_hits = a.prefix_cache_hits;
    res.patch_hits = a.patch_hits;
    res.patch_fallbacks = a.patch_fallbacks;
    res.records.reserve(a.records.size());
    for (const ShardRecord& r : a.records) res.records.push_back(r.rec);
  }

  /// The merge rewrite. Canonical-key dedup is shard-local while the shards
  /// run, so a mutant the unsharded campaign classifies as a duplicate may
  /// have been compiled and booted by its shard. The dedup invariant makes
  /// that boot's outcome and detail the representative's, so only the
  /// `deduped` flags and the counters are rebuilt: walking the records in
  /// sample order, a record whose key hash appeared earlier is a duplicate
  /// (and, never booting, carries no patch bits), and only globally-first
  /// records count prefix-cache and patch hits.
  static void merge(Result& merged, const OrderedShards<Artifact>& shards) {
    const Artifact& first = *shards.front().second;
    merged.total_sites = first.total_sites;
    merged.total_mutants = first.total_mutants;
    merged.sampled_mutants = first.sample_size;
    struct KeyHash {
      size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
        return static_cast<size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ULL));
      }
    };
    std::unordered_set<std::pair<uint64_t, uint64_t>, KeyHash> seen;
    if (first.dedup) seen.reserve(first.sample_size);
    for (const auto& [index, shard] : shards) {
      for (const ShardRecord& r : shard->records) {
        MutantRecord rec = r.rec;
        rec.deduped = first.dedup && !seen.emplace(r.key_hi, r.key_lo).second;
        if (rec.deduped) {
          ++merged.deduped_mutants;
          rec.patched = false;
          rec.patch_fallback = false;
        } else {
          merged.prefix_cache_hits += r.cache_hit ? 1 : 0;
          merged.patch_hits += rec.patched ? 1 : 0;
          merged.patch_fallbacks += rec.patch_fallback ? 1 : 0;
        }
        merged.records.push_back(std::move(rec));
      }
    }
  }

  // --- report ---------------------------------------------------------------
  static constexpr const char* kKeys = "mutation sites";
  /// Table rows in print order; `true` rows print only when nonzero.
  static constexpr std::pair<Outcome, bool> kRows[] = {
      {Outcome::kCompileTime, false}, {Outcome::kRunTime, true},
      {Outcome::kCrash, false},       {Outcome::kInfiniteLoop, false},
      {Outcome::kHalt, false},        {Outcome::kDamagedBoot, false},
      {Outcome::kBoot, false},        {Outcome::kDeadCode, true},
  };
  static size_t total_keys(const Result& r) { return r.total_sites; }
  static std::string footer(const Result&) { return ""; }
  static constexpr const char* kTitles[2] = {"Table 3: original C driver",
                                             "Table 4: CDevil driver"};
  static constexpr const char* kDetected =
      "Detected at compile time or run time:";
  static constexpr const char* kDetectedRatio = "errors detected";
  static constexpr Outcome kWorst = Outcome::kBoot;
  static constexpr const char* kWorstHeading = "Undetected 'Boot' mutants";
  static constexpr const char* kWorstRatio = "undetected errors";
  static constexpr const char* kBanner = "";
  static constexpr const char* kCounters = "Engine counters";
  static std::string counters(const Result& r) {
    return "dedup " + std::to_string(r.deduped_mutants) + "/" +
           std::to_string(r.sampled_mutants) + ", prefix-cache " +
           std::to_string(r.prefix_cache_hits);
  }
  static std::string describe(const Record& r) {
    return "mutant " + std::to_string(r.mutant_index) + ", site " +
           std::to_string(r.site);
  }
};

/// Fault-injection campaigns (Tables F3/F4).
struct FaultTraits {
  using Config = FaultCampaignConfig;
  using Result = FaultCampaignResult;
  using Record = FaultRecord;
  using Artifact = FaultShardArtifact;
  using Tally = FaultTally;

  static constexpr const char* kCampaign = "fault campaign";
  static constexpr const char* kUnits = "scenarios";
  static constexpr FaultOutcome kOutcomes[] = {
      FaultOutcome::kDevilCheck,  FaultOutcome::kDriverPanic,
      FaultOutcome::kCrash,       FaultOutcome::kHang,
      FaultOutcome::kCorruptBoot, FaultOutcome::kCleanBoot,
  };
  static constexpr hw::FaultKind kFaultKinds[] = {
      hw::FaultKind::kStuckZero,   hw::FaultKind::kStuckOne,
      hw::FaultKind::kFlipOnce,    hw::FaultKind::kDropWrite,
      hw::FaultKind::kFloatingBus, hw::FaultKind::kNeverReady,
      hw::FaultKind::kLostIrq,     hw::FaultKind::kSpuriousIrq,
      hw::FaultKind::kIrqStorm,    hw::FaultKind::kDelayIrq,
  };
  static constexpr auto& name = fault_outcome_name;
  static constexpr auto& short_name = fault_outcome_short;

  static constexpr auto kBundle = &ShardBundle::fault_campaigns;
  static constexpr const char* kBundleKey = "fault_campaigns";
  static constexpr auto kMetricsRows = &MetricsArtifact::fault_campaigns;

  static constexpr auto& configs_for = fault_configs_for;
  static constexpr auto& run = run_fault_campaign;
  static constexpr auto& run_slice = run_fault_campaign_slice;
  static constexpr auto& run_shard = run_fault_campaign_shard;
  static constexpr auto& fingerprint = fault_campaign_fingerprint;
  static constexpr auto& metrics_row = fault_metrics_row;
  static const DriverCampaignConfig& base(const Config& c) { return c.base; }

  static const auto& counts(const Tally& t) { return t.scenarios; }
  static size_t count(const Tally& t, FaultOutcome o) {
    return t.scenarios_of(o);
  }
  static size_t key_count(const Tally& t, FaultOutcome o) {
    return t.ports_of(o);
  }
  static void tally(Tally& t, const Record& r) {
    t.add(r.outcome, r.plan.port);
  }
  static const Record& record(const FaultRecord& r) { return r; }
  template <class T>
  static size_t generated(const T& x) { return x.total_scenarios; }
  static size_t sampled(const Result& r) { return r.sampled_scenarios; }

  // --- shard artifact ------------------------------------------------------
  template <class IO, class A>
  static void header_fields(IO& io, A& a) {
    io.field("total_scenarios", a.total_scenarios);
    io.field("sample_size", a.sample_size);
    io.field("slice_begin", a.slice_begin);
    io.field("slice_end", a.slice_end);
    io.field("clean_fingerprint", a.clean_fingerprint);
    io.field("triggered", a.triggered);
  }
  template <class IO, class R>
  static void record_fields(IO& io, R& r, const Artifact&) {
    io.field("scenario", r.scenario_index);
    io.field("port", r.plan.port);
    io.named("kind", r.plan.kind, kFaultKinds, hw::fault_kind_name,
             "fault kind");
    io.field("after", r.plan.after);
    io.optional("mask", r.plan.mask);
    io.optional("value", r.plan.value);
    io.named("outcome", r.outcome, kOutcomes, fault_outcome_short,
             "fault outcome");
    io.field("steps", r.steps);
    io.optional("detail", r.detail);
    io.optional("triggered", r.triggered);
    io.optional("trace", r.trace);
  }
  template <class F>
  static void counted(const Artifact& a, F&& f) {
    f("triggered", a.triggered, [](const FaultRecord& r) { return r.triggered; });
  }
  /// An untriggered scenario boots exactly like the baseline, so it can
  /// only be clean.
  static void check_record(const FaultRecord& r, const std::string& ctx) {
    if (!r.triggered && r.outcome != FaultOutcome::kCleanBoot) {
      throw std::runtime_error(ctx + ": untriggered scenario with outcome '" +
                               fault_outcome_short(r.outcome) +
                               "' (corrupt artifact?)");
    }
  }
  static auto metadata(const Artifact& a) { return std::tie(a.total_scenarios); }
  static void pack(Artifact& a, Result&& res, const Config&,
                   const CampaignSideband&) {
    a.total_scenarios = res.total_scenarios;
    a.triggered = res.triggered_scenarios;
    a.records = std::move(res.records);
  }
  static void unpack(Result& res, const Artifact& a) {
    res.triggered_scenarios = a.triggered;
    res.records = a.records;
  }
  /// Scenarios are never deduped: the merge concatenates the records and
  /// recounts the triggered ones.
  static void merge(Result& merged, const OrderedShards<Artifact>& shards) {
    const Artifact& first = *shards.front().second;
    merged.total_scenarios = first.total_scenarios;
    merged.sampled_scenarios = first.sample_size;
    for (const auto& [index, shard] : shards) {
      merged.records.insert(merged.records.end(), shard->records.begin(),
                            shard->records.end());
    }
    for (const FaultRecord& rec : merged.records) {
      merged.triggered_scenarios += rec.triggered ? 1 : 0;
    }
  }

  // --- report ---------------------------------------------------------------
  static constexpr const char* kKeys = "ports";
  static constexpr std::pair<FaultOutcome, bool> kRows[] = {
      {FaultOutcome::kDevilCheck, true}, {FaultOutcome::kDriverPanic, false},
      {FaultOutcome::kCrash, false},     {FaultOutcome::kHang, false},
      {FaultOutcome::kCorruptBoot, false}, {FaultOutcome::kCleanBoot, false},
  };
  static size_t total_keys(const Result& r) {
    std::set<uint32_t> all;
    for (const auto& [outcome, ports] : r.tally.ports) {
      all.insert(ports.begin(), ports.end());
    }
    return all.size();
  }
  static std::string footer(const Result& r) {
    return ", " + std::to_string(r.triggered_scenarios) + " triggered the fault";
  }
  static constexpr const char* kTitles[2] = {
      "Table F3: original C driver under injected hardware faults",
      "Table F4: CDevil driver under injected hardware faults"};
  static constexpr const char* kDetected =
      "Injected hardware faults detected (Devil check or driver panic):";
  static constexpr const char* kDetectedRatio = "faults detected";
  static constexpr FaultOutcome kWorst = FaultOutcome::kCorruptBoot;
  static constexpr const char* kWorstHeading = "Silent corrupt boots";
  static constexpr const char* kWorstRatio = "silent corruptions";
  static constexpr const char* kBanner = " (fault injection)";
  static constexpr const char* kCounters = "Scenario counters";
  static std::string counters(const Result& r) {
    return "triggered " + std::to_string(r.triggered_scenarios) + "/" +
           std::to_string(r.sampled_scenarios);
  }
  static std::string describe(const Record& r) {
    return "scenario " + std::to_string(r.scenario_index) + " (" +
           r.plan.describe() + ")";
  }
};

/// The traits of a result or artifact type.
template <class T> struct TraitsFor;
template <> struct TraitsFor<DriverCampaignResult> { using type = MutationTraits; };
template <> struct TraitsFor<ShardArtifact> { using type = MutationTraits; };
template <> struct TraitsFor<FaultCampaignResult> { using type = FaultTraits; };
template <> struct TraitsFor<FaultShardArtifact> { using type = FaultTraits; };
template <class T>
using traits_of = typename TraitsFor<T>::type;

}  // namespace eval
