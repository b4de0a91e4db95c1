#include "eval/shard.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/json_io.h"
#include "support/strings.h"

namespace eval {

namespace {

constexpr const char* kFormatTag = "devil-repro-shard";
// Version 2: records carry interpreter step counts (and flight-recorder
// traces when present), artifacts carry the baseline boot's steps and VM
// opcode profile, and bundles may embed process metrics.
// Version 3: records carry `patched`/`patch_fallback` bits and campaign
// artifacts the matching `patch_hits`/`patch_fallbacks` counters.
constexpr int64_t kFormatVersion = 3;

/// All outcomes, in enum order, for tally serialization and the reverse
/// outcome_short lookup.
constexpr Outcome kAllOutcomes[] = {
    Outcome::kCompileTime, Outcome::kRunTime,      Outcome::kDeadCode,
    Outcome::kBoot,        Outcome::kCrash,        Outcome::kInfiniteLoop,
    Outcome::kHalt,        Outcome::kDamagedBoot,
};

Outcome outcome_from_short(const std::string& name, const std::string& ctx) {
  for (Outcome o : kAllOutcomes) {
    if (name == outcome_short(o)) return o;
  }
  throw std::runtime_error(ctx + ": unknown outcome '" + name + "'");
}

constexpr FaultOutcome kAllFaultOutcomes[] = {
    FaultOutcome::kDevilCheck, FaultOutcome::kDriverPanic,
    FaultOutcome::kCrash,      FaultOutcome::kHang,
    FaultOutcome::kCorruptBoot, FaultOutcome::kCleanBoot,
};

FaultOutcome fault_outcome_from_short(const std::string& name,
                                      const std::string& ctx) {
  for (FaultOutcome o : kAllFaultOutcomes) {
    if (name == fault_outcome_short(o)) return o;
  }
  throw std::runtime_error(ctx + ": unknown fault outcome '" + name + "'");
}

constexpr hw::FaultKind kAllFaultKinds[] = {
    hw::FaultKind::kStuckZero,   hw::FaultKind::kStuckOne,
    hw::FaultKind::kFlipOnce,    hw::FaultKind::kDropWrite,
    hw::FaultKind::kFloatingBus, hw::FaultKind::kNeverReady,
    hw::FaultKind::kLostIrq,     hw::FaultKind::kSpuriousIrq,
    hw::FaultKind::kIrqStorm,    hw::FaultKind::kDelayIrq,
};

hw::FaultKind fault_kind_from_short(const std::string& name,
                                    const std::string& ctx) {
  for (hw::FaultKind k : kAllFaultKinds) {
    if (name == hw::fault_kind_name(k)) return k;
  }
  throw std::runtime_error(ctx + ": unknown fault kind '" + name + "'");
}

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// Inverse of support::hex128, with artifact-shaped diagnostics.
std::pair<uint64_t, uint64_t> parse_hex128(const std::string& s,
                                           const std::string& ctx) {
  if (s.size() != 32) {
    throw std::runtime_error(ctx + ": expected 32 hex chars, got '" + s + "'");
  }
  uint64_t lanes[2] = {0, 0};
  for (size_t i = 0; i < 32; ++i) {
    char c = s[i];
    uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      throw std::runtime_error(ctx + ": invalid hex char in '" + s + "'");
    }
    lanes[i / 16] = (lanes[i / 16] << 4) | nibble;
  }
  return {lanes[0], lanes[1]};
}

using support::require;
using support::require_string;
using support::require_u64;

/// Reads an optional boolean that the writer omits when false.
bool optional_flag(const support::JsonValue& obj, const char* key) {
  const support::JsonValue* v = obj.find(key);
  return v != nullptr && v->as_bool();
}

/// Reads an optional non-negative integer that the writer omits when zero.
uint64_t optional_u64(const support::JsonValue& obj, const char* key,
                      const std::string& ctx) {
  return obj.find(key) ? require_u64(obj, key, ctx) : 0;
}

/// Opcode profiles serialize as zero-suppressed [opcode index, count] pairs
/// in ascending index order — the shard format is internal, so indices are
/// exact and compact (the metrics artifact uses names instead).
support::JsonValue opcode_profile_to_json(
    const minic::bytecode::OpcodeProfile& profile) {
  support::JsonValue pairs = support::JsonValue::array();
  for (size_t i = 0; i < minic::bytecode::kOpCount; ++i) {
    if (profile.counts[i] == 0) continue;
    support::JsonValue pair = support::JsonValue::array();
    pair.push_back(static_cast<int64_t>(i));
    pair.push_back(profile.counts[i]);
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

minic::bytecode::OpcodeProfile opcode_profile_from_json(
    const support::JsonValue& v, const std::string& ctx) {
  minic::bytecode::OpcodeProfile profile;
  int64_t prev = -1;
  for (const support::JsonValue& pair : v.items()) {
    if (pair.items().size() != 2) {
      throw std::runtime_error(ctx + ": opcode entry is not an "
                               "[index, count] pair");
    }
    int64_t ix = pair.items()[0].as_int();
    int64_t count = pair.items()[1].as_int();
    if (ix <= prev || ix >= static_cast<int64_t>(minic::bytecode::kOpCount)) {
      throw std::runtime_error(ctx + ": opcode index " + std::to_string(ix) +
                               " out of range or out of order");
    }
    if (count <= 0) {
      throw std::runtime_error(ctx + ": opcode count must be positive (zero "
                               "rows are suppressed)");
    }
    profile.counts[static_cast<size_t>(ix)] = static_cast<uint64_t>(count);
    prev = ix;
  }
  return profile;
}

}  // namespace

ShardSpec parse_shard_spec(const std::string& text) {
  const std::string what = "bad shard spec '" + text + "'";
  size_t slash = text.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument(what + ": expected i/N, e.g. 1/3");
  }
  std::string index_s = text.substr(0, slash);
  std::string count_s = text.substr(slash + 1);
  if (!all_digits(index_s) || !all_digits(count_s) || index_s.size() > 9 ||
      count_s.size() > 9) {
    throw std::invalid_argument(what + ": expected i/N with decimal i and N");
  }
  ShardSpec spec;
  spec.index = static_cast<unsigned>(std::stoul(index_s));
  spec.count = static_cast<unsigned>(std::stoul(count_s));
  if (spec.count == 0) {
    throw std::invalid_argument(what + ": shard count must be >= 1");
  }
  if (spec.index == 0 || spec.index > spec.count) {
    throw std::invalid_argument(what + ": shard index is 1-based and must be "
                                "between 1 and " + std::to_string(spec.count));
  }
  return spec;
}

std::string campaign_fingerprint(const DriverCampaignConfig& config) {
  const std::string entry =
      config.entry.empty() ? config.device.entry : config.entry;
  support::Fnv128 h;
  // Version tag first: a future format change re-keys every fingerprint.
  h.update_field("devil-repro-campaign-v1");
  h.update_field(config.stubs);
  h.update_field(config.driver);
  h.update_field(config.unit_name);
  h.update_field(entry);
  h.update_field(config.device.device);
  h.update_u64(config.device.port_base);
  h.update_u64(config.device.port_span);
  // Folded only for event-driven bindings so every polled-device
  // fingerprint published before the interrupt model existed is unchanged.
  if (config.device.irq_line >= 0) {
    h.update_u64(static_cast<uint64_t>(config.device.irq_line));
  }
  h.update_u64(config.is_cdevil ? 1 : 0);
  h.update_u64(config.sample_percent);
  h.update_u64(config.seed);
  h.update_u64(config.step_budget);
  h.update_field(minic::exec_engine_name(config.engine));
  h.update_u64(config.dedup ? 1 : 0);
  h.update_u64(config.prefix_cache ? 1 : 0);
  // The recorder changes record contents (traces), so shards must agree.
  h.update_u64(config.flight_recorder ? 1 : 0);
  // Deliberately not hashed: config.threads — results are thread-count
  // invariant (ctest-enforced), so shards may run at different widths.
  // Likewise config.bytecode_patch: patched and recompiled boots are
  // byte-identical (ctest-enforced), so the flag only moves telemetry bits.
  return h.hex();
}

ShardArtifact run_campaign_shard(const DriverCampaignConfig& config,
                                 const std::string& label, ShardSpec spec) {
  if (spec.count == 0 || spec.index == 0 || spec.index > spec.count) {
    throw std::invalid_argument("bad shard spec " + spec.to_string() +
                                ": shard index is 1-based and must be between "
                                "1 and the shard count");
  }
  CampaignSideband side;
  DriverCampaignResult res = run_driver_campaign_slice(
      config, SampleSlice{spec.index - 1, spec.count}, &side);

  ShardArtifact a;
  a.device = res.device;
  a.label = label;
  a.entry = res.entry;
  a.engine = minic::exec_engine_name(config.engine);
  a.fingerprint = campaign_fingerprint(config);
  a.dedup = config.dedup;
  a.sample_size = side.sample_size;
  a.slice_begin = side.slice_begin;
  a.slice_end = side.slice_end;
  a.total_sites = res.total_sites;
  a.total_mutants = res.total_mutants;
  a.clean_fingerprint = res.clean_fingerprint;
  a.deduped_mutants = res.deduped_mutants;
  a.prefix_cache_hits = res.prefix_cache_hits;
  a.patch_hits = res.patch_hits;
  a.patch_fallbacks = res.patch_fallbacks;
  a.tally = res.tally;
  a.baseline_steps = res.baseline_steps;
  a.baseline_opcodes = res.baseline_opcodes;
  a.records.resize(res.records.size());
  for (size_t i = 0; i < res.records.size(); ++i) {
    ShardRecord& r = a.records[i];
    r.rec = res.records[i];
    r.cache_hit = side.prefix_cache_hit[i] != 0;
    if (config.dedup) {
      r.key_hi = side.canonical_hash[i].first;
      r.key_lo = side.canonical_hash[i].second;
    }
  }
  return a;
}

std::string fault_campaign_fingerprint(const FaultCampaignConfig& config) {
  support::Fnv128 h;
  // Version tag first, then the full mutation-campaign fingerprint: it
  // already pins the driver, stubs, device binding, entry, seed, step
  // budget and engine; the fault knobs follow.
  h.update_field("devil-repro-fault-campaign-v1");
  h.update_field(campaign_fingerprint(config.base));
  h.update_u64(config.sample_percent);
  h.update_u64(config.triggers.size());
  for (uint32_t t : config.triggers) h.update_u64(t);
  return h.hex();
}

FaultShardArtifact run_fault_campaign_shard(const FaultCampaignConfig& config,
                                            const std::string& label,
                                            ShardSpec spec) {
  if (spec.count == 0 || spec.index == 0 || spec.index > spec.count) {
    throw std::invalid_argument("bad shard spec " + spec.to_string() +
                                ": shard index is 1-based and must be between "
                                "1 and the shard count");
  }
  CampaignSideband side;
  FaultCampaignResult res = run_fault_campaign_slice(
      config, SampleSlice{spec.index - 1, spec.count}, &side);

  FaultShardArtifact a;
  a.device = res.device;
  a.label = label;
  a.entry = res.entry;
  a.engine = minic::exec_engine_name(config.base.engine);
  a.fingerprint = fault_campaign_fingerprint(config);
  a.total_scenarios = res.total_scenarios;
  a.sample_size = side.sample_size;
  a.slice_begin = side.slice_begin;
  a.slice_end = side.slice_end;
  a.clean_fingerprint = res.clean_fingerprint;
  a.triggered = res.triggered_scenarios;
  a.tally = res.tally;
  a.baseline_steps = res.baseline_steps;
  a.baseline_opcodes = res.baseline_opcodes;
  a.records = std::move(res.records);
  return a;
}

// --- serialization -----------------------------------------------------------

std::string serialize_shard_bundle(const ShardBundle& bundle) {
  using support::JsonValue;
  JsonValue root = JsonValue::object();
  root.set("format", kFormatTag);
  root.set("version", kFormatVersion);
  JsonValue shard = JsonValue::object();
  shard.set("index", static_cast<int64_t>(bundle.shard.index));
  shard.set("count", static_cast<int64_t>(bundle.shard.count));
  root.set("shard", std::move(shard));

  JsonValue campaigns = JsonValue::array();
  for (const ShardArtifact& a : bundle.campaigns) {
    JsonValue c = JsonValue::object();
    c.set("device", a.device);
    c.set("label", a.label);
    c.set("entry", a.entry);
    c.set("engine", a.engine);
    c.set("fingerprint", a.fingerprint);
    c.set("dedup", a.dedup);
    c.set("sample_size", a.sample_size);
    c.set("slice_begin", a.slice_begin);
    c.set("slice_end", a.slice_end);
    c.set("total_sites", a.total_sites);
    c.set("total_mutants", a.total_mutants);
    c.set("clean_fingerprint", a.clean_fingerprint);
    c.set("deduped_mutants", a.deduped_mutants);
    c.set("prefix_cache_hits", a.prefix_cache_hits);
    c.set("patch_hits", a.patch_hits);
    c.set("patch_fallbacks", a.patch_fallbacks);
    c.set("baseline_steps", a.baseline_steps);
    c.set("baseline_opcodes", opcode_profile_to_json(a.baseline_opcodes));

    // Shard-local tally, keyed by the short outcome names in enum order
    // (std::map iteration), zero rows omitted — byte-stable.
    JsonValue tally = JsonValue::object();
    for (const auto& [outcome, count] : a.tally.mutants) {
      if (count > 0) tally.set(outcome_short(outcome), count);
    }
    c.set("tally", std::move(tally));

    JsonValue records = JsonValue::array();
    for (const ShardRecord& r : a.records) {
      JsonValue rec = JsonValue::object();
      rec.set("mutant", r.rec.mutant_index);
      rec.set("site", r.rec.site);
      rec.set("outcome", outcome_short(r.rec.outcome));
      rec.set("steps", r.rec.steps);
      if (!r.rec.detail.empty()) rec.set("detail", r.rec.detail);
      if (r.rec.deduped) rec.set("deduped", true);
      if (r.cache_hit) rec.set("cache_hit", true);
      if (r.rec.patched) rec.set("patched", true);
      if (r.rec.patch_fallback) rec.set("patch_fallback", true);
      if (a.dedup) rec.set("key", support::hex128(r.key_hi, r.key_lo));
      if (!r.rec.trace.empty()) rec.set("trace", r.rec.trace);
      records.push_back(std::move(rec));
    }
    c.set("records", std::move(records));
    campaigns.push_back(std::move(c));
  }
  root.set("campaigns", std::move(campaigns));

  // Fault campaigns ride in their own section, present only when a
  // `--faults` run produced any — plain mutation bundles keep their exact
  // pre-fault serialized form.
  if (!bundle.fault_campaigns.empty()) {
    JsonValue fault_campaigns = JsonValue::array();
    for (const FaultShardArtifact& a : bundle.fault_campaigns) {
      JsonValue c = JsonValue::object();
      c.set("device", a.device);
      c.set("label", a.label);
      c.set("entry", a.entry);
      c.set("engine", a.engine);
      c.set("fingerprint", a.fingerprint);
      c.set("total_scenarios", a.total_scenarios);
      c.set("sample_size", a.sample_size);
      c.set("slice_begin", a.slice_begin);
      c.set("slice_end", a.slice_end);
      c.set("clean_fingerprint", a.clean_fingerprint);
      c.set("triggered", a.triggered);
      c.set("baseline_steps", a.baseline_steps);
      c.set("baseline_opcodes", opcode_profile_to_json(a.baseline_opcodes));

      JsonValue tally = JsonValue::object();
      for (const auto& [outcome, count] : a.tally.scenarios) {
        if (count > 0) tally.set(fault_outcome_short(outcome), count);
      }
      c.set("tally", std::move(tally));

      JsonValue records = JsonValue::array();
      for (const FaultRecord& r : a.records) {
        JsonValue rec = JsonValue::object();
        rec.set("scenario", r.scenario_index);
        rec.set("port", static_cast<int64_t>(r.plan.port));
        rec.set("kind", hw::fault_kind_name(r.plan.kind));
        rec.set("after", static_cast<int64_t>(r.plan.after));
        if (r.plan.mask != 0) rec.set("mask", static_cast<int64_t>(r.plan.mask));
        if (r.plan.value != 0) {
          rec.set("value", static_cast<int64_t>(r.plan.value));
        }
        rec.set("outcome", fault_outcome_short(r.outcome));
        rec.set("steps", r.steps);
        if (!r.detail.empty()) rec.set("detail", r.detail);
        if (r.triggered) rec.set("triggered", true);
        if (!r.trace.empty()) rec.set("trace", r.trace);
        records.push_back(std::move(rec));
      }
      c.set("records", std::move(records));
      fault_campaigns.push_back(std::move(c));
    }
    root.set("fault_campaigns", std::move(fault_campaigns));
  }
  // Optional embedded process telemetry (timings only — the merge
  // aggregates it but never validates against it).
  if (bundle.has_metrics) {
    root.set("metrics", process_metrics_to_json(bundle.metrics));
  }
  return to_json(root);
}

namespace {

ShardArtifact parse_artifact(const support::JsonValue& c, size_t position) {
  std::string ctx = "campaign #" + std::to_string(position);
  ShardArtifact a;
  a.device = require_string(c, "device", ctx);
  a.label = require_string(c, "label", ctx);
  ctx = "campaign " + a.device + "/" + a.label;
  a.entry = require_string(c, "entry", ctx);
  a.engine = require_string(c, "engine", ctx);
  a.fingerprint = require_string(c, "fingerprint", ctx);
  a.dedup = require(c, "dedup", ctx).as_bool();
  a.sample_size = require_u64(c, "sample_size", ctx);
  a.slice_begin = require_u64(c, "slice_begin", ctx);
  a.slice_end = require_u64(c, "slice_end", ctx);
  a.total_sites = require_u64(c, "total_sites", ctx);
  a.total_mutants = require_u64(c, "total_mutants", ctx);
  a.clean_fingerprint = require(c, "clean_fingerprint", ctx).as_int();
  a.deduped_mutants = require_u64(c, "deduped_mutants", ctx);
  a.prefix_cache_hits = require_u64(c, "prefix_cache_hits", ctx);
  a.patch_hits = require_u64(c, "patch_hits", ctx);
  a.patch_fallbacks = require_u64(c, "patch_fallbacks", ctx);
  a.baseline_steps = require_u64(c, "baseline_steps", ctx);
  a.baseline_opcodes = opcode_profile_from_json(
      require(c, "baseline_opcodes", ctx), ctx + " baseline_opcodes");

  if (a.slice_begin > a.slice_end || a.slice_end > a.sample_size) {
    throw std::runtime_error(ctx + ": slice [" +
                             std::to_string(a.slice_begin) + ", " +
                             std::to_string(a.slice_end) +
                             ") does not fit the sample of " +
                             std::to_string(a.sample_size));
  }

  const auto& records = require(c, "records", ctx).items();
  if (records.size() != a.slice_end - a.slice_begin) {
    throw std::runtime_error(
        ctx + ": " + std::to_string(records.size()) +
        " records do not fill the slice of " +
        std::to_string(a.slice_end - a.slice_begin) +
        " (truncated artifact?)");
  }
  a.records.reserve(records.size());
  size_t deduped = 0, cache_hits = 0, patch_hits = 0, patch_fallbacks = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string rctx = ctx + " record #" + std::to_string(i);
    const support::JsonValue& rj = records[i];
    ShardRecord r;
    r.rec.mutant_index = require_u64(rj, "mutant", rctx);
    r.rec.site = require_u64(rj, "site", rctx);
    r.rec.outcome =
        outcome_from_short(require_string(rj, "outcome", rctx), rctx);
    r.rec.steps = require_u64(rj, "steps", rctx);
    if (const support::JsonValue* detail = rj.find("detail")) {
      r.rec.detail = detail->as_string();
    }
    r.rec.deduped = optional_flag(rj, "deduped");
    r.cache_hit = optional_flag(rj, "cache_hit");
    r.rec.patched = optional_flag(rj, "patched");
    r.rec.patch_fallback = optional_flag(rj, "patch_fallback");
    if (const support::JsonValue* trace = rj.find("trace")) {
      r.rec.trace = trace->as_string();
    }
    if (a.dedup) {
      std::tie(r.key_hi, r.key_lo) =
          parse_hex128(require_string(rj, "key", rctx), rctx + " field 'key'");
    } else if (rj.find("key") != nullptr) {
      throw std::runtime_error(rctx + ": has a dedup key but the campaign "
                               "ran with dedup off");
    }
    deduped += r.rec.deduped ? 1 : 0;
    cache_hits += r.cache_hit ? 1 : 0;
    patch_hits += r.rec.patched ? 1 : 0;
    patch_fallbacks += r.rec.patch_fallback ? 1 : 0;
    a.records.push_back(std::move(r));
  }

  // The tally and counters must be re-derivable from the records — a
  // mismatch means the artifact was edited or corrupted after the run.
  if (deduped != a.deduped_mutants) {
    throw std::runtime_error(ctx + ": deduped_mutants says " +
                             std::to_string(a.deduped_mutants) +
                             " but the records carry " +
                             std::to_string(deduped) + " (corrupt artifact?)");
  }
  if (cache_hits != a.prefix_cache_hits) {
    throw std::runtime_error(ctx + ": prefix_cache_hits says " +
                             std::to_string(a.prefix_cache_hits) +
                             " but the records carry " +
                             std::to_string(cache_hits) +
                             " (corrupt artifact?)");
  }
  if (patch_hits != a.patch_hits) {
    throw std::runtime_error(ctx + ": patch_hits says " +
                             std::to_string(a.patch_hits) +
                             " but the records carry " +
                             std::to_string(patch_hits) +
                             " (corrupt artifact?)");
  }
  if (patch_fallbacks != a.patch_fallbacks) {
    throw std::runtime_error(ctx + ": patch_fallbacks says " +
                             std::to_string(a.patch_fallbacks) +
                             " but the records carry " +
                             std::to_string(patch_fallbacks) +
                             " (corrupt artifact?)");
  }
  for (const ShardRecord& r : a.records) {
    a.tally.add(r.rec.outcome, r.rec.site);
  }
  const auto& stored = require(c, "tally", ctx);
  for (Outcome o : kAllOutcomes) {
    const support::JsonValue* v = stored.find(outcome_short(o));
    size_t stored_count = v ? require_u64(stored, outcome_short(o), ctx) : 0;
    if (stored_count != a.tally.mutants_of(o)) {
      throw std::runtime_error(
          ctx + ": tally['" + std::string(outcome_short(o)) + "'] says " +
          std::to_string(stored_count) + " but the records tally " +
          std::to_string(a.tally.mutants_of(o)) + " (corrupt artifact?)");
    }
  }
  return a;
}

FaultShardArtifact parse_fault_artifact(const support::JsonValue& c,
                                        size_t position) {
  std::string ctx = "fault campaign #" + std::to_string(position);
  FaultShardArtifact a;
  a.device = require_string(c, "device", ctx);
  a.label = require_string(c, "label", ctx);
  ctx = "fault campaign " + a.device + "/" + a.label;
  a.entry = require_string(c, "entry", ctx);
  a.engine = require_string(c, "engine", ctx);
  a.fingerprint = require_string(c, "fingerprint", ctx);
  a.total_scenarios = require_u64(c, "total_scenarios", ctx);
  a.sample_size = require_u64(c, "sample_size", ctx);
  a.slice_begin = require_u64(c, "slice_begin", ctx);
  a.slice_end = require_u64(c, "slice_end", ctx);
  a.clean_fingerprint = require(c, "clean_fingerprint", ctx).as_int();
  a.triggered = require_u64(c, "triggered", ctx);
  a.baseline_steps = require_u64(c, "baseline_steps", ctx);
  a.baseline_opcodes = opcode_profile_from_json(
      require(c, "baseline_opcodes", ctx), ctx + " baseline_opcodes");

  if (a.sample_size > a.total_scenarios) {
    throw std::runtime_error(ctx + ": sample of " +
                             std::to_string(a.sample_size) +
                             " exceeds the generated matrix of " +
                             std::to_string(a.total_scenarios));
  }
  if (a.slice_begin > a.slice_end || a.slice_end > a.sample_size) {
    throw std::runtime_error(ctx + ": slice [" +
                             std::to_string(a.slice_begin) + ", " +
                             std::to_string(a.slice_end) +
                             ") does not fit the sample of " +
                             std::to_string(a.sample_size));
  }

  const auto& records = require(c, "records", ctx).items();
  if (records.size() != a.slice_end - a.slice_begin) {
    throw std::runtime_error(
        ctx + ": " + std::to_string(records.size()) +
        " records do not fill the slice of " +
        std::to_string(a.slice_end - a.slice_begin) +
        " (truncated artifact?)");
  }
  a.records.reserve(records.size());
  size_t triggered = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string rctx = ctx + " record #" + std::to_string(i);
    const support::JsonValue& rj = records[i];
    FaultRecord r;
    r.scenario_index = require_u64(rj, "scenario", rctx);
    r.plan.port = static_cast<uint32_t>(require_u64(rj, "port", rctx));
    r.plan.kind =
        fault_kind_from_short(require_string(rj, "kind", rctx), rctx);
    r.plan.after = static_cast<uint32_t>(require_u64(rj, "after", rctx));
    r.plan.mask = static_cast<uint32_t>(optional_u64(rj, "mask", rctx));
    r.plan.value = static_cast<uint32_t>(optional_u64(rj, "value", rctx));
    r.outcome =
        fault_outcome_from_short(require_string(rj, "outcome", rctx), rctx);
    r.steps = require_u64(rj, "steps", rctx);
    if (const support::JsonValue* detail = rj.find("detail")) {
      r.detail = detail->as_string();
    }
    r.triggered = optional_flag(rj, "triggered");
    if (const support::JsonValue* trace = rj.find("trace")) {
      r.trace = trace->as_string();
    }
    if (!r.triggered && r.outcome != FaultOutcome::kCleanBoot) {
      throw std::runtime_error(rctx + ": untriggered scenario with outcome '" +
                               fault_outcome_short(r.outcome) +
                               "' (corrupt artifact?)");
    }
    triggered += r.triggered ? 1 : 0;
    a.records.push_back(std::move(r));
  }

  if (triggered != a.triggered) {
    throw std::runtime_error(ctx + ": triggered says " +
                             std::to_string(a.triggered) +
                             " but the records carry " +
                             std::to_string(triggered) +
                             " (corrupt artifact?)");
  }
  for (const FaultRecord& r : a.records) {
    a.tally.add(r.outcome, r.plan.port);
  }
  const auto& stored = require(c, "tally", ctx);
  for (FaultOutcome o : kAllFaultOutcomes) {
    const support::JsonValue* v = stored.find(fault_outcome_short(o));
    size_t stored_count =
        v ? require_u64(stored, fault_outcome_short(o), ctx) : 0;
    if (stored_count != a.tally.scenarios_of(o)) {
      throw std::runtime_error(
          ctx + ": tally['" + std::string(fault_outcome_short(o)) +
          "'] says " + std::to_string(stored_count) +
          " but the records tally " + std::to_string(a.tally.scenarios_of(o)) +
          " (corrupt artifact?)");
    }
  }
  return a;
}

}  // namespace

ShardBundle parse_shard_bundle(const std::string& text) {
  support::JsonValue root = [&] {
    try {
      return support::parse_json(text);
    } catch (const support::JsonError& e) {
      throw std::runtime_error(std::string("not a shard artifact: ") +
                               e.what());
    }
  }();
  try {
    const std::string ctx = "shard artifact";
    const std::string& format = require_string(root, "format", ctx);
    if (format != kFormatTag) {
      throw std::runtime_error("not a shard artifact: format tag is '" +
                               format + "', expected '" + kFormatTag + "'");
    }
    int64_t version = require(root, "version", ctx).as_int();
    if (version != kFormatVersion) {
      throw std::runtime_error("unsupported shard artifact version " +
                               std::to_string(version) + " (this build reads "
                               "version " + std::to_string(kFormatVersion) +
                               ")");
    }
    ShardBundle bundle;
    const support::JsonValue& shard = require(root, "shard", ctx);
    bundle.shard.index =
        static_cast<unsigned>(require_u64(shard, "index", "shard"));
    bundle.shard.count =
        static_cast<unsigned>(require_u64(shard, "count", "shard"));
    if (bundle.shard.count == 0 || bundle.shard.index == 0 ||
        bundle.shard.index > bundle.shard.count) {
      throw std::runtime_error("shard artifact has invalid shard coordinates " +
                               bundle.shard.to_string());
    }
    const auto& campaigns = require(root, "campaigns", ctx).items();
    bundle.campaigns.reserve(campaigns.size());
    for (size_t i = 0; i < campaigns.size(); ++i) {
      bundle.campaigns.push_back(parse_artifact(campaigns[i], i));
    }
    if (const support::JsonValue* fc = root.find("fault_campaigns")) {
      const auto& fault_campaigns = fc->items();
      bundle.fault_campaigns.reserve(fault_campaigns.size());
      for (size_t i = 0; i < fault_campaigns.size(); ++i) {
        bundle.fault_campaigns.push_back(
            parse_fault_artifact(fault_campaigns[i], i));
      }
    }
    if (const support::JsonValue* metrics = root.find("metrics")) {
      bundle.has_metrics = true;
      bundle.metrics = process_metrics_from_json(*metrics, "shard metrics");
    }
    return bundle;
  } catch (const support::JsonError& e) {
    // Type errors from as_int()/as_string() on present-but-wrong fields.
    throw std::runtime_error(std::string("corrupt shard artifact: ") +
                             e.what());
  }
}

CampaignMetricsRow shard_metrics_row(const ShardArtifact& a) {
  // Reassemble a slice-shaped campaign result and reuse the canonical row
  // builder, so shard-local rows and full-run rows can never drift.
  DriverCampaignResult res;
  res.device = a.device;
  res.entry = a.entry;
  res.deduped_mutants = a.deduped_mutants;
  res.prefix_cache_hits = a.prefix_cache_hits;
  res.patch_hits = a.patch_hits;
  res.patch_fallbacks = a.patch_fallbacks;
  res.tally = a.tally;
  res.baseline_steps = a.baseline_steps;
  res.baseline_opcodes = a.baseline_opcodes;
  res.records.reserve(a.records.size());
  for (const ShardRecord& r : a.records) res.records.push_back(r.rec);
  return campaign_metrics_row(res, a.label, a.engine);
}

CampaignMetricsRow shard_fault_metrics_row(const FaultShardArtifact& a) {
  FaultCampaignResult res;
  res.device = a.device;
  res.entry = a.entry;
  res.triggered_scenarios = a.triggered;
  res.tally = a.tally;
  res.baseline_steps = a.baseline_steps;
  res.baseline_opcodes = a.baseline_opcodes;
  res.records = a.records;
  return fault_metrics_row(res, a.label, a.engine);
}

void write_artifact_atomically(const std::string& path,
                               const std::string& text) {
  // Atomic write: the bytes go to `<path>.tmp`, renamed over `path` only
  // after a successful flush+close. A crash, full disk or unwritable
  // directory never leaves a partial artifact at `path` (and never clobbers
  // a good one already there); failures remove the temporary and throw.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ArtifactWriteError(tmp + ": cannot open for writing (does the "
                               "directory exist and allow writes?)");
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.put('\n');
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw ArtifactWriteError(tmp + ": write failed (disk full?)");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    throw ArtifactWriteError(path + ": cannot rename temporary artifact into "
                             "place: " + why);
  }
}

void save_shard_bundle(const std::string& path, const ShardBundle& bundle) {
  write_artifact_atomically(path, serialize_shard_bundle(bundle));
}

ShardBundle load_shard_bundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(path + ": cannot open");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error(path + ": read failed");
  }
  try {
    return parse_shard_bundle(buf.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace eval
