#include "eval/metrics.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "eval/shard.h"
#include "minic/bytecode/bytecode.h"
#include "minic/program.h"

namespace eval {

namespace {

constexpr const char* kFormatTag = "devil-repro-metrics";
// Version 2: campaign rows carry patch_hits/patch_fallbacks and the timing
// section gained the "patch" stage histogram (stage order is validated
// strictly, so the new stage alone re-versions the format).
// Version 3: the timing section gained the devil_lex, devil_parse and
// devil_sema stage histograms.
// Version 4: the timing section gained fault_boots_skipped.
constexpr int64_t kFormatVersion = 4;

using support::require;
using support::require_string;
using support::require_u64;

/// Zero-suppressed (name, count) pairs as an insertion-ordered JSON object.
support::JsonValue pairs_to_json(
    const std::vector<std::pair<std::string, uint64_t>>& pairs) {
  support::JsonValue obj = support::JsonValue::object();
  for (const auto& [name, count] : pairs) obj.set(name, count);
  return obj;
}

std::vector<std::pair<std::string, uint64_t>> pairs_from_json(
    const support::JsonValue& v, const std::string& ctx) {
  std::vector<std::pair<std::string, uint64_t>> pairs;
  for (const auto& [name, count] : v.members()) {
    int64_t n = count.as_int();
    if (n <= 0) {
      throw std::runtime_error(ctx + ": count for '" + name +
                               "' must be positive (the writer suppresses "
                               "zero rows)");
    }
    pairs.emplace_back(name, static_cast<uint64_t>(n));
  }
  return pairs;
}

support::JsonValue histogram_to_json(const support::Histogram& h) {
  support::JsonValue obj = support::JsonValue::object();
  obj.set("count", h.count());
  obj.set("total", h.total());
  support::JsonValue buckets = support::JsonValue::object();
  for (size_t b = 0; b < support::Histogram::kBuckets; ++b) {
    if (h.buckets()[b] != 0) buckets.set(std::to_string(b), h.buckets()[b]);
  }
  obj.set("buckets", std::move(buckets));
  return obj;
}

support::Histogram histogram_from_json(const support::JsonValue& v,
                                       const std::string& ctx) {
  support::Histogram h;
  uint64_t count = require_u64(v, "count", ctx);
  uint64_t total = require_u64(v, "total", ctx);
  const support::JsonValue& buckets = require(v, "buckets", ctx);
  uint64_t sum = 0;
  int64_t prev = -1;
  for (const auto& [key, nv] : buckets.members()) {
    size_t b = 0;
    try {
      size_t pos = 0;
      b = std::stoul(key, &pos);
      if (pos != key.size()) throw std::invalid_argument(key);
    } catch (const std::exception&) {
      throw std::runtime_error(ctx + ": bad bucket index '" + key + "'");
    }
    if (b >= support::Histogram::kBuckets) {
      throw std::runtime_error(ctx + ": bucket index " + std::to_string(b) +
                               " out of range");
    }
    if (static_cast<int64_t>(b) <= prev) {
      throw std::runtime_error(ctx + ": bucket indices must be strictly "
                               "ascending");
    }
    prev = static_cast<int64_t>(b);
    int64_t n = nv.as_int();
    if (n <= 0) {
      throw std::runtime_error(ctx + ": bucket " + std::to_string(b) +
                               " count must be positive");
    }
    h.set_bucket(b, static_cast<uint64_t>(n));
    sum += static_cast<uint64_t>(n);
  }
  if (sum != count) {
    throw std::runtime_error(ctx + ": count says " + std::to_string(count) +
                             " but the buckets sum to " + std::to_string(sum) +
                             " (corrupt artifact?)");
  }
  h.set_total(total);
  return h;
}

support::JsonValue row_to_json(const CampaignMetricsRow& row) {
  support::JsonValue c = support::JsonValue::object();
  c.set("device", row.device);
  c.set("label", row.label);
  c.set("entry", row.entry);
  c.set("engine", row.engine);
  c.set("records", row.records);
  if (row.fault_campaign) {
    c.set("triggered", row.triggered);
  } else {
    c.set("deduped", row.deduped);
    c.set("prefix_cache_hits", row.prefix_cache_hits);
    c.set("patch_hits", row.patch_hits);
    c.set("patch_fallbacks", row.patch_fallbacks);
    c.set("unique_boots", row.unique_boots);
  }
  c.set("boot_steps", row.boot_steps);
  c.set("baseline_steps", row.baseline_steps);
  c.set("baseline_opcodes", pairs_to_json(row.baseline_opcodes));
  c.set("tally", pairs_to_json(row.tally));
  return c;
}

CampaignMetricsRow row_from_json(const support::JsonValue& v,
                                 bool fault_campaign, size_t position) {
  const char* what = fault_campaign ? "fault campaign row #" : "campaign row #";
  std::string ctx = what + std::to_string(position);
  CampaignMetricsRow row;
  row.fault_campaign = fault_campaign;
  row.device = require_string(v, "device", ctx);
  row.label = require_string(v, "label", ctx);
  ctx = "metrics row " + row.device + "/" + row.label;
  row.entry = require_string(v, "entry", ctx);
  row.engine = require_string(v, "engine", ctx);
  row.records = require_u64(v, "records", ctx);
  if (fault_campaign) {
    row.triggered = require_u64(v, "triggered", ctx);
    if (row.triggered > row.records) {
      throw std::runtime_error(ctx + ": triggered exceeds the record count");
    }
  } else {
    row.deduped = require_u64(v, "deduped", ctx);
    row.prefix_cache_hits = require_u64(v, "prefix_cache_hits", ctx);
    row.patch_hits = require_u64(v, "patch_hits", ctx);
    row.patch_fallbacks = require_u64(v, "patch_fallbacks", ctx);
    row.unique_boots = require_u64(v, "unique_boots", ctx);
    if (row.deduped > row.records || row.unique_boots > row.records) {
      throw std::runtime_error(ctx + ": dedup/boot counters exceed the "
                               "record count");
    }
    if (row.patch_hits > row.records || row.patch_fallbacks > row.records) {
      throw std::runtime_error(ctx + ": patch counters exceed the "
                               "record count");
    }
  }
  row.boot_steps = require_u64(v, "boot_steps", ctx);
  row.baseline_steps = require_u64(v, "baseline_steps", ctx);
  row.baseline_opcodes = pairs_from_json(
      require(v, "baseline_opcodes", ctx), ctx + " baseline_opcodes");
  row.tally = pairs_from_json(require(v, "tally", ctx), ctx + " tally");
  uint64_t tallied = 0;
  for (const auto& [name, count] : row.tally) tallied += count;
  if (tallied != row.records) {
    throw std::runtime_error(ctx + ": tally sums to " +
                             std::to_string(tallied) + " but the row claims " +
                             std::to_string(row.records) +
                             " records (corrupt artifact?)");
  }
  return row;
}

std::vector<std::pair<std::string, uint64_t>> opcode_pairs(
    const minic::bytecode::OpcodeProfile& profile) {
  std::vector<std::pair<std::string, uint64_t>> pairs;
  for (size_t i = 0; i < minic::bytecode::kOpCount; ++i) {
    if (profile.counts[i] == 0) continue;
    pairs.emplace_back(
        minic::bytecode::op_name(static_cast<minic::bytecode::Op>(i)),
        profile.counts[i]);
  }
  return pairs;
}

support::JsonValue deterministic_to_json(const MetricsArtifact& artifact) {
  support::JsonValue det = support::JsonValue::object();
  support::JsonValue campaigns = support::JsonValue::array();
  for (const CampaignMetricsRow& row : artifact.campaigns) {
    campaigns.push_back(row_to_json(row));
  }
  det.set("campaigns", std::move(campaigns));
  support::JsonValue fault_campaigns = support::JsonValue::array();
  for (const CampaignMetricsRow& row : artifact.fault_campaigns) {
    fault_campaigns.push_back(row_to_json(row));
  }
  det.set("fault_campaigns", std::move(fault_campaigns));
  return det;
}

}  // namespace

CampaignMetricsRow campaign_metrics_row(const DriverCampaignResult& result,
                                        const std::string& label,
                                        const std::string& engine) {
  CampaignMetricsRow row;
  row.device = result.device;
  row.label = label;
  row.entry = result.entry;
  row.engine = engine;
  row.records = result.records.size();
  row.deduped = result.deduped_mutants;
  row.prefix_cache_hits = result.prefix_cache_hits;
  row.patch_hits = result.patch_hits;
  row.patch_fallbacks = result.patch_fallbacks;
  for (const MutantRecord& rec : result.records) {
    if (!rec.deduped && rec.outcome != Outcome::kCompileTime) {
      ++row.unique_boots;
    }
    row.boot_steps += rec.steps;
  }
  row.baseline_steps = result.baseline_steps;
  row.baseline_opcodes = opcode_pairs(result.baseline_opcodes);
  for (const auto& [outcome, count] : result.tally.mutants) {
    if (count > 0) row.tally.emplace_back(outcome_short(outcome), count);
  }
  return row;
}

CampaignMetricsRow fault_metrics_row(const FaultCampaignResult& result,
                                     const std::string& label,
                                     const std::string& engine) {
  CampaignMetricsRow row;
  row.fault_campaign = true;
  row.device = result.device;
  row.label = label;
  row.entry = result.entry;
  row.engine = engine;
  row.records = result.records.size();
  row.triggered = result.triggered_scenarios;
  for (const FaultRecord& rec : result.records) row.boot_steps += rec.steps;
  row.baseline_steps = result.baseline_steps;
  row.baseline_opcodes = opcode_pairs(result.baseline_opcodes);
  for (const auto& [outcome, count] : result.tally.scenarios) {
    if (count > 0) row.tally.emplace_back(fault_outcome_short(outcome), count);
  }
  return row;
}

ProcessMetrics capture_process_metrics(uint64_t threads, uint64_t wall_ns) {
  support::MetricsSnapshot snap = support::Metrics::snapshot();
  ProcessMetrics pm;
  pm.threads = threads;
  pm.wall_ns = wall_ns;
  pm.stages = snap.stages;
  pm.pool_fresh = snap.pool_fresh;
  pm.pool_recycled = snap.pool_recycled;
  pm.watchdog_trips = snap.watchdog_trips;
  pm.hang_proofs = snap.hang_proofs;
  pm.hang_steps_skipped = snap.hang_steps_skipped;
  pm.fault_boots_skipped = snap.fault_boots_skipped;
  pm.worker_records = snap.worker_records;
  return pm;
}

support::JsonValue process_metrics_to_json(const ProcessMetrics& pm) {
  support::JsonValue t = support::JsonValue::object();
  t.set("threads", pm.threads);
  t.set("wall_ns", pm.wall_ns);
  // All stages are written (zero or not) in enum order, so the section's
  // shape never depends on which stages happened to fire.
  support::JsonValue stages = support::JsonValue::object();
  for (size_t s = 0; s < support::kStageCount; ++s) {
    stages.set(support::stage_name(static_cast<support::Stage>(s)),
               histogram_to_json(pm.stages[s]));
  }
  t.set("stages", std::move(stages));
  t.set("pool_fresh", pm.pool_fresh);
  t.set("pool_recycled", pm.pool_recycled);
  t.set("watchdog_trips", pm.watchdog_trips);
  t.set("hang_proofs", pm.hang_proofs);
  t.set("hang_steps_skipped", pm.hang_steps_skipped);
  t.set("fault_boots_skipped", pm.fault_boots_skipped);
  t.set("worker_records", histogram_to_json(pm.worker_records));
  return t;
}

ProcessMetrics process_metrics_from_json(const support::JsonValue& v,
                                         const std::string& ctx) {
  ProcessMetrics pm;
  pm.threads = require_u64(v, "threads", ctx);
  pm.wall_ns = require_u64(v, "wall_ns", ctx);
  const support::JsonValue& stages = require(v, "stages", ctx);
  if (stages.members().size() != support::kStageCount) {
    throw std::runtime_error(ctx + ": expected " +
                             std::to_string(support::kStageCount) +
                             " stages, got " +
                             std::to_string(stages.members().size()));
  }
  for (size_t s = 0; s < support::kStageCount; ++s) {
    const char* name = support::stage_name(static_cast<support::Stage>(s));
    const auto& [key, hv] = stages.members()[s];
    if (key != name) {
      throw std::runtime_error(ctx + ": stage #" + std::to_string(s) +
                               " is '" + key + "', expected '" + name + "'");
    }
    pm.stages[s] = histogram_from_json(hv, ctx + " stage " + name);
  }
  pm.pool_fresh = require_u64(v, "pool_fresh", ctx);
  pm.pool_recycled = require_u64(v, "pool_recycled", ctx);
  pm.watchdog_trips = require_u64(v, "watchdog_trips", ctx);
  pm.hang_proofs = require_u64(v, "hang_proofs", ctx);
  pm.hang_steps_skipped = require_u64(v, "hang_steps_skipped", ctx);
  pm.fault_boots_skipped = require_u64(v, "fault_boots_skipped", ctx);
  pm.worker_records = histogram_from_json(require(v, "worker_records", ctx),
                                          ctx + " worker_records");
  return pm;
}

void merge_process_metrics(ProcessMetrics& into, const ProcessMetrics& from) {
  into.threads += from.threads;
  into.wall_ns += from.wall_ns;
  for (size_t s = 0; s < support::kStageCount; ++s) {
    into.stages[s].merge(from.stages[s]);
  }
  into.pool_fresh += from.pool_fresh;
  into.pool_recycled += from.pool_recycled;
  into.watchdog_trips += from.watchdog_trips;
  into.hang_proofs += from.hang_proofs;
  into.hang_steps_skipped += from.hang_steps_skipped;
  into.fault_boots_skipped += from.fault_boots_skipped;
  into.worker_records.merge(from.worker_records);
}

std::string serialize_metrics(const MetricsArtifact& artifact) {
  support::JsonValue root = support::JsonValue::object();
  root.set("format", kFormatTag);
  root.set("version", kFormatVersion);
  root.set("deterministic", deterministic_to_json(artifact));
  root.set("timings", process_metrics_to_json(artifact.process));
  return to_json(root);
}

std::string deterministic_metrics_json(const MetricsArtifact& artifact) {
  return to_json(deterministic_to_json(artifact));
}

MetricsArtifact parse_metrics(const std::string& text) {
  support::JsonValue root = [&] {
    try {
      return support::parse_json(text);
    } catch (const support::JsonError& e) {
      throw std::runtime_error(std::string("not a metrics artifact: ") +
                               e.what());
    }
  }();
  try {
    const std::string ctx = "metrics artifact";
    const std::string& format = require_string(root, "format", ctx);
    if (format != kFormatTag) {
      throw std::runtime_error("not a metrics artifact: format tag is '" +
                               format + "', expected '" + kFormatTag + "'");
    }
    int64_t version = require(root, "version", ctx).as_int();
    if (version != kFormatVersion) {
      throw std::runtime_error("unsupported metrics artifact version " +
                               std::to_string(version) + " (this build reads "
                               "version " + std::to_string(kFormatVersion) +
                               ")");
    }
    MetricsArtifact artifact;
    const support::JsonValue& det = require(root, "deterministic", ctx);
    const auto& campaigns = require(det, "campaigns", ctx).items();
    artifact.campaigns.reserve(campaigns.size());
    for (size_t i = 0; i < campaigns.size(); ++i) {
      artifact.campaigns.push_back(row_from_json(campaigns[i], false, i));
    }
    const auto& fault_campaigns = require(det, "fault_campaigns", ctx).items();
    artifact.fault_campaigns.reserve(fault_campaigns.size());
    for (size_t i = 0; i < fault_campaigns.size(); ++i) {
      artifact.fault_campaigns.push_back(
          row_from_json(fault_campaigns[i], true, i));
    }
    artifact.process =
        process_metrics_from_json(require(root, "timings", ctx), "timings");
    return artifact;
  } catch (const support::JsonError& e) {
    throw std::runtime_error(std::string("corrupt metrics artifact: ") +
                             e.what());
  }
}

void save_metrics_artifact(const std::string& path,
                           const MetricsArtifact& artifact) {
  write_artifact_atomically(path, serialize_metrics(artifact));
}

MetricsArtifact load_metrics_artifact(const std::string& path) {
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
    return parse_metrics(buf.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace eval
