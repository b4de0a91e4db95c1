#include "eval/metrics.h"

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

using support::JsonFieldReader;

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
  JsonFieldReader in(v, ctx);
  uint64_t count = 0, total = 0;
  in.field("count", count);
  in.field("total", total);
  // Only nonzero buckets are written, keyed by ascending decimal index.
  JsonFieldReader buckets(in.require("buckets"), ctx);
  in.finish();
  support::Histogram h;
  for (size_t b = 0; b < support::Histogram::kBuckets; ++b) {
    uint64_t n = 0;
    buckets.optional(std::to_string(b).c_str(), n);
    h.set_bucket(b, n);
  }
  buckets.finish();
  if (h.count() != count) {
    throw std::runtime_error(ctx + ": count says " + std::to_string(count) +
                             " but the buckets sum to " +
                             std::to_string(h.count()) + " (corrupt artifact?)");
  }
  h.set_total(total);
  return h;
}

/// A campaign row's scalar fields in serialized order, walked by both the
/// writer and the reader.
template <class IO, class Row>
void row_fields(IO& io, Row& row) {
  io.field("device", row.device);
  io.field("label", row.label);
  io.field("entry", row.entry);
  io.field("engine", row.engine);
  io.field("records", row.records);
  if (row.fault_campaign) {
    io.field("triggered", row.triggered);
  } else {
    io.field("deduped", row.deduped);
    io.field("prefix_cache_hits", row.prefix_cache_hits);
    io.field("patch_hits", row.patch_hits);
    io.field("patch_fallbacks", row.patch_fallbacks);
    io.field("unique_boots", row.unique_boots);
  }
  io.field("boot_steps", row.boot_steps);
  io.field("baseline_steps", row.baseline_steps);
}

support::JsonValue row_to_json(const CampaignMetricsRow& row) {
  support::JsonValue c = support::JsonValue::object();
  support::JsonFieldWriter out(c);
  row_fields(out, row);
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
  JsonFieldReader in(v, ctx);
  row_fields(in, row);
  ctx = "metrics row " + row.device + "/" + row.label;
  row.baseline_opcodes = pairs_from_json(in.require("baseline_opcodes"),
                                         ctx + " baseline_opcodes");
  row.tally = pairs_from_json(in.require("tally"), ctx + " tally");
  in.finish();
  if (row.triggered > row.records) {
    throw std::runtime_error(ctx + ": triggered exceeds the record count");
  }
  if (row.deduped > row.records || row.unique_boots > row.records) {
    throw std::runtime_error(ctx + ": dedup/boot counters exceed the "
                             "record count");
  }
  if (row.patch_hits > row.records || row.patch_fallbacks > row.records) {
    throw std::runtime_error(ctx + ": patch counters exceed the record count");
  }
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
  pm.hang_burns = snap.hang_burns;
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
  // Omitted at zero, so artifacts written before the counter existed read
  // back (and re-serialize) unchanged.
  if (pm.hang_burns != 0) t.set("hang_burns", pm.hang_burns);
  t.set("fault_boots_skipped", pm.fault_boots_skipped);
  t.set("worker_records", histogram_to_json(pm.worker_records));
  return t;
}

ProcessMetrics process_metrics_from_json(const support::JsonValue& v,
                                         const std::string& ctx) {
  ProcessMetrics pm;
  JsonFieldReader in(v, ctx);
  in.field("threads", pm.threads);
  in.field("wall_ns", pm.wall_ns);
  // Every stage is written, in enum order.
  JsonFieldReader stages(in.require("stages"), ctx);
  for (size_t s = 0; s < support::kStageCount; ++s) {
    const char* name = support::stage_name(static_cast<support::Stage>(s));
    pm.stages[s] = histogram_from_json(stages.require(name),
                                       ctx + " stage " + name);
  }
  stages.finish();
  in.field("pool_fresh", pm.pool_fresh);
  in.field("pool_recycled", pm.pool_recycled);
  in.field("watchdog_trips", pm.watchdog_trips);
  in.field("hang_proofs", pm.hang_proofs);
  in.field("hang_steps_skipped", pm.hang_steps_skipped);
  in.optional("hang_burns", pm.hang_burns);
  in.field("fault_boots_skipped", pm.fault_boots_skipped);
  pm.worker_records = histogram_from_json(in.require("worker_records"),
                                          ctx + " worker_records");
  in.finish();
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
  into.hang_burns += from.hang_burns;
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
      return support::parse_canonical_json(text);
    } catch (const support::JsonError& e) {
      throw std::runtime_error(std::string("not a metrics artifact: ") +
                               e.what());
    }
  }();
  try {
    const std::string ctx = "metrics artifact";
    JsonFieldReader in(root, ctx);
    const std::string& format = in.require("format").as_string();
    if (format != kFormatTag) {
      throw std::runtime_error("not a metrics artifact: format tag is '" +
                               format + "', expected '" + kFormatTag + "'");
    }
    int64_t version = in.require("version").as_int();
    if (version != kFormatVersion) {
      throw std::runtime_error("unsupported metrics artifact version " +
                               std::to_string(version) + " (this build reads "
                               "version " + std::to_string(kFormatVersion) +
                               ")");
    }
    MetricsArtifact artifact;
    JsonFieldReader det(in.require("deterministic"), ctx);
    const auto& campaigns = det.require("campaigns").items();
    artifact.campaigns.reserve(campaigns.size());
    for (size_t i = 0; i < campaigns.size(); ++i) {
      artifact.campaigns.push_back(row_from_json(campaigns[i], false, i));
    }
    const auto& fault_campaigns = det.require("fault_campaigns").items();
    artifact.fault_campaigns.reserve(fault_campaigns.size());
    for (size_t i = 0; i < fault_campaigns.size(); ++i) {
      artifact.fault_campaigns.push_back(
          row_from_json(fault_campaigns[i], true, i));
    }
    det.finish();
    artifact.process =
        process_metrics_from_json(in.require("timings"), "timings");
    in.finish();
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
  return load_artifact(path, parse_metrics);
}

}  // namespace eval
