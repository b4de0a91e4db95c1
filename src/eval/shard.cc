#include "eval/shard.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "eval/campaign_kinds.h"
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

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
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

using support::JsonFieldReader;
using support::JsonFieldWriter;
using support::JsonValue;

/// Runs slice `spec` of a campaign of kind K and packages its artifact.
template <class K>
typename K::Artifact run_shard(const typename K::Config& config,
                               const std::string& label, ShardSpec spec) {
  if (spec.count == 0 || spec.index == 0 || spec.index > spec.count) {
    throw std::invalid_argument("bad shard spec " + spec.to_string() +
                                ": shard index is 1-based and must be between "
                                "1 and the shard count");
  }
  CampaignSideband side;
  typename K::Result res = K::run_slice(
      config, SampleSlice{spec.index - 1, spec.count}, &side);
  typename K::Artifact a;
  a.set_baseline(res);
  a.label = label;
  a.engine = minic::exec_engine_name(K::base(config).engine);
  a.fingerprint = K::fingerprint(config);
  a.sample_size = side.sample_size;
  a.slice_begin = side.slice_begin;
  a.slice_end = side.slice_end;
  a.tally = std::move(res.tally);
  K::pack(a, std::move(res), config, side);
  return a;
}

template <class K>
JsonValue artifact_to_json(const typename K::Artifact& a) {
  JsonValue c = JsonValue::object();
  JsonFieldWriter out(c);
  out.field("device", a.device);
  out.field("label", a.label);
  out.field("entry", a.entry);
  out.field("engine", a.engine);
  out.field("fingerprint", a.fingerprint);
  K::header_fields(out, a);
  out.field("baseline_steps", a.baseline_steps);
  c.set("baseline_opcodes", opcode_profile_to_json(a.baseline_opcodes));

  // Shard-local tally, keyed by the short outcome names in enum order
  // (std::map iteration), zero rows omitted — byte-stable.
  JsonValue tally = JsonValue::object();
  for (const auto& [outcome, count] : K::counts(a.tally)) {
    if (count > 0) tally.set(K::short_name(outcome), count);
  }
  c.set("tally", std::move(tally));

  JsonValue records = JsonValue::array();
  for (const auto& r : a.records) {
    JsonValue rec = JsonValue::object();
    JsonFieldWriter rec_out(rec);
    K::record_fields(rec_out, r, a);
    records.push_back(std::move(rec));
  }
  c.set("records", std::move(records));
  return c;
}

template <class K>
typename K::Artifact artifact_from_json(const JsonValue& c, size_t position) {
  std::string ctx = std::string(K::kCampaign) + " #" + std::to_string(position);
  JsonFieldReader in(c, ctx);
  typename K::Artifact a;
  in.field("device", a.device);
  in.field("label", a.label);
  ctx = std::string(K::kCampaign) + " " + a.device + "/" + a.label;
  in.field("entry", a.entry);
  in.field("engine", a.engine);
  in.field("fingerprint", a.fingerprint);
  K::header_fields(in, a);
  in.field("baseline_steps", a.baseline_steps);
  a.baseline_opcodes = opcode_profile_from_json(in.require("baseline_opcodes"),
                                                ctx + " baseline_opcodes");
  const JsonValue& stored_tally = in.require("tally");
  const auto& records = in.require("records").items();
  in.finish();

  if (a.sample_size > K::generated(a)) {
    throw std::runtime_error(ctx + ": sample of " +
                             std::to_string(a.sample_size) + " exceeds the " +
                             std::to_string(K::generated(a)) + " generated " +
                             K::kUnits);
  }
  if (a.slice_begin > a.slice_end || a.slice_end > a.sample_size) {
    throw std::runtime_error(ctx + ": slice [" +
                             std::to_string(a.slice_begin) + ", " +
                             std::to_string(a.slice_end) +
                             ") does not fit the sample of " +
                             std::to_string(a.sample_size));
  }
  if (records.size() != a.slice_end - a.slice_begin) {
    throw std::runtime_error(
        ctx + ": " + std::to_string(records.size()) +
        " records do not fill the slice of " +
        std::to_string(a.slice_end - a.slice_begin) +
        " (truncated artifact?)");
  }
  a.records.resize(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string rctx = ctx + " record #" + std::to_string(i);
    JsonFieldReader rec_in(records[i], rctx);
    K::record_fields(rec_in, a.records[i], a);
    rec_in.finish();
    K::check_record(a.records[i], rctx);
  }

  // The counters and the tally must be re-derivable from the records — a
  // mismatch means the artifact was edited or corrupted after the run.
  K::counted(a, [&](const char* name, size_t stored, auto carries) {
    size_t carried = 0;
    for (const auto& r : a.records) carried += carries(r) ? 1 : 0;
    if (carried != stored) {
      throw std::runtime_error(ctx + ": " + name + " says " +
                               std::to_string(stored) +
                               " but the records carry " +
                               std::to_string(carried) +
                               " (corrupt artifact?)");
    }
  });
  for (const auto& r : a.records) K::tally(a.tally, K::record(r));
  JsonFieldReader tally_in(stored_tally, ctx);
  for (const auto o : K::kOutcomes) {
    size_t stored = 0;
    tally_in.optional(K::short_name(o), stored);
    if (stored != K::count(a.tally, o)) {
      throw std::runtime_error(
          ctx + ": tally['" + K::short_name(o) + "'] says " +
          std::to_string(stored) + " but the records tally " +
          std::to_string(K::count(a.tally, o)) + " (corrupt artifact?)");
    }
  }
  tally_in.finish();
  return a;
}

template <class K>
JsonValue artifacts_to_json(const ShardBundle& bundle) {
  JsonValue list = JsonValue::array();
  for (const auto& a : bundle.*K::kBundle) {
    list.push_back(artifact_to_json<K>(a));
  }
  return list;
}

template <class K>
void artifacts_from_json(const JsonValue& list, ShardBundle& bundle) {
  const auto& items = list.items();
  (bundle.*K::kBundle).reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    (bundle.*K::kBundle).push_back(artifact_from_json<K>(items[i], i));
  }
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
  // Where the compiled-prefix cache flag was: always on, so fingerprints
  // from before the flag was removed stay valid.
  h.update_u64(1);
  // The recorder changes record contents (traces), so shards must agree.
  h.update_u64(config.flight_recorder ? 1 : 0);
  // Deliberately not hashed: config.threads — results are thread-count
  // invariant (ctest-enforced), so shards may run at different widths.
  // Likewise config.bytecode_patch: patched and recompiled boots are
  // byte-identical (ctest-enforced), so the flag only moves telemetry bits.
  return h.hex();
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

ShardArtifact run_campaign_shard(const DriverCampaignConfig& config,
                                 const std::string& label, ShardSpec spec) {
  return run_shard<MutationTraits>(config, label, spec);
}

FaultShardArtifact run_fault_campaign_shard(const FaultCampaignConfig& config,
                                            const std::string& label,
                                            ShardSpec spec) {
  return run_shard<FaultTraits>(config, label, spec);
}

// --- serialization -----------------------------------------------------------

std::string serialize_shard_bundle(const ShardBundle& bundle) {
  JsonValue root = JsonValue::object();
  root.set("format", kFormatTag);
  root.set("version", kFormatVersion);
  JsonValue shard = JsonValue::object();
  shard.set("index", static_cast<int64_t>(bundle.shard.index));
  shard.set("count", static_cast<int64_t>(bundle.shard.count));
  root.set("shard", std::move(shard));
  root.set(MutationTraits::kBundleKey, artifacts_to_json<MutationTraits>(bundle));
  // Fault campaigns ride in their own section, present only when a
  // `--faults` run produced any.
  if (!bundle.fault_campaigns.empty()) {
    root.set(FaultTraits::kBundleKey, artifacts_to_json<FaultTraits>(bundle));
  }
  // Optional embedded process telemetry (timings only — the merge
  // aggregates it but never validates against it).
  if (bundle.has_metrics) {
    root.set("metrics", process_metrics_to_json(bundle.metrics));
  }
  return to_json(root);
}

ShardBundle parse_shard_bundle(const std::string& text) {
  JsonValue root = [&] {
    try {
      return support::parse_canonical_json(text);
    } catch (const support::JsonError& e) {
      throw std::runtime_error(std::string("not a shard artifact: ") +
                               e.what());
    }
  }();
  try {
    const std::string ctx = "shard artifact";
    JsonFieldReader in(root, ctx);
    const std::string& format = in.require("format").as_string();
    if (format != kFormatTag) {
      throw std::runtime_error("not a shard artifact: format tag is '" +
                               format + "', expected '" + kFormatTag + "'");
    }
    int64_t version = in.require("version").as_int();
    if (version != kFormatVersion) {
      throw std::runtime_error("unsupported shard artifact version " +
                               std::to_string(version) + " (this build reads "
                               "version " + std::to_string(kFormatVersion) +
                               ")");
    }
    ShardBundle bundle;
    const std::string shard_ctx = "shard";
    JsonFieldReader shard(in.require("shard"), shard_ctx);
    shard.field("index", bundle.shard.index);
    shard.field("count", bundle.shard.count);
    shard.finish();
    if (bundle.shard.count == 0 || bundle.shard.index == 0 ||
        bundle.shard.index > bundle.shard.count) {
      throw std::runtime_error("shard artifact has invalid shard coordinates " +
                               bundle.shard.to_string());
    }
    artifacts_from_json<MutationTraits>(in.require(MutationTraits::kBundleKey),
                                        bundle);
    if (const JsonValue* faults = in.take(FaultTraits::kBundleKey)) {
      if (faults->items().empty()) {
        throw std::runtime_error("shard artifact: empty fault_campaigns "
                                 "section, which the writer omits (corrupt "
                                 "artifact?)");
      }
      artifacts_from_json<FaultTraits>(*faults, bundle);
    }
    if (const JsonValue* metrics = in.take("metrics")) {
      bundle.has_metrics = true;
      bundle.metrics = process_metrics_from_json(*metrics, "shard metrics");
    }
    in.finish();
    return bundle;
  } catch (const support::JsonError& e) {
    // Type errors from as_int()/as_string() on present-but-wrong fields.
    throw std::runtime_error(std::string("corrupt shard artifact: ") +
                             e.what());
  }
}

template <class Artifact>
CampaignMetricsRow shard_metrics_row(const Artifact& a) {
  using K = traits_of<Artifact>;
  // Reassemble a slice-shaped campaign result and reuse the canonical row
  // builder, so shard-local rows and full-run rows can never drift.
  typename K::Result res;
  res.set_baseline(a);
  res.tally = a.tally;
  K::unpack(res, a);
  return K::metrics_row(res, a.label, a.engine);
}
template CampaignMetricsRow shard_metrics_row(const ShardArtifact&);
template CampaignMetricsRow shard_metrics_row(const FaultShardArtifact&);

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

std::string read_artifact_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(path + ": cannot open");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error(path + ": read failed");
  }
  std::string text = std::move(buf).str();
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

void save_shard_bundle(const std::string& path, const ShardBundle& bundle) {
  write_artifact_atomically(path, serialize_shard_bundle(bundle));
}

ShardBundle load_shard_bundle(const std::string& path) {
  return load_artifact(path, parse_shard_bundle);
}

}  // namespace eval
