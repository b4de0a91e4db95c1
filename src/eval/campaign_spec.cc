#include "eval/campaign_spec.h"

#include <stdexcept>

#include "devil/compiler.h"
#include "eval/device_bindings.h"

namespace eval {

namespace {

/// Strict decimal parse for flag values: digits only, bounded length, so a
/// leading '-' or a stray suffix is a usage error and never wraps or
/// truncates. Returns false on anything else.
bool parse_count(const std::string& text, size_t max_digits, uint64_t* out) {
  if (text.empty() || text.size() > max_digits) return false;
  if (text.find_first_not_of("0123456789") != std::string::npos) return false;
  uint64_t v = 0;
  for (char c : text) v = v * 10 + static_cast<uint64_t>(c - '0');
  *out = v;
  return true;
}

bool parse_trigger_list(const std::string& text, std::vector<uint32_t>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    uint64_t v = 0;
    if (!parse_count(text.substr(pos, comma - pos), 6, &v)) return false;
    out->push_back(static_cast<uint32_t>(v));
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  return !out->empty();
}

/// Fills the fields DriverCampaignConfig shares across the C and CDevil
/// variants of one corpus entry.
void fill_common(const CampaignSpec& spec,
                 const corpus::CampaignDrivers& drivers,
                 DriverCampaignConfig* cfg) {
  cfg->device = binding_for(drivers.device);
  cfg->sample_percent = spec.sample_percent == 0 ? drivers.sample_percent
                                                 : spec.sample_percent;
  cfg->seed = spec.seed;
  cfg->step_budget = spec.step_budget;
  cfg->watchdog_ms = spec.watchdog_ms;
  cfg->threads = spec.threads;
  cfg->engine = spec.engine;
  cfg->dedup = spec.dedup;
  cfg->prefix_cache = spec.prefix_cache;
  cfg->bytecode_patch = spec.bytecode_patch;
  cfg->flight_recorder = spec.flight_recorder;
}

}  // namespace

const char* campaign_kind_name(CampaignKind k) {
  switch (k) {
    case CampaignKind::kDriver: return "driver";
    case CampaignKind::kFault: return "fault";
    case CampaignKind::kSpec: return "spec";
  }
  return "?";
}

std::vector<corpus::CampaignDrivers> campaign_spec_corpus(
    const CampaignSpec& spec) {
  std::vector<corpus::CampaignDrivers> all;
  if (spec.kind == CampaignKind::kSpec) return all;
  all = corpus::campaign_drivers();
  if (spec.kind == CampaignKind::kFault) {
    const auto& irq = corpus::irq_campaign_drivers();
    all.insert(all.end(), irq.begin(), irq.end());
  }
  if (spec.device == "all") return all;
  std::vector<corpus::CampaignDrivers> selected;
  for (const auto& drivers : all) {
    if (spec.device == drivers.device) selected.push_back(drivers);
  }
  return selected;
}

std::vector<std::string> validate_campaign_spec(const CampaignSpec& spec) {
  std::vector<std::string> diags;
  if (spec.kind == CampaignKind::kSpec) {
    if (spec.device != "all") {
      diags.push_back("spec campaigns are not device-scoped: --device must "
                      "stay 'all', got '" + spec.device + "'");
    }
  } else if (spec.device != "all" && campaign_spec_corpus(spec).empty()) {
    std::string known = "all";
    for (const auto& drivers : campaign_spec_corpus(CampaignSpec{
             spec.kind, "all"})) {
      known += std::string(", ") + drivers.device;
    }
    diags.push_back("unknown device '" + spec.device + "' for " +
                    campaign_kind_name(spec.kind) + " campaigns (known: " +
                    known + ")");
  }
  if (spec.sample_percent > 100) {
    diags.push_back("sample_percent must be 0-100 (0 = per-corpus default), "
                    "got " + std::to_string(spec.sample_percent));
  }
  if (spec.step_budget == 0) {
    diags.push_back("step_budget must be >= 1");
  }
  if (spec.fault_sample_percent == 0 || spec.fault_sample_percent > 100) {
    diags.push_back("fault_sample_percent must be 1-100, got " +
                    std::to_string(spec.fault_sample_percent));
  }
  if (spec.fault_triggers.empty()) {
    diags.push_back("fault_triggers must name at least one trigger offset");
  }
  return diags;
}

DeviceCampaignConfigs driver_configs_for(
    const CampaignSpec& spec, const corpus::CampaignDrivers& drivers) {
  DeviceCampaignConfigs out;
  out.c = DriverCampaignConfig{};
  out.c.driver = drivers.c_driver();
  fill_common(spec, drivers, &out.c);

  auto compiled = devil::compile_spec(drivers.spec_file, drivers.spec(),
                                      devil::CodegenMode::kDebug);
  if (!compiled.ok()) {
    throw std::runtime_error("corpus spec '" + std::string(drivers.spec_file) +
                             "' failed to compile:\n" +
                             compiled.diags.render());
  }
  out.cdevil = DriverCampaignConfig{};
  out.cdevil.stubs = compiled.stubs;
  out.cdevil.driver = drivers.cdevil_driver();
  out.cdevil.is_cdevil = true;
  fill_common(spec, drivers, &out.cdevil);
  return out;
}

DeviceFaultConfigs fault_configs_for(const CampaignSpec& spec,
                                     const corpus::CampaignDrivers& drivers) {
  DeviceCampaignConfigs base = driver_configs_for(spec, drivers);
  DeviceFaultConfigs out;
  out.c.base = std::move(base.c);
  out.c.triggers = spec.fault_triggers;
  out.c.sample_percent = spec.fault_sample_percent;
  out.cdevil.base = std::move(base.cdevil);
  out.cdevil.triggers = spec.fault_triggers;
  out.cdevil.sample_percent = spec.fault_sample_percent;
  return out;
}

SpecCampaignConfig spec_campaign_config_for(const CampaignSpec& spec) {
  SpecCampaignConfig cfg;
  cfg.max_survivor_samples = spec.survivor_samples;
  cfg.threads = spec.threads;
  cfg.dedup = spec.dedup;
  return cfg;
}

const std::vector<CampaignFlag>& campaign_spec_flags() {
  static const std::vector<CampaignFlag> flags = {
      {"--faults", nullptr, true,
       "run the fault-injection campaigns instead"},
      {"--spec-campaign", nullptr, true,
       "run the Table 2 Devil-spec mutation campaigns"},
      {"--device", "NAME", true, "campaign device (default: all)"},
      {"--threads", "N", true, "worker threads (0 = all cores)"},
      {"--walker", nullptr, false, "use the tree-walker oracle engine"},
      {"--seed", "N", true, "campaign sampling seed"},
      {"--sample-percent", "N", true,
       "percent of mutants booted (0 = per-corpus default)"},
      {"--step-budget", "N", true, "interpreter steps per boot"},
      {"--no-dedup", nullptr, true, "disable canonical token-class dedup"},
      {"--no-prefix-cache", nullptr, true,
       "disable the compiled-prefix cache"},
      {"--no-bytecode-patch", nullptr, false,
       "recompile every mutant instead of patching bytecode"},
      {"--flight-recorder", nullptr, false,
       "attach port-access post-mortems to non-clean records"},
      {"--watchdog-ms", "N", false,
       "wall-clock cap per boot in milliseconds (0 = off)"},
      {"--fault-triggers", "A,B,..", true,
       "fault-campaign trigger offsets (default 0,1,2,7)"},
      {"--fault-sample-percent", "N", true,
       "percent of the fault-scenario matrix booted"},
      {"--survivor-samples", "N", true,
       "survivors listed per Table 2 row (spec campaigns)"},
  };
  return flags;
}

const CampaignFlag* find_campaign_flag(const std::string& flag) {
  for (const CampaignFlag& f : campaign_spec_flags()) {
    if (flag == f.flag) return &f;
  }
  return nullptr;
}

std::string apply_campaign_flag(CampaignSpec& spec, const CampaignFlag& flag,
                                const std::string& value) {
  const std::string name = flag.flag;
  auto kind_conflict = [&](CampaignKind requested) -> std::string {
    if (spec.kind == CampaignKind::kDriver || spec.kind == requested) {
      spec.kind = requested;
      return "";
    }
    return std::string("--faults and --spec-campaign pick different "
                       "campaigns; use one of them");
  };
  uint64_t n = 0;
  if (name == "--faults") return kind_conflict(CampaignKind::kFault);
  if (name == "--spec-campaign") return kind_conflict(CampaignKind::kSpec);
  if (name == "--device") {
    spec.device = value;
    return "";
  }
  if (name == "--walker") {
    spec.engine = minic::ExecEngine::kTreeWalker;
    return "";
  }
  if (name == "--threads") {
    // Digits only: strtoul would silently wrap a leading '-' and clamp
    // out-of-range values, defeating the strict parser. A worker count
    // never needs more than 4 digits.
    if (!parse_count(value, 4, &n)) {
      return "--threads: '" + value +
             "' is not a thread count (0-9999; 0 = all cores)";
    }
    spec.threads = static_cast<unsigned>(n);
    return "";
  }
  if (name == "--seed") {
    if (!parse_count(value, 18, &n)) {
      return "--seed: '" + value + "' is not a seed (up to 18 digits)";
    }
    spec.seed = n;
    return "";
  }
  if (name == "--sample-percent") {
    if (!parse_count(value, 3, &n) || n > 100) {
      return "--sample-percent: '" + value +
             "' is not a percentage (0-100; 0 = per-corpus default)";
    }
    spec.sample_percent = static_cast<unsigned>(n);
    return "";
  }
  if (name == "--step-budget") {
    if (!parse_count(value, 12, &n) || n == 0) {
      return "--step-budget: '" + value +
             "' is not a step budget (1-999999999999)";
    }
    spec.step_budget = n;
    return "";
  }
  if (name == "--no-dedup") {
    spec.dedup = false;
    return "";
  }
  if (name == "--no-prefix-cache") {
    spec.prefix_cache = false;
    return "";
  }
  if (name == "--no-bytecode-patch") {
    spec.bytecode_patch = false;
    return "";
  }
  if (name == "--flight-recorder") {
    spec.flight_recorder = true;
    return "";
  }
  if (name == "--watchdog-ms") {
    if (!parse_count(value, 8, &n)) {
      return "--watchdog-ms: '" + value +
             "' is not a millisecond count (0-99999999; 0 disables the "
             "watchdog)";
    }
    spec.watchdog_ms = n;
    return "";
  }
  if (name == "--fault-triggers") {
    if (!parse_trigger_list(value, &spec.fault_triggers)) {
      return "--fault-triggers: '" + value +
             "' is not a comma-separated offset list (e.g. 0,1,2,7)";
    }
    return "";
  }
  if (name == "--fault-sample-percent") {
    if (!parse_count(value, 3, &n) || n == 0 || n > 100) {
      return "--fault-sample-percent: '" + value +
             "' is not a percentage (1-100)";
    }
    spec.fault_sample_percent = static_cast<unsigned>(n);
    return "";
  }
  if (name == "--survivor-samples") {
    if (!parse_count(value, 4, &n)) {
      return "--survivor-samples: '" + value + "' is not a count (0-9999)";
    }
    spec.survivor_samples = static_cast<unsigned>(n);
    return "";
  }
  return "unhandled campaign flag '" + name + "'";
}

}  // namespace eval
