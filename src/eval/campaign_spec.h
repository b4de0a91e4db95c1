// The unified campaign request: one value type covering the
// driver-mutation (Tables 3/4), fault-injection and spec-mutation (Table 2)
// campaigns. The CLI flag parser and the library entry points both build on
// this one struct, so a campaign configuration has exactly one source of
// truth:
//
//  - `validate_campaign_spec` turns a bad spec into actionable diagnostics
//    before anything boots;
//  - the `driver_configs_for` / `fault_configs_for` / `spec_campaign_config_
//    for` derivations produce the per-device DriverCampaignConfig /
//    FaultCampaignConfig / SpecCampaignConfig views the kernels consume —
//    identical to what the CLI historically built by hand, so the PR 5
//    config fingerprints (eval/shard.h) are unchanged;
//  - the flag table (`campaign_spec_flags` + `find_campaign_flag` +
//    `apply_campaign_flag`) is the only place a CLI flag maps to a spec
//    field.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/drivers.h"
#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/spec_campaign.h"

namespace eval {

/// Which evaluation the spec requests: driver mutation (Tables 3/4), fault
/// injection (the --faults matrix), or Devil-spec mutation (Table 2).
enum class CampaignKind { kDriver, kFault, kSpec };

/// Stable names used in diagnostics: "driver", "fault", "spec".
[[nodiscard]] const char* campaign_kind_name(CampaignKind k);

struct CampaignSpec {
  CampaignKind kind = CampaignKind::kDriver;
  /// Corpus device filter ("all" or a device name from the kind's corpus).
  /// Spec campaigns are not device-scoped and require "all".
  std::string device = "all";
  minic::ExecEngine engine = minic::ExecEngine::kBytecodeVm;
  uint64_t seed = 20010325;
  /// Percentage of generated mutants booted; 0 keeps each corpus entry's
  /// own default (the paper's 25% for IDE, full enumeration for busmouse).
  unsigned sample_percent = 0;
  uint64_t step_budget = kDefaultStepBudget;
  bool dedup = true;
  bool bytecode_patch = true;
  bool flight_recorder = false;
  uint64_t watchdog_ms = 10'000;
  /// Worker threads per campaign (0 = all cores). Never fingerprinted:
  /// results are thread-count invariant.
  unsigned threads = 1;
  /// Fault campaigns only: trigger offsets and scenario sample percentage
  /// (FaultCampaignConfig::triggers / sample_percent).
  std::vector<uint32_t> fault_triggers = {0, 1, 2, 7};
  unsigned fault_sample_percent = 100;
  /// Spec campaigns only: survivors listed per Table 2 row.
  unsigned survivor_samples = 8;

  friend bool operator==(const CampaignSpec&, const CampaignSpec&) = default;
};

/// Diagnostics for an unusable spec, one human-readable line each; empty
/// means the spec is runnable. Checks the device filter against the kind's
/// corpus, percentage ranges, the trigger list and the step budget.
[[nodiscard]] std::vector<std::string> validate_campaign_spec(
    const CampaignSpec& spec);

/// The corpus entries the spec selects, in report order: the polled
/// mutation corpus for driver campaigns, polled + interrupt-driven for
/// fault campaigns, filtered by `spec.device`. Spec-mutation campaigns
/// iterate corpus::all_specs() instead and get an empty list here.
[[nodiscard]] std::vector<corpus::CampaignDrivers> campaign_spec_corpus(
    const CampaignSpec& spec);

/// The C and CDevil campaign configs of one corpus device.
template <class Config>
struct DeviceConfigsOf {
  Config c;
  Config cdevil;
};
using DeviceCampaignConfigs = DeviceConfigsOf<DriverCampaignConfig>;
using DeviceFaultConfigs = DeviceConfigsOf<FaultCampaignConfig>;

/// The driver-campaign configs for one corpus device, derived from the
/// spec — the exact configs the CLI historically built, so the config
/// fingerprint (eval/shard.h) is unchanged. Throws std::runtime_error
/// carrying the Devil diagnostics when the corpus spec fails to compile.
[[nodiscard]] DeviceCampaignConfigs driver_configs_for(
    const CampaignSpec& spec, const corpus::CampaignDrivers& drivers);

/// The fault-campaign sibling: the derived driver configs wrapped with the
/// spec's fault knobs.
[[nodiscard]] DeviceFaultConfigs fault_configs_for(
    const CampaignSpec& spec, const corpus::CampaignDrivers& drivers);

/// Table 2 campaign config derived from the spec (threads, dedup,
/// survivor_samples).
[[nodiscard]] SpecCampaignConfig spec_campaign_config_for(
    const CampaignSpec& spec);

/// One row of the shared flag table. `value_name` is nullptr for boolean
/// flags; `implies_campaign` marks flags whose presence switches the CLI
/// from the single-typo scenario into campaign mode (engine/telemetry
/// modifier flags do not).
struct CampaignFlag {
  const char* flag;
  const char* value_name;
  bool implies_campaign;
  const char* help;
};

/// The full table, in help order.
[[nodiscard]] const std::vector<CampaignFlag>& campaign_spec_flags();

/// Table lookup; nullptr when `flag` is not a campaign-spec flag.
[[nodiscard]] const CampaignFlag* find_campaign_flag(const std::string& flag);

/// Applies one table flag to the spec. `value` is the flag's argument
/// (ignored for boolean flags). Returns "" on success, else the diagnostic
/// for the CLI's usage error path.
[[nodiscard]] std::string apply_campaign_flag(CampaignSpec& spec,
                                              const CampaignFlag& flag,
                                              const std::string& value);

}  // namespace eval
