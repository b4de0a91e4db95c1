// Fault-scenario campaigns: the dual of the Tables 3/4 mutation study. The
// driver stays clean and the *device* misbehaves — a deterministic matrix
// of hardware fault scenarios (hw/fault_injection.h) is booted against each
// device's C and CDevil drivers, and the outcomes are bucketed the way the
// paper buckets mutant boots: caught by a Devil check, caught by the
// driver's own panic path, crash, hang, or a silent boot with corrupted
// device state.
//
// The kernel reuses the whole mutation-campaign machinery: the same
// `DeviceBinding`/`DevicePool` plumbing, the same deterministic
// `parallel_for` map-reduce (per-index record writes, tally reduced after
// the join), and the same slice arithmetic — so fault campaigns are
// byte-identical across thread counts, execution engines and process-level
// shards (eval/shard.h) exactly like mutation campaigns.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "eval/driver_campaign.h"
#include "hw/fault_injection.h"

namespace eval {

/// Outcome buckets for one clean-driver boot under an injected hardware
/// fault, in the paper's style (detected / visible failure / silent).
enum class FaultOutcome {
  kDevilCheck,   // a generated Devil assertion caught the bad hardware
  kDriverPanic,  // the driver's own sanity check panicked
  kCrash,        // kernel crash (bus fault, bad index, ...)
  kHang,         // boot never completes (step budget exhausted)
  kCorruptBoot,  // boot "succeeds" but the system is visibly wrong:
                 // device damage or a wrong boot fingerprint
  kCleanBoot,    // boot completes correctly (fault untriggered or absorbed)
};

[[nodiscard]] const char* fault_outcome_name(FaultOutcome o);
/// Short stable name used in shard artifacts ("devil-check", "hang", ...).
[[nodiscard]] const char* fault_outcome_short(FaultOutcome o);

/// Aggregated campaign tally: scenarios per outcome plus the distinct
/// faulted ports contributing to each outcome (the per-port analogue of the
/// mutation tables' "mutation sites" column).
struct FaultTally {
  std::map<FaultOutcome, size_t> scenarios;
  std::map<FaultOutcome, std::set<uint32_t>> ports;
  size_t total = 0;

  void add(FaultOutcome o, uint32_t port) {
    ++scenarios[o];
    ports[o].insert(port);
    ++total;
  }
  [[nodiscard]] size_t scenarios_of(FaultOutcome o) const {
    auto it = scenarios.find(o);
    return it == scenarios.end() ? 0 : it->second;
  }
  [[nodiscard]] size_t ports_of(FaultOutcome o) const {
    auto it = ports.find(o);
    return it == ports.end() ? 0 : it->second.size();
  }
  /// Detected before the system limps on: a Devil check or the driver's
  /// own panic path named the problem.
  [[nodiscard]] size_t detected() const {
    return scenarios_of(FaultOutcome::kDevilCheck) +
           scenarios_of(FaultOutcome::kDriverPanic);
  }
};

/// One scenario's outcome. `scenario_index` points into the full generated
/// matrix (fault_scenario_matrix), `triggered` says whether the fault ever
/// fired during the boot — an untriggered scenario always boots clean, so
/// the campaign writes its record from the baseline without booting it.
struct FaultRecord {
  size_t scenario_index = 0;
  hw::FaultPlan plan;
  FaultOutcome outcome = FaultOutcome::kCleanBoot;
  std::string detail;  // fault message / damage note, when any
  bool triggered = false;
  /// Interpreter steps the boot retired.
  uint64_t steps = 0;
  /// Flight-recorder post-mortem (non-clean outcomes, recorder enabled via
  /// DriverCampaignConfig::flight_recorder on the base config). The recorder
  /// wraps *outside* the fault injector, so the trace shows the faulted
  /// values the driver actually saw.
  std::string trace;
};

struct FaultCampaignConfig {
  /// Driver, stubs, device binding, entry, engine, threads, step budget and
  /// seed come from the embedded mutation-campaign config; its
  /// mutation-only knobs (sample_percent, dedup, prefix_cache) are ignored
  /// here but still pinned by the shard fingerprint.
  DriverCampaignConfig base;
  /// Trigger offsets: every (port, kind, mask) cell of the matrix is
  /// instantiated once per offset, arming the fault on the (offset+1)-th
  /// matching access. The defaults probe the first accesses plus a later
  /// one so polling loops and re-reads get distinct scenarios.
  std::vector<uint32_t> triggers = {0, 1, 2, 7};
  /// Percentage of the scenario matrix booted, sampled deterministically
  /// from a seed folded over the device shape only (never the driver
  /// text), so a device's C and CDevil campaigns boot the same scenarios.
  unsigned sample_percent = 100;
};

struct FaultCampaignResult : CampaignBaseline {
  size_t total_scenarios = 0;      // full matrix, before sampling
  size_t sampled_scenarios = 0;    // records in this result
  size_t triggered_scenarios = 0;  // records whose fault actually fired
  FaultTally tally;
  std::vector<FaultRecord> records;  // in sampled-scenario order
};

/// The deterministic scenario matrix for one device window: for every port
/// in [port_base, port_base + port_span), every fault kind — the three
/// bit-level kinds (stuck-at-0, stuck-at-1, flip-once) over each of the 8
/// low bit masks, then drop-write, floating-bus and never-ready(0) — each
/// instantiated per trigger offset. Event-driven bindings (irq_line >= 0)
/// append event rows after the port rows: lost / spurious / storm(8) /
/// delay(1000 steps) per trigger offset, with `plan.port` naming the IRQ
/// line. Enumeration order is fixed and part of the artifact contract
/// (scenario_index identifies a scenario).
[[nodiscard]] std::vector<hw::FaultPlan> fault_scenario_matrix(
    const DeviceBinding& device, const std::vector<uint32_t>& triggers);

/// The scenario-sampling seed: folded over the device shape (name, port
/// window), the trigger list and the base seed — deliberately NOT the
/// driver or stub text, so the C and CDevil campaigns of one device sample
/// identical scenario subsets and stay comparable.
[[nodiscard]] uint64_t fault_scenario_seed(const FaultCampaignConfig& config);

/// Runs the full fault campaign. Preconditions mirror run_driver_campaign
/// (std::logic_error naming the device otherwise): populated binding, and a
/// clean driver that compiles, boots fault-free without device damage, and
/// returns a positive fingerprint. The fault-free baseline boot takes an
/// access census (hw::AccessCensus); only the scenarios it says fire are
/// booted, and each of those must fire (std::logic_error otherwise).
[[nodiscard]] FaultCampaignResult run_fault_campaign(
    const FaultCampaignConfig& config);

/// Sliced variant for process-level sharding: identical preparation, but
/// only the sampled scenarios in `slice` are booted. The sideband
/// (optional) reports the global sample size and slice bounds; its
/// dedup/cache vectors stay empty (fault scenarios are never deduped). The
/// {0, 1} slice is exactly run_fault_campaign.
[[nodiscard]] FaultCampaignResult run_fault_campaign_slice(
    const FaultCampaignConfig& config, SampleSlice slice,
    CampaignSideband* sideband = nullptr);

}  // namespace eval
