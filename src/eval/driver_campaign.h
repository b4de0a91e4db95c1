// Tables 3/4 campaign: mutate a driver, compile each mutant, boot the
// survivors against a simulated device model, classify the outcome.
//
// The kernel is device-agnostic: everything device-specific — which model
// to construct, where it sits on the port bus, which entry point boots the
// driver — comes in through `DeviceBinding`. The standard bindings (and the
// historical IDE-named compat wrapper) live in eval/device_bindings.h, the
// only campaign file that names concrete devices.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eval/outcome.h"
#include "hw/device_pool.h"
#include "hw/fault_injection.h"
#include "hw/io_bus.h"
#include "minic/program.h"
#include "mutation/site.h"
#include "support/metrics.h"

namespace eval {

/// Interpreter steps per campaign boot unless the caller overrides it.
inline constexpr uint64_t kDefaultStepBudget = 3'000'000;

/// Binds a campaign to one device model: the port window the device claims
/// on the simulated bus, how to construct it, and the boot entry point its
/// drivers implement. Devices are recycled between mutant boots through a
/// reset-based `hw::DevicePool`, so `make_device` must return power-on-state
/// instances and the model's `reset()` must restore that state (cheaply —
/// the hw models keep a dirty bit so clean recycles are a register wipe).
struct DeviceBinding {
  /// Short device name used in diagnostics and reports ("ide", "busmouse").
  std::string device;
  /// I/O window mapped as [port_base, port_base + port_span).
  uint32_t port_base = 0;
  uint32_t port_span = 0;
  /// Default boot entry point for this device's drivers; used when
  /// DriverCampaignConfig::entry is empty.
  std::string entry;
  /// IRQ line the device raises on, or -1 for a purely polled binding.
  /// Event-driven bindings also get the IRQ status window
  /// (hw::IrqStatusPort at hw::kIrqStatusPortBase) mapped per boot.
  int irq_line = -1;
  /// Constructs a power-on-state device. Must be thread-safe: the pool
  /// invokes it concurrently from campaign workers.
  hw::DevicePool::Factory make_device;

  [[nodiscard]] bool ok() const { return make_device != nullptr; }
};

/// Maps `dev` (the outermost shim of a boot's device stack) at the binding's
/// port window, wiring the binding's IRQ line when it has one — and then the
/// IRQ status window, so drivers can read the in-service bitmap. Every
/// campaign boot goes through this so polled and event-driven bindings stay
/// interchangeable.
void map_bound_device(hw::IoBus& bus, const DeviceBinding& binding,
                      std::shared_ptr<hw::Device> dev);

struct DriverCampaignConfig {
  /// Generated Devil stubs, prepended to the driver. Empty for the plain C
  /// driver.
  std::string stubs;
  /// The driver translation unit that gets mutated (contains MUT markers).
  std::string driver;
  std::string unit_name = "driver.c";
  /// Boot entry point; empty derives the binding's default entry.
  std::string entry;
  /// The device under test. Must be populated (see eval/device_bindings.h
  /// for the standard bindings); run_driver_campaign throws otherwise.
  DeviceBinding device;
  /// True when identifier classes should be derived from the Devil stubs.
  bool is_cdevil = false;

  /// The paper tests a random 25% of the generated mutants (§4.2).
  unsigned sample_percent = 25;
  uint64_t seed = 20010325;  // deterministic campaigns; any seed works
  uint64_t step_budget = kDefaultStepBudget;
  /// Wall-clock cap per boot in milliseconds; 0 disables the watchdog. A
  /// trip classifies as a hang (mutation: infinite loop; fault campaign:
  /// hang) and bumps the watchdog_trips timing counter. Deliberately NOT
  /// part of the campaign fingerprint: the deterministic step budget always
  /// bounds a boot first unless the host wedges, so the cap only contains
  /// pathological wall time and never changes deterministic results.
  uint64_t watchdog_ms = 10'000;
  /// Worker threads booting mutants; 0 = hardware_concurrency. Results are
  /// identical at any thread count (records stay in mutant-index order and
  /// the tally is reduced after the join).
  unsigned threads = 1;
  /// Execution engine for mutant boots. Both engines yield byte-identical
  /// campaign results (ctest-enforced); the bytecode VM is the fast
  /// default, the tree walker the differential oracle.
  minic::ExecEngine engine = minic::ExecEngine::kBytecodeVm;
  /// Skip compiling/booting mutants whose spliced unit lexes to a token
  /// stream already seen this campaign (canonical token-class hash:
  /// token kinds, values and lines, plus macro-use lines). Duplicates stay
  /// visible in the records — classified against their own site from the
  /// representative's boot — and tallies are unchanged.
  bool dedup = true;
  /// Compile mutants through the compiled-prefix cache: the invariant stub
  /// prefix is parsed, typechecked and lowered once per campaign
  /// (`minic::prepare_prefix` stage 1) and every mutant compiles only the
  /// driver tail — splicing the cached bytecode segment on the VM engine,
  /// layering the tail unit over the prefix unit on the tree walker
  /// (`minic::check_tail` + `run_tail_unit`). Byte-identical records either
  /// way (ctest-enforced). `prefix_cache_hits` still counts only bytecode
  /// tail splices; walker layering is not a segment splice.
  bool prefix_cache = true;
  /// Boot token-local mutants from a patched copy of the clean tail
  /// bytecode (minic::bytecode::Patcher) instead of re-running the front
  /// end. Only effective with the prefix cache on the VM engine. Patched
  /// and recompiled boots are byte-identical (ctest-enforced), so this flag
  /// is deliberately NOT part of the campaign fingerprint — like `threads`,
  /// it can never change records or tallies, only `patched`/`patch_fallback`
  /// telemetry bits.
  bool bytecode_patch = true;
  /// Wrap every boot's device in a `hw::FlightRecorder` and attach the
  /// rendered port-access tail to each non-clean record (`MutantRecord::
  /// trace`). Off by default — it is part of the campaign fingerprint, so
  /// shards must agree on it. Traces are engine-invariant (the step-stamped
  /// charge discipline is) and deterministic at any thread count.
  bool flight_recorder = false;
};

struct MutantRecord {
  size_t mutant_index = 0;  // into the full mutant list
  size_t site = 0;
  Outcome outcome = Outcome::kCompileTime;
  std::string detail;       // fault message / diagnostic code, when any
  /// True when this mutant's unit was a canonical duplicate: its outcome
  /// was classified from the representative's boot without recompiling.
  bool deduped = false;
  /// Interpreter steps the boot retired (0 for compile-time outcomes;
  /// duplicates carry their representative's — identical — count).
  uint64_t steps = 0;
  /// Flight-recorder post-mortem: the rendered tail of port accesses, only
  /// for non-clean boots and only when the config enables the recorder.
  std::string trace;
  /// True when this mutant booted a patched copy of the clean tail bytecode
  /// (no per-mutant front end ran). Telemetry only — the boot itself is
  /// byte-identical to a recompiled one.
  bool patched = false;
  /// True when patching was enabled for the campaign but this mutant was
  /// structure-changing (or otherwise ineligible) and recompiled instead.
  /// Duplicates carry neither bit: they never boot at all.
  bool patch_fallback = false;
};

/// What a campaign knows of its unmutated driver, shared by the results and
/// shard artifacts of both boot campaigns: the device and entry it ran
/// against (echoed so reports can label tables per device), the clean boot
/// fingerprint, and the steps the baseline boot retired with its per-opcode
/// dispatch profile (bytecode engine only; all-zero on the walker). The
/// telemetry is deterministic: every shard recomputes the same values, and
/// merge validation rejects disagreement.
struct CampaignBaseline {
  std::string device;
  std::string entry;
  int64_t clean_fingerprint = 0;
  uint64_t baseline_steps = 0;
  minic::bytecode::OpcodeProfile baseline_opcodes;

  /// Copies these fields from another result or artifact of the campaign.
  void set_baseline(const CampaignBaseline& from) { *this = from; }
};

struct DriverCampaignResult : CampaignBaseline {
  size_t total_sites = 0;
  size_t total_mutants = 0;    // before sampling
  size_t sampled_mutants = 0;
  size_t deduped_mutants = 0;  // sampled mutants that skipped compile+boot
  /// Mutants compiled through the per-campaign compiled-prefix cache
  /// (tail-only parse/typecheck/lower spliced onto the shared segment).
  size_t prefix_cache_hits = 0;
  /// Mutants booted from a patched clean-tail module (sum of the records'
  /// `patched` bits) vs mutants that fell back to a recompile while
  /// patching was enabled (`patch_fallback` bits). Both zero when
  /// `bytecode_patch` was off or the campaign could not build a patcher.
  size_t patch_hits = 0;
  size_t patch_fallbacks = 0;
  Tally tally;
  std::vector<MutantRecord> records;  // one per sampled mutant
};

/// One contiguous slice of the sampled mutant sequence, in sample order:
/// slice `index` of `count` covers sample positions
/// [sample_slice_bounds(S, slice)) of the S sampled mutants. The default
/// {0, 1} is the whole sample. Slicing never changes which mutants are
/// sampled — every slice derives the full deterministic sample and takes
/// its subrange, so N slices tile the unsharded campaign exactly.
struct SampleSlice {
  size_t index = 0;
  size_t count = 1;
};

/// Floor partition of `sample_size` positions into `slice.count` contiguous
/// ranges: [begin, end) for `slice.index`. Slices differ in size by at most
/// one; when count > sample_size some slices are empty.
[[nodiscard]] inline std::pair<size_t, size_t> sample_slice_bounds(
    size_t sample_size, SampleSlice slice) {
  return {sample_size * slice.index / slice.count,
          sample_size * (slice.index + 1) / slice.count};
}

/// Per-record sideband a shard artifact (eval/shard.h) needs beyond the
/// MutantRecords: which records compiled through the prefix cache, and the
/// canonical dedup-key hash of each record so a merge can re-dedup across
/// shards. Vectors are indexed like DriverCampaignResult::records;
/// `canonical_hash` is empty when the config has dedup off.
struct CampaignSideband {
  size_t sample_size = 0;   // full sample size, before slicing
  size_t slice_begin = 0;   // this run's slice, in sample positions
  size_t slice_end = 0;
  std::vector<uint8_t> prefix_cache_hit;
  std::vector<std::pair<uint64_t, uint64_t>> canonical_hash;
};

/// The buckets a boot campaign sorts a finished, faulty boot into.
template <class O>
struct BootBuckets {
  O assertion;  // a Devil assertion fired
  O panic;      // the driver's own sanity check panicked
  O hang;       // step budget exhausted, or the wall-clock watchdog tripped
  O crash;      // bus fault, bad index, division by zero, stack overflow
  O damaged;    // completed, but with device damage or a wrong fingerprint
};

/// Sorts a completed boot of either campaign kind into `buckets`, setting
/// `outcome` and `detail`, and returns true; returns false, touching
/// neither, for a clean boot (no fault, no device damage, the clean
/// fingerprint). A watchdog trip is counted in support::Metrics.
template <class O>
bool classify_boot(const minic::RunOutcome& run, const hw::Device& dev,
                   int64_t clean_fingerprint, const BootBuckets<O>& buckets,
                   O& outcome, std::string& detail) {
  switch (run.fault) {
    case minic::FaultKind::kNone:
      if (!dev.damaged() && run.return_value == clean_fingerprint) {
        return false;
      }
      outcome = buckets.damaged;
      detail = dev.damaged() ? dev.damage_note() : "wrong boot fingerprint";
      return true;
    case minic::FaultKind::kDevilAssertion:
      outcome = buckets.assertion;
      break;
    case minic::FaultKind::kPanic:
      outcome = buckets.panic;
      break;
    case minic::FaultKind::kWatchdog:
      // Same bucket as the step budget, but counted: the trip depends on
      // host speed.
      support::Metrics::add_watchdog_trip();
      [[fallthrough]];
    case minic::FaultKind::kStepLimit:
      outcome = buckets.hang;
      break;
    case minic::FaultKind::kBusFault:
    case minic::FaultKind::kDivByZero:
    case minic::FaultKind::kBadIndex:
    case minic::FaultKind::kStackOverflow:
      outcome = buckets.crash;
      break;
    case minic::FaultKind::kInternal:
      throw std::logic_error("unclassifiable fault kind");
  }
  detail = run.fault_message;
  return true;
}

/// The checked starting point of both boot campaigns (this file's and
/// eval/fault_campaign.h's): the slice, device binding and entry are valid,
/// the stubs lex, the unmutated driver compiles (and, on the VM, is lowered
/// once), and one boot on healthy hardware returns a positive fingerprint
/// without faulting or damaging the device.
struct CleanBaseline : CampaignBaseline {
  const DriverCampaignConfig* config = nullptr;
  std::string who;  // diagnostic prefix, "<kind> campaign [<device>]: "
  minic::PreparedPrefix prefix;    // stubs lexed (and compiled) once
  minic::Program program;          // the unmutated driver
  minic::bytecode::Module module;  // `program` lowered; VM engine only
  /// What the baseline boot's traffic would trigger; filled on request.
  hw::AccessCensus census;

  /// Boots the unmutated driver on `bus` at the resolved entry under the
  /// config's engine, step budget and watchdog (`profile` is only filled
  /// on the VM).
  [[nodiscard]] minic::RunOutcome boot(
      hw::IoBus& bus, minic::bytecode::OpcodeProfile* profile = nullptr) const;
};

/// Builds the CleanBaseline of `config` for one slice, drawing devices from
/// `pool` (whose factory it sets). `kind` names the campaign in
/// diagnostics; `take_census` wraps the baseline boot's device in an
/// hw::AccessCensusShim. Throws std::logic_error naming the device and
/// entry when any precondition fails.
[[nodiscard]] CleanBaseline prepare_clean_baseline(
    const DriverCampaignConfig& config, SampleSlice slice, const char* kind,
    hw::DevicePool& pool, bool take_census);

/// Runs the campaign against the configured device binding. Preconditions
/// (std::logic_error naming the device and entry otherwise): the binding is
/// populated, and the unmutated unit compiles, boots without fault or
/// device damage, and returns a positive fingerprint.
[[nodiscard]] DriverCampaignResult run_driver_campaign(
    const DriverCampaignConfig& config);

/// Sliced variant: the full campaign prepared identically (baseline boot,
/// site scan, deterministic sample), but only the mutants in `slice` are
/// deduped, compiled and booted. Dedup is slice-local: canonical duplicates
/// are only detected within the slice, so `deduped_mutants`,
/// `prefix_cache_hits`, the records' `deduped` flags and the tally are
/// slice-local too (eval/merge.h re-dedups across slices so a merged run
/// is byte-identical to the unsharded one). `sampled_mutants` is the slice
/// record count; the sideband (optional) reports the global sample size.
/// The {0, 1} slice is exactly run_driver_campaign.
[[nodiscard]] DriverCampaignResult run_driver_campaign_slice(
    const DriverCampaignConfig& config, SampleSlice slice,
    CampaignSideband* sideband = nullptr);

/// Classifies one already-compiled-or-failed mutant run; exposed for tests.
[[nodiscard]] const char* outcome_short(Outcome o);

}  // namespace eval
