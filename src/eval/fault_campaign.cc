#include "eval/fault_campaign.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "hw/flight_recorder.h"
#include "hw/io_bus.h"
#include "support/metrics.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"

namespace eval {

const char* fault_outcome_name(FaultOutcome o) {
  switch (o) {
    case FaultOutcome::kDevilCheck: return "Devil check";
    case FaultOutcome::kDriverPanic: return "Driver panic";
    case FaultOutcome::kCrash: return "Crash";
    case FaultOutcome::kHang: return "Hang";
    case FaultOutcome::kCorruptBoot: return "Corrupt boot";
    case FaultOutcome::kCleanBoot: return "Clean boot";
  }
  return "?";
}

const char* fault_outcome_short(FaultOutcome o) {
  switch (o) {
    case FaultOutcome::kDevilCheck: return "devil-check";
    case FaultOutcome::kDriverPanic: return "panic";
    case FaultOutcome::kCrash: return "crash";
    case FaultOutcome::kHang: return "hang";
    case FaultOutcome::kCorruptBoot: return "corrupt";
    case FaultOutcome::kCleanBoot: return "clean";
  }
  return "?";
}

namespace {

constexpr BootBuckets<FaultOutcome> kBuckets{
    FaultOutcome::kDevilCheck, FaultOutcome::kDriverPanic, FaultOutcome::kHang,
    FaultOutcome::kCrash, FaultOutcome::kCorruptBoot};

}  // namespace

std::vector<hw::FaultPlan> fault_scenario_matrix(
    const DeviceBinding& device, const std::vector<uint32_t>& triggers) {
  std::vector<hw::FaultPlan> plans;
  plans.reserve((static_cast<size_t>(device.port_span) * (3 * 8 + 3) +
                 (device.irq_line >= 0 ? 4 : 0)) *
                triggers.size());
  for (uint32_t offset = 0; offset < device.port_span; ++offset) {
    const uint32_t port = device.port_base + offset;
    // Bit-level kinds: every single-bit mask of the 8-bit register file.
    for (hw::FaultKind kind : {hw::FaultKind::kStuckZero,
                               hw::FaultKind::kStuckOne,
                               hw::FaultKind::kFlipOnce}) {
      for (uint32_t bit = 0; bit < 8; ++bit) {
        for (uint32_t after : triggers) {
          hw::FaultPlan plan;
          plan.port = port;
          plan.kind = kind;
          plan.after = after;
          plan.mask = 1u << bit;
          plans.push_back(plan);
        }
      }
    }
    // Whole-port kinds.
    for (hw::FaultKind kind : {hw::FaultKind::kDropWrite,
                               hw::FaultKind::kFloatingBus,
                               hw::FaultKind::kNeverReady}) {
      for (uint32_t after : triggers) {
        hw::FaultPlan plan;
        plan.port = port;
        plan.kind = kind;
        plan.after = after;
        plans.push_back(plan);  // kNeverReady freezes reads at value 0
      }
    }
  }
  // Event rows, appended after the port rows so existing scenario indices
  // (part of the artifact contract) are untouched for polled bindings. For
  // the event kinds `plan.port` names the IRQ line; `after` counts genuine
  // raises on it (spurious: device accesses); `value` carries the storm
  // repeat count / delivery delay.
  if (device.irq_line >= 0) {
    for (hw::FaultKind kind : {hw::FaultKind::kLostIrq,
                               hw::FaultKind::kSpuriousIrq,
                               hw::FaultKind::kIrqStorm,
                               hw::FaultKind::kDelayIrq}) {
      for (uint32_t after : triggers) {
        hw::FaultPlan plan;
        plan.port = static_cast<uint32_t>(device.irq_line);
        plan.kind = kind;
        plan.after = after;
        if (kind == hw::FaultKind::kIrqStorm) plan.value = 8;
        if (kind == hw::FaultKind::kDelayIrq) plan.value = 1000;
        plans.push_back(plan);
      }
    }
  }
  return plans;
}

uint64_t fault_scenario_seed(const FaultCampaignConfig& config) {
  // Device shape only — never the driver or stub text — so the C and CDevil
  // campaigns of one device sample identical scenario subsets.
  support::Fnv128 h;
  h.update_field("devil-repro-fault-seed-v1");
  h.update_field(config.base.device.device);
  h.update_u64(config.base.device.port_base);
  h.update_u64(config.base.device.port_span);
  // Folded only for event-driven bindings so polled-device seeds (and the
  // scenario subsets of already-published artifacts) stay byte-identical.
  if (config.base.device.irq_line >= 0) {
    h.update_u64(static_cast<uint64_t>(config.base.device.irq_line));
  }
  h.update_u64(config.triggers.size());
  for (uint32_t t : config.triggers) h.update_u64(t);
  h.update_u64(config.sample_percent);
  h.update_u64(config.base.seed);
  auto [hi, lo] = h.digest();
  return hi ^ lo;
}

FaultCampaignResult run_fault_campaign(const FaultCampaignConfig& config) {
  return run_fault_campaign_slice(config, SampleSlice{});
}

FaultCampaignResult run_fault_campaign_slice(const FaultCampaignConfig& config,
                                             SampleSlice slice,
                                             CampaignSideband* sideband) {
  const DriverCampaignConfig& base = config.base;
  // The driver is never mutated here: one compile (and, on the VM, one
  // lowering), shared read-only by every scenario worker — each boot builds
  // its own engine state over the const unit or module, so concurrent boots
  // are safe. The baseline boot's census decides below which scenarios
  // need a boot at all.
  hw::DevicePool device_pool;
  const CleanBaseline clean =
      prepare_clean_baseline(base, slice, "fault", device_pool, true);
  const std::string& who = clean.who;
  if (config.triggers.empty()) {
    throw std::logic_error(who + "empty trigger list (the scenario matrix "
                           "needs at least one trigger offset)");
  }
  FaultCampaignResult result;
  result.set_baseline(clean);

  // --- scenario matrix + deterministic sample -------------------------------------
  const std::vector<hw::FaultPlan> matrix =
      fault_scenario_matrix(base.device, config.triggers);
  result.total_scenarios = matrix.size();
  auto sample = support::sample_indices(matrix.size(), config.sample_percent,
                                        fault_scenario_seed(config));
  const auto [slice_lo, slice_hi] = sample_slice_bounds(sample.size(), slice);
  std::vector<size_t> selected(sample.begin() + slice_lo,
                               sample.begin() + slice_hi);
  result.sampled_scenarios = selected.size();
  if (sideband) {
    sideband->sample_size = sample.size();
    sideband->slice_begin = slice_lo;
    sideband->slice_end = slice_hi;
    sideband->prefix_cache_hit.clear();
    sideband->canonical_hash.clear();  // scenarios are never deduped
  }

  // --- census classification -----------------------------------------------------
  // A scenario whose fault never fires leaves the boot identical to the
  // baseline, so its record is the baseline's: clean, same steps, no detail
  // and no trace. Only the scenarios whose fault fires are booted.
  result.records.resize(selected.size());
  std::vector<size_t> to_boot;
  for (size_t i = 0; i < selected.size(); ++i) {
    FaultRecord& rec = result.records[i];
    rec.scenario_index = selected[i];
    rec.plan = matrix[selected[i]];
    if (clean.census.fires(rec.plan)) {
      to_boot.push_back(i);
    } else {
      rec.steps = result.baseline_steps;
    }
  }
  support::Metrics::add_fault_boots_skipped(selected.size() - to_boot.size());

  // --- per-scenario boot (parallel map) -------------------------------------------
  // Workers write only their own record; the order-sensitive tally (and the
  // triggered count) is reduced after the join, so the result is identical
  // at any thread count.
  support::ProgressMeter progress(who + "booting", to_boot.size());
  std::vector<uint64_t> worker_shares;
  support::parallel_for(
      to_boot.size(), base.threads,
      [&](size_t k) {
        FaultRecord& rec = result.records[to_boot[k]];
        const hw::FaultPlan& plan = rec.plan;

        hw::IoBus bus;
        auto dev = device_pool.acquire();
        auto shim = std::make_shared<hw::FaultInjector>(
            dev, base.device.port_base, plan);
        std::shared_ptr<hw::FlightRecorder> recorder;
        if (base.flight_recorder) {
          // Recorder outermost: the trace shows the post-fault values the
          // driver actually read, not the healthy device's — and, through
          // the bus observer tap, the post-injector IRQ traffic.
          recorder = std::make_shared<hw::FlightRecorder>(
              shim, base.device.port_base, &bus);
          bus.set_irq_observer(recorder.get());
          map_bound_device(bus, base.device, recorder);
        } else {
          map_bound_device(bus, base.device, shim);
        }
        auto run = clean.boot(bus);
        if (run.fault == minic::FaultKind::kInternal) {
          throw std::logic_error(who + "interpreter bug under fault [" +
                                 plan.describe() + "]: " + run.fault_message);
        }
        support::StageTimer classify_timer(support::Stage::kClassify);
        rec.triggered = shim->fired() > 0;
        rec.steps = run.steps_used;
        if (!classify_boot(run, *dev, result.clean_fingerprint, kBuckets,
                           rec.outcome, rec.detail)) {
          rec.outcome = FaultOutcome::kCleanBoot;
        }
        if (recorder && rec.outcome != FaultOutcome::kCleanBoot) {
          rec.trace = recorder->render_tail();
        }
        if (!rec.triggered) {
          // Only scenarios the census says fire are booted; one that never
          // fired means the census over-counted the baseline's traffic.
          throw std::logic_error(who + "scenario [" + plan.describe() +
                                 "] was booted because the census said it "
                                 "fires, yet it never triggered (" +
                                 fault_outcome_short(rec.outcome) + ")");
        }
        // Drop the bus mapping and the shims before recycling the device
        // (the pool requires the caller to hold the only reference).
        bus = hw::IoBus();
        recorder.reset();
        shim.reset();
        device_pool.release(std::move(dev));
        progress.tick();
      },
      support::Metrics::enabled() ? &worker_shares : nullptr);
  support::Metrics::add_worker_records(worker_shares);

  for (const FaultRecord& rec : result.records) {
    result.tally.add(rec.outcome, rec.plan.port);
    if (rec.triggered) ++result.triggered_scenarios;
  }
  return result;
}

}  // namespace eval
