// Test support: boots one fault campaign's clean driver outside the
// campaign, through a real hw::FaultInjector or hw::AccessCensusShim, and
// classifies the boot into a FaultRecord with the campaign's rules. The
// census tests use it to check the campaign's census-written records
// against real boots.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "hw/fault_injection.h"
#include "hw/io_bus.h"
#include "minic/program.h"
#include "support/parallel.h"

namespace fault_boot {

/// One clean driver, compiled once, bootable any number of times (also
/// concurrently: every boot builds its own bus, device and engine state).
class CleanDriver {
 public:
  explicit CleanDriver(eval::DriverCampaignConfig base)
      : base_(std::move(base)),
        entry_(base_.entry.empty() ? base_.device.entry : base_.entry) {
    auto prefix = minic::prepare_prefix(
        base_.unit_name, base_.stubs.empty() ? std::string()
                                             : base_.stubs + "\n");
    program_ = std::make_shared<minic::Program>(
        minic::compile_with_prefix(prefix, base_.driver));
  }

  [[nodiscard]] bool ok() const { return program_->ok(); }

  /// Boots with `mapped` (a shim over `dev`, or `dev` itself) on the bus.
  [[nodiscard]] minic::RunOutcome boot(
      const std::shared_ptr<hw::Device>& mapped) const {
    hw::IoBus bus;
    eval::map_bound_device(bus, base_.device, mapped);
    return minic::run_unit(*program_->unit, bus, entry_, base_.step_budget,
                           base_.engine, nullptr, base_.watchdog_ms);
  }

  /// The fault-free boot through the census shim.
  struct Census {
    minic::RunOutcome run;
    hw::AccessCensus census;
    bool damaged = false;
  };
  [[nodiscard]] Census census() const {
    auto dev = base_.device.make_device();
    auto shim =
        std::make_shared<hw::AccessCensusShim>(dev, base_.device.port_base);
    Census out;
    out.run = boot(shim);
    out.census = shim->census();
    out.damaged = dev->damaged();
    return out;
  }

  /// One scenario booted through a real injector and classified exactly as
  /// the campaign classifies a booted scenario.
  [[nodiscard]] eval::FaultRecord boot_plan(const hw::FaultPlan& plan,
                                            int64_t clean_fingerprint) const {
    auto dev = base_.device.make_device();
    auto shim = std::make_shared<hw::FaultInjector>(
        dev, base_.device.port_base, plan);
    const minic::RunOutcome run = boot(shim);
    eval::FaultRecord rec;
    rec.plan = plan;
    rec.triggered = shim->fired() > 0;
    rec.steps = run.steps_used;
    if (run.fault != minic::FaultKind::kNone) {
      rec.outcome = outcome_of(run.fault);
      rec.detail = run.fault_message;
    } else if (dev->damaged() || run.return_value != clean_fingerprint) {
      rec.outcome = eval::FaultOutcome::kCorruptBoot;
      rec.detail =
          dev->damaged() ? dev->damage_note() : "wrong boot fingerprint";
    }
    return rec;
  }

 private:
  static eval::FaultOutcome outcome_of(minic::FaultKind kind) {
    switch (kind) {
      case minic::FaultKind::kDevilAssertion:
        return eval::FaultOutcome::kDevilCheck;
      case minic::FaultKind::kPanic:
        return eval::FaultOutcome::kDriverPanic;
      case minic::FaultKind::kStepLimit:
      case minic::FaultKind::kWatchdog:
        return eval::FaultOutcome::kHang;
      default:
        return eval::FaultOutcome::kCrash;
    }
  }

  eval::DriverCampaignConfig base_;
  std::string entry_;
  std::shared_ptr<minic::Program> program_;
};

/// Compares the fields a census-written record carries with a booted one.
inline void expect_same_record(const eval::FaultRecord& want,
                               const eval::FaultRecord& got) {
  const std::string at = got.plan.describe();
  EXPECT_EQ(want.triggered, got.triggered) << at;
  EXPECT_EQ(want.outcome, got.outcome) << at;
  EXPECT_EQ(want.steps, got.steps) << at;
  EXPECT_EQ(want.detail, got.detail) << at;
  EXPECT_EQ(want.trace, got.trace) << at;
}

/// Boots every record of `result` that `select` picks through a real
/// injector, spread over all cores, and checks each against its record.
/// Returns how many records it booted.
template <class Select>
size_t expect_records_reboot_identically(
    const eval::FaultCampaignConfig& config,
    const eval::FaultCampaignResult& result, Select select) {
  const CleanDriver driver(config.base);
  EXPECT_TRUE(driver.ok());
  if (!driver.ok()) return 0;
  std::vector<const eval::FaultRecord*> picked;
  for (const eval::FaultRecord& rec : result.records) {
    if (select(rec)) picked.push_back(&rec);
  }
  std::vector<eval::FaultRecord> booted(picked.size());
  support::parallel_for(picked.size(), 0, [&](size_t i) {
    booted[i] = driver.boot_plan(picked[i]->plan, result.clean_fingerprint);
  });
  for (size_t i = 0; i < picked.size(); ++i) {
    expect_same_record(*picked[i], booted[i]);
  }
  return picked.size();
}

}  // namespace fault_boot
