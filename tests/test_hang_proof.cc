// The bytecode VM's hang proof: an exact machine-state repeat at a loop
// back-edge proves the boot never terminates, and the VM then skips whole
// periods of the budget instead of burning them. The proof must never be
// observable in a RunOutcome — the tree walker always burns, so walker and
// VM must agree on every budget-exhausting boot of the study's default
// campaigns, on hand-written loops the proof must decline, on its
// fallbacks, and at every budget across a proven loop's period.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "corpus/drivers.h"
#include "eval/campaign_spec.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "hw/fault_injection.h"
#include "hw/flight_recorder.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "minic/program.h"
#include "mutation/c_mutator.h"
#include "support/metrics.h"
#include "support/parallel.h"

namespace {

using minic::ExecEngine;

void expect_same_outcome(const minic::RunOutcome& walker,
                         const minic::RunOutcome& vm,
                         const std::string& label) {
  EXPECT_EQ(walker.fault, vm.fault) << label;
  EXPECT_EQ(walker.fault_message, vm.fault_message) << label;
  EXPECT_EQ(walker.return_value, vm.return_value) << label;
  EXPECT_EQ(walker.steps_used, vm.steps_used) << label;
  EXPECT_EQ(walker.executed_lines, vm.executed_lines) << label;
  EXPECT_EQ(walker.log, vm.log) << label;
}

/// Enables the collector for one scope and reports the hang proofs the
/// scope added.
class ProofCounter {
 public:
  ProofCounter() {
    support::Metrics::set_enabled(true);
    start_ = support::Metrics::snapshot().hang_proofs;
  }
  ~ProofCounter() { support::Metrics::set_enabled(false); }
  [[nodiscard]] uint64_t proofs() const {
    return support::Metrics::snapshot().hang_proofs - start_;
  }

 private:
  uint64_t start_ = 0;
};

std::shared_ptr<minic::Program> compile_on(const std::string& stubs,
                                           const std::string& text) {
  auto prefix = minic::prepare_prefix(
      "unit.c", stubs.empty() ? std::string() : stubs + "\n");
  return std::make_shared<minic::Program>(
      minic::compile_with_prefix(prefix, text));
}

/// One budget-exhausting campaign boot, replayable on either engine. `fired`
/// reports whether a fault injector triggered (false without one).
struct Replay {
  std::string label;
  std::function<minic::RunOutcome(ExecEngine engine, bool* fired)> boot;
};

/// Replays every boot on both engines, spread over all cores, checks that
/// walker and VM agree, and returns the hang proofs the VM boots made.
uint64_t replay_on_both_engines(const std::vector<Replay>& replays) {
  std::vector<minic::RunOutcome> walker(replays.size());
  std::vector<minic::RunOutcome> vm(replays.size());
  std::vector<uint8_t> walker_fired(replays.size());
  std::vector<uint8_t> vm_fired(replays.size());
  ProofCounter counter;
  support::parallel_for(replays.size(), 0, [&](size_t i) {
    bool fired = false;
    walker[i] = replays[i].boot(ExecEngine::kTreeWalker, &fired);
    walker_fired[i] = fired;
    vm[i] = replays[i].boot(ExecEngine::kBytecodeVm, &fired);
    vm_fired[i] = fired;
  });
  const uint64_t proofs = counter.proofs();
  for (size_t i = 0; i < replays.size(); ++i) {
    EXPECT_EQ(vm[i].fault, minic::FaultKind::kStepLimit) << replays[i].label;
    expect_same_outcome(walker[i], vm[i], replays[i].label);
    EXPECT_EQ(walker_fired[i], vm_fired[i]) << replays[i].label;
  }
  return proofs;
}

// ---------------------------------------------------------------------------
// Every budget-exhausting boot of the default study runs.
// ---------------------------------------------------------------------------

TEST(HangProof, Tables34HangBootsMatchTheWalker) {
  eval::CampaignSpec spec;
  spec.threads = 0;
  std::vector<Replay> replays;
  for (const auto& drivers : eval::campaign_spec_corpus(spec)) {
    eval::DeviceCampaignConfigs cfgs = eval::driver_configs_for(spec, drivers);
    for (const eval::DriverCampaignConfig& cfg : {cfgs.c, cfgs.cdevil}) {
      const auto result = eval::run_driver_campaign(cfg);
      mutation::CScanOptions scan;
      scan.classes =
          cfg.is_cdevil
              ? mutation::classes_for_cdevil_driver(cfg.stubs, cfg.driver)
              : mutation::classes_for_c_driver(cfg.driver);
      const auto sites = mutation::scan_c_sites(cfg.driver, scan);
      const auto mutants = mutation::generate_c_mutants(sites, scan.classes);
      for (const eval::MutantRecord& rec : result.records) {
        if (rec.outcome != eval::Outcome::kInfiniteLoop || rec.deduped) {
          continue;
        }
        const std::string label = drivers.device + std::string(" ") +
                                  (cfg.is_cdevil ? "CDevil" : "C") +
                                  " mutant #" +
                                  std::to_string(rec.mutant_index);
        auto prog = compile_on(
            cfg.stubs, mutation::apply_mutant(cfg.driver, sites,
                                              mutants[rec.mutant_index]));
        ASSERT_TRUE(prog->ok()) << label;
        replays.push_back({label, [prog, cfg](ExecEngine engine, bool*) {
                             hw::IoBus bus;
                             eval::map_bound_device(bus, cfg.device,
                                                    cfg.device.make_device());
                             return minic::run_unit(
                                 *prog->unit, bus, cfg.device.entry,
                                 cfg.step_budget, engine, nullptr,
                                 cfg.watchdog_ms);
                           }});
      }
    }
  }
  EXPECT_GE(replays.size(), 94u);
  EXPECT_GE(replay_on_both_engines(replays), 88u);
}

TEST(HangProof, FaultHangScenariosMatchTheWalker) {
  eval::CampaignSpec spec;
  spec.kind = eval::CampaignKind::kFault;
  spec.threads = 0;
  std::vector<Replay> replays;
  for (const auto& drivers : eval::campaign_spec_corpus(spec)) {
    eval::DeviceFaultConfigs cfgs = eval::fault_configs_for(spec, drivers);
    for (const eval::FaultCampaignConfig& cfg : {cfgs.c, cfgs.cdevil}) {
      const eval::DriverCampaignConfig& base = cfg.base;
      const auto result = eval::run_fault_campaign(cfg);
      auto prog = compile_on(base.stubs, base.driver);
      ASSERT_TRUE(prog->ok()) << drivers.device;
      for (const eval::FaultRecord& rec : result.records) {
        if (rec.outcome != eval::FaultOutcome::kHang) continue;
        const std::string label = drivers.device + std::string(" ") +
                                  (base.is_cdevil ? "CDevil" : "C") + " [" +
                                  rec.plan.describe() + "]";
        replays.push_back(
            {label, [prog, base, plan = rec.plan](ExecEngine engine,
                                                  bool* fired) {
               hw::IoBus bus;
               auto shim = std::make_shared<hw::FaultInjector>(
                   base.device.make_device(), base.device.port_base, plan);
               eval::map_bound_device(bus, base.device, shim);
               auto run = minic::run_unit(*prog->unit, bus, base.device.entry,
                                          base.step_budget, engine, nullptr,
                                          base.watchdog_ms);
               *fired = shim->fired() > 0;
               return run;
             }});
      }
    }
  }
  EXPECT_GE(replays.size(), 60u);
  EXPECT_GE(replay_on_both_engines(replays), 60u);
}

// ---------------------------------------------------------------------------
// Hand-written loops on an IDE disk.
// ---------------------------------------------------------------------------

constexpr uint64_t kBudget = 300'000;

struct DiffResult {
  minic::RunOutcome walker;
  minic::RunOutcome vm;
  uint64_t proofs = 0;
};

/// Boots `src` on both engines, each against a fresh disk; `setup` may
/// attach extra state to the bus before the boot.
template <typename Setup>
DiffResult diff_on_disk(const std::string& src, uint64_t budget, Setup setup,
                        std::shared_ptr<hw::IdeDisk>* vm_disk = nullptr) {
  auto prog = minic::compile("t.c", src);
  EXPECT_TRUE(prog.ok()) << prog.diags.render();
  DiffResult r;
  if (!prog.ok()) return r;
  auto boot = [&](ExecEngine engine) {
    hw::IoBus bus;
    auto disk = std::make_shared<hw::IdeDisk>();
    bus.map(0x1f0, 8, disk);
    setup(bus, disk);
    auto run = minic::run_unit(*prog.unit, bus, "f", budget, engine);
    if (engine == ExecEngine::kBytecodeVm && vm_disk) *vm_disk = disk;
    return run;
  };
  r.walker = boot(ExecEngine::kTreeWalker);
  ProofCounter counter;
  r.vm = boot(ExecEngine::kBytecodeVm);
  r.proofs = counter.proofs();
  return r;
}

DiffResult diff_on_disk(const std::string& src, uint64_t budget = kBudget) {
  return diff_on_disk(src, budget,
                      [](hw::IoBus&, const std::shared_ptr<hw::IdeDisk>&) {});
}

// DRQ never rises on an idle disk: the poll spins on an unchanging machine.
const char* const kStuckPoll = R"(
int f() {
  int s = 0;
  while ((inb(0x1f7) & 0x08) == 0) {
    s = s | 1;
  }
  return s;
}
)";

TEST(HangProof, StuckStatusPollIsProven) {
  DiffResult r = diff_on_disk(kStuckPoll);
  EXPECT_EQ(r.vm.fault, minic::FaultKind::kStepLimit) << r.vm.fault_message;
  expect_same_outcome(r.walker, r.vm, "stuck poll");
  EXPECT_EQ(r.proofs, 1u);
}

TEST(HangProof, CounterLoopIsNotProven) {
  DiffResult r = diff_on_disk(R"(
int f() {
  int n = 0;
  while (inb(0x1f7) != 0) {
    n = n + 1;
  }
  return n;
}
)");
  EXPECT_EQ(r.vm.fault, minic::FaultKind::kStepLimit);
  expect_same_outcome(r.walker, r.vm, "counter loop");
  EXPECT_EQ(r.proofs, 0u);
}

TEST(HangProof, SectorWritingLoopIsNotProven) {
  // Every iteration rewrites sector 5 with the same bytes: the registers
  // repeat exactly, only the commit count grows — the disk image must not
  // be mistaken for unchanged.
  std::shared_ptr<hw::IdeDisk> disk;
  DiffResult r = diff_on_disk(
      R"(
int f() {
  int i = 0;
  while (1) {
    outb(1, 0x1f2);
    outb(5, 0x1f3);
    outb(0, 0x1f4);
    outb(0, 0x1f5);
    outb(0xe0, 0x1f6);
    outb(0x30, 0x1f7);
    while ((inb(0x1f7) & 0x08) == 0) {
    }
    for (i = 0; i < 256; i = i + 1) {
      outw(0x1234, 0x1f0);
    }
  }
  return 0;
}
)",
      kBudget, [](hw::IoBus&, const std::shared_ptr<hw::IdeDisk>&) {}, &disk);
  EXPECT_EQ(r.vm.fault, minic::FaultKind::kStepLimit);
  expect_same_outcome(r.walker, r.vm, "sector writer");
  EXPECT_EQ(r.proofs, 0u);
  ASSERT_TRUE(disk);
  EXPECT_GT(disk->sector_commits(), 1u);
  EXPECT_TRUE(disk->damaged());
}

TEST(HangProof, QueuedDelayedIrqFallsBackToBurning) {
  // An event due far past the budget stays queued all boot: its due step is
  // absolute, so no capture is taken and the budget burns.
  DiffResult r = diff_on_disk(
      kStuckPoll, kBudget,
      [](hw::IoBus& bus, const std::shared_ptr<hw::IdeDisk>&) {
        bus.raise_irq(3, /*delay_steps=*/1'000'000'000, /*genuine=*/true);
      });
  expect_same_outcome(r.walker, r.vm, "queued irq");
  EXPECT_EQ(r.vm.fault, minic::FaultKind::kStepLimit);
  EXPECT_EQ(r.proofs, 0u);
}

TEST(HangProof, FlightRecorderFallsBackWithIdenticalTrace) {
  auto prog = minic::compile("t.c", kStuckPoll);
  ASSERT_TRUE(prog.ok()) << prog.diags.render();
  auto boot = [&](ExecEngine engine, std::string* trace) {
    hw::IoBus bus;
    auto rec = std::make_shared<hw::FlightRecorder>(
        std::make_shared<hw::IdeDisk>(), 0x1f0, &bus);
    bus.set_irq_observer(rec.get());
    bus.map(0x1f0, 8, rec);
    auto run = minic::run_unit(*prog.unit, bus, "f", kBudget, engine);
    *trace = rec->render_tail();
    return run;
  };
  std::string walker_trace;
  std::string vm_trace;
  const auto walker = boot(ExecEngine::kTreeWalker, &walker_trace);
  ProofCounter counter;
  const auto vm = boot(ExecEngine::kBytecodeVm, &vm_trace);
  expect_same_outcome(walker, vm, "flight recorder");
  EXPECT_EQ(walker_trace, vm_trace);
  EXPECT_FALSE(vm_trace.empty());
  EXPECT_EQ(counter.proofs(), 0u);
}

TEST(HangProof, DenseBudgetSweepPinsThePeriodArithmetic) {
  // A multi-line period with a udelay burn inside: every budget lands the
  // exhaustion on a different instruction of the cycle (or inside the
  // burn), and the proved run must land on the very same one.
  const std::string src = R"(
int f() {
  int s = 0;
  while (1) {
    s = inb(0x1f7);
    if (s & 0x08) {
      break;
    }
    udelay(3);
  }
  return s;
}
)";
  uint64_t proved = 0;
  size_t budgets = 0;
  for (uint64_t budget = 70'000; budget < 70'064; ++budget) {
    DiffResult r = diff_on_disk(src, budget);
    expect_same_outcome(r.walker, r.vm, "budget=" + std::to_string(budget));
    proved += r.proofs;
    ++budgets;
  }
  for (uint64_t budget = 100'000; budget < 2'000'000; budget += 99'991) {
    DiffResult r = diff_on_disk(src, budget);
    expect_same_outcome(r.walker, r.vm, "budget=" + std::to_string(budget));
    proved += r.proofs;
    ++budgets;
  }
  EXPECT_EQ(proved, budgets);
}

}  // namespace
