// The deterministic interrupt/event model and the event-driven fault
// campaigns: IrqController queue/in-service semantics, IoBus delivery and
// observer taps, device raise points (busmouse motion, IDE command
// completion), the FaultInjector's event-fault kinds and their composition
// with port-fault shims, MiniC request_irq binding and the wall-clock
// watchdog, flight-recorder IRQ interleaving (byte-identical across
// engines), pool-recycle bit-identity after event-faulted boots, and the
// event-scenario campaign's determinism/merge/paper-shape guarantees.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus/drivers.h"
#include "devil/compiler.h"
#include "eval/device_bindings.h"
#include "eval/fault_campaign.h"
#include "eval/merge.h"
#include "eval/metrics.h"
#include "eval/shard.h"
#include "fault_boot.h"
#include "hw/busmouse.h"
#include "hw/device_pool.h"
#include "hw/fault_injection.h"
#include "hw/flight_recorder.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "minic/program.h"
#include "support/metrics.h"

namespace {

using hw::FaultInjector;
using hw::FaultKind;
using hw::FaultPlan;
using hw::IrqEventKind;

FaultPlan event_plan(int line, FaultKind kind, uint32_t after,
                     uint32_t value = 0) {
  FaultPlan p;
  p.port = static_cast<uint32_t>(line);
  p.kind = kind;
  p.after = after;
  p.value = value;
  return p;
}

/// Device with an externally pulsable interrupt output, for driving the
/// raise chain without a behavioural model.
class PulseDevice final : public hw::Device {
 public:
  std::string name() const override { return "pulse"; }
  uint32_t read(uint32_t offset, int width) override {
    (void)offset;
    (void)width;
    return 0x5a;
  }
  void write(uint32_t offset, uint32_t value, int width) override {
    (void)offset;
    (void)value;
    (void)width;
  }
  void reset() override {}
  void pulse() { raise_irq(); }
};

/// Terminal sink recording every raise that reaches it.
struct RecordingSink final : hw::IrqSink {
  struct Raise {
    int line;
    uint64_t delay;
    bool genuine;
  };
  std::vector<Raise> raises;
  void raise_irq(int line, uint64_t delay_steps, bool genuine) override {
    raises.push_back({line, delay_steps, genuine});
  }
};

// ---------------------------------------------------------------------------
// IrqController and IoBus delivery semantics.
// ---------------------------------------------------------------------------

TEST(IrqController, FifoDueStepsAndInServiceLatching) {
  hw::IrqController c;
  c.raise(5, 10, true);
  c.raise(3, 0, true);
  EXPECT_EQ(c.raised(), 2u);
  // Line 5 was queued first but is not due yet; FIFO applies among due.
  ASSERT_EQ(c.pending(0), 3);
  c.begin(true);
  EXPECT_EQ(c.in_service(), 1u << 3);
  c.end();
  EXPECT_EQ(c.in_service(), 0u);
  EXPECT_EQ(c.pending(9), -1) << "line 5 still pends until step 10";
  ASSERT_EQ(c.pending(10), 5);
  c.begin(true);
  c.end();
  EXPECT_EQ(c.delivered(), 2u);
  // Spurious delivery: dispatched like any other, but never in-service.
  c.raise(4, 0, false);
  ASSERT_EQ(c.pending(0), 4);
  c.begin(true);
  EXPECT_EQ(c.in_service(), 0u);
  c.end();
  // Acknowledge-and-drop (no handler registered).
  c.raise(2, 0, true);
  ASSERT_EQ(c.pending(0), 2);
  c.begin(false);
  EXPECT_EQ(c.dropped(), 1u);
  EXPECT_EQ(c.in_service(), 0u);
  EXPECT_FALSE(c.has_queued());
  // clear() is full power-on: queue, in-service and counters.
  c.raise(1, 0, true);
  c.clear();
  EXPECT_FALSE(c.has_queued());
  EXPECT_EQ(c.raised(), 0u);
  EXPECT_EQ(c.pending(1000), -1);
}

TEST(IoBusIrq, QueuesObservesExposesStatusAndClearsOnReset) {
  struct Observer final : hw::IrqObserver {
    std::vector<std::pair<IrqEventKind, int>> events;
    void irq_event(IrqEventKind kind, int line) override {
      events.push_back({kind, line});
    }
  } obs;
  hw::IoBus bus;
  bus.set_irq_observer(&obs);
  bus.map(hw::kIrqStatusPortBase, 1,
          std::make_shared<hw::IrqStatusPort>(&bus.irq_controller()));

  bus.raise_irq(6, 0, true);
  ASSERT_EQ(bus.irq_pending(), 6);
  bus.irq_begin(true);
  // The 8259 idiom: a genuine delivery is visible at the status port...
  EXPECT_EQ(bus.io_in(hw::kIrqStatusPortBase, 8), 1u << 6);
  bus.irq_end();
  EXPECT_EQ(bus.io_in(hw::kIrqStatusPortBase, 8), 0u);
  // ...a spurious one never is.
  bus.raise_irq(6, 0, false);
  ASSERT_EQ(bus.irq_pending(), 6);
  bus.irq_begin(true);
  EXPECT_EQ(bus.io_in(hw::kIrqStatusPortBase, 8), 0u);
  bus.irq_end();
  // No handler: acknowledged and dropped.
  bus.raise_irq(3, 0, true);
  bus.irq_begin(false);
  // Out-of-range lines are ignored, not queued.
  bus.raise_irq(99, 0, true);
  bus.raise_irq(-1, 0, true);
  EXPECT_EQ(bus.irq_pending(), -1);

  const std::vector<std::pair<IrqEventKind, int>> want = {
      {IrqEventKind::kRaised, 6},    {IrqEventKind::kDelivered, 6},
      {IrqEventKind::kRaised, 6},    {IrqEventKind::kDelivered, 6},
      {IrqEventKind::kRaised, 3},    {IrqEventKind::kDropped, 3},
  };
  EXPECT_EQ(obs.events, want);

  // reset() must not leak pending events into the next boot.
  bus.raise_irq(5, 0, true);
  bus.reset();
  EXPECT_EQ(bus.irq_pending(), -1);
  EXPECT_EQ(bus.irq_controller().raised(), 0u);
}

TEST(IoBusIrq, BusmouseRaisesOnMotionHonoringTheInterruptDisableBit) {
  auto mouse = std::make_shared<hw::Busmouse>();
  mouse->preload_motion(9, -3, 0x01);
  hw::IoBus bus;
  bus.map(0x23c, 4, mouse, 5);
  // Power-on default: interrupts disabled, the preloaded report pends.
  EXPECT_EQ(bus.irq_pending(), -1);
  // The disabled->enabled CONTROL transition raises the pended report.
  bus.io_out(0x23e, 0x00, 8);
  ASSERT_EQ(bus.irq_pending(), 5);
  bus.irq_begin(true);
  bus.irq_end();
  // Motion while enabled raises immediately...
  mouse->set_motion(1, 1, 0);
  ASSERT_EQ(bus.irq_pending(), 5);
  bus.irq_begin(true);
  bus.irq_end();
  // ...motion while disabled does not.
  bus.io_out(0x23e, 0x10, 8);
  mouse->set_motion(2, 2, 0);
  EXPECT_EQ(bus.irq_pending(), -1);
}

TEST(IoBusIrq, IdeDiskAssertsIntrqOnCommandCompletion) {
  auto disk = std::make_shared<hw::IdeDisk>();
  hw::IoBus bus;
  bus.map(0x1f0, 8, disk, 6);
  EXPECT_EQ(bus.irq_pending(), -1);
  bus.io_out(0x1f6, 0xe0, 8);  // select master, LBA mode
  bus.io_out(0x1f7, 0xec, 8);  // IDENTIFY — completion asserts INTRQ
  EXPECT_EQ(bus.irq_pending(), 6);
}

// ---------------------------------------------------------------------------
// FaultInjector event-fault kinds.
// ---------------------------------------------------------------------------

TEST(FaultInjectorEvents, LostSwallowsExactlyTheTriggeredRaise) {
  auto dev = std::make_shared<PulseDevice>();
  FaultInjector shim(dev, 0x100, event_plan(5, FaultKind::kLostIrq, 1));
  RecordingSink sink;
  shim.attach_irq(&sink, 5);
  dev->pulse();  // raise 0 forwards
  dev->pulse();  // raise 1 is lost on the wire
  dev->pulse();  // raise 2 forwards
  ASSERT_EQ(sink.raises.size(), 2u);
  EXPECT_TRUE(sink.raises[0].genuine);
  EXPECT_TRUE(sink.raises[1].genuine);
  EXPECT_EQ(shim.fired(), 1u);
}

TEST(FaultInjectorEvents, StormRepeatsAndDelayPostpones) {
  auto dev = std::make_shared<PulseDevice>();
  FaultInjector storm(dev, 0x100, event_plan(5, FaultKind::kIrqStorm, 0, 3));
  RecordingSink sink;
  storm.attach_irq(&sink, 5);
  dev->pulse();  // the trigger-th raise repeats 3 times
  dev->pulse();  // later raises are healthy
  ASSERT_EQ(sink.raises.size(), 4u);
  for (const auto& r : sink.raises) {
    EXPECT_EQ(r.line, 5);
    EXPECT_TRUE(r.genuine);
  }
  EXPECT_EQ(storm.fired(), 1u);

  FaultInjector delay(dev, 0x100,
                      event_plan(5, FaultKind::kDelayIrq, 0, 1000));
  RecordingSink dsink;
  delay.attach_irq(&dsink, 5);
  dev->pulse();
  dev->pulse();
  ASSERT_EQ(dsink.raises.size(), 2u);
  EXPECT_EQ(dsink.raises[0].delay, 1000u);
  EXPECT_EQ(dsink.raises[1].delay, 0u);
  EXPECT_EQ(delay.fired(), 1u);
}

TEST(FaultInjectorEvents, SpuriousInjectsOnTheTriggeredDeviceAccess) {
  auto dev = std::make_shared<PulseDevice>();
  FaultInjector shim(dev, 0x100, event_plan(5, FaultKind::kSpuriousIrq, 2));
  RecordingSink sink;
  shim.attach_irq(&sink, 5);
  // The spurious counter covers device accesses of either direction.
  (void)shim.read(0, 8);    // access 0
  shim.write(1, 0xaa, 8);   // access 1
  EXPECT_TRUE(sink.raises.empty());
  (void)shim.read(3, 8);    // access 2 — the spurious edge
  ASSERT_EQ(sink.raises.size(), 1u);
  EXPECT_EQ(sink.raises[0].line, 5);
  EXPECT_FALSE(sink.raises[0].genuine) << "spurious raises are non-genuine";
  EXPECT_EQ(shim.fired(), 1u);
  (void)shim.read(0, 8);    // later accesses are quiet
  EXPECT_EQ(sink.raises.size(), 1u);
  // reset() re-arms the event counters exactly like the port counters.
  shim.reset();
  (void)shim.read(0, 8);
  shim.write(0, 0, 8);
  (void)shim.read(0, 8);
  EXPECT_EQ(sink.raises.size(), 2u);
}

TEST(FaultInjectorEvents, OtherLinesAndNonGenuineRaisesPassThrough) {
  auto dev = std::make_shared<PulseDevice>();
  FaultInjector shim(dev, 0x100, event_plan(5, FaultKind::kLostIrq, 0));
  RecordingSink sink;
  shim.attach_irq(&sink, 5);
  // A raise on a different line is not this plan's business.
  static_cast<hw::IrqSink&>(shim).raise_irq(3, 0, true);
  // A non-genuine raise (an upstream shim's spurious injection) must never
  // be eaten by a lost-IRQ plan — only genuine edges count.
  static_cast<hw::IrqSink&>(shim).raise_irq(5, 0, false);
  ASSERT_EQ(sink.raises.size(), 2u);
  EXPECT_EQ(sink.raises[0].line, 3);
  EXPECT_FALSE(sink.raises[1].genuine);
  EXPECT_EQ(shim.fired(), 0u);
}

TEST(FaultInjectorEvents, CompositionOrderWithPortShimsIsImmaterial) {
  // An event-fault shim and a port-fault shim chained in either order must
  // present identical driver-visible behaviour: same faulted reads, same
  // post-fault raise stream.
  auto run_chain = [](bool event_outer) {
    auto dev = std::make_shared<PulseDevice>();
    FaultPlan port_plan;
    port_plan.port = 0x100;
    port_plan.kind = FaultKind::kStuckOne;
    port_plan.after = 0;
    port_plan.mask = 0x80;
    FaultPlan spurious = event_plan(5, FaultKind::kSpuriousIrq, 1);
    auto inner = std::make_shared<FaultInjector>(
        dev, 0x100, event_outer ? port_plan : spurious);
    auto outer = std::make_shared<FaultInjector>(
        inner, 0x100, event_outer ? spurious : port_plan);
    auto sink = std::make_shared<RecordingSink>();
    outer->attach_irq(sink.get(), 5);
    std::vector<uint32_t> values;
    values.push_back(outer->read(0, 8));   // access 0: stuck bit
    outer->write(1, 0x11, 8);              // access 1: spurious edge
    values.push_back(outer->read(0, 8));
    dev->pulse();                          // genuine raise passes both shims
    return std::make_pair(values, sink->raises.size());
  };
  auto [values_a, raises_a] = run_chain(/*event_outer=*/true);
  auto [values_b, raises_b] = run_chain(/*event_outer=*/false);
  EXPECT_EQ(values_a, values_b);
  EXPECT_EQ(values_a, (std::vector<uint32_t>{0xda, 0xda}));
  EXPECT_EQ(raises_a, raises_b);
  EXPECT_EQ(raises_a, 2u);  // one spurious injection + one genuine raise
}

// ---------------------------------------------------------------------------
// Flight recorder: IRQ events interleaved with port accesses.
// ---------------------------------------------------------------------------

TEST(FlightRecorderIrq, RenderInterleavesIrqEventsWithPortAccesses) {
  hw::FlightRecorder rec(std::make_shared<PulseDevice>(), 0x1f0, nullptr, 4);
  (void)rec.read(0, 8);
  rec.irq_event(IrqEventKind::kRaised, 6);
  rec.irq_event(IrqEventKind::kDelivered, 6);
  rec.irq_event(IrqEventKind::kDropped, 3);
  EXPECT_EQ(rec.render_tail(),
            "last 4 of 4 bus events:\n"
            "  [event 0, step 0] in  0x1f0 -> 0x5a (8-bit)\n"
            "  [event 1, step 0] irq 6 raised\n"
            "  [event 2, step 0] irq 6 delivered\n"
            "  [event 3, step 0] irq 3 dropped");
}

TEST(FlightRecorderIrq, ObserverTapSeesPostFaultReality) {
  // Recorder outside a lost-IRQ injector: the swallowed raise must be
  // invisible (it never reached the bus), the surviving one recorded.
  hw::IoBus bus;
  auto dev = std::make_shared<PulseDevice>();
  auto shim = std::make_shared<FaultInjector>(
      dev, 0x100, event_plan(5, FaultKind::kLostIrq, 0));
  auto rec = std::make_shared<hw::FlightRecorder>(shim, 0x100, &bus);
  bus.set_irq_observer(rec.get());
  bus.map(0x100, 4, rec, 5);
  dev->pulse();  // swallowed on the wire
  EXPECT_EQ(rec->total_accesses(), 0u);
  EXPECT_EQ(bus.irq_pending(), -1);
  dev->pulse();  // survives
  ASSERT_EQ(bus.irq_pending(), 5);
  bus.irq_begin(true);
  bus.irq_end();
  auto tail = rec->tail();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].kind, hw::RecordKind::kIrqRaised);
  EXPECT_EQ(tail[0].line, 5);
  EXPECT_EQ(tail[1].kind, hw::RecordKind::kIrqDelivered);
  EXPECT_EQ(tail[1].line, 5);
}

TEST(FlightRecorderIrq, InterruptBootTraceIsByteIdenticalAcrossEngines) {
  minic::Program prog =
      minic::compile("driver.c", corpus::c_busmouse_irq_driver());
  ASSERT_TRUE(prog.ok()) << prog.diags.render();
  eval::DeviceBinding binding = eval::busmouse_irq_binding();
  auto boot_trace = [&](minic::ExecEngine engine) {
    hw::IoBus bus;
    auto rec = std::make_shared<hw::FlightRecorder>(
        binding.make_device(), binding.port_base, &bus, /*capacity=*/64);
    bus.set_irq_observer(rec.get());
    bus.map(binding.port_base, binding.port_span, rec, binding.irq_line);
    auto run = minic::run_unit(*prog.unit, bus, binding.entry, 3'000'000,
                               engine);
    EXPECT_EQ(run.fault, minic::FaultKind::kNone) << run.fault_message;
    EXPECT_GT(run.return_value, 1'000'000);
    return std::make_pair(rec->render_tail(), run.steps_used);
  };
  auto [vm_trace, vm_steps] = boot_trace(minic::ExecEngine::kBytecodeVm);
  auto [walker_trace, walker_steps] =
      boot_trace(minic::ExecEngine::kTreeWalker);
  EXPECT_EQ(vm_trace, walker_trace)
      << "step-stamped IRQ interleaving must be engine-invariant";
  EXPECT_EQ(vm_steps, walker_steps);
  // The interrupt actually showed up in the trace.
  EXPECT_NE(vm_trace.find("irq 5 raised"), std::string::npos) << vm_trace;
  EXPECT_NE(vm_trace.find("irq 5 delivered"), std::string::npos) << vm_trace;
}

// ---------------------------------------------------------------------------
// MiniC: request_irq binding and the wall-clock watchdog.
// ---------------------------------------------------------------------------

TEST(MinicIrq, RequestIrqValidatesLineAndHandlerAtRuntime) {
  struct Case {
    const char* src;
    const char* needle;
  };
  const std::vector<Case> cases = {
      {"void h() {}\nint boot() { request_irq(99, \"h\"); return 1; }",
       "invalid irq line"},
      {"void h() {}\nint boot() { request_irq(3, \"nope\"); return 1; }",
       "unknown handler"},
      {"void h(int x) { x = x; }\n"
       "int boot() { request_irq(3, \"h\"); return 1; }",
       "takes arguments"},
  };
  for (const Case& c : cases) {
    minic::Program prog = minic::compile("t.c", c.src);
    ASSERT_TRUE(prog.ok()) << prog.diags.render();
    for (auto engine :
         {minic::ExecEngine::kBytecodeVm, minic::ExecEngine::kTreeWalker}) {
      hw::IoBus bus;
      auto run = minic::run_unit(*prog.unit, bus, "boot", 100'000, engine);
      EXPECT_EQ(run.fault, minic::FaultKind::kPanic)
          << minic::exec_engine_name(engine) << ": " << c.src;
      EXPECT_NE(run.fault_message.find(c.needle), std::string::npos)
          << run.fault_message;
    }
  }
}

TEST(MinicWatchdog, ContainsWallClockHangsOnBothEngines) {
  minic::Program prog = minic::compile(
      "t.c", "int spin() { while (1) { } return 0; }");
  ASSERT_TRUE(prog.ok()) << prog.diags.render();
  for (auto engine :
       {minic::ExecEngine::kBytecodeVm, minic::ExecEngine::kTreeWalker}) {
    hw::IoBus bus;
    // Step budget effectively unbounded: only the watchdog can end this.
    auto run = minic::run_unit(*prog.unit, bus, "spin",
                               /*step_budget=*/~0ull, engine,
                               /*profile=*/nullptr, /*watchdog_ms=*/5);
    EXPECT_EQ(run.fault, minic::FaultKind::kWatchdog)
        << minic::exec_engine_name(engine) << ": " << run.fault_message;
  }
}

TEST(MinicWatchdog, TripCounterIsCollectedAsTimingTelemetry) {
  support::Metrics::set_enabled(true);
  const uint64_t before = support::Metrics::snapshot().watchdog_trips;
  support::Metrics::add_watchdog_trip();
  EXPECT_EQ(support::Metrics::snapshot().watchdog_trips, before + 1);
  support::Metrics::set_enabled(false);
  support::Metrics::add_watchdog_trip();  // disabled collector: not counted
  EXPECT_EQ(support::Metrics::snapshot().watchdog_trips, before + 1);

  // The counter rides the timings section: JSON round trip and merge.
  eval::ProcessMetrics pm;
  pm.watchdog_trips = 7;
  auto round =
      eval::process_metrics_from_json(eval::process_metrics_to_json(pm), "t");
  EXPECT_EQ(round, pm);
  eval::ProcessMetrics other;
  other.watchdog_trips = 5;
  eval::merge_process_metrics(pm, other);
  EXPECT_EQ(pm.watchdog_trips, 12u);
}

// ---------------------------------------------------------------------------
// Pool-recycle bit-identity after event-faulted boots.
// ---------------------------------------------------------------------------

TEST(EventFaults, PooledDeviceRecyclesCleanlyAfterEventFaultedBoots) {
  minic::Program prog =
      minic::compile("driver.c", corpus::c_busmouse_irq_driver());
  ASSERT_TRUE(prog.ok()) << prog.diags.render();
  eval::DeviceBinding binding = eval::busmouse_irq_binding();
  auto clean_boot_trace = [&](const std::shared_ptr<hw::Device>& dev) {
    hw::IoBus bus;
    bus.enable_trace();
    bus.map(binding.port_base, binding.port_span, dev, binding.irq_line);
    auto run = minic::run_unit(*prog.unit, bus, binding.entry, 3'000'000,
                               minic::ExecEngine::kBytecodeVm);
    EXPECT_EQ(run.fault, minic::FaultKind::kNone) << run.fault_message;
    return bus.trace();
  };
  const std::vector<FaultPlan> plans = {
      event_plan(binding.irq_line, FaultKind::kIrqStorm, 0, 8),
      event_plan(binding.irq_line, FaultKind::kLostIrq, 0),
      event_plan(binding.irq_line, FaultKind::kSpuriousIrq, 0),
      event_plan(binding.irq_line, FaultKind::kDelayIrq, 0, 1000),
  };
  for (const FaultPlan& plan : plans) {
    SCOPED_TRACE(plan.describe());
    hw::DevicePool pool(binding.make_device);
    auto dev = pool.acquire();
    {
      // Event-faulted boot: outcome irrelevant, device state is the point.
      hw::IoBus bus;
      auto shim =
          std::make_shared<FaultInjector>(dev, binding.port_base, plan);
      bus.map(binding.port_base, binding.port_span, shim, binding.irq_line);
      auto run = minic::run_unit(*prog.unit, bus, binding.entry, 3'000'000,
                                 minic::ExecEngine::kBytecodeVm);
      ASSERT_NE(run.fault, minic::FaultKind::kInternal) << run.fault_message;
      bus = hw::IoBus();
      shim.reset();
      pool.release(std::move(dev));
    }
    auto recycled = pool.acquire();
    auto fresh = binding.make_device();
    auto recycled_trace = clean_boot_trace(recycled);
    auto fresh_trace = clean_boot_trace(fresh);
    ASSERT_EQ(recycled_trace.size(), fresh_trace.size());
    for (size_t i = 0; i < fresh_trace.size(); ++i) {
      EXPECT_EQ(recycled_trace[i].is_write, fresh_trace[i].is_write) << i;
      EXPECT_EQ(recycled_trace[i].port, fresh_trace[i].port) << i;
      EXPECT_EQ(recycled_trace[i].value, fresh_trace[i].value) << i;
      EXPECT_EQ(recycled_trace[i].width, fresh_trace[i].width) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Event-scenario campaigns: matrix, determinism, outcomes, paper shape.
// ---------------------------------------------------------------------------

eval::FaultCampaignConfig busmouse_irq_c_config(unsigned threads = 1) {
  eval::FaultCampaignConfig cfg;
  cfg.base.driver = corpus::c_busmouse_irq_driver();
  cfg.base.device = eval::busmouse_irq_binding();
  cfg.base.threads = threads;
  return cfg;
}

void expect_same_result(const eval::FaultCampaignResult& a,
                        const eval::FaultCampaignResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.total_scenarios, b.total_scenarios) << label;
  EXPECT_EQ(a.sampled_scenarios, b.sampled_scenarios) << label;
  EXPECT_EQ(a.triggered_scenarios, b.triggered_scenarios) << label;
  EXPECT_EQ(a.clean_fingerprint, b.clean_fingerprint) << label;
  EXPECT_EQ(a.tally.scenarios, b.tally.scenarios) << label;
  EXPECT_EQ(a.tally.ports, b.tally.ports) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    const std::string at = label + " record #" + std::to_string(i);
    EXPECT_EQ(a.records[i].scenario_index, b.records[i].scenario_index) << at;
    EXPECT_EQ(a.records[i].plan.kind, b.records[i].plan.kind) << at;
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << at;
    EXPECT_EQ(a.records[i].detail, b.records[i].detail) << at;
    EXPECT_EQ(a.records[i].triggered, b.records[i].triggered) << at;
    EXPECT_EQ(a.records[i].steps, b.records[i].steps) << at;
  }
}

TEST(EventMatrix, AppendsEventRowsAfterPortRowsForIrqBindingsOnly) {
  const std::vector<uint32_t> triggers = {0, 1, 2, 7};
  auto polled = eval::fault_scenario_matrix(eval::busmouse_binding(), triggers);
  auto irq =
      eval::fault_scenario_matrix(eval::busmouse_irq_binding(), triggers);
  for (const auto& p : polled) EXPECT_FALSE(p.is_event_fault());
  // Event rows append after the port rows, so scenario_index keeps meaning
  // the same port scenario it always did.
  ASSERT_EQ(irq.size(), polled.size() + 4 * triggers.size());
  for (size_t i = 0; i < polled.size(); ++i) {
    EXPECT_EQ(irq[i].port, polled[i].port) << i;
    EXPECT_EQ(irq[i].kind, polled[i].kind) << i;
    EXPECT_EQ(irq[i].after, polled[i].after) << i;
    EXPECT_EQ(irq[i].mask, polled[i].mask) << i;
  }
  for (size_t i = polled.size(); i < irq.size(); ++i) {
    EXPECT_TRUE(irq[i].is_event_fault()) << i;
    EXPECT_EQ(irq[i].port, 5u) << "event rows name the IRQ line";
    if (irq[i].kind == FaultKind::kIrqStorm) {
      EXPECT_EQ(irq[i].value, 8u);
    }
    if (irq[i].kind == FaultKind::kDelayIrq) {
      EXPECT_EQ(irq[i].value, 1000u);
    }
  }
}

TEST(EventCampaign, SeedAndFingerprintFoldTheIrqLine) {
  auto cfg = busmouse_irq_c_config();
  auto other = cfg;
  other.base.device.irq_line = 4;
  EXPECT_NE(eval::fault_scenario_seed(cfg), eval::fault_scenario_seed(other));
  EXPECT_NE(eval::fault_campaign_fingerprint(cfg),
            eval::fault_campaign_fingerprint(other));
}

TEST(EventCampaign, ThreadsEnginesAndShardMergeAgreeByteForByte) {
  auto single = eval::run_fault_campaign(busmouse_irq_c_config(1));
  // The matrix really contains event scenarios and some fired.
  size_t event_rows = 0, event_triggered = 0;
  for (const auto& rec : single.records) {
    if (!rec.plan.is_event_fault()) continue;
    ++event_rows;
    if (rec.triggered) ++event_triggered;
  }
  EXPECT_GT(event_rows, 0u);
  EXPECT_GT(event_triggered, 0u);

  auto threaded = eval::run_fault_campaign(busmouse_irq_c_config(4));
  expect_same_result(single, threaded, "threads 1 vs 4");

  auto walker_cfg = busmouse_irq_c_config(1);
  walker_cfg.base.engine = minic::ExecEngine::kTreeWalker;
  auto walker = eval::run_fault_campaign(walker_cfg);
  expect_same_result(single, walker, "vm vs walker");

  std::vector<eval::ShardBundle> bundles;
  for (unsigned i = 1; i <= 3; ++i) {
    auto shard_cfg = busmouse_irq_c_config(i);
    eval::ShardBundle bundle;
    bundle.shard = eval::ShardSpec{i, 3};
    bundle.fault_campaigns.push_back(
        eval::run_fault_campaign_shard(shard_cfg, "C", bundle.shard));
    bundles.push_back(
        eval::parse_shard_bundle(eval::serialize_shard_bundle(bundle)));
  }
  auto merged = eval::merge_fault_bundles(bundles);
  ASSERT_EQ(merged.size(), 1u);
  expect_same_result(merged.front().result, single, "3-shard merge");
}

TEST(EventCampaign, ShardArtifactsRoundTripEventKinds) {
  eval::ShardBundle bundle;
  bundle.shard = eval::ShardSpec{1, 1};
  bundle.fault_campaigns.push_back(eval::run_fault_campaign_shard(
      busmouse_irq_c_config(), "C", bundle.shard));
  std::string text = eval::serialize_shard_bundle(bundle);
  eval::ShardBundle parsed = eval::parse_shard_bundle(text);
  EXPECT_EQ(eval::serialize_shard_bundle(parsed), text);
  // The parsed records preserve the event plans field-for-field.
  ASSERT_EQ(parsed.fault_campaigns.size(), 1u);
  size_t storms = 0;
  for (const auto& rec : parsed.fault_campaigns[0].records) {
    if (rec.plan.kind != FaultKind::kIrqStorm) continue;
    ++storms;
    EXPECT_TRUE(rec.plan.is_event_fault());
    EXPECT_EQ(rec.plan.port, 5u);
    EXPECT_EQ(rec.plan.value, 8u);
  }
  EXPECT_GT(storms, 0u);
}

TEST(EventCampaign, UntriggeredEventScenariosBootClean) {
  // Untriggered event records are written from the baseline census without
  // a boot; booting each one through a real injector must agree.
  const eval::FaultCampaignConfig cfg = busmouse_irq_c_config();
  auto res = eval::run_fault_campaign(cfg);
  const size_t untriggered_events =
      fault_boot::expect_records_reboot_identically(
          cfg, res, [](const eval::FaultRecord& rec) {
            return rec.plan.is_event_fault() && !rec.triggered;
          });
  for (const auto& rec : res.records) {
    if (!rec.plan.is_event_fault() || rec.triggered) continue;
    EXPECT_EQ(rec.outcome, eval::FaultOutcome::kCleanBoot)
        << rec.plan.describe();
  }
  // The busmouse boot delivers exactly one genuine raise, so the late
  // trigger offsets must leave genuinely untriggered event scenarios.
  EXPECT_GT(untriggered_events, 0u);
}

TEST(EventCampaign, CDevilDetectsStrictlyMoreEventFaultsThanC) {
  // The paper-shape acceptance check on the event rows alone: the CDevil
  // handler's in-service guard turns spurious interrupts into named Devil
  // assertions the classic C handler silently absorbs.
  auto event_detected = [](const eval::FaultCampaignResult& res) {
    size_t n = 0;
    for (const auto& rec : res.records) {
      if (!rec.plan.is_event_fault()) continue;
      if (rec.outcome == eval::FaultOutcome::kDevilCheck ||
          rec.outcome == eval::FaultOutcome::kDriverPanic) {
        ++n;
      }
    }
    return n;
  };
  for (const auto& drivers : corpus::irq_campaign_drivers()) {
    SCOPED_TRACE(drivers.device);
    eval::DeviceBinding binding = eval::binding_for(drivers.device);

    eval::FaultCampaignConfig c;
    c.base.driver = drivers.c_driver();
    c.base.device = binding;
    c.base.threads = 4;

    auto spec = devil::compile_spec(drivers.spec_file, drivers.spec(),
                                    devil::CodegenMode::kDebug);
    ASSERT_TRUE(spec.ok()) << spec.diags.render();
    eval::FaultCampaignConfig d;
    d.base.stubs = spec.stubs;
    d.base.driver = drivers.cdevil_driver();
    d.base.device = binding;
    d.base.is_cdevil = true;
    d.base.threads = 4;

    auto c_res = eval::run_fault_campaign(c);
    auto d_res = eval::run_fault_campaign(d);
    EXPECT_GT(event_detected(d_res), event_detected(c_res))
        << "CDevil event-detected " << event_detected(d_res) << " vs C "
        << event_detected(c_res);
    EXPECT_GT(d_res.tally.detected(), c_res.tally.detected())
        << "CDevil detected " << d_res.tally.detected() << " vs C "
        << c_res.tally.detected();
    // A Devil assertion really is what separates the two on event rows.
    bool saw_spurious_assert = false;
    for (const auto& rec : d_res.records) {
      if (rec.plan.kind == FaultKind::kSpuriousIrq &&
          rec.outcome == eval::FaultOutcome::kDevilCheck) {
        saw_spurious_assert = true;
      }
    }
    EXPECT_TRUE(saw_spurious_assert)
        << "expected at least one spurious-interrupt Devil assertion";
  }
}

}  // namespace
