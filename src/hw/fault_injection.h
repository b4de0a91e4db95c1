// Deterministic hardware fault injection on the simulated I/O port bus.
//
// The mutation campaigns hold the hardware fixed and perturb the driver;
// this layer runs the dual experiment: the driver stays clean and the
// *device* misbehaves. A `FaultPlan` describes one scenario — which port is
// faulty, what kind of fault, and on which matching access it arms — and a
// `FaultInjector` wraps any `hw::Device` behind the same `hw::IoBus`
// interface, so both execution engines (bytecode VM and tree walker)
// observe identical faulted traffic with zero engine-specific code.
//
// Everything is counter-triggered and state-free beyond the counters, so a
// scenario is exactly reproducible: the k-th matching access faults, every
// run, on every engine, at any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "hw/io_bus.h"

namespace hw {

/// The modelled hardware misbehaviours. Read faults tamper with (or bypass)
/// device reads; `kDropWrite` is the only write-side fault; the event kinds
/// perturb the interrupt chain instead of port traffic.
enum class FaultKind {
  kStuckZero,    // masked bits read as 0 from the trigger onward
  kStuckOne,     // masked bits read as 1 from the trigger onward
  kFlipOnce,     // masked bits invert on exactly the trigger-th read
  kDropWrite,    // exactly the trigger-th write to the port is lost
  kFloatingBus,  // reads float high (all ones) from the trigger onward;
                 // the device is no longer consulted (unplugged card)
  kNeverReady,   // reads return a frozen constant from the trigger onward;
                 // the device is no longer consulted (wedged status)
  kLostIrq,      // the trigger-th genuine raise on the line is swallowed
  kSpuriousIrq,  // the trigger-th device access injects a spurious raise
                 // (delivered, but the in-service bit never latches)
  kIrqStorm,     // the trigger-th genuine raise repeats `value` times
  kDelayIrq,     // the trigger-th genuine raise is postponed `value` steps
};

/// Short stable name used in artifacts and reports ("stuck0", "flip", ...).
[[nodiscard]] const char* fault_kind_name(FaultKind k);

/// One fault scenario. `after` counts matching-direction accesses to `port`
/// that pass through unfaulted before the fault arms: `after == 0` faults
/// the first matching access, `after == 2` the third. For the persistent
/// kinds (stuck bits, floating bus, never-ready) every later matching
/// access stays faulted; `kFlipOnce` and `kDropWrite` hit exactly one.
///
/// Event kinds reinterpret the fields: `port` names the IRQ line, `after`
/// counts genuine raises on that line (kSpuriousIrq: device accesses of
/// either direction to any register), and `value` carries the storm repeat
/// count / delivery delay in steps.
struct FaultPlan {
  uint32_t port = 0;
  FaultKind kind = FaultKind::kStuckZero;
  uint32_t after = 0;
  /// Bit mask for the stuck/flip kinds; ignored by the others.
  uint32_t mask = 0;
  /// Frozen read value for kNeverReady; storm repeats for kIrqStorm; delay
  /// steps for kDelayIrq; ignored by the others.
  uint32_t value = 0;

  /// True for the kinds that perturb the interrupt chain, not port traffic.
  [[nodiscard]] bool is_event_fault() const {
    return kind == FaultKind::kLostIrq || kind == FaultKind::kSpuriousIrq ||
           kind == FaultKind::kIrqStorm || kind == FaultKind::kDelayIrq;
  }

  /// True for every kind that tampers with reads.
  [[nodiscard]] bool is_read_fault() const {
    return kind != FaultKind::kDropWrite && !is_event_fault();
  }

  /// Human-readable one-liner ("stuck1 mask 0x80 at port 0x1f7 after 2").
  [[nodiscard]] std::string describe() const;
};

/// Injection shim: a `Device` that forwards to the wrapped device except
/// where the plan says otherwise. Map the injector on the bus in place of
/// the device it wraps (same base, same span); register offsets pass
/// through unchanged, so the wrapped model never knows it is shimmed.
///
/// `name`/`damaged`/`damage_note` forward to the wrapped device, so damage
/// reports look identical with and without the shim. `reset()` forwards and
/// re-arms the counters, which keeps a shimmed device recyclable through
/// `hw::DevicePool` exactly like a bare one.
///
/// The injector also splices itself into the interrupt raise chain: when the
/// bus wires a line (attach_irq), the injector becomes the wrapped device's
/// sink — lost/storm/delay faults tamper with genuine raises in flight, and
/// spurious faults inject a non-genuine raise on the trigger-th device
/// access. Everything downstream (bus queue, observer, engines) sees only
/// post-fault reality.
class FaultInjector final : public Device, public IrqSink {
 public:
  /// `port_base` is the bus base the injector will be mapped at; it turns
  /// the relative offsets of read/write back into absolute ports so plans
  /// can name ports the way the CLI and reports do.
  FaultInjector(std::shared_ptr<Device> inner, uint32_t port_base,
                FaultPlan plan);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  uint32_t read(uint32_t offset, int width) override;
  void write(uint32_t offset, uint32_t value, int width) override;
  void reset() override;
  [[nodiscard]] bool damaged() const override { return inner_->damaged(); }
  [[nodiscard]] std::string damage_note() const override {
    return inner_->damage_note();
  }
  /// The saturated trigger counters, then the wrapped device's capture.
  [[nodiscard]] bool capture(support::StateCapture& out) const override;

  /// Splices into the raise chain: remembers `sink` as the forward target
  /// and re-points the wrapped device at this shim.
  void attach_irq(IrqSink* sink, int line) override;
  /// IrqSink: applies the event-fault logic to genuine raises on the target
  /// line; everything else forwards unchanged.
  void raise_irq(int line, uint64_t delay_steps, bool genuine) override;

  /// Matching-direction accesses to the target port seen so far.
  [[nodiscard]] uint64_t matched() const { return matched_; }
  /// Accesses actually faulted. 0 means the scenario never triggered (the
  /// boot finished before the trigger offset was reached).
  [[nodiscard]] uint64_t fired() const { return fired_; }
  [[nodiscard]] const std::shared_ptr<Device>& inner() const { return inner_; }

 private:
  void maybe_inject_spurious();

  std::shared_ptr<Device> inner_;
  uint32_t port_base_;
  FaultPlan plan_;
  // The sequence counters are only ever compared with plan_.after (<, ==,
  // >), so a capture saturates them at plan_.after + 1. fired_ is only
  // tested for > 0 after the boot and is captured saturated at 1.
  uint64_t matched_ = 0;
  uint64_t fired_ = 0;
  uint64_t raise_seq_ = 0;   // genuine raises seen on the target line
  uint64_t access_seq_ = 0;  // device accesses seen (spurious trigger)
};

/// What the injector's trigger counters would reach over one fault-free
/// boot. A boot is identical to the fault-free one up to the access where
/// its fault fires, so a plan fires exactly when its trigger index is below
/// the matching count here; a plan that does not fire leaves the boot
/// identical to the fault-free one, step for step.
struct AccessCensus {
  /// Device reads / writes per absolute port (the read-fault kinds count
  /// reads, kDropWrite counts writes).
  std::map<uint32_t, uint64_t> reads;
  std::map<uint32_t, uint64_t> writes;
  /// Device accesses of either direction while an IRQ line was attached
  /// (kSpuriousIrq counts these and fires only with a sink to raise into).
  uint64_t irq_accesses = 0;
  /// Genuine raises per IRQ line (kLostIrq, kIrqStorm, kDelayIrq).
  std::map<int, uint64_t> raises;

  /// How many accesses or raises `plan`'s trigger counter would see.
  [[nodiscard]] uint64_t trigger_count(const FaultPlan& plan) const;
  /// True when `plan` fires on this boot: its trigger index is reached.
  [[nodiscard]] bool fires(const FaultPlan& plan) const {
    return plan.after < trigger_count(plan);
  }
};

/// Counting shim for the fault-free baseline boot: forwards everything to
/// the wrapped device and tallies what a `FaultInjector` in its place would
/// count. Mapped and wired exactly like the injector (same base, same span,
/// spliced into the raise chain by attach_irq). It does not capture, so a
/// hang proof can never skip traffic the census should have seen.
class AccessCensusShim final : public Device, public IrqSink {
 public:
  AccessCensusShim(std::shared_ptr<Device> inner, uint32_t port_base)
      : inner_(std::move(inner)), port_base_(port_base) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  uint32_t read(uint32_t offset, int width) override;
  void write(uint32_t offset, uint32_t value, int width) override;
  /// Forwards and clears the census.
  void reset() override;
  [[nodiscard]] bool damaged() const override { return inner_->damaged(); }
  [[nodiscard]] std::string damage_note() const override {
    return inner_->damage_note();
  }
  void attach_irq(IrqSink* sink, int line) override;
  void raise_irq(int line, uint64_t delay_steps, bool genuine) override;

  [[nodiscard]] const AccessCensus& census() const { return census_; }

 private:
  std::shared_ptr<Device> inner_;
  uint32_t port_base_;
  AccessCensus census_;
};

}  // namespace hw
