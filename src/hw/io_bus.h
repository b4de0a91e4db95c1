// Simulated x86 I/O port bus.
//
// Substitution note (see DESIGN.md §2): the paper boots mutated drivers on
// real hardware. We model the ISA-bus contract the mutants actually interact
// with: I/O to an unmapped port does NOT fault — reads float high (all ones)
// and writes are ignored, exactly as on a PC. This is what makes "poll a
// wrong port" manifest as an infinite loop (status bits stuck at 1) rather
// than a crash, reproducing the paper's outcome distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/irq.h"
#include "minic/interp.h"

namespace hw {

/// One I/O access, for tests and debugging.
struct IoAccess {
  bool is_write = false;
  uint32_t port = 0;
  uint32_t value = 0;
  int width = 8;
};

/// Base class for register-level behavioural device models.
class Device {
 public:
  virtual ~Device() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Reads `width` bits from register at byte offset `offset` within the
  /// device's claimed range.
  virtual uint32_t read(uint32_t offset, int width) = 0;
  virtual void write(uint32_t offset, uint32_t value, int width) = 0;

  /// Returns the device to power-on state (called between mutant runs).
  virtual void reset() = 0;

  /// True when the run left persistent damage (e.g. clobbered partition
  /// table) — the paper's "damaged boot" evidence.
  [[nodiscard]] virtual bool damaged() const { return false; }
  [[nodiscard]] virtual std::string damage_note() const { return {}; }

  /// Appends the device's exact state to `out` for the VM's hang proof:
  /// every field a later read, write, damaged() or damage_note() can
  /// observe. Counters that only feed a threshold may be saturated past it;
  /// counters nothing but tests and tools inspect may be left out. Returns
  /// false when the state cannot be captured — the default, so a device
  /// that does not opt in (a tracing shim, a model nobody taught to
  /// capture) keeps every boot on it burning the budget.
  [[nodiscard]] virtual bool capture(support::StateCapture& out) const {
    (void)out;
    return false;
  }

  /// Wires the device's interrupt output to `sink` on `line` (the bus calls
  /// this from map() when the mapping carries a line; shims override it to
  /// splice themselves into the raise chain). `sink == nullptr` detaches —
  /// device pools detach before recycling so a pooled device can never raise
  /// into a dead bus. Devices that never interrupt simply stay detached and
  /// their raise_irq() calls no-op, which is why polled campaigns are
  /// byte-identical with this model compiled in.
  virtual void attach_irq(IrqSink* sink, int line) {
    irq_sink_ = sink;
    irq_line_ = sink != nullptr ? line : -1;
  }

 protected:
  /// Raise points inside device models call this (busmouse on motion, IDE on
  /// command completion). No-op until attach_irq() wires a sink.
  void raise_irq() {
    if (irq_sink_ != nullptr && irq_line_ >= 0) {
      irq_sink_->raise_irq(irq_line_, /*delay_steps=*/0, /*genuine=*/true);
    }
  }

  [[nodiscard]] IrqSink* irq_sink() const { return irq_sink_; }
  [[nodiscard]] int irq_line() const { return irq_line_; }

 private:
  IrqSink* irq_sink_ = nullptr;
  int irq_line_ = -1;
};

/// Routes port I/O to mapped devices. Implements minic::IoEnvironment so the
/// interpreter's inb/outb builtins land here, and IrqSink so mapped devices
/// (through any interposed shims) can queue interrupt events for the engines
/// to dispatch at charge-step boundaries.
class IoBus final : public minic::IoEnvironment, public IrqSink {
 public:
  /// Maps [base, base+length) to `dev`. Ranges must not overlap. When
  /// `irq_line >= 0` the device's interrupt output is wired to this bus on
  /// that line (attach_irq through the device, so shims splice in).
  void map(uint32_t base, uint32_t length, std::shared_ptr<Device> dev,
           int irq_line = -1);

  uint32_t io_in(uint32_t port, int width) override;
  void io_out(uint32_t port, uint32_t value, int width) override;

  /// IrqSink: queues the event, deliverable `delay_steps` interpreter steps
  /// from now. Events raised outside a run (e.g. pre-boot pended motion) are
  /// due at step 0.
  void raise_irq(int line, uint64_t delay_steps, bool genuine) override;

  /// IoEnvironment event hooks — drain the controller queue.
  [[nodiscard]] int irq_pending() override;
  void irq_begin(bool handled) override;
  void irq_end() override;
  /// Composes the controller's and every mapped device's capture. Fails
  /// while the access trace or an IRQ observer is attached (both record
  /// step-stamped history a repeat would not reproduce), while an event is
  /// queued, or when any device cannot capture. The unmapped-access count
  /// is inspection-only and stays out.
  [[nodiscard]] bool capture_state(support::StateCapture& out) const override;

  [[nodiscard]] const IrqController& irq_controller() const { return ctrl_; }

  /// Observer for raised/delivered/dropped transitions (the flight recorder).
  /// Observes post-shim reality: raises a fault injector swallows are never
  /// seen, spurious raises it injects are.
  void set_irq_observer(IrqObserver* obs) { irq_observer_ = obs; }

  /// Resets every mapped device, clears the trace and all pending IRQ state.
  void reset();

  [[nodiscard]] bool any_damage() const;
  [[nodiscard]] std::string damage_report() const;

  /// Bounded access trace (oldest entries dropped past the cap).
  void enable_trace(size_t cap = 4096) {
    trace_enabled_ = true;
    trace_cap_ = cap;
  }
  [[nodiscard]] const std::vector<IoAccess>& trace() const { return trace_; }

  [[nodiscard]] uint64_t unmapped_accesses() const { return unmapped_; }

 private:
  struct Mapping {
    uint32_t base;
    uint32_t length;
    std::shared_ptr<Device> dev;
  };

  Mapping* find(uint32_t port);
  void record(bool is_write, uint32_t port, uint32_t value, int width);

  std::vector<Mapping> mappings_;
  std::vector<IoAccess> trace_;
  bool trace_enabled_ = false;
  size_t trace_cap_ = 4096;
  uint64_t unmapped_ = 0;  // not captured: inspection-only
  IrqController ctrl_;
  IrqObserver* irq_observer_ = nullptr;
};

/// One-byte read-only window onto a controller's in-service bitmap,
/// conventionally mapped at kIrqStatusPortBase (0x20 — the 8259 command port
/// a real driver would poll for the in-service register). Reading it is how
/// a CDevil handler detects a spurious interrupt: the line's bit is clear.
/// Writes are ignored.
///
/// Points into the owning bus's controller, so it must be mapped on that bus
/// and torn down with it (the campaign kernels map it per boot and replace
/// the whole bus afterwards).
class IrqStatusPort final : public Device {
 public:
  explicit IrqStatusPort(const IrqController* ctrl) : ctrl_(ctrl) {}

  [[nodiscard]] std::string name() const override { return "irq-status"; }
  uint32_t read(uint32_t offset, int width) override {
    (void)offset;
    (void)width;
    return ctrl_->in_service() & 0xffu;
  }
  void write(uint32_t offset, uint32_t value, int width) override {
    (void)offset;
    (void)value;
    (void)width;
  }
  void reset() override {}
  /// Stateless: the bitmap it shows is part of the controller's capture.
  [[nodiscard]] bool capture(support::StateCapture& out) const override {
    (void)out;
    return true;
  }

 private:
  const IrqController* ctrl_;
};

}  // namespace hw
