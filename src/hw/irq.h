// Deterministic interrupt/event model for the simulated I/O bus.
//
// The paper's fault campaigns (and the ROADMAP's event-scenario item) need
// hardware that can *initiate* activity: spurious and lost interrupts are
// invisible to a purely polled bus. This header supplies the pieces:
//
//  - `IrqSink`: where a device delivers a raised line. The bus implements
//    it; shims (hw::FaultInjector) interpose on it the same way they
//    interpose on port reads, so event faults compose with port faults.
//  - `IrqObserver`: taps raised/delivered/dropped transitions — the
//    flight recorder implements it to interleave IRQ events with port
//    accesses in its ring.
//  - `IrqController`: the bus-side pending queue. Plain data (no
//    self-pointers), so `hw::IoBus` stays movable. Events carry the step
//    count at which they become deliverable; both execution engines drain
//    the queue at the same charge-step boundaries, which is what makes
//    interrupt timing byte-identical between the tree walker and the
//    bytecode VM.
// `IrqStatusPort` (io_bus.h) exposes the controller's in-service bitmap as
// a one-byte device — the 8259 idiom drivers use to tell a genuine
// interrupt from a spurious one: a spurious delivery never sets its
// in-service bit.
//
// This header is deliberately free of io_bus.h (the bus includes us).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/state_capture.h"

namespace hw {

/// Where a device (or an interposing shim) delivers a raised IRQ line.
/// `delay_steps` postpones deliverability by that many interpreter steps
/// (0 = deliverable at the next charge-step boundary); `genuine` is false
/// for injected spurious interrupts, which are delivered but never set
/// their in-service bit.
class IrqSink {
 public:
  virtual ~IrqSink() = default;
  virtual void raise_irq(int line, uint64_t delay_steps, bool genuine) = 0;
};

/// Lifecycle of one queued event, as seen by an observer. `kRaised` fires
/// when the bus accepts a raise (post-shim: a raise a fault injector
/// swallowed is never observed, an injected spurious raise is), `kDelivered`
/// when an engine dispatches a handler for it, `kDropped` when it is
/// discarded because no handler is registered for the line.
enum class IrqEventKind : uint8_t { kRaised, kDelivered, kDropped };

class IrqObserver {
 public:
  virtual ~IrqObserver() = default;
  virtual void irq_event(IrqEventKind kind, int line) = 0;
};

/// Pending-event queue + in-service state. Deliberately plain data: the
/// owning IoBus is move-assigned for teardown between campaign boots, and
/// nothing here may point back into the bus.
class IrqController {
 public:
  static constexpr int kLines = 8;

  /// Queues a raise. `due_step` is the steps_retired() value from which the
  /// event is deliverable.
  void raise(int line, uint64_t due_step, bool genuine);

  /// First queued event (FIFO among due ones) with due_step <= `now_step`,
  /// or -1. Memoizes the queue position for the begin() that follows.
  [[nodiscard]] int pending(uint64_t now_step);

  /// Pops the event pending() memoized. `handled` records whether an engine
  /// dispatched a handler (genuine deliveries set the in-service bit) or
  /// dropped it for lack of one.
  void begin(bool handled);

  /// Ends the in-service window begin() opened (handler returned).
  void end();

  /// In-service bitmap (bit per line). Spurious deliveries never set bits.
  [[nodiscard]] uint32_t in_service() const { return isr_; }

  [[nodiscard]] bool has_queued() const { return !queue_.empty(); }
  [[nodiscard]] uint64_t raised() const { return raised_; }
  [[nodiscard]] uint64_t delivered() const { return delivered_; }
  [[nodiscard]] uint64_t dropped() const { return dropped_; }

  /// Back to power-on: no queued events, no in-service lines, counters 0.
  void clear();

  /// Appends the in-service state for the VM's hang proof. Fails while any
  /// event is queued: its due step is absolute, so a later repeat of every
  /// other field would still deliver it at a different point.
  [[nodiscard]] bool capture(support::StateCapture& out) const;

 private:
  struct Pending {
    uint64_t seq = 0;
    int line = 0;
    uint64_t due = 0;
    bool genuine = true;
  };

  std::vector<Pending> queue_;  // FIFO by seq
  // Not captured: only stamps queued events, and a capture needs the queue
  // empty.
  uint64_t next_seq_ = 0;
  // Not captured: a memo pending() sets for the begin() right after it.
  size_t pending_ix_ = static_cast<size_t>(-1);
  uint32_t isr_ = 0;
  int in_service_line_ = -1;
  bool in_service_genuine_ = false;
  // Not captured: inspection-only counts no driver or post-boot check reads.
  uint64_t raised_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
};

/// Bus port the campaign harness maps the status window (`IrqStatusPort`,
/// io_bus.h) at when a device binding carries an IRQ line.
inline constexpr uint32_t kIrqStatusPortBase = 0x20;

}  // namespace hw
