// Tree-walking interpreter for MiniC with the fault model that stands in for
// "boot the mutated kernel and watch what happens" (paper §4.2).
//
// Outcome mapping to the paper's observed behaviours:
//   kDevilAssertion -> "Run-time check"   (Devil assertion, faulty line known)
//   kBusFault/kDivByZero/kBadIndex/kStackOverflow -> "Crash"
//   kStepLimit      -> "Infinite loop"
//   kPanic          -> "Halt" (kernel panic with a message)
//   no fault        -> "Boot" / "Dead code" / "Damaged boot", decided by the
//                      evaluation harness from coverage and device state.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "minic/ast.h"
#include "support/line_bitmap.h"
#include "support/state_capture.h"

namespace minic {

enum class FaultKind {
  kNone,
  kPanic,           // explicit panic(...) — kernel halt with a message
  kDevilAssertion,  // panic(...) whose message is a Devil assertion
  kBusFault,        // I/O to an unmapped port or device-detected illegal use
  kStepLimit,       // interpreter budget exhausted — infinite loop
  kStackOverflow,
  kDivByZero,
  kBadIndex,
  kWatchdog,        // wall-clock cap exceeded — hang contained by the harness
  kInternal,        // interpreter invariant violated (a bug in this repo)
};

[[nodiscard]] const char* fault_kind_name(FaultKind k);

/// Thrown by the interpreter and by IoEnvironment implementations.
struct Fault {
  FaultKind kind;
  std::string message;
};

/// The hardware seen by `inb`/`outb`/... Implemented by hw::IoBus.
class IoEnvironment {
 public:
  virtual ~IoEnvironment() = default;
  /// width is 8, 16 or 32. May throw Fault{kBusFault} for unmapped ports.
  virtual uint32_t io_in(uint32_t port, int width) = 0;
  virtual void io_out(uint32_t port, uint32_t value, int width) = 0;

  /// Step probe: both engines bind their live budget counter here at run
  /// start, so devices (the flight recorder) can stamp each port access with
  /// the number of interpreter steps retired when it happened. The charge
  /// discipline is engine-invariant (the budget-sweep differential suites
  /// pin it), so the stamps are too.
  void bind_step_probe(const uint64_t* steps_left, uint64_t budget) {
    probe_steps_left_ = steps_left;
    probe_budget_ = budget;
  }
  [[nodiscard]] uint64_t steps_retired() const {
    return probe_steps_left_ != nullptr ? probe_budget_ - *probe_steps_left_
                                        : 0;
  }

  /// Interrupt/event hooks. The engines poll `irq_pending()` at charge-step
  /// boundaries (after every port access and udelay); when it names a line
  /// they bracket the handler dispatch with `irq_begin(true)` / `irq_end()`,
  /// or acknowledge-and-drop with `irq_begin(false)` when the driver never
  /// registered a handler for that line. The defaults model a bus with no
  /// event sources, so purely polled environments are unaffected.
  [[nodiscard]] virtual int irq_pending() { return -1; }
  virtual void irq_begin(bool handled) { (void)handled; }
  virtual void irq_end() {}

  /// Appends the exact hardware state behind this environment to `out`
  /// (the bytecode VM's hang proof compares captures taken at loop
  /// back-edges). Returns false when the state cannot be captured exactly —
  /// the default, so an environment that does not opt in never has a hang
  /// proved against it and its boots burn the step budget as before.
  [[nodiscard]] virtual bool capture_state(support::StateCapture& out) const {
    (void)out;
    return false;
  }

 private:
  const uint64_t* probe_steps_left_ = nullptr;
  uint64_t probe_budget_ = 0;
};

struct RunOutcome {
  FaultKind fault = FaultKind::kNone;
  std::string fault_message;
  int64_t return_value = 0;
  uint64_t steps_used = 0;
  /// 1-based source lines on which at least one statement (or case-label
  /// comparison) executed. Drives the "dead code" classification. The
  /// interpreter records into the bitmap (one word OR per statement); the
  /// set is materialised from it once per run for callers that want ordered
  /// iteration. Hot-path consumers (the campaign engine) query `executed`.
  support::LineBitmap executed;
  std::set<uint32_t> executed_lines;
  std::vector<std::string> log;  // printk output, in order
};

class Interp {
 public:
  /// `unit` must have passed `typecheck`. The interpreter keeps references;
  /// both `unit` and `io` must outlive it.
  Interp(const Unit& unit, IoEnvironment& io,
         uint64_t step_budget = 2'000'000);

  /// Layered form: runs `tail` (typechecked by `typecheck_tail`) on top of
  /// an already-typechecked `prefix` unit, resolving names and whole-unit
  /// function/global indices prefix-first — observationally identical to
  /// the single-unit form over the concatenated unit. Both units must
  /// outlive the interpreter.
  Interp(const Unit& prefix, const Unit& tail, IoEnvironment& io,
         uint64_t step_budget = 2'000'000);

  /// (Re)initialises globals, then calls `entry` (no arguments). Returns the
  /// outcome; never throws.
  [[nodiscard]] RunOutcome run(const std::string& entry);

  /// Wall-clock cap per run; a boot still executing when it expires faults
  /// with kWatchdog ("hang, contained"). 0 (the default) disables the
  /// watchdog. The cap is checked every 2^20 charges, so sub-millisecond
  /// caps still let a few hundred thousand steps retire first.
  void set_watchdog_ms(uint64_t ms) { watchdog_ms_ = ms; }

 private:
  struct Impl;
  const Unit* prefix_unit_ = nullptr;  // layered under unit_; may be null
  const Unit& unit_;
  IoEnvironment& io_;
  uint64_t step_budget_;
  uint64_t watchdog_ms_ = 0;
};

}  // namespace minic
