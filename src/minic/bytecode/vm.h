// Bytecode virtual machine for MiniC. Drop-in replacement for the tree
// walker (`minic::Interp`): identical RunOutcome for any typechecked unit —
// same fault kind and message, return value, step count, coverage bitmap
// and printk log. The differential suite (tests/test_bytecode_vm.cc)
// enforces the equivalence over the corpus drivers, the Devil-generated
// stubs and sampled mutants.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "minic/bytecode/bytecode.h"
#include "minic/interp.h"
#include "support/state_capture.h"

namespace minic::bytecode {

class Vm {
 public:
  /// `module` and `io` must outlive the Vm.
  Vm(const Module& module, IoEnvironment& io, uint64_t step_budget = 2'000'000);

  /// (Re)initialises globals, then calls `entry` (no arguments). Returns
  /// the outcome; never throws.
  [[nodiscard]] RunOutcome run(const std::string& entry);

  /// Optional per-opcode dispatch profile: when set before run(), every
  /// dispatched instruction bumps `profile->counts[op]`. The counting and
  /// non-counting dispatch loops are separate template instantiations, so
  /// runs with the profile unset (every campaign mutant boot) pay nothing.
  void set_opcode_profile(OpcodeProfile* profile) { profile_ = profile; }

  /// Wall-clock cap per run (kWatchdog fault when exceeded; checked every
  /// 2^20 retired charges). 0 (the default) disables it. Mirrors
  /// Interp::set_watchdog_ms.
  void set_watchdog_ms(uint64_t ms) { watchdog_ms_ = ms; }

 private:
  // Hang proof. Past the first 2^16 retired steps, every loop back-edge
  // feeds Brent's cycle detection with an exact capture of the machine: VM
  // frames, call stack, globals, the last stored value, call depth, IRQ
  // handler table, printk log length, and the IoEnvironment's hardware
  // capture. Two equal captures prove the boot can never terminate: from
  // the repeated state the same `period` steps recur forever. The VM then
  // sets `steps_left_ %= period` and keeps running, so the boot exhausts on
  // the same instruction, with the same fault text, steps_used and
  // executed-line bitmap as burning the whole budget would (every line of
  // the cycle is already marked). The walker never proves and stays the
  // burning oracle. No proof is tried inside IRQ handlers, with an opcode
  // profile set, while the armed watchdog could trip before the budget runs
  // out (more than 1000 steps left per watchdog millisecond), or while the
  // environment cannot capture (an IRQ event queued, the bus trace or the
  // flight recorder attached, a device that does not capture); a state that
  // never repeats within 2^10 back-edges of the search also burns.
  static constexpr uint64_t kHangWarmupSteps = uint64_t{1} << 16;
  static constexpr uint64_t kHangMaxPower = uint64_t{1} << 10;

  /// Interrupt lines modelled; mirrors the walker's kIrqLines and
  /// hw::IrqController::kLines.
  static constexpr int kIrqLines = 8;

  template <bool kProfile>
  VmValue exec(const CompiledFunction& fn, bool counts_depth,
               RunOutcome& out);
  template <bool kProfile>
  void run_body(const std::string& entry, RunOutcome& out);
  /// Drains deliverable IRQ events at an I/O charge boundary; dispatches
  /// registered handlers as recursive exec calls (handlers run to
  /// completion — no nesting).
  template <bool kProfile>
  void poll_irqs(RunOutcome& out);
  void check_watchdog();
  /// One back-edge of the hang search; `fn`/`pc` are the loop head.
  void hang_probe(const CompiledFunction* fn, size_t pc,
                  const RunOutcome& out);
  [[nodiscard]] bool capture_state(const CompiledFunction* fn, size_t pc,
                                   const RunOutcome& out,
                                   support::StateCapture& cap) const;
  void push_frame(const CompiledFunction& fn, const VmValue* caller_regs,
                  uint32_t argbase);
  void pop_frame();

  const Module& mod_;
  IoEnvironment& io_;
  uint64_t budget_;
  uint64_t steps_left_ = 0;
  int depth_ = 0;
  /// The value committed by the most recent store opcode; kTakeStored
  /// materialises it when an assignment is consumed as an expression.
  int64_t stored_ = 0;
  /// One flat register vector per activation; retired vectors are pooled so
  /// a warm call allocates nothing (mirrors the walker's frame pool).
  std::vector<std::vector<VmValue>> frames_;
  std::vector<std::vector<VmValue>> frame_pool_;
  struct Activation {
    const CompiledFunction* fn;
    size_t pc;
    uint16_t dst;
  };
  std::vector<Activation> calls_;
  std::vector<VmValue> globals_;
  OpcodeProfile* profile_ = nullptr;
  /// Interrupt handlers by line (request_irq); null = acknowledge-and-drop.
  std::array<const CompiledFunction*, kIrqLines> irq_handlers_{};
  /// True while a handler runs: handlers complete before the next delivery.
  bool in_irq_ = false;
  /// Wall-clock boot containment; 0 disables (the default).
  uint64_t watchdog_ms_ = 0;
  std::chrono::steady_clock::time_point watchdog_deadline_{};
  /// Back-edges run the hang search only while steps_left_ is below this
  /// (0 = never: profiling, a budget under the warm-up, after a proof).
  uint64_t probe_below_ = 0;
  /// Brent's search: the saved capture (tortoise), its steps_left_, the
  /// current power-of-two window and the back-edges seen inside it.
  support::StateCapture hang_saved_;
  support::StateCapture hang_scratch_;
  bool hang_have_saved_ = false;
  uint64_t hang_saved_left_ = 0;
  uint64_t hang_power_ = 1;
  uint64_t hang_lam_ = 0;
};

}  // namespace minic::bytecode
