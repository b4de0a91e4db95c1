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

  /// The globals as the last run() left them. A proven hang loop's
  /// counters appear in no RunOutcome; this is where they can be read.
  [[nodiscard]] const std::vector<VmValue>& globals() const {
    return globals_;
  }

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
  // burning oracle.
  //
  // A loop that carries a counter never repeats exactly, so the search also
  // looks for an affine lasso. Two captures at one loop head that differ
  // only in at most kLassoMaxWords integer words — VM registers, globals'
  // scalar values or stored_, never a device word — make a candidate; a
  // third capture as many back-edges later must show the same per-word
  // deltas after the same number of steps. The VM then runs one period in
  // the recording instantiation of the dispatch loop (Mode::kRecord), which
  // taints the words that change and every value moved or stored from
  // them. Only affine updates may read a tainted value: add or subtract of
  // a constant (kOpStore*Imm, kStoreSlotBinImm), moves, copies, integer
  // stores and kTakeStored. Any other read — a compare, a branch, an index,
  // a port, call or printk argument, a return value, kCoerce — declines.
  // Control flow and every untainted value then depend on untainted state
  // alone, so once the period ends with the same deltas, with no coercion
  // of a tainted value wrapped, the same period recurs with the counters
  // advanced by their deltas. The VM skips k
  // whole periods (k periods of steps charged, k·delta added to each
  // word), with k bounded by the steps left and by the first period in
  // which a store's coercion would wrap, and resumes ordinary dispatch.
  //
  // No proof is tried inside IRQ handlers, with an opcode profile set,
  // while the armed watchdog could trip before the budget runs out (more
  // than 1000 steps left per watchdog millisecond), or while the
  // environment cannot capture (an IRQ event queued, the bus trace or the
  // flight recorder attached, a device that does not capture); a state that
  // never repeats within 2^10 back-edges of the search, and is no lasso
  // within kLassoMaxTries candidates, also burns.
  static constexpr uint64_t kHangWarmupSteps = uint64_t{1} << 16;
  static constexpr uint64_t kHangMaxPower = uint64_t{1} << 10;
  static constexpr size_t kLassoMaxWords = 8;
  static constexpr int kLassoMaxTries = 4;

  /// Interrupt lines modelled; mirrors the walker's kIrqLines and
  /// hw::IrqController::kLines.
  static constexpr int kIrqLines = 8;

  /// Dispatch loop instantiations: campaign boots (kRun), opcode profiling
  /// (kProfile), and one recorded lasso period (kRecord).
  enum class Mode : uint8_t { kRun, kProfile, kRecord };

  /// Where an integer word of a capture lives: a register of frame `frame`,
  /// a global's scalar value (kGlobal), or stored_ (kStored).
  struct IntLoc {
    static constexpr int32_t kGlobal = -1;
    static constexpr int32_t kStored = -2;
    int32_t frame = kStored;
    uint32_t index = 0;
    friend bool operator==(const IntLoc&, const IntLoc&) = default;
  };
  /// One word of a capture that a lasso may let change.
  struct LassoWord {
    size_t word = 0;  // index in the capture
    IntLoc loc;
    int64_t delta = 0;  // per period
  };
  /// During a recorded period: the lasso word a value derives from (-1 when
  /// it derives from none) plus the constant added to it since the start.
  struct Taint {
    int32_t src = -1;
    int64_t off = 0;
  };
  /// A coercion applied to a tainted value: `src`'s value + `off` must stay
  /// inside the `pack` width in every skipped period.
  struct LassoBound {
    int32_t src = 0;
    int64_t off = 0;
    uint8_t pack = 0;
  };

  template <Mode M>
  VmValue exec(const CompiledFunction& fn, bool counts_depth,
               RunOutcome& out);
  /// The dispatch loop of one exec level, from `pc` in `fn`; `base_calls`
  /// is calls_.size() at the level's entry. A lasso switches the level
  /// between the kRun and kRecord instantiations at a loop head.
  template <Mode M>
  VmValue dispatch(const CompiledFunction* fn, size_t pc, size_t base_calls,
                   bool counts_depth, RunOutcome& out);
  template <Mode M>
  void run_body(const std::string& entry, RunOutcome& out);
  /// Drains deliverable IRQ events at an I/O charge boundary; dispatches
  /// registered handlers as recursive exec calls (handlers run to
  /// completion — no nesting).
  template <Mode M>
  void poll_irqs(RunOutcome& out);
  void check_watchdog();
  /// One back-edge of the hang search; `fn`/`pc` are the loop head. True
  /// when a lasso candidate is confirmed: the caller records one period.
  bool hang_probe(const CompiledFunction* fn, size_t pc,
                  const RunOutcome& out);
  /// Appends the machine state to `cap`; false when it cannot be captured.
  /// `vm_words` receives the length of the VM part (device words follow);
  /// `ints`, when set, receives every word a lasso may let change.
  [[nodiscard]] bool capture_state(
      const CompiledFunction* fn, size_t pc, const RunOutcome& out,
      support::StateCapture& cap, size_t* vm_words = nullptr,
      std::vector<LassoWord>* ints = nullptr) const;
  /// Whether hang_saved_ -> hang_scratch_ is a lasso candidate; fills
  /// lasso_words_ when it is.
  bool lasso_candidate(const CompiledFunction* fn, size_t pc,
                       const RunOutcome& out, size_t vm_words);
  /// Whether `to` is `from` with every lasso word advanced by its delta.
  [[nodiscard]] bool lasso_step(const support::StateCapture& from,
                                const support::StateCapture& to) const;
  /// Taints the lasso words and arms the recording of one period.
  void lasso_begin();
  /// Taint bookkeeping for one instruction of a recorded period, run before
  /// the instruction executes.
  void lasso_track(const Insn& in, const VmValue* R);
  /// A back-edge of a recorded period; true when the recording is over and
  /// ordinary dispatch resumes at `fn`/`pc`.
  bool lasso_edge(const CompiledFunction* fn, size_t pc,
                  const RunOutcome& out);
  /// Ends the recording at the loop head and skips periods if it proved.
  void lasso_finish(const CompiledFunction* fn, size_t pc,
                    const RunOutcome& out);
  [[nodiscard]] int64_t& int_at(const IntLoc& loc);
  [[nodiscard]] Taint& taint_at(const IntLoc& loc);
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
  /// Whether this run proved its loop, and the steps the proofs skipped.
  bool hang_proved_ = false;
  uint64_t hang_skipped_ = 0;
  /// Lasso search: the words that change and their deltas, where every
  /// integer word of a capture sits (scratch), the last capture of the
  /// candidate and its steps_left_, the period in steps and in back-edges,
  /// the back-edges until the third capture or, while recording, until the
  /// period ends, and the candidates tried.
  std::vector<LassoWord> lasso_words_;
  std::vector<LassoWord> lasso_ints_;
  support::StateCapture lasso_last_;
  uint64_t lasso_last_left_ = 0;
  uint64_t lasso_period_ = 0;
  uint64_t lasso_edges_ = 0;
  uint64_t lasso_wait_ = 0;
  int lasso_tries_ = 0;
  /// The recorded period: whether every read so far was allowed, the
  /// taints (one vector per frame, mirroring frames_) and the coercions met.
  bool lasso_ok_ = false;
  std::vector<std::vector<Taint>> lasso_regs_;
  std::vector<Taint> lasso_globals_;
  Taint lasso_stored_;
  std::vector<LassoBound> lasso_bounds_;
};

}  // namespace minic::bytecode
