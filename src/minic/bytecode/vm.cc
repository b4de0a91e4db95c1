// Dense dispatch loop for the MiniC bytecode. Every arithmetic, fault and
// coercion rule here is a transliteration of the tree walker's (interp.cc);
// messages must stay byte-identical — the campaign records carry them.
#include "minic/bytecode/vm.h"

#include <algorithm>

#include "support/metrics.h"
#include "support/strings.h"

namespace minic::bytecode {

namespace {

/// minic::coerce_int, for the packed descriptor (bits | signed<<7).
int64_t coerce(int64_t v, uint8_t pack) {
  int bits = pack & 0x7f;
  if (bits == 0) return v;
  uint64_t mask = (uint64_t{1} << bits) - 1;
  uint64_t u = static_cast<uint64_t>(v) & mask;
  if ((pack & 0x80) != 0 && ((u >> (bits - 1)) & 1)) u |= ~mask;
  return static_cast<int64_t>(u);
}

/// The walker's apply_binop, including its fault messages and the logical
/// 32-bit right shift for hardware register values.
int64_t apply_binop(Tok op, int64_t a, int64_t b) {
  switch (op) {
    case Tok::kPlus: return a + b;
    case Tok::kMinus: return a - b;
    case Tok::kStar: return a * b;
    case Tok::kSlash:
      if (b == 0) throw Fault{FaultKind::kDivByZero, "division by zero"};
      return a / b;
    case Tok::kPercent:
      if (b == 0) throw Fault{FaultKind::kDivByZero, "modulo by zero"};
      return a % b;
    case Tok::kAmp: return a & b;
    case Tok::kPipe: return a | b;
    case Tok::kCaret: return a ^ b;
    case Tok::kShl:
      if (b < 0 || b > 63) return 0;
      return static_cast<int64_t>(static_cast<uint64_t>(a) << b);
    case Tok::kShr:
      if (b < 0 || b > 63) return 0;
      return static_cast<int64_t>((static_cast<uint64_t>(a) & 0xffffffffULL) >>
                                  static_cast<uint64_t>(b));
    case Tok::kEq: return a == b;
    case Tok::kNe: return a != b;
    case Tok::kLt: return a < b;
    case Tok::kGt: return a > b;
    case Tok::kLe: return a <= b;
    case Tok::kGe: return a >= b;
    default:
      throw Fault{FaultKind::kInternal, "bad binary op"};
  }
}

[[noreturn]] void throw_step_limit(uint32_t line) {
  throw Fault{FaultKind::kStepLimit,
              "step budget exhausted at line " + std::to_string(line)};
}

constexpr int kMaxCallDepth = 128;  // == the walker's limit

const std::string& empty_string() {
  static const std::string empty;
  return empty;
}

void put_value(support::StateCapture& cap, const VmValue& v) {
  cap.put(static_cast<uint64_t>(v.i));
  cap.put_bytes(v.s);
  cap.put(v.fields.size());
  for (const VmValue& f : v.fields) put_value(cap, f);
  cap.put(v.arr.size());
  for (int64_t e : v.arr) cap.put(static_cast<uint64_t>(e));
}

}  // namespace

Vm::Vm(const Module& module, IoEnvironment& io, uint64_t step_budget)
    : mod_(module), io_(io), budget_(step_budget) {}

void Vm::push_frame(const CompiledFunction& fn, const VmValue* caller_regs,
                    uint32_t argbase) {
  std::vector<VmValue> frame;
  if (!frame_pool_.empty()) {
    frame = std::move(frame_pool_.back());
    frame_pool_.pop_back();
  }
  if (frame.size() < fn.nregs) frame.resize(fn.nregs);
  // The walker's fresh frame defaults every slot to integer 0; temporaries
  // are always written before they are read, so only slots need zeroing.
  for (uint32_t i = 0; i < fn.nslots; ++i) frame[i].i = 0;
  for (size_t i = 0; i < fn.params.size() && i < fn.nslots; ++i) {
    const ParamSpec& ps = fn.params[i];
    if (caller_regs) {
      const VmValue& arg = caller_regs[argbase + i];
      switch (ps.kind) {
        case ParamSpec::Kind::kInt:
          frame[i].i = coerce(arg.i, ps.coerce);
          break;
        case ParamSpec::Kind::kStr:
          frame[i].s = arg.s;
          break;
        case ParamSpec::Kind::kStruct:
          frame[i].fields = arg.fields;
          break;
      }
    } else if (ps.kind != ParamSpec::Kind::kInt) {
      // Entry called without arguments: non-integer params default clean
      // (a pooled frame may hold stale payloads).
      frame[i].s.clear();
      frame[i].fields.clear();
    }
  }
  frames_.push_back(std::move(frame));
}

void Vm::pop_frame() {
  frame_pool_.push_back(std::move(frames_.back()));
  frames_.pop_back();
}

void Vm::check_watchdog() {
  if (std::chrono::steady_clock::now() >= watchdog_deadline_) {
    throw Fault{FaultKind::kWatchdog,
                "watchdog: boot exceeded " + std::to_string(watchdog_ms_) +
                    " ms wall-clock cap"};
  }
}

bool Vm::capture_state(const CompiledFunction* fn, size_t pc,
                       const RunOutcome& out,
                       support::StateCapture& cap) const {
  // Outside IRQ handlers only one exec level is live, so frame k belongs to
  // calls_[k].fn and the last frame to `fn`.
  if (frames_.size() != calls_.size() + 1) return false;
  cap.clear();
  cap.put(reinterpret_cast<uintptr_t>(fn));
  cap.put(pc);
  cap.put(static_cast<uint64_t>(depth_));
  cap.put(static_cast<uint64_t>(stored_));
  // The log only grows, so equal lengths mean nothing was printed in
  // between; a loop that prints never repeats.
  cap.put(out.log.size());
  for (const CompiledFunction* h : irq_handlers_) {
    cap.put(reinterpret_cast<uintptr_t>(h));
  }
  for (size_t k = 0; k < frames_.size(); ++k) {
    const CompiledFunction* f = fn;
    if (k < calls_.size()) {
      f = calls_[k].fn;
      cap.put(calls_[k].pc);
      cap.put(calls_[k].dst);
    }
    // Only the function's own registers: a pooled frame may be longer, and
    // its tail is never read.
    for (uint32_t r = 0; r < f->nregs; ++r) put_value(cap, frames_[k][r]);
  }
  for (const VmValue& g : globals_) put_value(cap, g);
  return io_.capture_state(cap);
}

void Vm::hang_probe(const CompiledFunction* fn, size_t pc,
                    const RunOutcome& out) {
  if (in_irq_) return;
  if (!capture_state(fn, pc, out, hang_scratch_)) {
    // Not capturable now (e.g. an IRQ event is queued): restart the search
    // another warm-up later.
    hang_have_saved_ = false;
    hang_power_ = 1;
    probe_below_ =
        steps_left_ > kHangWarmupSteps ? steps_left_ - kHangWarmupSteps : 0;
    return;
  }
  if (hang_have_saved_ && hang_scratch_ == hang_saved_) {
    // Every loop iteration charges, so the period is never 0.
    const uint64_t period = hang_saved_left_ - steps_left_;
    const uint64_t before = steps_left_;
    steps_left_ %= period;
    probe_below_ = 0;
    support::Metrics::add_hang_proof(before - steps_left_);
    return;
  }
  if (hang_have_saved_ && ++hang_lam_ < hang_power_) return;
  if (hang_have_saved_) {
    hang_power_ *= 2;
    if (hang_power_ > kHangMaxPower) {
      probe_below_ = 0;  // no repeat found: burn the budget
      return;
    }
  }
  hang_saved_.swap(hang_scratch_);
  hang_saved_left_ = steps_left_;
  hang_have_saved_ = true;
  hang_lam_ = 0;
}

template <bool kProfile>
void Vm::poll_irqs(RunOutcome& out) {
  if (in_irq_) return;
  for (;;) {
    int line = io_.irq_pending();
    if (line < 0) return;
    const CompiledFunction* h =
        line < kIrqLines ? irq_handlers_[static_cast<size_t>(line)] : nullptr;
    if (h == nullptr) {
      io_.irq_begin(false);  // no handler registered: acknowledge and drop
      continue;
    }
    io_.irq_begin(true);
    in_irq_ = true;
    // Recursive exec is safe mid-dispatch: the caller's register pointer
    // aims into its frame's heap buffer, which stays put when frames_
    // itself reallocates (vectors move by buffer ownership).
    exec<kProfile>(*h, /*counts_depth=*/true, out);
    in_irq_ = false;
    io_.irq_end();
  }
}

template <bool kProfile>
VmValue Vm::exec(const CompiledFunction& entry_fn, bool counts_depth,
                 RunOutcome& out) {
  if (counts_depth && ++depth_ > kMaxCallDepth) {
    throw Fault{FaultKind::kStackOverflow,
                "call depth exceeded in " + entry_fn.name};
  }
  const size_t base_calls = calls_.size();
  push_frame(entry_fn, nullptr, 0);
  const CompiledFunction* fn = &entry_fn;
  const Insn* code = fn->code.data();
  size_t pc = 0;
  VmValue* R = frames_.back().data();
  VmValue* G = globals_.data();

// The trailing mask check mirrors the walker's step(): an out-of-line
// wall-clock watchdog probe every 2^20 retired charges (never on the
// fast path when the watchdog is off).
#define CHARGE(ln)                          \
  do {                                      \
    if (steps_left_ == 0) {                 \
      throw_step_limit(ln);                 \
    }                                       \
    --steps_left_;                          \
    if ((steps_left_ & 0xfffff) == 0 && watchdog_ms_ != 0) {                \
      check_watchdog();                     \
    }                                       \
  } while (0)
// Charge unless the instruction was marked free (its node's charge was
// already emitted as an explicit pre-order kStep).
#define CHG(insn)                           \
  do {                                      \
    if ((insn).flags == 0) CHARGE((insn).line); \
  } while (0)
// A jump that may close a loop: backward targets past the warm-up feed the
// hang search (compiled out of the profiling loop).
#define JUMP(target)                                                  \
  do {                                                                \
    const size_t to = static_cast<size_t>(target);                    \
    if constexpr (!kProfile) {                                        \
      if (steps_left_ < probe_below_ && to < pc) hang_probe(fn, to, out); \
    }                                                                 \
    pc = to;                                                          \
  } while (0)

  for (;;) {
    const Insn& in = code[pc++];
    if constexpr (kProfile) ++profile_->counts[static_cast<size_t>(in.op)];
    switch (in.op) {
      // --- statement accounting ------------------------------------------
      case Op::kStep:
        CHG(in);
        break;
      case Op::kStepMark:
        CHG(in);
        out.executed.set(in.line);
        break;
      case Op::kStepStepMark:
        CHG(in);
        CHARGE(static_cast<uint32_t>(in.imm));
        out.executed.set(static_cast<uint32_t>(in.imm));
        break;
      case Op::kStepJump:
        CHG(in);
        JUMP(in.imm);
        break;
      case Op::kMark:
        out.executed.set(in.line);
        break;
      // --- control flow ---------------------------------------------------
      // Loop back-edges are kJump/kStepJump (while, for, continue) and
      // kJumpIfNotZero (do-while); every other jump only goes forward.
      case Op::kJump:
        JUMP(in.imm);
        break;
      case Op::kJumpIfZero:
        if (R[in.a].i == 0) pc = static_cast<size_t>(in.imm);
        break;
      case Op::kJumpIfNotZero:
        if (R[in.a].i != 0) JUMP(in.imm);
        break;
      case Op::kJumpIfEqual:
        if (R[in.a].i == R[in.b].i) pc = static_cast<size_t>(in.imm);
        break;
      case Op::kCaseTest:
        // Walker order: the case label is marked, then the (constant) value
        // evaluation charges — a budget fault still leaves the mark.
        out.executed.set(in.line);
        CHG(in);
        R[in.b].i = R[in.a].i == in.imm ? 1 : 0;
        break;
      case Op::kCondJumpZero:
        CHG(in);
        if (R[in.a].i == 0) pc = static_cast<size_t>(in.imm);
        break;
      case Op::kAndJump:
        CHG(in);
        if (R[in.b].i == 0) {
          R[in.a].i = 0;
          pc = static_cast<size_t>(in.imm);
        }
        break;
      case Op::kOrJump:
        CHG(in);
        if (R[in.b].i != 0) {
          R[in.a].i = 1;
          pc = static_cast<size_t>(in.imm);
        }
        break;
      case Op::kBoolNorm:
        R[in.a].i = R[in.b].i != 0 ? 1 : 0;
        break;
      // --- loads / moves --------------------------------------------------
      case Op::kLoadConst:
        CHG(in);
        R[in.a].i = in.imm;
        break;
      case Op::kLoadStr:
        CHG(in);
        R[in.a].i = 0;
        R[in.a].s = mod_.str(static_cast<size_t>(in.imm));
        break;
      case Op::kMoveInt:
        CHG(in);
        R[in.a].i = R[in.b].i;
        break;
      case Op::kMoveStr:
        CHG(in);
        R[in.a].i = 0;
        R[in.a].s = R[in.b].s;
        break;
      case Op::kMoveStruct:
        CHG(in);
        R[in.a].i = 0;
        R[in.a].fields = R[in.b].fields;
        break;
      case Op::kCopyInt:
        R[in.a].i = R[in.b].i;
        break;
      case Op::kCopyStr:
        R[in.a].s = R[in.b].s;
        break;
      case Op::kCopyStruct:
        R[in.a].fields = R[in.b].fields;
        break;
      case Op::kLoadGlobalInt:
        CHG(in);
        R[in.a].i = G[in.b].i;
        break;
      case Op::kLoadGlobalStr:
        CHG(in);
        R[in.a].i = 0;
        R[in.a].s = G[in.b].s;
        break;
      case Op::kLoadGlobalStruct:
        CHG(in);
        R[in.a].i = 0;
        R[in.a].fields = G[in.b].fields;
        break;
      case Op::kLoadElemLocal:
      case Op::kLoadElemGlobal: {
        CHG(in);
        const VmValue& slot = in.op == Op::kLoadElemLocal ? R[in.b] : G[in.b];
        int64_t ix = R[in.c].i;
        if (ix < 0 || static_cast<size_t>(ix) >= slot.arr.size()) {
          throw Fault{FaultKind::kBadIndex,
                      "out-of-bounds access to " +
                          mod_.str(static_cast<size_t>(in.imm))};
        }
        R[in.a].i = slot.arr[static_cast<size_t>(ix)];
        break;
      }
      case Op::kGetFieldInt: {
        CHG(in);
        const auto& f = R[in.b].fields;
        R[in.a].i = in.c < f.size() ? f[in.c].i : 0;
        break;
      }
      case Op::kGetFieldStr: {
        CHG(in);
        const auto& f = R[in.b].fields;
        R[in.a].i = 0;
        if (in.c < f.size()) {
          R[in.a].s = f[in.c].s;
        } else {
          R[in.a].s.clear();
        }
        break;
      }
      case Op::kGetFieldStruct: {
        CHG(in);
        R[in.a].i = 0;
        if (in.c < R[in.b].fields.size()) {
          // Self-aliasing is impossible: the destination temporary is
          // always distinct from the base register (compiler invariant).
          R[in.a].fields = R[in.b].fields[in.c].fields;
        } else {
          R[in.a].fields.clear();
        }
        break;
      }
      case Op::kTakeStored:
        R[in.a].i = stored_;
        break;
      // --- arithmetic -----------------------------------------------------
      case Op::kNeg:
        CHG(in);
        R[in.a].i = -R[in.b].i;
        break;
      case Op::kBitNot:
        CHG(in);
        R[in.a].i = ~R[in.b].i;
        break;
      case Op::kLogNot:
        CHG(in);
        R[in.a].i = R[in.b].i == 0 ? 1 : 0;
        break;
      case Op::kAdd:
        CHG(in);
        R[in.a].i = R[in.b].i + R[in.c].i;
        break;
      case Op::kSub:
        CHG(in);
        R[in.a].i = R[in.b].i - R[in.c].i;
        break;
      case Op::kMul:
        CHG(in);
        R[in.a].i = R[in.b].i * R[in.c].i;
        break;
      case Op::kDiv:
        CHG(in);
        if (R[in.c].i == 0) {
          throw Fault{FaultKind::kDivByZero, "division by zero"};
        }
        R[in.a].i = R[in.b].i / R[in.c].i;
        break;
      case Op::kMod:
        CHG(in);
        if (R[in.c].i == 0) {
          throw Fault{FaultKind::kDivByZero, "modulo by zero"};
        }
        R[in.a].i = R[in.b].i % R[in.c].i;
        break;
      case Op::kBitAnd:
        CHG(in);
        R[in.a].i = R[in.b].i & R[in.c].i;
        break;
      case Op::kBitOr:
        CHG(in);
        R[in.a].i = R[in.b].i | R[in.c].i;
        break;
      case Op::kBitXor:
        CHG(in);
        R[in.a].i = R[in.b].i ^ R[in.c].i;
        break;
      case Op::kShl:
        CHG(in);
        R[in.a].i = apply_binop(Tok::kShl, R[in.b].i, R[in.c].i);
        break;
      case Op::kShr:
        CHG(in);
        R[in.a].i = apply_binop(Tok::kShr, R[in.b].i, R[in.c].i);
        break;
      case Op::kCmpEq:
        CHG(in);
        R[in.a].i = R[in.b].i == R[in.c].i;
        break;
      case Op::kCmpNe:
        CHG(in);
        R[in.a].i = R[in.b].i != R[in.c].i;
        break;
      case Op::kCmpLt:
        CHG(in);
        R[in.a].i = R[in.b].i < R[in.c].i;
        break;
      case Op::kCmpGt:
        CHG(in);
        R[in.a].i = R[in.b].i > R[in.c].i;
        break;
      case Op::kCmpLe:
        CHG(in);
        R[in.a].i = R[in.b].i <= R[in.c].i;
        break;
      case Op::kCmpGe:
        CHG(in);
        R[in.a].i = R[in.b].i >= R[in.c].i;
        break;
      case Op::kBinImm:
        CHG(in);
        CHG(in);
        R[in.a].i = apply_binop(static_cast<Tok>(in.w), R[in.b].i, in.imm);
        break;
      // Compare+branch superinstructions: the producer's charges, then the
      // jump-if-zero, with the dead result register never written.
      case Op::kBinJump:
        CHG(in);
        if (apply_binop(static_cast<Tok>(in.w), R[in.b].i, R[in.c].i) == 0) {
          pc = static_cast<size_t>(in.imm);
        }
        break;
      case Op::kBinImmJump:
        CHG(in);
        CHG(in);
        if (apply_binop(static_cast<Tok>(in.w), R[in.b].i,
                        static_cast<int64_t>(in.c)) == 0) {
          pc = static_cast<size_t>(in.imm);
        }
        break;
      case Op::kDilEqIntJump:
        CHG(in);
        if (R[in.b].i != R[in.c].i) pc = static_cast<size_t>(in.imm);
        break;
      case Op::kInConstAnd:
      case Op::kPollInAnd: {
        // Fused `inb(PORT) & MASK` (optionally with the statement's
        // step+mark). Charge order mirrors the walker exactly: the I/O
        // lands after the port literal's charge and before the mask
        // literal's, so a budget fault between them leaves identical
        // device state.
        if (in.op == Op::kPollInAnd) {
          CHARGE(in.line);
          out.executed.set(in.line);
        }
        CHARGE(in.line);
        CHARGE(in.line);
        CHARGE(in.line);
        uint64_t packed = static_cast<uint64_t>(in.imm);
        uint32_t value =
            io_.io_in(static_cast<uint32_t>(packed & 0xffffffffu), in.w);
        poll_irqs<kProfile>(out);  // walker polls on io_in return, pre-mask
        CHARGE(in.line);
        R[in.a].i = static_cast<int64_t>(value & (packed >> 32));
        break;
      }
      case Op::kStoreSlotBinImm:
        // Fused `n = m <op> LIT`: assignment, operator, identifier and
        // literal charges, then the coerced store.
        CHARGE(in.line);
        CHARGE(in.line);
        CHARGE(in.line);
        CHARGE(in.line);
        stored_ = R[in.a].i = coerce(
            apply_binop(static_cast<Tok>(in.w), R[in.b].i, in.imm),
            static_cast<uint8_t>(in.c));
        break;
      case Op::kCoerce:
        CHG(in);
        R[in.a].i = coerce(R[in.b].i, in.w);
        break;
      // --- stores ---------------------------------------------------------
      case Op::kStoreLocalInt:
        CHG(in);
        stored_ = R[in.a].i = coerce(R[in.b].i, in.w);
        break;
      case Op::kStoreGlobalInt:
        CHG(in);
        stored_ = G[in.a].i = coerce(R[in.b].i, in.w);
        break;
      case Op::kStoreLocalStr:
        CHG(in);
        R[in.a].s = R[in.b].s;
        break;
      case Op::kStoreGlobalStr:
        CHG(in);
        G[in.a].s = R[in.b].s;
        break;
      case Op::kStoreLocalStruct:
        CHG(in);
        R[in.a].fields = R[in.b].fields;
        break;
      case Op::kStoreGlobalStruct:
        CHG(in);
        G[in.a].fields = R[in.b].fields;
        break;
      case Op::kOpStoreLocal:
        CHG(in);
        stored_ = R[in.a].i = coerce(
            apply_binop(static_cast<Tok>(in.c), R[in.a].i, R[in.b].i), in.w);
        break;
      case Op::kOpStoreGlobal:
        CHG(in);
        stored_ = G[in.a].i = coerce(
            apply_binop(static_cast<Tok>(in.c), G[in.a].i, R[in.b].i), in.w);
        break;
      case Op::kOpStoreLocalImm:
        CHG(in);
        CHG(in);
        stored_ = R[in.a].i = coerce(
            apply_binop(static_cast<Tok>(in.c), R[in.a].i, in.imm), in.w);
        break;
      case Op::kOpStoreGlobalImm:
        CHG(in);
        CHG(in);
        stored_ = G[in.a].i = coerce(
            apply_binop(static_cast<Tok>(in.c), G[in.a].i, in.imm), in.w);
        break;
      case Op::kStoreElemLocal:
      case Op::kStoreElemGlobal: {
        CHG(in);
        VmValue& slot = in.op == Op::kStoreElemLocal ? R[in.a] : G[in.a];
        int64_t ix = R[in.b].i;
        if (ix < 0 || static_cast<size_t>(ix) >= slot.arr.size()) {
          throw Fault{FaultKind::kBadIndex,
                      "out-of-bounds store to " +
                          mod_.str(static_cast<size_t>(in.imm))};
        }
        stored_ = slot.arr[static_cast<size_t>(ix)] =
            coerce(R[in.c].i, in.w);
        break;
      }
      case Op::kOpStoreElemLocal:
      case Op::kOpStoreElemGlobal: {
        CHG(in);
        VmValue& slot = in.op == Op::kOpStoreElemLocal ? R[in.a] : G[in.a];
        int64_t ix = R[in.b].i;
        if (ix < 0 || static_cast<size_t>(ix) >= slot.arr.size()) {
          throw Fault{
              FaultKind::kBadIndex,
              "out-of-bounds store to " +
                  mod_.str(PackedElemOp::name_ix(in.imm))};
        }
        int64_t& elem = slot.arr[static_cast<size_t>(ix)];
        stored_ = elem =
            coerce(apply_binop(static_cast<Tok>(PackedElemOp::op(in.imm)),
                               elem, R[in.c].i),
                   PackedElemOp::coerce(in.imm));
        break;
      }
      case Op::kStoreFieldLocalInt:
      case Op::kStoreFieldGlobalInt: {
        CHG(in);
        VmValue& base = in.op == Op::kStoreFieldLocalInt ? R[in.a] : G[in.a];
        if (base.fields.size() <= in.b) base.fields.resize(in.b + 1);
        stored_ = base.fields[in.b].i = coerce(R[in.c].i, in.w);
        break;
      }
      case Op::kStoreFieldLocalStr:
      case Op::kStoreFieldGlobalStr: {
        CHG(in);
        VmValue& base = in.op == Op::kStoreFieldLocalStr ? R[in.a] : G[in.a];
        if (base.fields.size() <= in.b) base.fields.resize(in.b + 1);
        base.fields[in.b].s = R[in.c].s;
        break;
      }
      case Op::kStoreFieldLocalStruct:
      case Op::kStoreFieldGlobalStruct: {
        CHG(in);
        VmValue& base =
            in.op == Op::kStoreFieldLocalStruct ? R[in.a] : G[in.a];
        if (base.fields.size() <= in.b) base.fields.resize(in.b + 1);
        base.fields[in.b].fields = R[in.c].fields;
        break;
      }
      case Op::kOpStoreFieldLocal:
      case Op::kOpStoreFieldGlobal: {
        CHG(in);
        VmValue& base = in.op == Op::kOpStoreFieldLocal ? R[in.a] : G[in.a];
        if (base.fields.size() <= in.b) base.fields.resize(in.b + 1);
        int64_t& dst = base.fields[in.b].i;
        stored_ = dst = coerce(
            apply_binop(static_cast<Tok>(static_cast<uint8_t>(in.imm)), dst,
                        R[in.c].i),
            in.w);
        break;
      }
      // --- free stores (declaration / global initialisers) ----------------
      case Op::kStoreLocalIntF:
        R[in.a].i = coerce(R[in.b].i, in.w);
        break;
      case Op::kStoreLocalStrF:
        R[in.a].s = R[in.b].s;
        break;
      case Op::kStoreLocalStructF:
        R[in.a].fields = R[in.b].fields;
        break;
      case Op::kStoreGlobalIntF:
        G[in.a].i = coerce(R[in.b].i, in.w);
        break;
      case Op::kStoreGlobalStrF:
        G[in.a].s = R[in.b].s;
        break;
      case Op::kStoreGlobalStructF:
        G[in.a].fields = R[in.b].fields;
        break;
      case Op::kStoreGFieldIntF: {
        VmValue& base = G[in.a];
        if (base.fields.size() <= in.b) base.fields.resize(in.b + 1);
        base.fields[in.b].i = coerce(R[in.c].i, in.w);
        break;
      }
      case Op::kStoreGFieldStrF: {
        VmValue& base = G[in.a];
        if (base.fields.size() <= in.b) base.fields.resize(in.b + 1);
        base.fields[in.b].s = R[in.c].s;
        break;
      }
      case Op::kStoreGFieldStructF: {
        VmValue& base = G[in.a];
        if (base.fields.size() <= in.b) base.fields.resize(in.b + 1);
        base.fields[in.b].fields = R[in.c].fields;
        break;
      }
      // --- declarations ---------------------------------------------------
      case Op::kDeclIntZ:
        CHG(in);
        out.executed.set(in.line);
        R[in.a].i = 0;
        break;
      case Op::kDeclStrZ:
        CHG(in);
        out.executed.set(in.line);
        R[in.a].i = 0;
        R[in.a].s.clear();
        break;
      case Op::kDeclStructZ:
        CHG(in);
        out.executed.set(in.line);
        R[in.a].i = 0;
        R[in.a].fields =
            *mod_.struct_default_table[static_cast<size_t>(in.imm)];
        break;
      case Op::kDeclArr:
        CHG(in);
        out.executed.set(in.line);
        R[in.a].arr.assign(static_cast<size_t>(in.imm), 0);
        break;
      case Op::kInitGlobalArr:
        G[in.a].arr.assign(static_cast<size_t>(in.imm), 0);
        break;
      // --- calls ----------------------------------------------------------
      case Op::kCall: {
        CHG(in);
        const CompiledFunction& callee = *mod_.fn_table[in.b];
        if (++depth_ > kMaxCallDepth) {
          throw Fault{FaultKind::kStackOverflow,
                      "call depth exceeded in " + callee.name};
        }
        push_frame(callee, R, in.c);
        calls_.push_back(Activation{fn, pc, in.a});
        fn = &callee;
        code = fn->code.data();
        pc = 0;
        R = frames_.back().data();
        break;
      }
      // Fused one-line leaf calls: no frame is pushed; the callee's charges
      // and coverage mark are replayed from its code, so exhaustion lines,
      // step totals and the bitmap match a real call exactly.
      case Op::kCallRetParam:
      case Op::kCallRetConst: {
        CHG(in);
        const CompiledFunction& callee = *mod_.fn_table[in.b];
        if (depth_ >= kMaxCallDepth) {
          throw Fault{FaultKind::kStackOverflow,
                      "call depth exceeded in " + callee.name};
        }
        const Insn* cc = callee.code.data();
        CHARGE(cc[0].line);  // block entry
        CHARGE(static_cast<uint32_t>(cc[0].imm));  // the one statement
        out.executed.set(static_cast<uint32_t>(cc[0].imm));
        CHARGE(cc[1].line);  // its operand load
        if (in.op == Op::kCallRetParam) {
          const ParamSpec& ps = callee.params[cc[1].b];
          R[in.a].i = coerce(R[in.c + cc[1].b].i, ps.coerce);
        } else {
          R[in.a].i = cc[1].imm;
        }
        break;
      }
      case Op::kCallOutConst: {
        CHG(in);
        const CompiledFunction& callee = *mod_.fn_table[in.b];
        if (depth_ >= kMaxCallDepth) {
          throw Fault{FaultKind::kStackOverflow,
                      "call depth exceeded in " + callee.name};
        }
        const Insn* cc = callee.code.data();
        CHARGE(cc[0].line);
        CHARGE(static_cast<uint32_t>(cc[0].imm));
        out.executed.set(static_cast<uint32_t>(cc[0].imm));
        CHARGE(cc[1].line);  // value literal
        CHARGE(cc[2].line);  // port literal
        CHARGE(cc[3].line);  // the out* call node
        uint32_t w = cc[3].w;
        uint32_t mask = w >= 32 ? 0xffffffffu : ((1u << w) - 1);
        io_.io_out(static_cast<uint32_t>(cc[2].imm),
                   static_cast<uint32_t>(cc[1].imm) & mask,
                   static_cast<int>(w));
        poll_irqs<kProfile>(out);
        R[in.a].i = 0;  // void result, as a real call's kRetZero returns
        break;
      }
      case Op::kRet:
      case Op::kRetZero: {
        VmValue result;
        if (in.op == Op::kRet) result = std::move(R[in.a]);
        pop_frame();
        if (calls_.size() == base_calls) {
          if (counts_depth) --depth_;
          return result;
        }
        --depth_;
        Activation act = calls_.back();
        calls_.pop_back();
        fn = act.fn;
        code = fn->code.data();
        pc = act.pc;
        R = frames_.back().data();
        R[act.dst] = std::move(result);
        break;
      }
      // --- builtins -------------------------------------------------------
      case Op::kIn:
        CHG(in);
        R[in.a].i =
            io_.io_in(static_cast<uint32_t>(R[in.b].i), in.w);
        poll_irqs<kProfile>(out);
        break;
      case Op::kInConst:
        CHG(in);
        CHG(in);
        R[in.a].i = io_.io_in(static_cast<uint32_t>(in.imm), in.w);
        poll_irqs<kProfile>(out);
        break;
      case Op::kOut: {
        CHG(in);
        uint32_t mask = in.w >= 32 ? 0xffffffffu : ((1u << in.w) - 1);
        uint32_t value = static_cast<uint32_t>(R[in.a].i);
        uint32_t port = static_cast<uint32_t>(R[in.b].i);
        io_.io_out(port, value & mask, in.w);
        poll_irqs<kProfile>(out);
        break;
      }
      case Op::kPanic: {
        CHG(in);
        bool devil = support::starts_with(R[in.a].s, "Devil assertion");
        std::string msg =
            R[in.a].s + " (line " + std::to_string(in.line) + ")";
        throw Fault{devil ? FaultKind::kDevilAssertion : FaultKind::kPanic,
                    std::move(msg)};
      }
      case Op::kPrintk:
        CHG(in);
        out.log.push_back(R[in.a].s);
        break;
      case Op::kStrcmp:
        CHG(in);
        R[in.a].i = R[in.b].s.compare(R[in.c].s);
        break;
      case Op::kUdelay: {
        CHG(in);
        int64_t n = R[in.a].i;
        uint64_t burn =
            static_cast<uint64_t>(n < 0 ? 0 : (n > 10000 ? 10000 : n));
        if (burn > steps_left_) {
          steps_left_ = 0;
          throw_step_limit(in.line);
        }
        steps_left_ -= burn;
        poll_irqs<kProfile>(out);  // a delay is where pending edges land
        break;
      }
      case Op::kDilEqInt:
        CHG(in);
        R[in.a].i = R[in.b].i == R[in.c].i ? 1 : 0;
        break;
      case Op::kDilEqStruct:
      case Op::kDilEqStructJump: {
        CHG(in);
        const auto& x = R[in.b].fields;
        const auto& y = R[in.c].fields;
        const std::string& xf = !x.empty() ? x[0].s : empty_string();
        const std::string& yf = !y.empty() ? y[0].s : empty_string();
        int64_t xt = x.size() > 1 ? x[1].i : -1;
        int64_t yt = y.size() > 1 ? y[1].i : -2;
        if (xf != yf || xt != yt) {
          throw Fault{FaultKind::kDevilAssertion,
                      "Devil assertion failed: dil_eq type mismatch (line " +
                          std::to_string(in.line) + ")"};
        }
        int64_t xv = x.size() > 2 ? x[2].i : 0;
        int64_t yv = y.size() > 2 ? y[2].i : 0;
        if (in.op == Op::kDilEqStruct) {
          R[in.a].i = xv == yv ? 1 : 0;
        } else if (xv != yv) {
          pc = static_cast<size_t>(in.imm);
        }
        break;
      }
      case Op::kDilValInt:
        CHG(in);
        R[in.a].i = R[in.b].i;
        break;
      case Op::kDilValStruct:
        CHG(in);
        R[in.a].i = R[in.b].fields.size() > 2 ? R[in.b].fields[2].i : 0;
        break;
      case Op::kRequestIrq: {
        CHG(in);
        int64_t line_no = R[in.a].i;
        if (line_no < 0 || line_no >= kIrqLines) {
          throw Fault{FaultKind::kPanic,
                      "request_irq: invalid irq line " +
                          std::to_string(line_no) + " (line " +
                          std::to_string(in.line) + ")"};
        }
        const uint32_t* ix = mod_.find_fn(R[in.b].s);
        if (ix == nullptr) {
          throw Fault{FaultKind::kPanic,
                      "request_irq: unknown handler '" + R[in.b].s +
                          "' (line " + std::to_string(in.line) + ")"};
        }
        const CompiledFunction* h = mod_.fn_table[*ix];
        if (!h->params.empty()) {
          throw Fault{FaultKind::kPanic,
                      "request_irq: handler '" + R[in.b].s +
                          "' takes arguments (line " +
                          std::to_string(in.line) + ")"};
        }
        irq_handlers_[static_cast<size_t>(line_no)] = h;
        break;
      }
      case Op::kUnreachable:
        CHG(in);
        throw Fault{FaultKind::kInternal,
                    mod_.str(static_cast<size_t>(in.imm))};
    }
  }
}

template <bool kProfile>
void Vm::run_body(const std::string& entry, RunOutcome& out) {
  // A spliced module initialises the prefix's globals from the shared
  // segment's code, then its own tail globals — the same order (and the
  // same charges) as one concatenated initialiser.
  if (mod_.prefix) {
    exec<kProfile>(mod_.prefix->globals_init, /*counts_depth=*/false, out);
  }
  exec<kProfile>(mod_.globals_init, /*counts_depth=*/false, out);
  const uint32_t* entry_ix = mod_.find_fn(entry);
  if (!entry_ix) {
    throw Fault{FaultKind::kInternal, "missing function " + entry};
  }
  VmValue result =
      exec<kProfile>(*mod_.fn_table[*entry_ix], /*counts_depth=*/true, out);
  out.return_value = result.i;
}

RunOutcome Vm::run(const std::string& entry) {
  RunOutcome out;
  steps_left_ = budget_;
  depth_ = 0;
  calls_.clear();
  while (!frames_.empty()) pop_frame();
  globals_.clear();
  globals_.resize(mod_.global_count);
  irq_handlers_.fill(nullptr);
  in_irq_ = false;
  hang_have_saved_ = false;
  hang_power_ = 1;
  hang_lam_ = 0;
  probe_below_ = profile_ == nullptr && budget_ > kHangWarmupSteps
                     ? budget_ - kHangWarmupSteps
                     : 0;
  if (watchdog_ms_ != 0) {
    watchdog_deadline_ = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(watchdog_ms_);
    // An armed watchdog keeps the say while more than 1000 steps per
    // millisecond of its cap remain: a proof then could pre-empt a trip.
    if (watchdog_ms_ < UINT64_MAX / 1000 - 1) {
      probe_below_ = std::min(probe_below_, 1000 * (watchdog_ms_ + 1));
    }
  }
  io_.bind_step_probe(&steps_left_, budget_);
  try {
    if (profile_ != nullptr) {
      run_body<true>(entry, out);
    } else {
      run_body<false>(entry, out);
    }
  } catch (const Fault& f) {
    out.fault = f.kind;
    out.fault_message = f.message;
  }
  out.steps_used = budget_ - steps_left_;
  out.executed_lines = out.executed.to_set();
  return out;
}

}  // namespace minic::bytecode
