#include "hw/fault_injection.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace hw {

namespace {

/// All-ones for the access width — what an unterminated ISA bus reads as
/// (io_bus.cc models unmapped ports the same way).
uint32_t width_ones(int width) {
  return width >= 32 ? 0xffffffffu : (1u << width) - 1u;
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kStuckZero: return "stuck0";
    case FaultKind::kStuckOne: return "stuck1";
    case FaultKind::kFlipOnce: return "flip";
    case FaultKind::kDropWrite: return "drop-write";
    case FaultKind::kFloatingBus: return "floating";
    case FaultKind::kNeverReady: return "never-ready";
    case FaultKind::kLostIrq: return "lost-irq";
    case FaultKind::kSpuriousIrq: return "spurious-irq";
    case FaultKind::kIrqStorm: return "irq-storm";
    case FaultKind::kDelayIrq: return "delay-irq";
  }
  return "?";
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os << fault_kind_name(kind);
  if (is_event_fault()) {
    // `port` is the IRQ line here; `after` counts raises (spurious: device
    // accesses) — e.g. "irq-storm x8 on line 6 after 1".
    if (kind == FaultKind::kIrqStorm) os << " x" << value;
    if (kind == FaultKind::kDelayIrq) os << " +" << value << " steps";
    os << " on line " << port << " after " << after;
    return os.str();
  }
  if (kind == FaultKind::kStuckZero || kind == FaultKind::kStuckOne ||
      kind == FaultKind::kFlipOnce) {
    os << " mask 0x" << std::hex << mask << std::dec;
  }
  if (kind == FaultKind::kNeverReady) {
    os << " value 0x" << std::hex << value << std::dec;
  }
  os << " at port 0x" << std::hex << port << std::dec << " after " << after;
  return os.str();
}

FaultInjector::FaultInjector(std::shared_ptr<Device> inner, uint32_t port_base,
                             FaultPlan plan)
    : inner_(std::move(inner)), port_base_(port_base), plan_(plan) {}

void FaultInjector::maybe_inject_spurious() {
  if (plan_.kind != FaultKind::kSpuriousIrq) return;
  const uint64_t seq = access_seq_++;  // 0-based index of this access
  if (seq != plan_.after) return;
  if (IrqSink* out = irq_sink()) {
    // The spurious edge arrives while the CPU is mid-I/O: deliverable at
    // the very next charge-step boundary, in-service bit never latched.
    out->raise_irq(static_cast<int>(plan_.port), /*delay_steps=*/0,
                   /*genuine=*/false);
    ++fired_;
  }
}

uint32_t FaultInjector::read(uint32_t offset, int width) {
  maybe_inject_spurious();
  if (!plan_.is_read_fault() || port_base_ + offset != plan_.port) {
    return inner_->read(offset, width);
  }
  const uint64_t seq = matched_++;  // 0-based index of this matching read
  if (seq < plan_.after) return inner_->read(offset, width);
  switch (plan_.kind) {
    case FaultKind::kStuckZero:
      ++fired_;
      return inner_->read(offset, width) & ~plan_.mask;
    case FaultKind::kStuckOne:
      ++fired_;
      return (inner_->read(offset, width) | plan_.mask) & width_ones(width);
    case FaultKind::kFlipOnce:
      if (seq > plan_.after) return inner_->read(offset, width);
      ++fired_;
      return (inner_->read(offset, width) ^ plan_.mask) & width_ones(width);
    case FaultKind::kFloatingBus:
      // The card is gone: the device must not see the read (no side
      // effects, e.g. no index-selected data rotation, no BSY countdown).
      ++fired_;
      return width_ones(width);
    case FaultKind::kNeverReady:
      ++fired_;
      return plan_.value & width_ones(width);
    case FaultKind::kDropWrite:
    case FaultKind::kLostIrq:
    case FaultKind::kSpuriousIrq:
    case FaultKind::kIrqStorm:
    case FaultKind::kDelayIrq:
      break;  // unreachable: is_read_fault() excluded them
  }
  return inner_->read(offset, width);
}

void FaultInjector::write(uint32_t offset, uint32_t value, int width) {
  maybe_inject_spurious();
  if (plan_.kind == FaultKind::kDropWrite &&
      port_base_ + offset == plan_.port) {
    const uint64_t seq = matched_++;
    if (seq == plan_.after) {
      ++fired_;  // this one write is lost on the bus
      return;
    }
  }
  inner_->write(offset, value, width);
}

void FaultInjector::reset() {
  inner_->reset();
  matched_ = 0;
  fired_ = 0;
  raise_seq_ = 0;
  access_seq_ = 0;
}

bool FaultInjector::capture(support::StateCapture& out) const {
  const uint64_t past = uint64_t{plan_.after} + 1;
  out.put(std::min(matched_, past));
  out.put(std::min(raise_seq_, past));
  out.put(std::min(access_seq_, past));
  out.put(std::min<uint64_t>(fired_, 1));
  return inner_->capture(out);
}

void FaultInjector::attach_irq(IrqSink* sink, int line) {
  Device::attach_irq(sink, line);
  // Interpose on the raise chain: the wrapped device now raises into this
  // shim, which forwards (or tampers) toward the real sink. Detach (sink ==
  // nullptr, pool recycling) unwires the whole chain.
  inner_->attach_irq(sink != nullptr ? static_cast<IrqSink*>(this) : nullptr,
                     line);
}

void FaultInjector::raise_irq(int line, uint64_t delay_steps, bool genuine) {
  IrqSink* out = irq_sink();
  if (out == nullptr) return;
  if (!genuine || !plan_.is_event_fault() ||
      static_cast<uint32_t>(line) != plan_.port) {
    out->raise_irq(line, delay_steps, genuine);
    return;
  }
  switch (plan_.kind) {
    case FaultKind::kLostIrq: {
      const uint64_t seq = raise_seq_++;  // 0-based index of this raise
      if (seq == plan_.after) {
        ++fired_;  // the edge is lost on the wire
        return;
      }
      break;
    }
    case FaultKind::kIrqStorm: {
      const uint64_t seq = raise_seq_++;
      if (seq == plan_.after) {
        ++fired_;
        const uint32_t repeats = plan_.value != 0 ? plan_.value : 1;
        for (uint32_t i = 0; i < repeats; ++i) {
          out->raise_irq(line, delay_steps, true);
        }
        return;
      }
      break;
    }
    case FaultKind::kDelayIrq: {
      const uint64_t seq = raise_seq_++;
      if (seq == plan_.after) {
        ++fired_;
        out->raise_irq(line, delay_steps + plan_.value, true);
        return;
      }
      break;
    }
    default:
      break;  // kSpuriousIrq injects from the access path, raises forward
  }
  out->raise_irq(line, delay_steps, genuine);
}

uint64_t AccessCensus::trigger_count(const FaultPlan& plan) const {
  // Mirrors the counters FaultInjector compares with plan.after.
  auto count = [](const auto& counts, auto key) -> uint64_t {
    auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
  };
  switch (plan.kind) {
    case FaultKind::kDropWrite:
      return count(writes, plan.port);
    case FaultKind::kSpuriousIrq:
      return irq_accesses;
    case FaultKind::kLostIrq:
    case FaultKind::kIrqStorm:
    case FaultKind::kDelayIrq:
      return count(raises, static_cast<int>(plan.port));
    case FaultKind::kStuckZero:
    case FaultKind::kStuckOne:
    case FaultKind::kFlipOnce:
    case FaultKind::kFloatingBus:
    case FaultKind::kNeverReady:
      break;
  }
  return count(reads, plan.port);
}

uint32_t AccessCensusShim::read(uint32_t offset, int width) {
  if (irq_sink() != nullptr) ++census_.irq_accesses;
  ++census_.reads[port_base_ + offset];
  return inner_->read(offset, width);
}

void AccessCensusShim::write(uint32_t offset, uint32_t value, int width) {
  if (irq_sink() != nullptr) ++census_.irq_accesses;
  ++census_.writes[port_base_ + offset];
  inner_->write(offset, value, width);
}

void AccessCensusShim::reset() {
  inner_->reset();
  census_ = AccessCensus();
}

void AccessCensusShim::attach_irq(IrqSink* sink, int line) {
  Device::attach_irq(sink, line);
  inner_->attach_irq(sink != nullptr ? static_cast<IrqSink*>(this) : nullptr,
                     line);
}

void AccessCensusShim::raise_irq(int line, uint64_t delay_steps,
                                 bool genuine) {
  IrqSink* out = irq_sink();
  if (out == nullptr) return;
  if (genuine) ++census_.raises[line];
  out->raise_irq(line, delay_steps, genuine);
}

}  // namespace hw
