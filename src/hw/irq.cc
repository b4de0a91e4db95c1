#include "hw/irq.h"

#include <cassert>

namespace hw {

void IrqController::raise(int line, uint64_t due_step, bool genuine) {
  assert(line >= 0 && line < kLines);
  queue_.push_back(Pending{next_seq_++, line, due_step, genuine});
  ++raised_;
}

int IrqController::pending(uint64_t now_step) {
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].due <= now_step) {
      pending_ix_ = i;
      return queue_[i].line;
    }
  }
  pending_ix_ = static_cast<size_t>(-1);
  return -1;
}

void IrqController::begin(bool handled) {
  assert(pending_ix_ < queue_.size());
  const Pending ev = queue_[pending_ix_];
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(pending_ix_));
  pending_ix_ = static_cast<size_t>(-1);
  if (!handled) {
    ++dropped_;
    return;
  }
  ++delivered_;
  in_service_line_ = ev.line;
  in_service_genuine_ = ev.genuine;
  // The 8259 idiom: a spurious interrupt is delivered like any other, but
  // its in-service bit never latches — that is what a handler's status-port
  // guard can observe.
  if (ev.genuine) isr_ |= 1u << ev.line;
}

void IrqController::end() {
  if (in_service_line_ >= 0 && in_service_genuine_) {
    isr_ &= ~(1u << in_service_line_);
  }
  in_service_line_ = -1;
  in_service_genuine_ = false;
}

bool IrqController::capture(support::StateCapture& out) const {
  if (!queue_.empty()) return false;
  out.put(isr_);
  out.put(static_cast<uint64_t>(in_service_line_));
  out.put(in_service_genuine_ ? 1 : 0);
  return true;
}

void IrqController::clear() {
  queue_.clear();
  next_seq_ = 0;
  pending_ix_ = static_cast<size_t>(-1);
  isr_ = 0;
  in_service_line_ = -1;
  in_service_genuine_ = false;
  raised_ = 0;
  delivered_ = 0;
  dropped_ = 0;
}

}  // namespace hw
