#include "hw/busmouse.h"

namespace hw {

void Busmouse::reset() {
  // Same dirty-tracking fast path as IdeDisk::reset(): a device the
  // previous boot never touched is already in power-on state, so the
  // common clean-recycle through a DevicePool costs one branch. Any read
  // rotates garbage_, so reads dirty the device too.
  if (!touched_) return;
  dx_ = poweron_dx_;
  dy_ = poweron_dy_;
  buttons_ = poweron_buttons_;
  index_ = 0;
  irq_disabled_ = true;
  config_ = 0;
  signature_ = 0xa5;
  garbage_ = 0x50;
  motion_pending_ = poweron_pending_;
  protocol_violations_ = 0;
  touched_ = false;
}

bool Busmouse::capture(support::StateCapture& out) const {
  out.put(static_cast<uint8_t>(dx_));
  out.put(static_cast<uint8_t>(dy_));
  out.put(buttons_);
  out.put(index_);
  out.put(irq_disabled_ ? 1 : 0);
  out.put(config_);
  out.put(signature_);
  out.put(garbage_);
  out.put(motion_pending_ ? 1 : 0);
  out.put(touched_ ? 1 : 0);
  return true;
}

void Busmouse::preload_motion(int8_t dx, int8_t dy, uint8_t buttons) {
  poweron_dx_ = dx_ = dx;
  poweron_dy_ = dy_ = dy;
  poweron_buttons_ = buttons_ = buttons;
  poweron_pending_ = motion_pending_ = true;
  // No raise (interrupts are disabled at power-on; the enable transition
  // fires the pended report) and no dirty bit: the device still *is* its
  // power-on state, just a richer one.
}

void Busmouse::set_motion(int8_t dx, int8_t dy, uint8_t buttons) {
  touched_ = true;
  dx_ = dx;
  dy_ = dy;
  buttons_ = buttons;
  motion_pending_ = true;
  if (!irq_disabled_) raise_irq();
}

uint32_t Busmouse::read(uint32_t offset, int width) {
  (void)width;
  touched_ = true;
  switch (offset) {
    case 0: {  // DATA
      uint8_t ux = static_cast<uint8_t>(dx_);
      uint8_t uy = static_cast<uint8_t>(dy_);
      // Rotate the garbage so sloppy drivers cannot rely on stale highs.
      garbage_ = static_cast<uint8_t>((garbage_ << 1) | (garbage_ >> 7));
      uint8_t junk_hi = garbage_ & 0xf0;
      switch (index_ & 3) {
        case 0: return junk_hi | (ux & 0x0f);
        case 1: return junk_hi | ((ux >> 4) & 0x0f);
        case 2: return junk_hi | (uy & 0x0f);
        case 3: {
          // Buttons in bits 7..5 (active low), dy high nibble in bits 3..0,
          // bit 4 floats. Reading the final nibble consumes the pending
          // motion report (the interrupt condition).
          motion_pending_ = false;
          uint8_t b = static_cast<uint8_t>(~buttons_) & 0x07;
          return static_cast<uint8_t>((b << 5) | (garbage_ & 0x10) |
                                      ((uy >> 4) & 0x0f));
        }
      }
      return 0;
    }
    case 1:
      return signature_;
    case 2:
    case 3:
      // Write-only registers: reads float high.
      ++protocol_violations_;
      return 0xff;
    default:
      ++protocol_violations_;
      return 0xff;
  }
}

void Busmouse::write(uint32_t offset, uint32_t value, int width) {
  (void)width;
  touched_ = true;
  uint8_t v = static_cast<uint8_t>(value);
  switch (offset) {
    case 0:
      ++protocol_violations_;  // DATA is read-only
      return;
    case 1:
      signature_ = v;
      return;
    case 2:
      // Two write-only registers share this port with disjoint masks
      // (Fig. 3): bit 7 set selects the index register (bits 6..5), bit 7
      // clear selects the interrupt register (bit 4, 1 = disabled).
      if (v & 0x80) {
        index_ = (v >> 5) & 3;
      } else {
        const bool was_disabled = irq_disabled_;
        irq_disabled_ = (v & 0x10) != 0;
        // Enabling interrupts with a report already pended fires the level-
        // triggered line immediately — how the IRQ boot's pre-loaded motion
        // reaches the driver's handler.
        if (was_disabled && !irq_disabled_ && motion_pending_) raise_irq();
      }
      return;
    case 3:
      config_ = v;
      return;
    default:
      ++protocol_violations_;
      return;
  }
}

}  // namespace hw
