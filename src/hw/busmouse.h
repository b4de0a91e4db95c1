// Behavioural model of the Logitech busmouse, the running example of the
// paper (Fig. 2/3). Four 8-bit registers at offsets 0..3:
//   0 DATA       read-only; contents selected by the index register
//   1 SIGNATURE  read/write scratch byte, power-on value 0xa5
//   2 CONTROL    write-only; two registers with disjoint masks share it
//                (Fig. 3): bit7 = 1 -> index write (bits 6..5), bit7 = 0 ->
//                interrupt write (bit 4, 1 = disabled)
//   3 CONFIG     write-only configuration byte
//
// Index selects which nibble appears in DATA's low 4 bits:
//   0 -> dx low, 1 -> dx high, 2 -> dy low, 3 -> dy high + buttons in bits
//   7..5 (active low, as on the real device). Irrelevant DATA bits float to
//   garbage on purpose so un-masked reads are visibly wrong.
#pragma once

#include <cstdint>
#include <string>

#include "hw/io_bus.h"

namespace hw {

class Busmouse final : public Device {
 public:
  [[nodiscard]] std::string name() const override { return "busmouse"; }

  uint32_t read(uint32_t offset, int width) override;
  void write(uint32_t offset, uint32_t value, int width) override;
  void reset() override;
  [[nodiscard]] bool capture(support::StateCapture& out) const override;

  /// Test/bench hook: loads a pending motion report. Raises the wired IRQ
  /// line unless interrupts are disabled (power-on default); a report pended
  /// while disabled raises on the disabled->enabled CONTROL transition, and
  /// reading the final DATA nibble (index 3) consumes it.
  void set_motion(int8_t dx, int8_t dy, uint8_t buttons);

  /// Makes a pending motion report part of the device's *power-on* state:
  /// the event-driven campaign binding preloads one so every boot has an
  /// interrupt to deliver. Unlike set_motion this neither raises nor dirties
  /// the device — the preloaded state is exactly what reset() restores, so
  /// pool recycles of a preloaded mouse stay bit-identical to fresh ones.
  void preload_motion(int8_t dx, int8_t dy, uint8_t buttons);

  [[nodiscard]] uint8_t index() const { return index_; }
  [[nodiscard]] bool irq_disabled() const { return irq_disabled_; }
  [[nodiscard]] uint8_t config() const { return config_; }
  [[nodiscard]] uint8_t signature() const { return signature_; }
  [[nodiscard]] uint64_t protocol_violations() const {
    return protocol_violations_;
  }
  /// True once any access (or set_motion) may have moved the device off its
  /// power-on state — the dirty bit behind reset()'s fast path.
  [[nodiscard]] bool touched() const { return touched_; }

 private:
  int8_t dx_ = 0;
  int8_t dy_ = 0;
  uint8_t buttons_ = 0;  // bit0 left, bit1 middle, bit2 right (pressed = 1)
  uint8_t index_ = 0;
  bool irq_disabled_ = true;
  uint8_t config_ = 0;
  uint8_t signature_ = 0xa5;
  uint8_t garbage_ = 0x50;  // rotated into irrelevant bits
  bool motion_pending_ = false;
  uint64_t protocol_violations_ = 0;  // not captured: inspection-only
  bool touched_ = false;
  // Power-on motion state reset() restores (preload_motion overrides the
  // all-zero default). Not captured: only reset() reads it.
  int8_t poweron_dx_ = 0;
  int8_t poweron_dy_ = 0;
  uint8_t poweron_buttons_ = 0;
  bool poweron_pending_ = false;
};

}  // namespace hw
