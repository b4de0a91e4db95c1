// Exact machine-state capture: a flat word buffer that the bytecode VM and
// every device model append their state to, so two captures compare with
// one memcmp.
//
// The VM's hang proof (minic/bytecode/vm.cc) captures the whole machine at
// loop back-edges. Two equal captures mean the boot is in a cycle it can
// never leave, so the capture must hold *everything* that can influence the
// future: a field left out can make two different states look equal and
// turn a terminating boot into a false "Infinite loop". Each writer
// documents at the field what it leaves out and why that is safe.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace support {

class StateCapture {
 public:
  void clear() { words_.clear(); }

  void put(uint64_t w) { words_.push_back(w); }

  /// Length, then the bytes packed eight to a word (zero-padded), so no two
  /// different strings encode alike.
  void put_bytes(std::string_view s) {
    put(s.size());
    size_t at = words_.size();
    words_.resize(at + (s.size() + 7) / 8, 0);
    if (!s.empty()) std::memcpy(&words_[at], s.data(), s.size());
  }

  void swap(StateCapture& other) noexcept { words_.swap(other.words_); }

  [[nodiscard]] size_t size() const { return words_.size(); }
  [[nodiscard]] uint64_t operator[](size_t i) const { return words_[i]; }

  friend bool operator==(const StateCapture& a, const StateCapture& b) {
    return a.words_ == b.words_;
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace support
