// Instrumentation the campaign benchmark installs from outside the library:
// a counting/timing shim around every pooled device model, and an in-memory
// span recorder for the calls the benchmark makes into each layer.
//
// Nothing here is compiled into the library. The shim reaches the campaign
// kernels through the public `DeviceBinding::make_device` factory, and spans
// are opened only around public API calls made from the benchmark's own code.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/device_pool.h"
#include "hw/io_bus.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] uint64_t now_ns();

/// One access in this many is timed; every access is counted. Keeps the
/// shim's clock reads to a small share of a port access.
inline constexpr uint64_t kPortSampleEvery = 16;

/// Totals over every CountingDevice since the last reset_port_totals().
/// `port_ns` is already scaled up from the timed sample.
struct PortTotals {
  uint64_t reads = 0;
  uint64_t writes = 0;
  double port_ns = 0;
  uint64_t resets = 0;
  uint64_t reset_ns = 0;
};

[[nodiscard]] PortTotals port_totals();
void reset_port_totals();

/// Forwards every hw::Device call to the wrapped model, counting port
/// accesses and resets and timing a fixed 1-in-kPortSampleEvery sample of
/// the accesses (every reset is timed). Counters are per shim, so the hot
/// path takes no lock and no atomic; they are flushed into the process
/// totals on each reset() and on destruction.
class CountingDevice final : public hw::Device {
 public:
  explicit CountingDevice(std::shared_ptr<hw::Device> inner);
  ~CountingDevice() override;
  CountingDevice(const CountingDevice&) = delete;
  CountingDevice& operator=(const CountingDevice&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  uint32_t read(uint32_t offset, int width) override;
  void write(uint32_t offset, uint32_t value, int width) override;
  void reset() override;
  [[nodiscard]] bool damaged() const override { return inner_->damaged(); }
  [[nodiscard]] std::string damage_note() const override {
    return inner_->damage_note();
  }
  void attach_irq(hw::IrqSink* sink, int line) override {
    inner_->attach_irq(sink, line);
  }

 private:
  void flush();

  std::shared_ptr<hw::Device> inner_;
  uint64_t accesses_ = 0;  // sampling phase; never flushed
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t sampled_ns_ = 0;
  uint64_t resets_ = 0;
  uint64_t reset_ns_ = 0;
};

/// Wraps a binding's factory so every device it makes is a CountingDevice.
[[nodiscard]] hw::DevicePool::Factory counting_factory(
    hw::DevicePool::Factory inner);

/// One recorded call. `name` and `layer` point at string literals; `detail`
/// names the campaign, spec or bundle when the call has one.
struct Span {
  const char* name = "";
  const char* layer = "";
  std::string detail;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the recorder's spans, -1 for a root
};

/// Spans kept in memory and written out when the benchmark ends. Spans
/// nest by call order on one thread: a span's parent is the innermost span
/// still open when it began. Past `kMaxSpans` new spans are counted as
/// dropped instead of stored.
class SpanRecorder {
 public:
  static constexpr size_t kMaxSpans = 2'000'000;

  /// Opens a span and returns its index (-1 when dropped).
  int64_t open(const char* name, const char* layer, std::string detail = {});
  /// Closes the span `open` returned.
  void close(int64_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] size_t dropped() const { return dropped_; }

  /// Sum of durations (seconds) of the spans named `name` (and, when
  /// `detail` is non-null, carrying that detail) among spans [from, end).
  [[nodiscard]] double total_s(size_t from, const char* name,
                               const char* detail = nullptr) const;

  /// Chrome trace-event JSON ("traceEvents" of complete events, timestamps
  /// in microseconds from the first span). Each event's args carry its id,
  /// parent and self time; `other_data` (a JSON object) is embedded as
  /// "otherData".
  [[nodiscard]] std::string to_chrome_json(const std::string& other_data) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  size_t dropped_ = 0;
};

/// RAII span; a no-op (no clock read) when the recorder is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, const char* layer,
             std::string detail = {})
      : rec_(rec),
        id_(rec != nullptr ? rec->open(name, layer, std::move(detail)) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int64_t id_;
};

}  // namespace perfbench
