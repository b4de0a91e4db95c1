#include "probe.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string_view>
#include <vector>

#include "support/json_io.h"

namespace perfbench {

namespace {

std::atomic<uint64_t> g_reads{0};
std::atomic<uint64_t> g_writes{0};
std::atomic<uint64_t> g_sampled_ns{0};
std::atomic<uint64_t> g_resets{0};
std::atomic<uint64_t> g_reset_ns{0};

/// Cost of one back-to-back pair of clock reads (median of many), taken off
/// every timed access so the estimate measures the device, not the clock.
uint64_t clock_pair_ns() {
  static const uint64_t cost = [] {
    std::vector<uint64_t> samples(1001);
    for (uint64_t& s : samples) {
      uint64_t a = now_ns();
      uint64_t b = now_ns();
      s = b - a;
    }
    std::nth_element(samples.begin(), samples.begin() + 500, samples.end());
    return samples[500];
  }();
  return cost;
}

uint64_t timed_ns(uint64_t start) {
  uint64_t d = now_ns() - start;
  uint64_t pair = clock_pair_ns();
  return d > pair ? d - pair : 0;
}

}  // namespace

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

PortTotals port_totals() {
  PortTotals t;
  t.reads = g_reads.load();
  t.writes = g_writes.load();
  t.port_ns = static_cast<double>(g_sampled_ns.load()) * kPortSampleEvery;
  t.resets = g_resets.load();
  t.reset_ns = g_reset_ns.load();
  return t;
}

void reset_port_totals() {
  g_reads = 0;
  g_writes = 0;
  g_sampled_ns = 0;
  g_resets = 0;
  g_reset_ns = 0;
}

CountingDevice::CountingDevice(std::shared_ptr<hw::Device> inner)
    : inner_(std::move(inner)) {
  (void)clock_pair_ns();  // calibrate before the first timed access
}

CountingDevice::~CountingDevice() { flush(); }

uint32_t CountingDevice::read(uint32_t offset, int width) {
  ++reads_;
  if (++accesses_ % kPortSampleEvery != 0) return inner_->read(offset, width);
  uint64_t start = now_ns();
  uint32_t v = inner_->read(offset, width);
  sampled_ns_ += timed_ns(start);
  return v;
}

void CountingDevice::write(uint32_t offset, uint32_t value, int width) {
  ++writes_;
  if (++accesses_ % kPortSampleEvery != 0) {
    inner_->write(offset, value, width);
    return;
  }
  uint64_t start = now_ns();
  inner_->write(offset, value, width);
  sampled_ns_ += timed_ns(start);
}

void CountingDevice::reset() {
  uint64_t start = now_ns();
  inner_->reset();
  reset_ns_ += timed_ns(start);
  ++resets_;
  flush();
}

void CountingDevice::flush() {
  g_reads += reads_;
  g_writes += writes_;
  g_sampled_ns += sampled_ns_;
  g_resets += resets_;
  g_reset_ns += reset_ns_;
  reads_ = writes_ = sampled_ns_ = resets_ = reset_ns_ = 0;
}

hw::DevicePool::Factory counting_factory(hw::DevicePool::Factory inner) {
  return [inner = std::move(inner)]() -> std::shared_ptr<hw::Device> {
    return std::make_shared<CountingDevice>(inner());
  };
}

int64_t SpanRecorder::open(const char* name, const char* layer,
                           std::string detail) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.layer = layer;
  s.detail = std::move(detail);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int64_t>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::close(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanRecorder::total_s(size_t from, const char* name,
                             const char* detail) const {
  uint64_t ns = 0;
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::string_view(s.name) != name) continue;
    if (detail != nullptr && s.detail != detail) continue;
    ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::string SpanRecorder::to_chrome_json(const std::string& other_data) const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  auto us = [](uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += other_data;
  out += ",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    support::JsonValue args = support::JsonValue::object();
    args.set("id", static_cast<int64_t>(i));
    args.set("parent", s.parent);
    args.set("self_us", us(dur - std::min(dur, child_ns[i])));
    if (!s.detail.empty()) args.set("detail", s.detail);
    support::JsonValue ev = support::JsonValue::object();
    ev.set("name", s.detail.empty() ? std::string(s.name)
                                    : std::string(s.name) + " " + s.detail);
    ev.set("cat", s.layer);
    ev.set("ph", "X");
    ev.set("pid", 1);
    ev.set("tid", 1);
    ev.set("ts", us(s.start_ns - t0));
    ev.set("dur", us(dur));
    ev.set("args", std::move(args));
    if (i != 0) out += ',';
    out += support::to_json(ev);
    out += '\n';
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
