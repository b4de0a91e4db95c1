// Campaign telemetry: wall-clock stage timers, log2-bucket latency
// histograms, and a throttled progress heartbeat.
//
// Everything in this header is *non-deterministic* process telemetry
// (timings, pool churn, per-worker shares). Deterministic campaign counters
// (steps retired, opcode profiles, dedup/prefix-cache hits) never pass
// through here — they live in the campaign results themselves so that the
// deterministic section of a metrics artifact stays byte-identical across
// thread counts and shard merges.
//
// The collector is disabled by default; every instrumentation point costs a
// single relaxed atomic load until `Metrics::set_enabled(true)` (the CLI's
// `--metrics` flag) turns recording on.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace support {

/// Monotonic wall-clock in nanoseconds (steady_clock).
[[nodiscard]] uint64_t monotonic_ns();

/// Fixed-log2-bucket histogram. A value `v` lands in bucket `bit_width(v)`:
/// bucket 0 holds v == 0 and bucket b > 0 covers [2^(b-1), 2^b). Merging is
/// a bucket-wise sum, so it is commutative and associative — shard-merge
/// order cannot change the aggregate.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void add(uint64_t value);
  void merge(const Histogram& other);

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] uint64_t total() const { return total_; }
  [[nodiscard]] const std::array<uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  void set_bucket(size_t b, uint64_t n);  // artifact parsing only
  void set_total(uint64_t t) { total_ = t; }  // artifact parsing only

  friend bool operator==(const Histogram& a, const Histogram& b) {
    return a.count_ == b.count_ && a.total_ == b.total_ &&
           a.buckets_ == b.buckets_;
  }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t total_ = 0;
};

/// Pipeline stages timed by `StageTimer`. Lex/parse/typecheck/lower cover
/// the MiniC front end, splice the prefix-cache tail lowering, boot one
/// engine run, classify the campaign verdict pass. The devil_* stages are
/// the Devil compiler's front end (`devil::check_spec`).
enum class Stage : uint8_t {
  kLex = 0,
  kParse,
  kTypecheck,
  kLower,
  kSplice,
  kBoot,
  kClassify,
  kPatch,  // bytecode-patch mutant boots: clone + operand rewrite
  kDevilLex,
  kDevilParse,
  kDevilSema,
};
inline constexpr size_t kStageCount = 11;

[[nodiscard]] const char* stage_name(Stage stage);

/// Snapshot of the process-wide collector (one histogram of nanosecond
/// durations per stage, plus device-pool churn and per-worker shares).
struct MetricsSnapshot {
  std::array<Histogram, kStageCount> stages;
  uint64_t pool_fresh = 0;
  uint64_t pool_recycled = 0;
  /// Boots the wall-clock watchdog killed (minic::FaultKind::kWatchdog).
  /// Non-deterministic by nature — a trip depends on host speed — which is
  /// why it lives here and never in the deterministic campaign counters.
  uint64_t watchdog_trips = 0;
  /// Boots whose infinite loop the bytecode VM proved by an exact state
  /// repeat, and the steps those proofs skipped instead of burning. Their
  /// records are byte-identical to burning the budget; the counts are
  /// telemetry about how the outcome was reached, so they live here.
  uint64_t hang_proofs = 0;
  uint64_t hang_steps_skipped = 0;
  /// Fault scenarios classified from the baseline boot's access census
  /// without a boot of their own, because their fault never fires. Their
  /// records equal a boot's; the count says how they were reached.
  uint64_t fault_boots_skipped = 0;
  Histogram worker_records;  // one sample per worker per parallel phase
};

/// Process-wide wall-clock collector. All methods are thread-safe; when
/// disabled every record call is one relaxed atomic load and nothing else.
class Metrics {
 public:
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  static void record_stage(Stage stage, uint64_t ns);
  static void add_pool_fresh(uint64_t n);
  static void add_pool_recycled(uint64_t n);
  static void add_watchdog_trip();
  /// One proved hang that skipped `steps_skipped` steps of budget burn.
  static void add_hang_proof(uint64_t steps_skipped);
  /// `n` fault scenarios classified from the census instead of booted.
  static void add_fault_boots_skipped(uint64_t n);
  /// Records how many parallel-phase indices each worker executed.
  static void add_worker_records(const std::vector<uint64_t>& shares);

  [[nodiscard]] static MetricsSnapshot snapshot();
  static void reset();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII stage timer: no-op (no clock read) while the collector is disabled.
class StageTimer {
 public:
  explicit StageTimer(Stage stage)
      : stage_(stage),
        armed_(Metrics::enabled()),
        start_ns_(armed_ ? monotonic_ns() : 0) {}
  ~StageTimer() {
    if (armed_) Metrics::record_stage(stage_, monotonic_ns() - start_ns_);
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Stage stage_;
  bool armed_;
  uint64_t start_ns_;
};

/// Throttled stderr heartbeat for long campaigns: at most one line per
/// half-second, reporting completed/total, records/s and an ETA. Disabled
/// by default (the CLI's `--progress` flag enables it); ticks are one
/// relaxed atomic add when disabled.
class ProgressMeter {
 public:
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  ProgressMeter(std::string label, uint64_t total);
  ~ProgressMeter();  // prints the final count when enabled
  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  void tick(uint64_t n = 1);

 private:
  void print_line(uint64_t done, uint64_t now_ns) const;

  std::string label_;
  uint64_t total_;
  uint64_t start_ns_;
  std::atomic<uint64_t> done_{0};
  std::atomic<uint64_t> last_print_ns_;

  static std::atomic<bool> enabled_;
};

}  // namespace support
