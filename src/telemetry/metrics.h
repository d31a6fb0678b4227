/// \file metrics.h
/// \brief Process-wide metrics registry: named counters, gauges,
/// max-gauges, and log-linear latency histograms.
///
/// Hot-path cost model (docs/ARCHITECTURE.md "Telemetry layer"):
///
///   * Counter::Add / Gauge::Add — one relaxed fetch_add on a
///     per-thread-striped, cache-line-padded slot. No locks, no false
///     sharing between worker threads; totals are folded (summed across
///     stripes) only when a snapshot is taken.
///   * Histogram::Record — one relaxed fetch_add into a log-linear
///     bucket (4 sub-buckets per power of two, <= 25% overestimate at
///     the reported percentile) plus a relaxed sum add and a CAS max,
///     again on a per-thread-striped shard.
///   * MaxGauge::Note — a single relaxed CAS-max.
///   * ScopedLatency — two steady_clock reads around the scope when
///     telemetry is enabled; nothing at all under `--no-telemetry`.
///
/// Registration (Registry::Get*) takes a mutex and is meant for
/// construction time; hot paths hold pointers. Free functions without a
/// natural home for a handle use the CERTFIX_TL_* macros, which cache
/// the pointer in a thread_local revalidated against the registry
/// generation — one relaxed load per call once warm.
///
/// Registry::Global() is swappable (ScopedRegistry) so each CLI command
/// and each bench scenario snapshots only its own run even when many
/// run inside one process (cli_test drives RunCli in-process).
///
/// ToJson() output is deterministic: names sorted (std::map order),
/// integer-only values, fixed field order — golden-pinnable once the
/// fake clock (telemetry/clock.h) zeroes every duration.

#ifndef CERTFIX_TELEMETRY_METRICS_H_
#define CERTFIX_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "telemetry/clock.h"

namespace certfix {
namespace telemetry {

/// Stripe count for counters/gauges and histogram shards. Worker counts
/// in this repo are single-digit; 8 stripes keeps collisions rare
/// without bloating fold cost.
constexpr size_t kStripes = 8;

/// Stable per-thread stripe slot in [0, kStripes), assigned round-robin
/// on first use.
size_t ThreadStripeIndex();

namespace internal {
struct alignas(64) PaddedCount {
  std::atomic<uint64_t> v{0};
};
struct alignas(64) PaddedSigned {
  std::atomic<int64_t> v{0};
};
}  // namespace internal

/// \brief Monotone counter, striped per thread. Value() folds exactly
/// once all writers have quiesced (engines join workers before
/// snapshotting).
class Counter {
 public:
  void Add(uint64_t n) {
    stripes_[ThreadStripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::PaddedCount, kStripes> stripes_;
};

/// \brief Signed additive gauge (level, not rate): slot-class
/// populations, live rows — anything that goes up and down.
class Gauge {
 public:
  void Add(int64_t n) {
    stripes_[ThreadStripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t Value() const {
    int64_t total = 0;
    for (const auto& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::PaddedSigned, kStripes> stripes_;
};

/// \brief High-water mark: lock-free CAS-max, readable any time.
class MaxGauge {
 public:
  void Note(uint64_t v) {
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen && !max_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t Value() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> max_{0};
};

/// \brief Point-in-time histogram summary (integer nanoseconds).
/// Percentiles are nearest-rank over the log-linear buckets, reported
/// as the bucket upper bound clamped to the observed max: never below
/// the true sample, never more than 25% above it (exact for values
/// < 4).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
};

/// \brief Log-linear latency histogram: 4 sub-buckets per power of two
/// (HdrHistogram-style), fixed 256-bucket layout covering the full
/// uint64 range, striped per thread.
class Histogram {
 public:
  static constexpr size_t kBuckets = 256;

  /// Bucket index for a value: v < 4 maps to bucket v exactly; above
  /// that, bucket 4*(m-1) + sub where m = floor(log2 v) and sub is the
  /// 2-bit mantissa below the leading bit. Max index is 251.
  static size_t BucketOf(uint64_t v);
  /// Inclusive upper bound of a bucket (the reported representative).
  static uint64_t BucketUpper(size_t idx);

  void Record(uint64_t v) {
    Shard& s = shards_[ThreadStripeIndex()];
    s.buckets[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    uint64_t seen = s.max.load(std::memory_order_relaxed);
    while (v > seen && !s.max.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snap() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::array<Shard, kStripes> shards_;
};

/// \brief Named-instrument registry. Get* registers on first use and
/// returns a stable pointer (instruments live as long as the registry);
/// both take a mutex — resolve handles at construction time, not on hot
/// paths.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  MaxGauge* GetMaxGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Deterministic JSON snapshot: four name-sorted sections (counters,
  /// gauges, histograms, max_gauges), integer values only, trailing
  /// newline. Two calls with no writes in between are byte-identical.
  std::string ToJson() const;

  /// The process-global registry (a leaked default until SetGlobal).
  static Registry* Global();
  /// Installs `r` (nullptr restores the default); returns the previous
  /// override. Bumps Generation() so CERTFIX_TL_* caches re-resolve.
  static Registry* SetGlobal(Registry* r);
  /// Monotone swap count, used to invalidate cached handles.
  static uint64_t Generation();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<MaxGauge>> max_gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// \brief RAII fresh-registry scope: installs its own registry as
/// Global() for its lifetime. Everything constructed inside the scope
/// (engines, cached handles) must not outlive it.
class ScopedRegistry {
 public:
  ScopedRegistry() : prev_(Registry::SetGlobal(&registry_)) {}
  ~ScopedRegistry() { Registry::SetGlobal(prev_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

  Registry& registry() { return registry_; }

 private:
  Registry registry_;
  Registry* prev_;
};

/// Master switch for clock-touching instrumentation (ScopedLatency,
/// spans). Counters and gauges are NOT gated: `--metrics-json` must
/// stay exact either way. Default on; `--no-telemetry` turns it off.
bool Enabled();
void SetEnabled(bool on);

/// RAII enable/disable override; restores the previous setting.
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnabled() { SetEnabled(prev_); }
  ScopedEnabled(const ScopedEnabled&) = delete;
  ScopedEnabled& operator=(const ScopedEnabled&) = delete;

 private:
  bool prev_;
};

/// \brief Records the wall-clock duration of a scope into a histogram.
/// Measures the full scope — for BoundedQueue this includes lock
/// acquisition, so push/pop wait histograms reflect real caller-visible
/// latency, not just the blocked branch. No-op when telemetry is
/// disabled or `h` is null.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* h)
      : h_(Enabled() ? h : nullptr), start_(h_ != nullptr ? NowNanos() : 0) {}
  ~ScopedLatency() {
    if (h_ != nullptr) h_->Record(NowNanos() - start_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  uint64_t start_;
};

namespace internal {
/// Thread-local instrument cache for call sites with no object to hang
/// a handle on (free functions, templates). Revalidated against
/// Registry::Generation(): SetGlobal stores the pointer before bumping
/// the generation, and Get loads the generation before the pointer, so
/// a matching generation implies the cached pointer targets the live
/// registry (never a freed one reincarnated at the same address).
template <typename T, T* (Registry::*GetFn)(const std::string&)>
struct Handle {
  uint64_t gen = ~uint64_t{0};
  T* instrument = nullptr;
  T* Get(const char* name) {
    uint64_t g = Registry::Generation();
    if (g != gen) {
      instrument = (Registry::Global()->*GetFn)(name);
      gen = g;
    }
    return instrument;
  }
};
using CounterHandle = Handle<Counter, &Registry::GetCounter>;
using GaugeHandle = Handle<Gauge, &Registry::GetGauge>;
using HistogramHandle = Handle<Histogram, &Registry::GetHistogram>;
}  // namespace internal

/// Per-call-site, per-thread cached instrument lookup: `name` must be a
/// string literal (the handle keeps the pointer).
#define CERTFIX_TL_COUNTER(name)                                       \
  ([]() -> ::certfix::telemetry::Counter* {                            \
    thread_local ::certfix::telemetry::internal::CounterHandle handle; \
    return handle.Get(name);                                           \
  }())

#define CERTFIX_TL_GAUGE(name)                                        \
  ([]() -> ::certfix::telemetry::Gauge* {                             \
    thread_local ::certfix::telemetry::internal::GaugeHandle handle;  \
    return handle.Get(name);                                          \
  }())

#define CERTFIX_TL_HISTOGRAM(name)                                       \
  ([]() -> ::certfix::telemetry::Histogram* {                            \
    thread_local ::certfix::telemetry::internal::HistogramHandle handle; \
    return handle.Get(name);                                             \
  }())

}  // namespace telemetry
}  // namespace certfix

#endif  // CERTFIX_TELEMETRY_METRICS_H_
