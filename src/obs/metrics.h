#ifndef PINSQL_OBS_METRICS_H_
#define PINSQL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pinsql::obs {

/// True when the observability layer is compiled in. Building with
/// -DPINSQL_DISABLE_OBS=ON turns every instrument into a no-op (tests gate
/// their counter assertions on this).
#ifdef PINSQL_DISABLE_OBS
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Monotonic counter. Relaxed atomics: increments come from thread-pool
/// workers and only the totals matter, so no ordering is required (and the
/// suite stays TSan-clean).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins level instrument (queue depths, pool occupancy, ratios
/// scaled to integer permille). Unlike Counter it can move both ways;
/// `max` tracks the high-water mark since the last Reset, which is what a
/// bounded pool's "never exceeded its budget" assertions read.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Log2-bucketed latency histogram: bucket 0 counts the value 0, bucket i
/// (i >= 1) counts values in [2^(i-1), 2^i). 64 buckets cover the full
/// uint64 range, so Record never clips.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Record(uint64_t value);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::array<uint64_t, kNumBuckets> BucketCounts() const;
  void Reset();

  /// Index of the bucket `value` lands in (exposed for tests).
  static size_t BucketIndex(uint64_t value);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Bucket counts with trailing empty buckets trimmed.
  std::vector<uint64_t> buckets;
};

struct GaugeSnapshot {
  int64_t value = 0;
  int64_t max = 0;
};

/// Point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Human-readable table (sorted by name), one instrument per line.
  std::string ToString() const;
};

/// Named-instrument registry. Lookup takes a mutex (PINSQL_OBS_COUNT pays
/// it once per call site, the gauge and histogram macros at every call), so
/// call sites on hot paths should count locally and flush one Add per batch
/// (the LogStore scan counters do this); the instruments themselves are
/// lock-free.
/// Instrument references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  /// Process-wide registry used by the library-level instrumentation
  /// (LogStore, fault injectors, repair supervisor).
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);
  MetricsSnapshot Snapshot() const;
  /// Zeroes every registered instrument (references stay valid). Test
  /// isolation only.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace pinsql::obs

/// Call-site macros: compile to nothing under PINSQL_DISABLE_OBS, so a
/// disabled build carries zero observability overhead (no string
/// construction, no registry lookup, no atomic traffic).
/// PINSQL_OBS_COUNT takes a string literal and looks its counter up once per
/// call site: instrument references outlive Reset, and the global registry
/// is never freed.
#ifndef PINSQL_DISABLE_OBS
#define PINSQL_OBS_COUNT(name, n)                                        \
  do {                                                                   \
    static ::pinsql::obs::Counter& pinsql_obs_site_counter =             \
        ::pinsql::obs::MetricsRegistry::Global().GetCounter(name);       \
    pinsql_obs_site_counter.Add(n);                                      \
  } while (false)
#define PINSQL_OBS_GAUGE_SET(name, v) \
  ::pinsql::obs::MetricsRegistry::Global().GetGauge(name).Set(v)
#define PINSQL_OBS_OBSERVE(name, value) \
  ::pinsql::obs::MetricsRegistry::Global().GetHistogram(name).Record(value)
#else
// The disabled form still (void)-evaluates the operands: any side-effect-free
// argument folds to nothing, and locals computed only for instrumentation do
// not trip -Wunused-but-set-variable.
#define PINSQL_OBS_COUNT(name, n) ((void)(name), (void)(n))
#define PINSQL_OBS_GAUGE_SET(name, v) ((void)(name), (void)(v))
#define PINSQL_OBS_OBSERVE(name, value) ((void)(name), (void)(value))
#endif

#endif  // PINSQL_OBS_METRICS_H_
