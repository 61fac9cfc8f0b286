#ifndef RANKTIES_OBS_METRICS_H_
#define RANKTIES_OBS_METRICS_H_

/// \file
/// Runtime metrics for the rankties engines: lock-free sharded counters and
/// fixed log-bucket latency histograms, owned by a process-wide Registry of
/// named handles (src/obs/README: docs/OBSERVABILITY.md has the catalog).
///
/// Cost model:
///  * compiled out — building with -DRANKTIES_OBS_DISABLED reduces every
///    operation to an empty inline function; call sites keep compiling and
///    the optimizer erases them entirely (exactly zero overhead);
///  * runtime-disabled (the default) — Counter::Add / Histogram::Record are
///    one relaxed atomic load and a predicted-not-taken branch;
///  * enabled — a relaxed fetch_add on a per-thread cache-line-padded
///    shard; shards are merged only on read, so concurrent writers never
///    contend on a line and totals are exact.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"

namespace rankties {
namespace obs {

/// Number of power-of-two histogram buckets; bucket b counts values v with
/// BucketIndex(v) == b, i.e. 2^(b-1) <= v < 2^b (bucket 0 takes v <= 0).
inline constexpr std::size_t kHistogramBuckets = 64;

/// Writer shards per metric. Threads hash onto shards round-robin; 16
/// cache lines keep same-shard collisions rare at sane thread counts.
inline constexpr std::size_t kMetricShards = 16;

/// Point-in-time view of one counter.
struct CounterSnapshot {
  std::string name;
  std::int64_t value = 0;
};

/// Point-in-time view of one histogram (merged across shards).
struct HistogramSnapshot {
  std::string name;
  std::int64_t count = 0;  ///< total recorded values
  std::int64_t sum = 0;    ///< sum of recorded values
  std::array<std::int64_t, kHistogramBuckets> buckets{};

  /// Mean of the recorded values (0 when empty).
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

#ifndef RANKTIES_OBS_DISABLED

class Counter;

namespace internal {

extern std::atomic<bool> g_enabled;

/// Stable per-thread shard slot in [0, kMetricShards).
std::uint32_t AssignShardSlot();

inline std::uint32_t ShardSlot() {
  thread_local const std::uint32_t slot = AssignShardSlot();
  return slot;
}

/// Thread-local observer of counter increments, the seam the cost-attribution
/// query units hang off (src/obs/slo.h). When a sink is installed on a
/// thread, every Counter::Add on that thread also reports (counter, delta)
/// to the sink — attribution is exact for work recorded on the calling
/// thread, which covers every headline Section-6 / batch-engine counter.
/// Only the innermost installed sink sees an increment; nesting semantics
/// live in QueryUnitScope.
class CounterSink {
 public:
  virtual ~CounterSink() = default;
  virtual void OnCounterAdd(Counter* counter, std::int64_t delta) = 0;
};

extern thread_local CounterSink* t_counter_sink;

}  // namespace internal

/// True when metric collection is on (off by default; see SetEnabled).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns metric collection on or off process-wide.
void SetEnabled(bool enabled);

/// Monotonically increasing (well, Add can be negative for accumulated
/// deltas, but the engines only add) sharded counter. Exact under
/// concurrent writers: Value() is the sum of all shards.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::int64_t delta) {
    if (!Enabled()) return;
    shards_[internal::ShardSlot()].value.fetch_add(delta,
                                                   std::memory_order_relaxed);
    if (internal::CounterSink* sink = internal::t_counter_sink) {
      sink->OnCounterAdd(this, delta);
    }
  }
  void Increment() { Add(1); }

  /// Merged total across shards.
  std::int64_t Value() const {
    std::int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every shard (tests and bench baselines only; racing writers
  /// may land increments on either side of the reset).
  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::atomic<std::int64_t> value{0};
  };
  std::string name_;
  std::array<Shard, kMetricShards> shards_;
};

/// Fixed log2-bucket histogram with lock-free per-thread shards merged on
/// read. Bucket boundaries are powers of two, so Record is a bit_width plus
/// two relaxed fetch_adds; count and sum are exact, quantiles are resolved
/// to bucket granularity.
class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(std::int64_t value) {
    if (!Enabled()) return;
    Shard& shard = shards_[internal::ShardSlot()];
    shard.count[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Bucket for `value`: 0 for value <= 0, otherwise bit_width(value)
  /// clamped to the last bucket — i.e. bucket b covers [2^(b-1), 2^b).
  static std::size_t BucketIndex(std::int64_t value) {
    if (value <= 0) return 0;
    const int width = 64 - __builtin_clzll(static_cast<std::uint64_t>(value));
    return width >= static_cast<int>(kHistogramBuckets)
               ? kHistogramBuckets - 1
               : static_cast<std::size_t>(width);
  }

  /// Inclusive upper edge of bucket `b` (the largest value it can hold;
  /// the last bucket is unbounded and reports int64 max).
  static std::int64_t BucketUpperEdge(std::size_t b);

  HistogramSnapshot Snapshot() const;

  /// Zeroes every shard (tests and bench baselines only).
  void Reset();

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::int64_t>, kHistogramBuckets> count{};
    std::atomic<std::int64_t> sum{0};
  };
  std::string name_;
  std::array<Shard, kMetricShards> shards_;
};

/// Process-wide registry of named metrics. Get-or-create returns stable
/// pointers: call sites cache the handle in a function-local static and
/// touch the registry lock exactly once.
class Registry {
 public:
  /// The singleton. Intentionally leaked so worker threads may record into
  /// metrics during static destruction (e.g. the global thread pool joining
  /// its workers at exit).
  static Registry& Global();

  Counter* GetCounter(std::string_view name) RANKTIES_EXCLUDES(mu_);
  Histogram* GetHistogram(std::string_view name) RANKTIES_EXCLUDES(mu_);

  /// All counters, sorted by name.
  std::vector<CounterSnapshot> CounterSnapshots() const
      RANKTIES_EXCLUDES(mu_);
  /// All histograms, sorted by name.
  std::vector<HistogramSnapshot> HistogramSnapshots() const
      RANKTIES_EXCLUDES(mu_);

  /// Zeroes every metric (tests and bench baselines only).
  void ResetAll() RANKTIES_EXCLUDES(mu_);

 private:
  Registry() = default;

  // "obs.registry" is a leaf in the lock hierarchy (DESIGN.md §11): handle
  // registration happens under callers' locks on first use, so nothing may
  // be acquired while it is held.
  mutable Mutex mu_{"obs.registry"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      RANKTIES_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      RANKTIES_GUARDED_BY(mu_);
};

/// Shorthands for Registry::Global().
inline Counter* GetCounter(std::string_view name) {
  return Registry::Global().GetCounter(name);
}
inline Histogram* GetHistogram(std::string_view name) {
  return Registry::Global().GetHistogram(name);
}

#else  // RANKTIES_OBS_DISABLED

// Compiled-out mode: the full API with empty inline bodies. Arguments are
// still evaluated (they are cheap locals at every call site) and then dead;
// the optimizer removes the calls entirely.

inline bool Enabled() { return false; }
inline void SetEnabled(bool) {}

class Counter {
 public:
  void Add(std::int64_t) {}
  void Increment() {}
  std::int64_t Value() const { return 0; }
  void Reset() {}
  const std::string& name() const { return empty_; }

 private:
  friend class Registry;
  std::string empty_;
};

class Histogram {
 public:
  void Record(std::int64_t) {}
  static std::size_t BucketIndex(std::int64_t) { return 0; }
  static std::int64_t BucketUpperEdge(std::size_t) { return 0; }
  HistogramSnapshot Snapshot() const { return {}; }
  void Reset() {}
  const std::string& name() const { return empty_; }

 private:
  friend class Registry;
  std::string empty_;
};

class Registry {
 public:
  static Registry& Global();
  Counter* GetCounter(std::string_view) { return &counter_; }
  Histogram* GetHistogram(std::string_view) { return &histogram_; }
  std::vector<CounterSnapshot> CounterSnapshots() const { return {}; }
  std::vector<HistogramSnapshot> HistogramSnapshots() const { return {}; }
  void ResetAll() {}

 private:
  Counter counter_;
  Histogram histogram_;
};

inline Counter* GetCounter(std::string_view name) {
  return Registry::Global().GetCounter(name);
}
inline Histogram* GetHistogram(std::string_view name) {
  return Registry::Global().GetHistogram(name);
}

#endif  // RANKTIES_OBS_DISABLED

}  // namespace obs
}  // namespace rankties

#endif  // RANKTIES_OBS_METRICS_H_
