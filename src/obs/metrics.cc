#include "obs/metrics.h"

#include <limits>

namespace rankties {
namespace obs {

namespace internal {

std::atomic<bool> g_enabled{false};

std::uint32_t AssignShardSlot() {
  static std::atomic<std::uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) %
         static_cast<std::uint32_t>(kMetricShards);
}

thread_local CounterSink* t_counter_sink = nullptr;

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

std::int64_t Histogram::BucketUpperEdge(std::size_t b) {
  if (b == 0) return 0;
  if (b >= kHistogramBuckets - 1) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return (std::int64_t{1} << b) - 1;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.name = name_;
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      const std::int64_t c = shard.count[b].load(std::memory_order_relaxed);
      snapshot.buckets[b] += c;
      snapshot.count += c;
    }
    snapshot.sum += shard.sum.load(std::memory_order_relaxed);
  }
  return snapshot;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      shard.count[b].store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::Global() {
  // Leaked on purpose: see the class comment.
  static Registry* const registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name)))
             .first;
  }
  return it->second.get();
}

std::vector<CounterSnapshot> Registry::CounterSnapshots() const {
  MutexLock lock(mu_);
  std::vector<CounterSnapshot> snapshots;
  snapshots.reserve(counters_.size());
  for (const auto& entry : counters_) {
    snapshots.push_back(CounterSnapshot{entry.first, entry.second->Value()});
  }
  return snapshots;
}

std::vector<HistogramSnapshot> Registry::HistogramSnapshots() const {
  MutexLock lock(mu_);
  std::vector<HistogramSnapshot> snapshots;
  snapshots.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    snapshots.push_back(entry.second->Snapshot());
  }
  return snapshots;
}

void Registry::ResetAll() {
  MutexLock lock(mu_);
  for (const auto& entry : counters_) entry.second->Reset();
  for (const auto& entry : histograms_) entry.second->Reset();
}

}  // namespace obs
}  // namespace rankties
