#include "obs/slo.h"

#include <algorithm>

#include "util/contracts.h"
#include "util/stopwatch.h"

namespace rankties {
namespace obs {

std::int64_t QueryUnitSnapshot::CostTotal(std::string_view counter) const {
  for (const QueryUnitCounterCost& cost : costs) {
    if (cost.counter == counter) return cost.total;
  }
  return 0;
}

std::int64_t QueryUnitSnapshot::CostMaxPerQuery(
    std::string_view counter) const {
  for (const QueryUnitCounterCost& cost : costs) {
    if (cost.counter == counter) return cost.max_per_query;
  }
  return 0;
}

SloRegistry& SloRegistry::Global() {
  // Leaked on purpose: see the class comment.
  static SloRegistry* const registry = new SloRegistry();
  return *registry;
}

std::vector<QueryUnitSnapshot> SloRegistry::UnitSnapshots() const {
  MutexLock lock(mu_);
  std::vector<QueryUnitSnapshot> snapshots;
  snapshots.reserve(units_.size());
  for (const auto& entry : units_) {
    QueryUnitSnapshot snapshot;
    snapshot.unit = entry.first;
    snapshot.queries = entry.second.queries;
    snapshot.latency_sum_ns = entry.second.latency_sum_ns;
    snapshot.latency_buckets = entry.second.latency_buckets;
    snapshot.costs.reserve(entry.second.costs.size());
    for (const auto& cost : entry.second.costs) {
      snapshot.costs.push_back(QueryUnitCounterCost{
          cost.first, cost.second.total, cost.second.max_per_query});
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

QueryUnitSnapshot SloRegistry::UnitSnapshot(std::string_view unit) const {
  for (QueryUnitSnapshot& snapshot : UnitSnapshots()) {
    if (snapshot.unit == unit) return std::move(snapshot);
  }
  QueryUnitSnapshot empty;
  empty.unit = std::string(unit);
  return empty;
}

void SloRegistry::ResetAll() {
  MutexLock lock(mu_);
  units_.clear();
  // Ordinals survive a reset so flight spans keep a stable mapping.
}

std::uint32_t SloRegistry::OrdinalFor(std::string_view unit) {
  MutexLock lock(mu_);
  auto it = ordinals_.find(unit);
  if (it == ordinals_.end()) {
    it = ordinals_
             .emplace(std::string(unit),
                      static_cast<std::uint32_t>(ordinals_.size()))
             .first;
  }
  return it->second;
}

void SloRegistry::Report(
    std::string_view unit, std::int64_t latency_ns,
    const std::vector<std::pair<Counter*, std::int64_t>>& costs) {
  MutexLock lock(mu_);
  auto it = units_.find(unit);
  if (it == units_.end()) {
    it = units_.emplace(std::string(unit), UnitAccum{}).first;
  }
  UnitAccum& accum = it->second;
  accum.queries += 1;
  accum.latency_sum_ns += latency_ns;
  accum.latency_buckets[Histogram::BucketIndex(latency_ns)] += 1;
  for (const auto& cost : costs) {
    CostAccum& entry = accum.costs[cost.first->name()];
    entry.total += cost.second;
    entry.max_per_query = std::max(entry.max_per_query, cost.second);
  }
}

QueryUnitScope::QueryUnitScope(std::string_view unit)
    : unit_(unit), previous_(internal::t_counter_sink) {
  span_.SetArgs(SloRegistry::Global().OrdinalFor(unit));
  start_ns_ = MonotonicNanos();
  internal::t_counter_sink = this;
}

QueryUnitScope::~QueryUnitScope() {
  // RAII scoping means the destructor runs on the constructing thread and
  // scopes unwind innermost-first; the sink chain depends on both.
  RANKTIES_DCHECK(internal::t_counter_sink == this);
  internal::t_counter_sink = previous_;
  SloRegistry::Global().Report(unit_, MonotonicNanos() - start_ns_,
                               attributed_);
}

std::int64_t QueryUnitScope::Attributed(const Counter* counter) const {
  for (const auto& entry : attributed_) {
    if (entry.first == counter) return entry.second;
  }
  return 0;
}

std::vector<CounterSnapshot> QueryUnitScope::AttributedSnapshots() const {
  std::vector<CounterSnapshot> snapshots;
  snapshots.reserve(attributed_.size());
  for (const auto& entry : attributed_) {
    snapshots.push_back(CounterSnapshot{entry.first->name(), entry.second});
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const CounterSnapshot& a, const CounterSnapshot& b) {
              return a.name < b.name;
            });
  return snapshots;
}

void QueryUnitScope::OnCounterAdd(Counter* counter, std::int64_t delta) {
  for (auto& entry : attributed_) {
    if (entry.first == counter) {
      entry.second += delta;
      return;
    }
  }
  attributed_.emplace_back(counter, delta);
}

}  // namespace obs
}  // namespace rankties
