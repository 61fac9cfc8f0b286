#ifndef RANKTIES_OBS_SLO_H_
#define RANKTIES_OBS_SLO_H_

/// \file
/// Per-query cost attribution.
///
/// The paper's Section 6 evaluates TA/NRA/MEDRANK through a middleware cost
/// model — sorted and random access counts — but aggregate counters cannot
/// say which *query* paid which cost once workloads interleave. A
/// QueryUnitScope fixes that: it is an RAII "query unit" that, for its
/// lifetime, attributes every counter increment made on the constructing
/// thread to itself (via the internal::CounterSink seam in Counter::Add)
/// and, on destruction, folds the unit's wall latency and per-counter costs
/// into the process-wide SloRegistry under the unit's name:
///
///   {
///     obs::QueryUnitScope unit("medrank.topk");
///     engine.Run(...);   // access.* counters land on this unit
///   }                    // latency + costs reported to SloRegistry
///
/// Attribution is exact for work recorded on the calling thread, which
/// covers every Section-6 access counter and the batch-engine headline
/// counters (recorded on the caller after joins). Worker-thread increments
/// (e.g. threadpool.tasks_executed from inside ParallelFor) stay in the
/// aggregate registry but are not attributed to any unit. Nested scopes on
/// one thread attribute to the innermost scope only; the outer scope
/// resumes when the inner one ends. Counter attribution requires
/// obs::SetEnabled(true) (Counter::Add is a no-op otherwise); latency and
/// query counts are recorded regardless.
///
/// Each scope is also one `slo.query_unit` span in the flight recorder.
/// Unit stats surface in tests and in the OpenMetrics export
/// (src/obs/export.h).

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/mutex.h"

namespace rankties {
namespace obs {

/// Total and worst-single-query cost of one counter within one unit.
struct QueryUnitCounterCost {
  std::string counter;
  std::int64_t total = 0;          ///< summed over all queries of the unit
  std::int64_t max_per_query = 0;  ///< largest single-query attribution
};

/// Accumulated view of one query unit (all queries reported so far).
struct QueryUnitSnapshot {
  std::string unit;
  std::int64_t queries = 0;
  std::int64_t latency_sum_ns = 0;
  /// log2 latency buckets, same geometry as obs::Histogram.
  std::array<std::int64_t, kHistogramBuckets> latency_buckets{};
  /// Per-counter costs, sorted by counter name.
  std::vector<QueryUnitCounterCost> costs;

  /// Mean wall latency in ns (0 when no queries).
  double MeanLatencyNs() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(latency_sum_ns) /
                              static_cast<double>(queries);
  }

  /// Attributed total for `counter` (0 if the unit never touched it).
  std::int64_t CostTotal(std::string_view counter) const;
  /// Worst single-query attribution for `counter` (0 if never touched).
  std::int64_t CostMaxPerQuery(std::string_view counter) const;
};

/// Process-wide accumulator of per-unit stats.
class SloRegistry {
 public:
  /// The singleton. Leaked on purpose, like the metric Registry.
  static SloRegistry& Global();

  /// All units seen so far, sorted by name.
  std::vector<QueryUnitSnapshot> UnitSnapshots() const
      RANKTIES_EXCLUDES(mu_);
  /// Stats for one unit; an empty snapshot (queries == 0) when unseen.
  QueryUnitSnapshot UnitSnapshot(std::string_view unit) const
      RANKTIES_EXCLUDES(mu_);

  /// Drops all unit stats (tests and bench baselines only).
  void ResetAll() RANKTIES_EXCLUDES(mu_);

 private:
  friend class QueryUnitScope;

  SloRegistry() = default;

  /// Stable dense ordinal for `unit` (the argument of its flight span).
  std::uint32_t OrdinalFor(std::string_view unit) RANKTIES_EXCLUDES(mu_);
  void Report(std::string_view unit, std::int64_t latency_ns,
              const std::vector<std::pair<Counter*, std::int64_t>>& costs)
      RANKTIES_EXCLUDES(mu_);

  struct CostAccum {
    std::int64_t total = 0;
    std::int64_t max_per_query = 0;
  };
  struct UnitAccum {
    std::int64_t queries = 0;
    std::int64_t latency_sum_ns = 0;
    std::array<std::int64_t, kHistogramBuckets> latency_buckets{};
    std::map<std::string, CostAccum, std::less<>> costs;
  };

  mutable Mutex mu_{"obs.slo"};
  std::map<std::string, std::uint32_t, std::less<>> ordinals_
      RANKTIES_GUARDED_BY(mu_);
  std::map<std::string, UnitAccum, std::less<>> units_
      RANKTIES_GUARDED_BY(mu_);
};

/// RAII query unit: installs itself as the calling thread's CounterSink
/// for its lifetime and reports to SloRegistry::Global() on destruction.
/// Must be destroyed on the constructing thread (RAII scoping guarantees
/// this; it is DCHECKed). Unit names follow the lowercase.dotted metric
/// convention and should be string literals (lint rule RT007 territory).
class QueryUnitScope : private internal::CounterSink {
 public:
  explicit QueryUnitScope(std::string_view unit);
  ~QueryUnitScope() override;

  QueryUnitScope(const QueryUnitScope&) = delete;
  QueryUnitScope& operator=(const QueryUnitScope&) = delete;

  /// Increments attributed to this scope so far for `counter` (tests use
  /// this for bit-exact cost assertions before the scope closes).
  std::int64_t Attributed(const Counter* counter) const;
  /// Every attributed (counter name, delta) pair, sorted by name.
  std::vector<CounterSnapshot> AttributedSnapshots() const;

  const std::string& unit() const { return unit_; }

 private:
  void OnCounterAdd(Counter* counter, std::int64_t delta) override;

  FlightSpan span_{FlightEventId::kQueryUnit};
  std::string unit_;
  std::int64_t start_ns_ = 0;
  internal::CounterSink* previous_ = nullptr;
  /// Linear-scan accumulation: a unit touches a handful of counters, so
  /// a flat vector beats a map on the Add hot path.
  std::vector<std::pair<Counter*, std::int64_t>> attributed_;
};

}  // namespace obs
}  // namespace rankties

#endif  // RANKTIES_OBS_SLO_H_
