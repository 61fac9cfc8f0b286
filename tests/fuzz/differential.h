#ifndef RANKTIES_TESTS_FUZZ_DIFFERENTIAL_H_
#define RANKTIES_TESTS_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz_corpus.h"
#include "rank/bucket_order.h"

/// The differential / metamorphic driver: runs one fuzz case through every
/// optimized metric path and cross-checks the results against the src/ref
/// oracle and the paper's invariants. Every recorded failure message is
/// self-contained — it embeds the case seed and the exact replay command.
namespace rankties::fuzz {

struct DriverOptions {
  /// The enumeration oracle (ref::ComputeRefinementMetrics) only runs
  /// when |R(sigma)| * |R(tau)| stays within this budget.
  std::int64_t enumeration_budget = 400'000;
  /// Lane count of the "wide" batch-engine pass (the 1-lane pass always
  /// runs too).
  std::size_t wide_threads = 4;
};

struct CheckStats {
  std::int64_t comparisons = 0;        ///< individual value-vs-value checks
  std::int64_t enumeration_cases = 0;  ///< cases the exponential oracle ran on
  std::int64_t mutation_steps = 0;     ///< edit steps checked (mutation traces)
  std::vector<std::string> failures;   ///< each embeds seed + replay command
};

/// Differential pass: optimized Kprof/Fprof/K^(p)/KHaus/FHaus/Kavg and the
/// kernel's five pair classes (plus the Theorem 5 construction) against the
/// src/ref oracle; the zero-allocation prepared kernels (FHaus joint-run
/// decomposition included) against the legacy BucketOrder paths; and the
/// structured O(n log n) slot-assignment solver against the general
/// Hungarian matcher on the typed footrule instance induced by
/// (sigma, type(rho)).
void CheckDifferential(const FuzzCase& c, const DriverOptions& options,
                       CheckStats* stats);

/// Metamorphic pass: paper invariants on (sigma, tau, rho) — identity,
/// symmetry, triangle inequality, the Theorem 7 factor-2 bands, Prop 6 ==
/// Theorem 5, refinement sandwich bounds, relabeling invariance, K^(p)
/// monotonicity in p, and the Prop 13 (relaxed) triangle inequalities.
void CheckMetamorphic(const FuzzCase& c, CheckStats* stats);

/// Batch-engine pass: DistanceMatrix / DistancesToAll /
/// TotalDistance at 1 and options.wide_threads lanes must be
/// bit-identical to the serial ComputeMetric loop. All lists must share one
/// universe size; `seed` only labels failure messages.
void CheckBatchEngine(const std::vector<BucketOrder>& lists,
                      std::uint64_t seed, const DriverOptions& options,
                      CheckStats* stats);

}  // namespace rankties::fuzz

#endif  // RANKTIES_TESTS_FUZZ_DIFFERENTIAL_H_
