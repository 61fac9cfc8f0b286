// Oracle-cost harness for the src/ref differential layer: how expensive is
// the obviously-correct reference relative to the optimized engine it
// guards? Two tables:
//  * the exponential refinement-enumeration Hausdorff oracle vs the
//    polynomial core paths, over the universe sizes the fuzz harness
//    actually enumerates;
//  * the O(n^2) definitional pair loops vs the O(n log n) core metrics,
//    showing where the fuzzer's per-case cost comes from.

#include <cstdio>

#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/profile_metrics.h"
#include "gen/random_orders.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rankties {
namespace {

void EnumerationOracleCost() {
  std::printf("\n### enumeration oracle (ref) vs polynomial core\n");
  std::printf("%-4s %-18s %-14s %-14s %-8s\n", "n", "#refinement pairs",
              "ref (ms)", "core (ms)", "agree");
  Rng rng(11);
  for (std::size_t n : {4u, 5u, 6u, 7u, 8u}) {
    const BucketOrder sigma = RandomBucketOrderWithBuckets(n, n / 2 + 1, rng);
    const BucketOrder tau = RandomBucketOrderWithBuckets(n, n / 2 + 1, rng);
    const std::int64_t pairs = ref::RefinementPairCount(sigma, tau);
    Stopwatch ref_watch;
    const ref::RefinementMetrics oracle =
        ref::ComputeRefinementMetrics(sigma, tau);
    const std::int64_t ref_k = oracle.khaus;
    const std::int64_t ref_f = oracle.twice_fhaus;
    const double ref_ms = ref_watch.Millis();
    Stopwatch core_watch;
    const std::int64_t core_k = KHausdorff(sigma, tau);
    const std::int64_t core_f = TwiceFHausdorff(sigma, tau);
    const double core_ms = core_watch.Millis();
    std::printf("%-4zu %-18lld %-14.3f %-14.5f %s\n", n,
                static_cast<long long>(pairs), ref_ms, core_ms,
                (ref_k == core_k && ref_f == core_f) ? "yes"
                                                     : "NO <-- MISMATCH");
  }
}

void PairLoopCost() {
  std::printf("\n### O(n^2) definitional pair loops (ref) vs core engine\n");
  std::printf("%-8s %-16s %-16s %-16s %-16s\n", "n", "ref Kprof (ms)",
              "core Kprof (ms)", "ref Fprof (ms)", "core Fprof (ms)");
  for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
    Rng rng(3 + n);
    const BucketOrder sigma = RandomBucketOrder(n, rng);
    const BucketOrder tau = RandomBucketOrder(n, rng);
    const int reps = n <= 1024 ? 20 : 5;
    Stopwatch w1;
    for (int r = 0; r < reps; ++r) ref::TwiceKprof(sigma, tau);
    const double ref_k = w1.Millis() / reps;
    Stopwatch w2;
    for (int r = 0; r < reps; ++r) TwiceKprof(sigma, tau);
    const double core_k = w2.Millis() / reps;
    Stopwatch w3;
    for (int r = 0; r < reps; ++r) ref::TwiceFprof(sigma, tau);
    const double ref_f = w3.Millis() / reps;
    Stopwatch w4;
    for (int r = 0; r < reps; ++r) TwiceFprof(sigma, tau);
    const double core_f = w4.Millis() / reps;
    std::printf("%-8zu %-16.4f %-16.4f %-16.4f %-16.4f\n", n, ref_k, core_k,
                ref_f, core_f);
  }
}

}  // namespace
}  // namespace rankties

int main() {
  std::printf("=== Oracle-layer cost: reference implementations vs the "
              "engine they check ===\n");
  std::printf("The fuzz harness budgets enumeration by refinement-pair\n"
              "count; this harness shows why those budgets sit where they "
              "do.\n");
  rankties::EnumerationOracleCost();
  rankties::PairLoopCost();
  return 0;
}
