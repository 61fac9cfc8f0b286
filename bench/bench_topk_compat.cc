// E12: top-k-list compatibility with Fagin-Kumar-Sivakumar [10] (paper
// A.3): Fprof coincides with the footrule-with-location-parameter F^(l) at
// l = (|D|+k+1)/2, and Kprof coincides with Kavg on active domains.

#include <cstdio>

#include "core/footrule.h"
#include "core/profile_metrics.h"
#include "gen/random_orders.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rankties {
namespace {

// Returns the number of pairs on which Fprof and F^(l) differ.
std::int64_t FprofVsLocationParameter() {
  std::printf("\n### Fprof == F^(l) at l=(|D|+k+1)/2 over random top-k "
              "pairs\n");
  std::printf("%-8s %-8s %-10s %-12s %s\n", "n", "k", "pairs", "mismatches",
              "sample Fprof");
  std::int64_t total_mismatches = 0;
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{20, 5},
                            {100, 10},
                            {1000, 50},
                            {5000, 100}}) {
    Rng rng(11 * n + k);
    std::int64_t mismatches = 0;
    double sample = 0;
    const int pairs = 200;
    for (int t = 0; t < pairs; ++t) {
      const BucketOrder sigma = RandomTopK(n, k, rng);
      const BucketOrder tau = RandomTopK(n, k, rng);
      const std::int64_t twice_ell = static_cast<std::int64_t>(n + k + 1);
      auto floc = TwiceFootruleLocation(sigma, tau, k, twice_ell);
      if (!floc.ok() || *floc != TwiceFprof(sigma, tau)) ++mismatches;
      sample = static_cast<double>(TwiceFprof(sigma, tau)) / 2.0;
    }
    std::printf("%-8zu %-8zu %-10d %-12lld %.1f\n", n, k, pairs,
                static_cast<long long>(mismatches), sample);
    total_mismatches += mismatches;
  }
  return total_mismatches;
}

// Returns the largest |Kprof - Kavg| over the pairs; A.3 makes it 0.
double KprofVsKavg() {
  std::printf("\n### Kprof == Kavg on active-domain top-k lists "
              "(brute-force Kavg)\n");
  std::printf("%-8s %-10s %-12s\n", "k", "pairs", "max |diff|");
  double worst = 0;
  for (std::size_t k : {1u, 2u, 3u}) {
    Rng rng(91 + k);
    double max_diff = 0;
    for (int t = 0; t < 10; ++t) {
      const std::size_t n = 2 * k;
      const Permutation p = Permutation::Random(n, rng);
      std::vector<ElementId> rev_order;
      for (std::size_t r = n; r > 0; --r) {
        rev_order.push_back(p.At(static_cast<ElementId>(r - 1)));
      }
      auto q = Permutation::FromOrder(rev_order);
      const BucketOrder sigma = BucketOrder::TopKOf(p, k);
      const BucketOrder tau = BucketOrder::TopKOf(*q, k);
      max_diff = std::max(
          max_diff, std::abs(Kprof(sigma, tau) - ref::Kavg(sigma, tau)));
    }
    std::printf("%-8zu %-10d %-12g\n", k, 10, max_diff);
    worst = std::max(worst, max_diff);
  }
  return worst;
}

void Throughput() {
  std::printf("\n### top-k metric throughput (pairs/second, n=10000, "
              "k=100)\n");
  Rng rng(5);
  const BucketOrder sigma = RandomTopK(10000, 100, rng);
  const BucketOrder tau = RandomTopK(10000, 100, rng);
  constexpr int kReps = 200;
  Stopwatch watch;
  std::int64_t checksum = 0;
  for (int r = 0; r < kReps; ++r) checksum += TwiceKprof(sigma, tau);
  const double kprof_s = watch.Seconds();
  watch.Reset();
  for (int r = 0; r < kReps; ++r) checksum += TwiceFprof(sigma, tau);
  const double fprof_s = watch.Seconds();
  std::printf("Kprof: %.0f pairs/s, Fprof: %.0f pairs/s (checksum %lld)\n",
              kReps / kprof_s, kReps / fprof_s,
              static_cast<long long>(checksum));
}

}  // namespace
}  // namespace rankties

int main() {
  std::printf("=== E12: top-k compatibility with [10] (Appendix A.3) ===\n");
  const std::int64_t mismatches = rankties::FprofVsLocationParameter();
  const double kavg_diff = rankties::KprofVsKavg();
  rankties::Throughput();
  if (mismatches != 0 || kavg_diff != 0.0) {
    std::fprintf(stderr,
                 "bench_topk_compat: %lld Fprof != F^(l) pairs, max "
                 "|Kprof - Kavg| %g\n",
                 static_cast<long long>(mismatches), kavg_diff);
    return 1;
  }
  return 0;
}
