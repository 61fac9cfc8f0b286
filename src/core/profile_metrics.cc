#include "core/profile_metrics.h"

#include <cstdlib>

#include "core/kendall.h"
#include "core/prepared.h"
#include "rank/refinement.h"
#include "util/checked_math.h"
#include "util/contracts.h"

namespace rankties {

double KendallPFromCounts(const PairCounts& counts, double p) {
  return static_cast<double>(counts.discordant) +
         p * static_cast<double>(counts.tied_sigma_only +
                                 counts.tied_tau_only);
}

double KendallP(const BucketOrder& sigma, const BucketOrder& tau, double p) {
  PairScratch scratch;
  return KendallP(sigma, tau, p, scratch);
}

std::int64_t TwiceKprof(const BucketOrder& sigma, const BucketOrder& tau) {
  PairScratch scratch;
  return TwiceKprof(sigma, tau, scratch);
}

std::int64_t TwiceKprofFromCounts(const PairCounts& counts) {
  return 2 * counts.discordant + counts.tied_sigma_only +
         counts.tied_tau_only;
}

double Kprof(const BucketOrder& sigma, const BucketOrder& tau) {
  PairScratch scratch;
  return Kprof(sigma, tau, scratch);
}

std::vector<std::int8_t> KProfileQuarters(const BucketOrder& sigma) {
  const std::size_t n = sigma.n();
  std::vector<std::int8_t> profile;
  if (n < 2) return profile;
  // Exactly n(n-1) ordered pairs, no regrowth; checked so a domain past
  // 2^32 aborts instead of silently reserving a wrapped size.
  profile.reserve(static_cast<std::size_t>(
      CheckedMul(CheckedInt64(n), CheckedInt64(n - 1))));
  for (std::size_t i = 0; i < n; ++i) {
    // One bucket lookup per row and one per column; the two Ahead()
    // directions collapse to a single three-way bucket-index comparison.
    const BucketIndex bi = sigma.BucketOf(static_cast<ElementId>(i));
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const BucketIndex bj = sigma.BucketOf(static_cast<ElementId>(j));
      profile.push_back(bi < bj ? std::int8_t{1}
                                : (bj < bi ? std::int8_t{-1} : std::int8_t{0}));
    }
  }
  return profile;
}

std::int64_t TwiceKprofFromProfiles(const std::vector<std::int8_t>& a,
                                    const std::vector<std::int8_t>& b) {
  RANKTIES_DCHECK(a.size() == b.size());
  // Profile entries are quarters (+-1/4 stored as +-1); the L1 distance in
  // quarter units, halved, equals 2*Kprof.
  std::int64_t quarters = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    quarters += std::abs(static_cast<int>(a[i]) - static_cast<int>(b[i]));
  }
  RANKTIES_DCHECK(quarters % 2 == 0);
  return quarters / 2;
}

std::vector<std::int64_t> FProfileTwice(const BucketOrder& sigma) {
  return sigma.twice_position();
}

double Kavg(const BucketOrder& sigma, const BucketOrder& tau) {
  if (sigma.n() < 2) return 0.0;
  const PairCounts c = ComputePairCounts(sigma, tau);
  return static_cast<double>(c.discordant) +
         static_cast<double>(c.tied_sigma_only + c.tied_tau_only +
                             c.tied_both) /
             2.0;
}

double KavgSampled(const BucketOrder& sigma, const BucketOrder& tau,
                   int samples, Rng& rng) {
  RANKTIES_DCHECK(samples > 0);
  if (sigma.n() < 2) return 0.0;  // skip sampling: every refinement pair
                                  // has distance zero
  std::int64_t total = 0;
  for (int s = 0; s < samples; ++s) {
    total += KendallTau(RandomFullRefinement(sigma, rng),
                        RandomFullRefinement(tau, rng));
  }
  return static_cast<double>(total) / static_cast<double>(samples);
}

}  // namespace rankties
