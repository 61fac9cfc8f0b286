#include "ref/fdagger.h"

#include <algorithm>
#include <cstdlib>

#include "util/contracts.h"

namespace rankties::ref {

std::int64_t FDaggerCostFigure1(const std::vector<std::int64_t>& quad_scores) {
  for (std::int64_t score : quad_scores) RANKTIES_DCHECK(score % 2 == 0);
  const std::size_t n = quad_scores.size();
  std::vector<std::int64_t> f(n + 1, 0);  // f[1..n] ascending, 1-based
  std::copy(quad_scores.begin(), quad_scores.end(), f.begin() + 1);
  std::sort(f.begin() + 1, f.end());
  std::vector<std::int64_t> best(n + 1, 0);
  for (std::size_t j = 1; j <= n; ++j) {
    // c(0, j) directly: the bucket (0, j] sits at quad position 2(j+1).
    std::int64_t cost = 0;
    for (std::size_t l = 1; l <= j; ++l) {
      cost += std::abs(f[l] - 2 * static_cast<std::int64_t>(j + 1));
    }
    best[j] = cost;
    std::size_t k = 1;  // first l with f[l] >= 2(i+j+1); monotone in i
    for (std::size_t i = 1; i < j; ++i) {
      const std::int64_t m_prev = 2 * static_cast<std::int64_t>(i + j);
      while (k <= j && f[k] < m_prev + 2) ++k;
      // Lemma 37 in quad units: from c(i-1, j) to c(i, j) element i leaves
      // and the position rises by 2; since every f[l] is even, the elements
      // below the new position gain 2 and the rest lose 2.
      const std::int64_t low =
          std::max<std::int64_t>(0, static_cast<std::int64_t>(k) - 1 -
                                        static_cast<std::int64_t>(i));
      cost = cost - std::abs(f[i] - m_prev) +
             2 * (2 * low - static_cast<std::int64_t>(j - i));
      best[j] = std::min(best[j], best[i] + cost);
    }
  }
  return best[n];
}

}  // namespace rankties::ref
