#include "ref/fdagger.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/contracts.h"

namespace rankties::ref {

namespace {

// OptimalBucketing's guard: n * (max |quad score| + 4n + 4) <= INT64_MAX / 4
// keeps every cost inside int64. Scores are compared against +-limit
// because std::abs(INT64_MIN) is itself undefined.
Status CheckScoreRange(const std::vector<std::int64_t>& quad_scores) {
  const std::int64_t n = static_cast<std::int64_t>(quad_scores.size());
  if (n == 0) return Status::Ok();
  const std::int64_t limit =
      std::numeric_limits<std::int64_t>::max() / 4 / n - 4 * n - 4;
  for (std::int64_t score : quad_scores) {
    if (score > limit || score < -limit) {
      return Status::InvalidArgument("quad score " + std::to_string(score) +
                                     " out of range");
    }
  }
  return Status::Ok();
}

// sum_{l=i+1..j} |f[l] - m| over the 1-based ascending scores f: the bucket
// of sorted positions (i, j] sits at quad position m = 2(i + j + 1).
std::int64_t BlockCost(const std::vector<std::int64_t>& f, std::size_t i,
                       std::size_t j) {
  const std::int64_t m = 2 * static_cast<std::int64_t>(i + j + 1);
  std::int64_t cost = 0;
  for (std::size_t l = i + 1; l <= j; ++l) cost += std::abs(f[l] - m);
  return cost;
}

// f[1..n] = the scores ascending (f[0] unused).
std::vector<std::int64_t> SortedOneBased(
    const std::vector<std::int64_t>& quad_scores) {
  std::vector<std::int64_t> f(quad_scores.size() + 1, 0);
  std::copy(quad_scores.begin(), quad_scores.end(), f.begin() + 1);
  std::sort(f.begin() + 1, f.end());
  return f;
}

}  // namespace

std::int64_t FDaggerCostFigure1(const std::vector<std::int64_t>& quad_scores) {
  for (std::int64_t score : quad_scores) RANKTIES_DCHECK(score % 2 == 0);
  const std::size_t n = quad_scores.size();
  const std::vector<std::int64_t> f = SortedOneBased(quad_scores);
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

StatusOr<std::int64_t> FDaggerCostBrute(
    const std::vector<std::int64_t>& quad_scores) {
  const std::size_t n = quad_scores.size();
  if (n == 0) return Status::InvalidArgument("no scores");
  if (n > 20) {
    return Status::InvalidArgument("brute force limited to n <= 20");
  }
  if (Status range = CheckScoreRange(quad_scores); !range.ok()) return range;
  const std::vector<std::int64_t> f = SortedOneBased(quad_scores);
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  // Bit l - 1 of `cuts` closes a bucket after sorted position l, so the
  // 2^(n-1) masks are the 2^(n-1) types.
  for (std::uint32_t cuts = 0; cuts < (std::uint32_t{1} << (n - 1)); ++cuts) {
    std::int64_t cost = 0;
    std::size_t i = 0;
    for (std::size_t j = 1; j <= n; ++j) {
      if (j == n || ((cuts >> (j - 1)) & 1) != 0) {
        cost += BlockCost(f, i, j);
        i = j;
      }
    }
    best = std::min(best, cost);
  }
  return best;
}

StatusOr<std::int64_t> BucketingCostQuad(
    const std::vector<std::int64_t>& quad_scores,
    const std::vector<std::size_t>& sizes) {
  std::size_t total = 0;
  for (std::size_t s : sizes) {
    if (s == 0) return Status::InvalidArgument("zero bucket size");
    total += s;
  }
  if (total != quad_scores.size()) {
    return Status::InvalidArgument("sizes do not sum to n");
  }
  if (Status range = CheckScoreRange(quad_scores); !range.ok()) return range;
  const std::vector<std::int64_t> f = SortedOneBased(quad_scores);
  std::int64_t cost = 0;
  std::size_t i = 0;
  for (std::size_t s : sizes) {
    cost += BlockCost(f, i, i + s);
    i += s;
  }
  return cost;
}

}  // namespace rankties::ref
