#include "core/optimal_bucketing.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/contracts.h"

namespace rankties {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

// Sorted view of the scores: ids[r] = element at sorted position r (0-based,
// ties by ascending id), f[r+1] = its quad score (f is 1-based to match the
// paper's indexing).
struct SortedScores {
  std::vector<ElementId> ids;
  std::vector<std::int64_t> f;  // f[1..n], ascending
};

SortedScores SortScores(const std::vector<std::int64_t>& quad_scores) {
  SortedScores s{BucketOrder::FromIntKeys(quad_scores).by_bucket(), {}};
  const std::size_t n = quad_scores.size();
  s.f.resize(n + 1);
  for (std::size_t r = 0; r < n; ++r) {
    s.f[r + 1] = quad_scores[static_cast<std::size_t>(s.ids[r])];
  }
  return s;
}

// The bucket order of type `sizes` (bucket sizes, front first) consistent
// with the sorted scores.
BucketingResult FromType(const SortedScores& sorted,
                         const std::vector<std::size_t>& sizes,
                         std::int64_t cost_quad) {
  std::vector<BucketIndex> bucket_of(sorted.ids.size());
  std::size_t r = 0;
  BucketIndex b = 0;
  for (std::size_t s : sizes) {
    for (std::size_t l = 0; l < s; ++l, ++r) {
      bucket_of[static_cast<std::size_t>(sorted.ids[r])] = b;
    }
    ++b;
  }
  StatusOr<BucketOrder> order = BucketOrder::FromBucketIndex(bucket_of);
  RANKTIES_DCHECK_OK(order);
  return BucketingResult{std::move(order).value(), cost_quad};
}

// Every cost the DP forms is a sum of at most n terms |f[l] - m| with
// m <= 4n, so n * (max |f| + 4n + 4) <= kInf keeps each cost, each prefix
// sum and each dp[i] + c(i, j) inside int64. Scores are compared against
// +-limit because std::abs(INT64_MIN) is itself undefined.
Status CheckScoreRange(const std::vector<std::int64_t>& quad_scores) {
  const std::int64_t n = static_cast<std::int64_t>(quad_scores.size());
  if (n == 0) return Status::Ok();
  const std::int64_t limit = kInf / n - 4 * n - 4;
  for (std::int64_t score : quad_scores) {
    if (score > limit || score < -limit) {
      return Status::InvalidArgument("quad score " + std::to_string(score) +
                                     " out of range");
    }
  }
  return Status::Ok();
}

// dp[j] = min_{i<j} dp[i] + c(i, j): the last bucket holds sorted positions
// (i, j] at quad position m = 2(i+j+1), and c(i, j) = sum_{l=i+1..j}
// |f[l] - m|. Prefix sums give c(i, j) in O(1) once the block is split at
// the first l with f[l] >= m; for a fixed j, m grows with i, so that split
// only moves forward and one cursor finds all j splits in O(j) steps. The
// strict < over ascending i keeps the smallest optimal i.
BucketingResult Solve(const SortedScores& sorted) {
  const std::size_t n = sorted.ids.size();
  const std::vector<std::int64_t>& f = sorted.f;
  std::vector<std::int64_t> prefix(n + 1, 0);  // prefix[l] = f[1] + .. + f[l]
  for (std::size_t l = 1; l <= n; ++l) prefix[l] = prefix[l - 1] + f[l];
  std::vector<std::int64_t> dp(n + 1, kInf);
  std::vector<std::size_t> best_i(n + 1, 0);
  dp[0] = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    std::size_t k = 1;  // first l <= j with f[l] >= m, else j + 1
    for (std::size_t i = 0; i < j; ++i) {
      const std::int64_t m = 2 * static_cast<std::int64_t>(i + j + 1);
      while (k <= j && f[k] < m) ++k;
      const std::size_t split = std::max(k, i + 1);
      const std::int64_t below = static_cast<std::int64_t>(split - i - 1);
      const std::int64_t above = static_cast<std::int64_t>(j + 1 - split);
      const std::int64_t cost = below * m - (prefix[split - 1] - prefix[i]) +
                                (prefix[j] - prefix[split - 1]) - above * m;
      if (dp[i] + cost < dp[j]) {
        dp[j] = dp[i] + cost;
        best_i[j] = i;
      }
    }
  }
  std::vector<std::size_t> sizes;  // the optimal type, last bucket first
  for (std::size_t j = n; j > 0; j = best_i[j]) sizes.push_back(j - best_i[j]);
  std::reverse(sizes.begin(), sizes.end());
  return FromType(sorted, sizes, dp[n]);
}

}  // namespace

StatusOr<BucketingResult> OptimalBucketing(
    const std::vector<std::int64_t>& quad_scores) {
  if (quad_scores.empty()) {
    return Status::InvalidArgument("no scores");
  }
  if (Status range = CheckScoreRange(quad_scores); !range.ok()) return range;
  return Solve(SortScores(quad_scores));
}

}  // namespace rankties
