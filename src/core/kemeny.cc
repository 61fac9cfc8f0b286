#include "core/kemeny.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/thread_pool.h"

namespace rankties {

namespace {

// Rows per ParallelFor chunk for the m*n-cost row loops below; aims for a
// few thousand pair evaluations per chunk so tiny instances stay inline.
std::size_t RowGrain(std::size_t n, std::size_t m) {
  return std::max<std::size_t>(1, 4096 / (n * m + 1));
}

}  // namespace

std::vector<std::vector<std::int64_t>> PairwisePreferenceCostsTwice(
    const std::vector<BucketOrder>& inputs, double p) {
  const std::size_t n = inputs.empty() ? 0 : inputs.front().n();
  std::vector<std::vector<std::int64_t>> w(n,
                                           std::vector<std::int64_t>(n, 0));
  // Parallel over rows a: each task owns w[a][*], so writes never collide,
  // and integer accumulation makes the result order-independent.
  ParallelFor(0, n, RowGrain(n, inputs.size()),
              [&](std::size_t lo, std::size_t hi) {
    for (std::size_t a = lo; a < hi; ++a) {
      const ElementId ea = static_cast<ElementId>(a);
      for (const BucketOrder& input : inputs) {
        // Hoist a's bucket out of the inner loop: the Ahead/Tied pair
        // collapses to one lookup and one three-way comparison per b.
        const BucketIndex ba = input.BucketOf(ea);
        for (std::size_t b = 0; b < n; ++b) {
          if (a == b) continue;
          const BucketIndex bb = input.BucketOf(static_cast<ElementId>(b));
          if (bb < ba) {
            w[a][b] += 2;  // ranking a ahead of b contradicts this input
          } else if (bb == ba) {
            w[a][b] += static_cast<std::int64_t>(std::llround(2.0 * p));
          }
        }
      }
    }
  });
  return w;
}

StatusOr<KemenyPartialResult> ExactKemenyPartial(
    const std::vector<BucketOrder>& inputs, double p) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();
  if (n > 13) {
    return Status::InvalidArgument(
        "exact partial Kemeny limited to n <= 13 (3^n subset pairs)");
  }
  if (std::abs(2.0 * p - std::llround(2.0 * p)) > 1e-12) {
    return Status::InvalidArgument(
        "exact Kemeny requires p to be a multiple of 1/2");
  }
  const std::int64_t two_p = std::llround(2.0 * p);
  // w2[a][b]: doubled cost of ranking a strictly ahead of b.
  const std::vector<std::vector<std::int64_t>> w2 =
      PairwisePreferenceCostsTwice(inputs, p);
  // t2[a][b]: doubled cost of tying a and b = 2p per input strict on them.
  std::vector<std::vector<std::int64_t>> t2(n,
                                            std::vector<std::int64_t>(n, 0));
  ParallelFor(0, n, RowGrain(n, inputs.size()),
              [&](std::size_t lo, std::size_t hi) {
    for (std::size_t a = lo; a < hi; ++a) {
      const ElementId ea = static_cast<ElementId>(a);
      for (const BucketOrder& input : inputs) {
        const BucketIndex ba = input.BucketOf(ea);  // hoisted from inner loop
        for (std::size_t b = 0; b < n; ++b) {
          if (a != b && input.BucketOf(static_cast<ElementId>(b)) != ba) {
            t2[a][b] += two_p;
          }
        }
      }
    }
  });

  const std::size_t full = static_cast<std::size_t>(1) << n;
  // colsum[M * n + b] = sum over a in M of w2[a][b].
  std::vector<std::int64_t> colsum(full * n, 0);
  for (std::size_t mask = 1; mask < full; ++mask) {
    const std::size_t low = static_cast<std::size_t>(
        std::countr_zero(mask));
    const std::size_t prev = mask & (mask - 1);
    for (std::size_t b = 0; b < n; ++b) {
      colsum[mask * n + b] = colsum[prev * n + b] + w2[low][b];
    }
  }
  // tie_cost[B] = sum over unordered pairs within B of t2.
  std::vector<std::int64_t> tie_cost(full, 0);
  for (std::size_t mask = 1; mask < full; ++mask) {
    const std::size_t low = static_cast<std::size_t>(std::countr_zero(mask));
    const std::size_t prev = mask & (mask - 1);
    std::int64_t extra = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if ((prev >> a) & 1) extra += t2[low][a];
    }
    tie_cost[mask] = tie_cost[prev] + extra;
  }

  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> dp(full, kInf);
  std::vector<std::uint32_t> parent(full, 0);
  dp[0] = 0;
  for (std::size_t mask = 1; mask < full; ++mask) {
    // Iterate nonempty submasks B of mask as the LAST bucket of `mask`.
    for (std::size_t b_mask = mask;; b_mask = (b_mask - 1) & mask) {
      if (b_mask == 0) break;
      const std::size_t rest = mask ^ b_mask;
      if (dp[rest] < kInf) {
        // Cross cost: every element of `rest` is ahead of every element of
        // B: sum over b in B of colsum[rest][b].
        std::int64_t cross = 0;
        std::size_t bits = b_mask;
        while (bits) {
          const std::size_t b = static_cast<std::size_t>(
              std::countr_zero(bits));
          cross += colsum[rest * n + b];
          bits &= bits - 1;
        }
        const std::int64_t candidate = dp[rest] + cross + tie_cost[b_mask];
        if (candidate < dp[mask]) {
          dp[mask] = candidate;
          parent[mask] = static_cast<std::uint32_t>(b_mask);
        }
      }
    }
  }

  // Reconstruct buckets back-to-front.
  std::vector<std::vector<ElementId>> buckets_reversed;
  std::size_t mask = full - 1;
  while (mask != 0) {
    const std::size_t b_mask = parent[mask];
    std::vector<ElementId> bucket;
    for (std::size_t e = 0; e < n; ++e) {
      if ((b_mask >> e) & 1) bucket.push_back(static_cast<ElementId>(e));
    }
    buckets_reversed.push_back(std::move(bucket));
    mask ^= b_mask;
  }
  std::vector<std::vector<ElementId>> buckets(buckets_reversed.rbegin(),
                                              buckets_reversed.rend());
  StatusOr<BucketOrder> order =
      BucketOrder::FromBuckets(n, std::move(buckets));
  if (!order.ok()) return order.status();
  KemenyPartialResult result{std::move(order).value(), 0.0, dp[full - 1]};
  result.total_cost = static_cast<double>(result.twice_cost) / 2.0;
  return result;
}

StatusOr<KemenyResult> ExactKemeny(const std::vector<BucketOrder>& inputs,
                                   double p) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();
  if (n > 18) {
    return Status::InvalidArgument("exact Kemeny limited to n <= 18");
  }
  if (std::abs(2.0 * p - std::llround(2.0 * p)) > 1e-12) {
    return Status::InvalidArgument(
        "exact Kemeny requires p to be a multiple of 1/2 for integral costs");
  }
  const std::vector<std::vector<std::int64_t>> w =
      PairwisePreferenceCostsTwice(inputs, p);

  const std::size_t full = static_cast<std::size_t>(1) << n;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> dp(full, kInf);
  std::vector<std::int8_t> parent(full, -1);
  dp[0] = 0;
  for (std::size_t mask = 1; mask < full; ++mask) {
    for (std::size_t e = 0; e < n; ++e) {
      const std::size_t bit = static_cast<std::size_t>(1) << e;
      if (!(mask & bit)) continue;
      const std::size_t prev = mask ^ bit;
      if (dp[prev] >= kInf) continue;
      // e is placed last among `mask`: all other members of mask are ahead.
      std::int64_t extra = 0;
      for (std::size_t a = 0; a < n; ++a) {
        if ((prev >> a) & 1) extra += w[a][e];
      }
      const std::int64_t candidate = dp[prev] + extra;
      if (candidate < dp[mask]) {
        dp[mask] = candidate;
        parent[mask] = static_cast<std::int8_t>(e);
      }
    }
  }

  std::vector<ElementId> order(n);
  std::size_t mask = full - 1;
  for (std::size_t r = n; r > 0; --r) {
    const std::size_t e = static_cast<std::size_t>(parent[mask]);
    order[r - 1] = static_cast<ElementId>(e);
    mask ^= static_cast<std::size_t>(1) << e;
  }
  StatusOr<Permutation> perm = Permutation::FromOrder(order);
  if (!perm.ok()) return perm.status();

  KemenyResult result{std::move(perm).value(), 0.0, dp[full - 1]};
  result.total_cost = static_cast<double>(result.twice_cost) / 2.0;
  return result;
}

}  // namespace rankties
