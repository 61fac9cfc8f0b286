#include "core/markov_chain.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rankties {

StatusOr<Permutation> Mc4Aggregate(const std::vector<BucketOrder>& inputs,
                                   const Mc4Options& options) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();

  // majority[a][b] = true if a strict majority of inputs rank b strictly
  // ahead of a (so the chain moves a -> b).
  const std::size_t m = inputs.size();
  std::vector<std::vector<bool>> moves(n, std::vector<bool>(n, false));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      std::size_t ahead = 0;
      for (const BucketOrder& input : inputs) {
        if (input.Ahead(static_cast<ElementId>(b), static_cast<ElementId>(a)))
          ++ahead;
      }
      moves[a][b] = 2 * ahead > m;
    }
  }

  // Power iteration on the row-stochastic transition matrix
  // P(a -> b) = 1/n if moves[a][b], P(a -> a) = 1 - outdeg/n, mixed with a
  // uniform teleport for ergodicity.
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  const double alpha = 1.0 - options.teleport;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(),
              options.teleport / static_cast<double>(n));
    for (std::size_t a = 0; a < n; ++a) {
      double stay = pi[a];
      const double share = pi[a] / static_cast<double>(n);
      for (std::size_t b = 0; b < n; ++b) {
        if (moves[a][b]) {
          next[b] += alpha * share;
          stay -= share;
        }
      }
      next[a] += alpha * stay;
    }
    double delta = 0.0;
    for (std::size_t a = 0; a < n; ++a) delta += std::abs(next[a] - pi[a]);
    pi.swap(next);
    if (delta < options.tolerance) break;
  }

  std::vector<ElementId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](ElementId a, ElementId b) {
    return pi[static_cast<std::size_t>(a)] > pi[static_cast<std::size_t>(b)];
  });
  return Permutation::FromOrder(order);
}

}  // namespace rankties
