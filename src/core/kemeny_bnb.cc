#include "core/kemeny_bnb.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "core/kemeny.h"
#include "core/local_kemenization.h"
#include "core/median_rank.h"

namespace rankties {

namespace {

// Doubled objective of a full ranking under the pairwise costs.
std::int64_t FullCostTwice(const Permutation& ranking,
                           const std::vector<std::vector<std::int64_t>>& w2) {
  const std::size_t n = ranking.n();
  std::int64_t cost = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t a =
        static_cast<std::size_t>(ranking.At(static_cast<ElementId>(r)));
    for (std::size_t s = r + 1; s < n; ++s) {
      const std::size_t b =
          static_cast<std::size_t>(ranking.At(static_cast<ElementId>(s)));
      cost += w2[a][b];
    }
  }
  return cost;
}

struct BnbState {
  const std::vector<std::vector<std::int64_t>>* w2 = nullptr;
  std::size_t n = 0;
  std::int64_t best_cost = 0;
  std::vector<ElementId> best_order;
  std::vector<ElementId> prefix;
  std::vector<bool> placed;
  std::int64_t nodes = 0;
  std::int64_t node_budget = 0;
  bool budget_exhausted = false;

  // Places the next position. Invariants:
  //  * prefix_cost    = exact cost of pairs with both members placed;
  //  * cross          = exact (already decided) cost of placed x unplaced
  //                     pairs = sum over unplaced f of placed_cost_to[f];
  //  * remaining_lb   = sum over unplaced pairs of min(w2, w2^T), a lower
  //                     bound on their eventual cost.
  void Search(std::int64_t prefix_cost, std::int64_t cross,
              std::int64_t remaining_lb,
              // placed_cost_to[e]: sum over placed a of w2[a][e]
              std::vector<std::int64_t>& placed_cost_to) {
    if (budget_exhausted) return;
    if (++nodes > node_budget) {
      budget_exhausted = true;
      return;
    }
    if (prefix.size() == n) {
      if (prefix_cost < best_cost) {
        best_cost = prefix_cost;
        best_order = prefix;
      }
      return;
    }
    if (prefix_cost + cross + remaining_lb >= best_cost) return;  // prune

    // Candidate order: cheapest immediate contribution first (greedy
    // ordering tightens the incumbent early).
    std::vector<std::pair<std::int64_t, ElementId>> candidates;
    for (std::size_t e = 0; e < n; ++e) {
      if (!placed[e]) {
        candidates.emplace_back(placed_cost_to[e],
                                static_cast<ElementId>(e));
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [cost_to_e, e] : candidates) {
      const std::size_t eu = static_cast<std::size_t>(e);
      // Removing e from the unplaced set: drop its min-pair terms from the
      // lower bound; e's decided edges to the remaining unplaced join the
      // cross term.
      std::int64_t lb_delta = 0;
      std::int64_t new_edges = 0;
      for (std::size_t f = 0; f < n; ++f) {
        if (!placed[f] && f != eu) {
          lb_delta += std::min((*w2)[eu][f], (*w2)[f][eu]);
          new_edges += (*w2)[eu][f];
        }
      }
      placed[eu] = true;
      prefix.push_back(e);
      for (std::size_t f = 0; f < n; ++f) {
        if (!placed[f]) placed_cost_to[f] += (*w2)[eu][f];
      }
      Search(prefix_cost + cost_to_e, cross - cost_to_e + new_edges,
             remaining_lb - lb_delta, placed_cost_to);
      for (std::size_t f = 0; f < n; ++f) {
        if (!placed[f]) placed_cost_to[f] -= (*w2)[eu][f];
      }
      prefix.pop_back();
      placed[eu] = false;
      if (budget_exhausted) return;
    }
  }
};

}  // namespace

StatusOr<KemenyBnbResult> KemenyBranchAndBound(
    const std::vector<BucketOrder>& inputs, double p,
    std::int64_t node_budget) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();
  if (std::abs(2.0 * p - std::llround(2.0 * p)) > 1e-12) {
    return Status::InvalidArgument("p must be a multiple of 1/2");
  }
  const std::vector<std::vector<std::int64_t>> w2 =
      PairwisePreferenceCostsTwice(inputs, p);

  // Incumbent: locally Kemenized median (strong in practice).
  StatusOr<Permutation> seed =
      MedianAggregateFull(inputs, MedianPolicy::kLower);
  if (!seed.ok()) return seed.status();
  const Permutation incumbent = LocalKemenization(*seed, inputs, p);

  BnbState state;
  state.w2 = &w2;
  state.n = n;
  state.best_cost = FullCostTwice(incumbent, w2);
  state.best_order = incumbent.order();
  state.placed.assign(n, false);
  state.node_budget = node_budget;

  std::int64_t lb = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      lb += std::min(w2[a][b], w2[b][a]);
    }
  }
  std::vector<std::int64_t> placed_cost_to(n, 0);
  state.Search(0, 0, lb, placed_cost_to);

  StatusOr<Permutation> ranking = Permutation::FromOrder(state.best_order);
  if (!ranking.ok()) return ranking.status();
  return KemenyBnbResult{std::move(ranking).value(), state.best_cost,
                         !state.budget_exhausted, state.nodes};
}

Permutation PivotAggregate(const std::vector<BucketOrder>& inputs, double p,
                           Rng& rng) {
  const std::size_t n = inputs.empty() ? 0 : inputs.front().n();
  const std::vector<std::vector<std::int64_t>> w2 =
      PairwisePreferenceCostsTwice(inputs, p);
  std::vector<ElementId> elems(n);
  std::iota(elems.begin(), elems.end(), 0);
  std::vector<ElementId> out;
  out.reserve(n);
  // Explicit stack of ranges to sort (recursion without recursion).
  std::function<void(std::vector<ElementId>&)> quick =
      [&](std::vector<ElementId>& range) {
        if (range.empty()) return;
        const std::size_t pick = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(range.size()) - 1));
        const ElementId pivot = range[pick];
        std::vector<ElementId> before, after;
        for (ElementId e : range) {
          if (e == pivot) continue;
          const std::size_t eu = static_cast<std::size_t>(e);
          const std::size_t pu = static_cast<std::size_t>(pivot);
          if (w2[eu][pu] <= w2[pu][eu]) {
            before.push_back(e);  // cheaper to rank e ahead of the pivot
          } else {
            after.push_back(e);
          }
        }
        quick(before);
        out.push_back(pivot);
        quick(after);
      };
  // quick() appends `before` results before the pivot by recursing first.
  std::vector<ElementId> all = elems;
  quick(all);
  StatusOr<Permutation> result = Permutation::FromOrder(out);
  return result.ok() ? std::move(result).value() : Permutation(n);
}

}  // namespace rankties
