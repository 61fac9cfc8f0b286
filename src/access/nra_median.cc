#include "access/nra_median.h"

#include <algorithm>
#include <numeric>

#include "obs/obs.h"
#include "util/contracts.h"

namespace rankties {

namespace {

// 1-based index of the lower median among m values: (m+1)/2.
std::size_t LowerMedianIndex(std::size_t m) { return (m + 1) / 2; }

}  // namespace

StatusOr<NraMedianResult> NraMedianTopK(
    const std::vector<std::unique_ptr<SortedAccessSource>>& sources,
    std::size_t k) {
  if (sources.empty()) return Status::InvalidArgument("no sources");
  const std::size_t m = sources.size();
  const std::size_t n = sources.front()->n();
  if (n == 0) return Status::InvalidArgument("empty domain");
  for (const auto& source : sources) {
    if (source->n() != n) {
      return Status::InvalidArgument("source domain sizes differ");
    }
  }
  if (k > n) return Status::InvalidArgument("k exceeds domain size");

  NraMedianResult result;
  result.accesses_per_list.assign(m, 0);
  if (k == 0) return result;

  obs::FlightSpan span(obs::FlightEventId::kNraRun);
  RANKTIES_OBS_COUNT("access.nra.runs", 1);

  // seen[e * m + i] = e's doubled position in list i, or -1 if unseen.
  std::vector<std::int64_t> seen(n * m, -1);
  std::vector<std::int64_t> frontier(m, 0);  // last accessed twice-position
  std::vector<bool> alive(m, true);
  const std::int64_t max_twice_pos = 2 * static_cast<std::int64_t>(n);
  const std::size_t median_index = LowerMedianIndex(m);

  std::vector<std::int64_t> lower(n), upper(n);
  std::vector<std::int64_t> scratch(m);
  auto recompute_bounds = [&] {
    for (std::size_t e = 0; e < n; ++e) {
      // Lower bound: unseen lists contribute their frontier.
      for (std::size_t i = 0; i < m; ++i) {
        const std::int64_t pos = seen[e * m + i];
        scratch[i] = pos >= 0 ? pos : frontier[i];
      }
      std::nth_element(scratch.begin(),
                       scratch.begin() +
                           static_cast<std::ptrdiff_t>(median_index - 1),
                       scratch.end());
      lower[e] = scratch[median_index - 1];
      // Upper bound: unseen lists contribute the maximum position.
      for (std::size_t i = 0; i < m; ++i) {
        const std::int64_t pos = seen[e * m + i];
        scratch[i] = pos >= 0 ? pos : max_twice_pos;
      }
      std::nth_element(scratch.begin(),
                       scratch.begin() +
                           static_cast<std::ptrdiff_t>(median_index - 1),
                       scratch.end());
      upper[e] = scratch[median_index - 1];
    }
  };

  // Returns true (and fills result.top) when the k smallest upper bounds
  // dominate every other element's lower bound.
  std::vector<ElementId> by_upper(n);
  std::iota(by_upper.begin(), by_upper.end(), 0);
  auto certified = [&] {
    recompute_bounds();
    std::partial_sort(by_upper.begin(),
                      by_upper.begin() + static_cast<std::ptrdiff_t>(k),
                      by_upper.end(), [&](ElementId a, ElementId b) {
                        const std::int64_t ua =
                            upper[static_cast<std::size_t>(a)];
                        const std::int64_t ub =
                            upper[static_cast<std::size_t>(b)];
                        return ua != ub ? ua < ub : a < b;
                      });
    const std::int64_t kth_upper =
        upper[static_cast<std::size_t>(by_upper[k - 1])];
    std::vector<bool> in_top(n, false);
    for (std::size_t r = 0; r < k; ++r) {
      in_top[static_cast<std::size_t>(by_upper[r])] = true;
    }
    for (std::size_t e = 0; e < n; ++e) {
      if (!in_top[e] && lower[e] < kth_upper) return false;
    }
    result.top.assign(by_upper.begin(),
                      by_upper.begin() + static_cast<std::ptrdiff_t>(k));
    return true;
  };

  std::int64_t round = 0;
  bool done = false;
  while (!done) {
    bool any_alive = false;
    for (std::size_t i = 0; i < m; ++i) {
      if (!alive[i]) continue;
      std::optional<SortedAccess> access = sources[i]->Next();
      if (!access.has_value()) {
        alive[i] = false;
        // An exhausted list has revealed everything; its frontier no
        // longer lower-bounds anything unseen (there is nothing unseen).
        frontier[i] = max_twice_pos;
        continue;
      }
      any_alive = true;
      ++result.accesses_per_list[i];
      // The lower-bound argument substitutes frontier[i] for unseen
      // entries; that is only a lower bound if accesses never regress.
      RANKTIES_DCHECK(access->twice_position >= frontier[i]);
      seen[static_cast<std::size_t>(access->element) * m + i] =
          access->twice_position;
      frontier[i] = access->twice_position;
    }
    ++round;
    // Bound checks are O(n m); amortize them on large domains.
    const bool check = round <= 8 || round % 64 == 0 || !any_alive;
    if (check && certified()) {
      done = true;
    } else if (!any_alive) {
      // Exhausted: bounds are exact, certification must succeed.
      done = certified();
      break;
    }
  }
  for (std::int64_t a : result.accesses_per_list) result.total_accesses += a;
  // Access-cost accounting (docs/OBSERVABILITY.md): NRA performs sorted
  // accesses only; candidates counts elements partially seen at stop time.
  span.SetArgs(static_cast<std::int64_t>(k), result.total_accesses);
  if (obs::Enabled()) {
    RANKTIES_OBS_COUNT("access.nra.sorted_accesses", result.total_accesses);
    std::int64_t candidates = 0;
    for (std::size_t e = 0; e < n; ++e) {
      for (std::size_t i = 0; i < m; ++i) {
        if (seen[e * m + i] >= 0) {
          ++candidates;
          break;
        }
      }
    }
    RANKTIES_OBS_RECORD("access.nra.candidates", candidates);
  }
  if (result.top.empty()) {
    return Status::Internal("NRA failed to certify after exhaustion");
  }
  return result;
}

StatusOr<NraMedianResult> NraMedianTopK(const std::vector<BucketOrder>& inputs,
                                        std::size_t k) {
  std::vector<std::unique_ptr<SortedAccessSource>> sources =
      MakeSources(inputs);
  return NraMedianTopK(sources, k);
}

}  // namespace rankties
