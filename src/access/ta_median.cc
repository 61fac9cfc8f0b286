#include "access/ta_median.h"

#include <algorithm>
#include <queue>

#include "access/access_model.h"
#include "obs/obs.h"
#include "util/contracts.h"

namespace rankties {

StatusOr<TaMedianResult> TaMedianTopK(const std::vector<BucketOrder>& inputs,
                                      std::size_t k) {
  if (inputs.empty()) return Status::InvalidArgument("no input rankings");
  const std::size_t m = inputs.size();
  const std::size_t n = inputs.front().n();
  if (n == 0) return Status::InvalidArgument("empty domain");
  for (const BucketOrder& input : inputs) {
    if (input.n() != n) {
      return Status::InvalidArgument("input domain sizes differ");
    }
  }
  if (k > n) return Status::InvalidArgument("k exceeds domain size");

  TaMedianResult result;
  if (k == 0) return result;

  obs::FlightSpan span(obs::FlightEventId::kTaRun);
  RANKTIES_OBS_COUNT("access.ta.runs", 1);

  std::vector<BucketOrderSource> sources;
  sources.reserve(m);
  for (const BucketOrder& input : inputs) sources.emplace_back(input);

  const std::size_t median_index = (m + 1) / 2;  // 1-based lower median
  std::vector<std::int64_t> column(m);
  auto exact_score = [&](ElementId e) {
    for (std::size_t i = 0; i < m; ++i) {
      column[i] = inputs[i].TwicePosition(e);
    }
    std::nth_element(column.begin(),
                     column.begin() +
                         static_cast<std::ptrdiff_t>(median_index - 1),
                     column.end());
    return 2 * column[median_index - 1];  // quadrupled units
  };

  // Max-heap of the best k (score, id) pairs seen so far.
  using Entry = std::pair<std::int64_t, ElementId>;
  std::priority_queue<Entry> best;
  std::vector<bool> scored(n, false);
  std::vector<std::int64_t> frontier(m, 0);
  std::vector<bool> alive(m, true);
  const std::int64_t max_twice = 2 * static_cast<std::int64_t>(n);

  bool done = false;
  while (!done) {
    bool any_alive = false;
    for (std::size_t i = 0; i < m; ++i) {
      if (!alive[i]) continue;
      std::optional<SortedAccess> access = sources[i].Next();
      if (!access.has_value()) {
        alive[i] = false;
        frontier[i] = max_twice;
        continue;
      }
      any_alive = true;
      ++result.sorted_accesses;
      // Threshold soundness rests on sorted accesses being monotone: a
      // regressing position would let the frontier median overstate the
      // bound and certify a wrong top-k.
      RANKTIES_DCHECK(access->twice_position >= frontier[i]);
      frontier[i] = access->twice_position;
      const std::size_t e = static_cast<std::size_t>(access->element);
      if (!scored[e]) {
        scored[e] = true;
        result.random_accesses += static_cast<std::int64_t>(m - 1);
        const std::int64_t score = exact_score(access->element);
        if (best.size() < k) {
          best.emplace(score, access->element);
        } else if (Entry(score, access->element) < best.top()) {
          best.pop();
          best.emplace(score, access->element);
        }
      }
    }
    // Threshold: the median of the frontier positions lower-bounds every
    // unseen element's median score.
    for (std::size_t i = 0; i < m; ++i) column[i] = frontier[i];
    std::nth_element(column.begin(),
                     column.begin() +
                         static_cast<std::ptrdiff_t>(median_index - 1),
                     column.end());
    const std::int64_t threshold_quad = 2 * column[median_index - 1];
    // Strict inequality: an unseen element could still tie the k-th score
    // at equality and deserve the slot under the by-id tie-break.
    if (best.size() == k && best.top().first < threshold_quad) {
      done = true;
    } else if (!any_alive) {
      done = true;  // everything seen; heap holds the exact top-k
    }
  }

  // Access-cost accounting (docs/OBSERVABILITY.md): the counters mirror
  // the result fields so instrumented runs expose Section 6's cost measure
  // without threading the result through the caller.
  span.SetArgs(static_cast<std::int64_t>(k), result.sorted_accesses,
               result.random_accesses);
  if (obs::Enabled()) {
    RANKTIES_OBS_COUNT("access.ta.sorted_accesses", result.sorted_accesses);
    RANKTIES_OBS_COUNT("access.ta.random_accesses", result.random_accesses);
    std::int64_t candidates = 0;
    for (std::size_t e = 0; e < n; ++e) candidates += scored[e] ? 1 : 0;
    RANKTIES_OBS_RECORD("access.ta.candidates", candidates);
  }

  // Drain the heap, best last -> reverse.
  std::vector<Entry> entries;
  while (!best.empty()) {
    entries.push_back(best.top());
    best.pop();
  }
  std::reverse(entries.begin(), entries.end());
  for (const auto& [score, e] : entries) {
    result.top.push_back(e);
    result.scores_quad.push_back(score);
  }
  return result;
}

}  // namespace rankties
