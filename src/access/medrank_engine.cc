#include "access/medrank_engine.h"

#include "obs/obs.h"

namespace rankties {

StatusOr<MedrankResult> MedrankTopK(
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

  MedrankResult result;
  result.accesses_per_list.assign(m, 0);
  if (k == 0) return result;

  obs::FlightSpan span(obs::FlightEventId::kMedrankRun);
  RANKTIES_OBS_COUNT("access.medrank.runs", 1);

  std::vector<std::int32_t> seen_count(n, 0);
  std::vector<bool> won(n, false);
  const std::size_t majority = m / 2 + 1;  // "> m/2" (paper §6)

  bool any_alive = true;
  while (result.winners.size() < k && any_alive) {
    ++result.depth;
    any_alive = false;
    for (std::size_t i = 0; i < m && result.winners.size() < k; ++i) {
      std::optional<SortedAccess> access = sources[i]->Next();
      if (!access.has_value()) continue;
      any_alive = true;
      ++result.accesses_per_list[i];
      const std::size_t e = static_cast<std::size_t>(access->element);
      if (won[e]) continue;
      if (static_cast<std::size_t>(++seen_count[e]) >= majority) {
        won[e] = true;
        result.winners.push_back(access->element);
      }
    }
  }
  for (std::int64_t a : result.accesses_per_list) result.total_accesses += a;
  span.SetArgs(static_cast<std::int64_t>(k), result.total_accesses,
               result.depth);
  RANKTIES_OBS_COUNT("access.medrank.sorted_accesses", result.total_accesses);
  RANKTIES_OBS_RECORD("access.medrank.depth", result.depth);
  return result;
}

StatusOr<MedrankResult> MedrankTopK(const std::vector<BucketOrder>& inputs,
                                    std::size_t k) {
  std::vector<std::unique_ptr<SortedAccessSource>> sources =
      MakeSources(inputs);
  return MedrankTopK(sources, k);
}

}  // namespace rankties
