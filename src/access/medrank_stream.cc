#include "access/medrank_stream.h"

#include "obs/obs.h"

namespace rankties {

MedrankStream::MedrankStream(
    std::vector<std::unique_ptr<SortedAccessSource>> sources)
    : sources_(std::move(sources)) {}

std::optional<ElementId> MedrankStream::NextWinner() {
  // Counter delta = accesses performed by this call alone; the running
  // total stays in total_accesses_ for callers that want the cumulative.
  const std::int64_t accesses_before = total_accesses_;
  obs::FlightSpan span(obs::FlightEventId::kMedrankStreamNextWinner);
  if (!initialized_) {
    initialized_ = true;
    if (sources_.empty()) {
      exhausted_ = true;
      return std::nullopt;
    }
    const std::size_t n = sources_.front()->n();
    for (const auto& source : sources_) {
      if (source->n() != n) {
        exhausted_ = true;  // malformed; surface as an empty stream
        return std::nullopt;
      }
    }
    accesses_per_list_.assign(sources_.size(), 0);
    seen_count_.assign(n, 0);
    won_.assign(n, false);
    majority_ = sources_.size() / 2 + 1;
  }

  while (!exhausted_) {
    bool any_alive = false;
    // One full round of round-robin sorted access starting at next_list_.
    for (std::size_t step = 0; step < sources_.size(); ++step) {
      const std::size_t i = (next_list_ + step) % sources_.size();
      std::optional<SortedAccess> access = sources_[i]->Next();
      if (!access.has_value()) continue;
      any_alive = true;
      ++accesses_per_list_[i];
      ++total_accesses_;
      const std::size_t e = static_cast<std::size_t>(access->element);
      if (won_[e]) continue;
      if (static_cast<std::size_t>(++seen_count_[e]) >= majority_) {
        won_[e] = true;
        // Resume after this list next time so the interrupted round
        // continues where it stopped.
        next_list_ = (i + 1) % sources_.size();
        winners_.push_back(access->element);
        span.SetArgs(static_cast<std::int64_t>(access->element),
                     total_accesses_ - accesses_before, total_accesses_);
        RANKTIES_OBS_COUNT("access.medrank_stream.sorted_accesses",
                           total_accesses_ - accesses_before);
        return access->element;
      }
    }
    if (!any_alive) exhausted_ = true;
  }
  span.SetArgs(-1, total_accesses_ - accesses_before, total_accesses_);
  RANKTIES_OBS_COUNT("access.medrank_stream.sorted_accesses",
                     total_accesses_ - accesses_before);
  return std::nullopt;
}

}  // namespace rankties
