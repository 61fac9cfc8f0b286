#include "core/online_median.h"

#include <iterator>
#include <utility>

#include "obs/obs.h"
#include "util/contracts.h"

namespace rankties {

void OnlineMedianAggregator::ElementState::Insert(std::int64_t value) {
  if (low.empty() || value <= *low.rbegin()) {
    low.insert(value);
  } else {
    high.insert(value);
  }
}

void OnlineMedianAggregator::ElementState::Erase(std::int64_t value) {
  auto it = low.find(value);
  if (it != low.end()) {
    low.erase(it);
    return;
  }
  it = high.find(value);
  RANKTIES_DCHECK(it != high.end());
  high.erase(it);
}

void OnlineMedianAggregator::ElementState::Rebalance(std::size_t target) {
  while (low.size() > target) {
    auto it = std::prev(low.end());
    high.insert(*it);
    low.erase(it);
  }
  while (low.size() < target) {
    auto it = high.begin();
    low.insert(*it);
    high.erase(it);
  }
  // Sizes alone don't restore the partition: an erase can empty `low` and
  // let the next insert land a value above `high`'s minimum there. Swap
  // boundary values until every low value <= every high value again (one
  // edit misplaces at most one value, so this loop runs at most once per
  // insert/erase pair).
  while (!low.empty() && !high.empty() && *low.rbegin() > *high.begin()) {
    auto low_it = std::prev(low.end());
    auto high_it = high.begin();
    const std::int64_t low_value = *low_it;
    const std::int64_t high_value = *high_it;
    low.erase(low_it);
    high.erase(high_it);
    low.insert(high_value);
    high.insert(low_value);
  }
}

OnlineMedianAggregator::OnlineMedianAggregator(std::size_t n)
    : positions_(n) {}

Status OnlineMedianAggregator::AddVoter(const BucketOrder& voter) {
  if (voter.n() != n()) {
    return Status::InvalidArgument("voter domain size mismatch");
  }
  const std::size_t m = num_voters_ + 1;  // count including this voter
  const std::size_t target = (m + 1) / 2;  // lower-median 1-based index
  std::vector<std::int64_t> row(n());
  for (std::size_t e = 0; e < n(); ++e) {
    const std::int64_t value =
        voter.TwicePosition(static_cast<ElementId>(e));
    row[e] = value;
    ElementState& state = positions_[e];
    state.Insert(value);
    state.Rebalance(target);
  }
  voter_positions_.push_back(std::move(row));
  num_voters_ = m;
  RANKTIES_OBS_COUNT("online_median.add_voters", 1);
  RANKTIES_OBS_COUNT("online_median.elements_touched",
                     static_cast<std::int64_t>(n()));
  obs::FlightRecord(obs::FlightEventId::kOnlineMedianAdd,
                    static_cast<std::int64_t>(m - 1),
                    static_cast<std::int64_t>(n()));
  return Status::Ok();
}

Status OnlineMedianAggregator::UpdateVoter(std::size_t index,
                                           const BucketOrder& voter) {
  if (index >= num_voters_) {
    return Status::InvalidArgument("voter index out of range");
  }
  if (voter.n() != n()) {
    return Status::InvalidArgument("voter domain size mismatch");
  }
  const std::size_t target = (num_voters_ + 1) / 2;
  std::vector<std::int64_t>& row = voter_positions_[index];
  std::int64_t touched = 0;
  for (std::size_t e = 0; e < n(); ++e) {
    const std::int64_t value =
        voter.TwicePosition(static_cast<ElementId>(e));
    if (value == row[e]) continue;  // untouched elements cost nothing
    ElementState& state = positions_[e];
    state.Erase(row[e]);
    state.Insert(value);
    state.Rebalance(target);
    row[e] = value;
    ++touched;
  }
  RANKTIES_OBS_COUNT("online_median.update_voters", 1);
  RANKTIES_OBS_COUNT("online_median.elements_touched", touched);
  obs::FlightRecord(obs::FlightEventId::kOnlineMedianUpdate,
                    static_cast<std::int64_t>(index), touched);
  return Status::Ok();
}

Status OnlineMedianAggregator::RemoveVoter(std::size_t index) {
  if (index >= num_voters_) {
    return Status::InvalidArgument("voter index out of range");
  }
  const std::size_t m = num_voters_ - 1;  // count after the withdrawal
  const std::size_t target = (m + 1) / 2;  // 0 when the last voter leaves
  const std::vector<std::int64_t>& row = voter_positions_[index];
  for (std::size_t e = 0; e < n(); ++e) {
    ElementState& state = positions_[e];
    state.Erase(row[e]);
    state.Rebalance(target);
  }
  // Swap-with-last keeps voter storage dense; the caller remaps only the
  // moved index.
  voter_positions_[index] = std::move(voter_positions_.back());
  voter_positions_.pop_back();
  num_voters_ = m;
  RANKTIES_OBS_COUNT("online_median.remove_voters", 1);
  RANKTIES_OBS_COUNT("online_median.elements_touched",
                     static_cast<std::int64_t>(n()));
  obs::FlightRecord(obs::FlightEventId::kOnlineMedianRemove,
                    static_cast<std::int64_t>(index),
                    static_cast<std::int64_t>(m));
  return Status::Ok();
}

StatusOr<std::vector<std::int64_t>> OnlineMedianAggregator::ScoresQuad()
    const {
  if (num_voters_ == 0) {
    return Status::FailedPrecondition("no voters added yet");
  }
  std::vector<std::int64_t> scores(n());
  for (std::size_t e = 0; e < n(); ++e) {
    scores[e] = 2 * positions_[e].Median();
  }
  return scores;
}

StatusOr<Permutation> OnlineMedianAggregator::CurrentFull() const {
  StatusOr<std::vector<std::int64_t>> scores = ScoresQuad();
  if (!scores.ok()) return scores.status();
  return BucketOrder::FromIntKeys(*scores).CanonicalRefinement();
}

StatusOr<BucketOrder> OnlineMedianAggregator::CurrentTopK(
    std::size_t k) const {
  StatusOr<Permutation> full = CurrentFull();
  if (!full.ok()) return full.status();
  if (k > n()) return Status::InvalidArgument("k exceeds domain size");
  return BucketOrder::TopKOf(*full, k);
}

}  // namespace rankties
