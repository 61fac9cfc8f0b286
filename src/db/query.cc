#include "db/query.h"

#include <algorithm>

#include "access/medrank_engine.h"

namespace rankties {

TieProfile ProfileTies(const BucketOrder& order) {
  TieProfile profile;
  profile.num_buckets = order.num_buckets();
  for (const std::size_t size : order.Type()) {
    profile.largest_bucket = std::max(profile.largest_bucket, size);
  }
  profile.avg_bucket_size =
      order.num_buckets() == 0
          ? 0.0
          : static_cast<double>(order.n()) /
                static_cast<double>(order.num_buckets());
  return profile;
}

PreferenceQuery& PreferenceQuery::Add(AttributePreference preference) {
  preferences_.push_back(std::move(preference));
  return *this;
}

StatusOr<std::vector<BucketOrder>> PreferenceQuery::DeriveRankings() const {
  if (preferences_.empty()) {
    return Status::FailedPrecondition("no preference criteria");
  }
  std::vector<BucketOrder> rankings;
  rankings.reserve(preferences_.size());
  for (const AttributePreference& pref : preferences_) {
    StatusOr<BucketOrder> ranking = Status::Internal("unreachable");
    switch (pref.mode) {
      case AttributePreference::Mode::kAscending:
        ranking = table_.RankAscending(pref.column, pref.granularity);
        break;
      case AttributePreference::Mode::kDescending:
        ranking = table_.RankDescending(pref.column, pref.granularity);
        break;
      case AttributePreference::Mode::kNear:
        ranking = table_.RankNear(pref.column, pref.target, pref.granularity);
        break;
      case AttributePreference::Mode::kCategoryOrder:
        ranking = table_.RankCategorical(pref.column, pref.category_order);
        break;
    }
    if (!ranking.ok()) return ranking.status();
    rankings.push_back(std::move(ranking).value());
  }
  return rankings;
}

StatusOr<QueryResult> PreferenceQuery::TopK(std::size_t k,
                                            MedianPolicy policy) const {
  StatusOr<std::vector<BucketOrder>> rankings = DeriveRankings();
  if (!rankings.ok()) return rankings.status();
  StatusOr<Permutation> full = MedianAggregateFull(*rankings, policy);
  if (!full.ok()) return full.status();
  QueryResult result;
  const std::size_t take = std::min(k, full->n());
  result.top_rows.reserve(take);
  for (std::size_t r = 0; r < take; ++r) {
    result.top_rows.push_back(full->At(static_cast<ElementId>(r)));
  }
  result.rankings = std::move(rankings).value();
  return result;
}

StatusOr<QueryResult> PreferenceQuery::TopKMedrank(std::size_t k) const {
  StatusOr<std::vector<BucketOrder>> rankings = DeriveRankings();
  if (!rankings.ok()) return rankings.status();
  StatusOr<MedrankResult> medrank =
      MedrankTopK(*rankings, std::min(k, rankings->front().n()));
  if (!medrank.ok()) return medrank.status();
  QueryResult result;
  result.top_rows = medrank->winners;
  result.sorted_accesses = medrank->total_accesses;
  result.rankings = std::move(rankings).value();
  return result;
}

StatusOr<PreferenceQuery::Explanation> PreferenceQuery::Explain(
    ElementId row) const {
  StatusOr<std::vector<BucketOrder>> rankings = DeriveRankings();
  if (!rankings.ok()) return rankings.status();
  if (row < 0 || static_cast<std::size_t>(row) >= table_.num_rows()) {
    return Status::InvalidArgument("row out of range");
  }
  Explanation explanation;
  explanation.row = row;
  std::vector<std::int64_t> twice;
  for (const BucketOrder& ranking : *rankings) {
    twice.push_back(ranking.TwicePosition(row));
    explanation.positions.push_back(ranking.Position(row));
  }
  explanation.median_position =
      static_cast<double>(MedianQuad(twice, MedianPolicy::kLower)) / 4.0;
  return explanation;
}

}  // namespace rankties
