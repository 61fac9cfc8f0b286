#ifndef RANKTIES_CORE_ONLINE_MEDIAN_H_
#define RANKTIES_CORE_ONLINE_MEDIAN_H_

#include <cstdint>
#include <set>
#include <vector>

#include "rank/bucket_order.h"
#include "rank/permutation.h"
#include "util/status.h"

namespace rankties {

/// Incremental median-rank aggregation: voters arrive one at a time (a
/// meta-search engine answering as upstream engines respond; a poll
/// updating as ballots arrive) and the aggregate is queryable at any
/// point. Voters can also *change their mind*: a live
/// corpus replaces or withdraws a ballot and the aggregate follows without
/// a batch recompute. Per element the doubled positions of the current
/// voters are kept in a two-multiset median structure (`low` = the
/// (m+1)/2 smallest values, so the lower median is `low`'s maximum), which
/// supports arbitrary erase — not just arrival-order insert — in
/// O(log m). Costs:
///   AddVoter      O(n log m),
///   UpdateVoter   O(changed elements * log m),
///   RemoveVoter   O(n log m),
///   CurrentTopK   O(n log n),
/// and every query agrees exactly with the batch MedianRankScoresQuad
/// (kLower) over the current voter set (fuzzed by the mutation-trace
/// family, tests/fuzz).
class OnlineMedianAggregator {
 public:
  /// Fixes the domain size up front.
  explicit OnlineMedianAggregator(std::size_t n);

  std::size_t n() const { return positions_.size(); }
  std::size_t num_voters() const { return num_voters_; }

  /// Adds one voter; its index is num_voters() before the call. Fails on
  /// domain-size mismatch.
  Status AddVoter(const BucketOrder& voter);

  /// Replaces voter `index`'s ballot. Only elements whose doubled position
  /// actually changed touch their median structure. Fails on a bad index
  /// or domain-size mismatch.
  Status UpdateVoter(std::size_t index, const BucketOrder& voter);

  /// Withdraws voter `index`'s ballot. The last voter takes over the
  /// vacated index (swap-with-last, like vector erase by swap), so caller
  /// bookkeeping must remap that one index. Fails on a bad index.
  Status RemoveVoter(std::size_t index);

  /// Quadrupled lower-median scores over the voters so far.
  /// Fails before the first voter.
  StatusOr<std::vector<std::int64_t>> ScoresQuad() const;

  /// Current best-first full ranking (median scores, ties by id).
  StatusOr<Permutation> CurrentFull() const;

  /// Current top-k list.
  StatusOr<BucketOrder> CurrentTopK(std::size_t k) const;

 private:
  // Per element: the multiset of current voters' doubled positions, split
  // so that `low` holds exactly the (m+1)/2 smallest values (lower-median
  // index, 1-based) and `high` the rest. The lower median is then
  // *low.rbegin(), and insert/erase of an arbitrary value plus a
  // rebalancing step are all O(log m) — the iterator-tracked single
  // multiset this replaces could only follow arrival-order inserts.
  struct ElementState {
    std::multiset<std::int64_t> low;
    std::multiset<std::int64_t> high;

    void Insert(std::int64_t value);
    void Erase(std::int64_t value);
    /// Restores |low| == target by shuttling boundary values.
    void Rebalance(std::size_t target);
    std::int64_t Median() const { return *low.rbegin(); }
  };
  std::vector<ElementState> positions_;
  /// voter_positions_[v][e] = doubled position of e in voter v's current
  /// ballot — the old values UpdateVoter/RemoveVoter must erase.
  std::vector<std::vector<std::int64_t>> voter_positions_;
  std::size_t num_voters_ = 0;
};

}  // namespace rankties

#endif  // RANKTIES_CORE_ONLINE_MEDIAN_H_
