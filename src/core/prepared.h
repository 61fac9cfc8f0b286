#ifndef RANKTIES_CORE_PREPARED_H_
#define RANKTIES_CORE_PREPARED_H_

#include <cstdint>
#include <vector>

#include "core/footrule.h"
#include "core/pair_counts.h"
#include "rank/bucket_order.h"
#include "rank/element.h"
#include "util/status.h"

namespace rankties {

/// The pairwise kernels: allocation-free Kendall- and Hausdorff-family
/// metrics on two BucketOrders.
///
/// A BucketOrder already stores the flat arrays the kernels read (the
/// counting-sorted by_bucket order, bucket offsets, element-indexed
/// doubled positions and the tied-pair count), so the kernels below
/// classify the pairs of two rankings using only a caller-owned
/// `PairScratch`, performing **zero heap allocations** once the scratch has
/// grown to the workload's high-water mark (asserted by
/// tests/prepared_test.cc with an operator-new counting hook). Kprof,
/// KHaus and K^(p) funnel through the shared FromCounts post-processing
/// (TwiceKprofFromCounts, KHausdorffFromCounts, KendallPFromCounts) on
/// exact integer counts. The two-argument point forms (pair_counts.h,
/// profile_metrics.h, hausdorff.h) call these kernels with a function-local
/// scratch; Fprof needs no scratch and lives in footrule.h. The fuzz
/// harness cross-checks every kernel pair-for-pair against the per-pair
/// oracle tier in src/ref across every adversarial family.

/// The frozen ranking's old name, kept only because the rankties-e2e
/// harness (bench/e2e) still spells it.
using PreparedRanking = BucketOrder;

/// Reusable per-thread workspace for the prepared kernels. Buffers only
/// ever grow (to the largest n / bucket count seen), so a warm scratch
/// makes every subsequent kernel call allocation-free regardless of how
/// the inputs' sizes vary call to call. Not thread-safe: one scratch per
/// thread (core/batch_engine's LaneScratch keeps one per pool lane).
class PairScratch {
 public:
  PairScratch() = default;

  PairScratch(const PairScratch&) = delete;
  PairScratch& operator=(const PairScratch&) = delete;
  /// Move-only: a warm scratch can be handed between owners (e.g. pool
  /// lane storage) without re-paying the grow-to-high-water cost.
  PairScratch(PairScratch&&) noexcept = default;
  PairScratch& operator=(PairScratch&&) noexcept = default;
  ~PairScratch() = default;

  /// Grows all buffers to the high-water mark for rankings with up to `n`
  /// elements and `buckets` buckets per side, so that subsequent kernel
  /// calls within those bounds allocate nothing. Optional — the kernels
  /// grow the scratch on demand.
  void Reserve(std::size_t n, std::size_t buckets);

 private:
  friend PairCounts ComputePairCounts(const BucketOrder& sigma,
                                      const BucketOrder& tau,
                                      PairScratch& scratch);
  friend std::int64_t TwiceFHausdorff(const BucketOrder& sigma,
                                      const BucketOrder& tau,
                                      PairScratch& scratch);

  // Per-tau-bucket accumulator: a plain prefix array in flat-histogram
  // mode, a Fenwick tree (slot 0 unused) in the sorted fallback; the FHaus
  // kernel reuses it as the per-tau-bucket column-prefix array.
  std::vector<std::int64_t> fenwick_;
  // Flat joint histogram, indexed sigma_bucket * t_tau + tau_bucket; cells
  // are re-zeroed as the row scan consumes them, so all entries are zero
  // outside a call.
  std::vector<std::int64_t> joint_counts_;
  // Fallback buffer for the sort-and-run-count joint histogram used when
  // t_sigma * t_tau is large relative to n.
  std::vector<std::int64_t> joint_keys_;
  // Staging buffer for the SIMD joint-key computation in flat-histogram
  // mode (keys fit in int32 there: the key space is capped at 2^20).
  std::vector<std::int32_t> keys32_;
};

/// Pair classification on two rankings — the five counts of PairCounts,
/// with zero heap allocations on a warm scratch. t_sigma*t_tau-aware: when
/// the joint key space is a small multiple of n, one flat-histogram row
/// scan yields tied_both and discordant together in O(n + t_sigma*t_tau) —
/// no sort, no Fenwick; otherwise it falls back to sort-and-run-count on
/// the scratch key buffer plus a Fenwick sweep, O(n log n). Requires
/// sigma.n() == tau.n().
[[nodiscard]] PairCounts ComputePairCounts(const BucketOrder& sigma,
                                           const BucketOrder& tau,
                                           PairScratch& scratch);

/// 2*Kprof (paper §3.1); zero-allocation on a warm scratch.
[[nodiscard]] std::int64_t TwiceKprof(const BucketOrder& sigma,
                                      const BucketOrder& tau,
                                      PairScratch& scratch);

/// Kprof as a double (= TwiceKprof / 2).
[[nodiscard]] double Kprof(const BucketOrder& sigma, const BucketOrder& tau,
                           PairScratch& scratch);

/// K^(p) (paper §3.1) from the kernel's pair counts.
[[nodiscard]] double KendallP(const BucketOrder& sigma,
                              const BucketOrder& tau, double p,
                              PairScratch& scratch);

/// KHaus via Proposition 6; zero-allocation on a warm scratch.
[[nodiscard]] std::int64_t KHausdorff(const BucketOrder& sigma,
                                      const BucketOrder& tau,
                                      PairScratch& scratch);

/// 2*FHaus via the joint-bucket-run decomposition of the Theorem 5
/// construction — the structured replacement for materializing the four
/// refinement permutations per pair. In each of Theorem 5's two candidate
/// pairs, every element of a joint bucket cell (s, t) appears in ascending
/// id order on *both* sides, so the per-element rank displacement is
/// constant across the cell and each candidate footrule collapses to a sum
/// of cnt(s, t) * |cell displacement| over the occupied cells (derivation
/// in DESIGN.md §7). O(n + t_sigma*t_tau) in flat-histogram mode,
/// O(n log n) in the sorted fallback; zero allocations on a warm scratch;
/// bit-identical to the explicit construction, which lives on in src/ref
/// (ref::TwiceFHausdorffTheorem5) as the independently-built oracle.
[[nodiscard]] std::int64_t TwiceFHausdorff(const BucketOrder& sigma,
                                           const BucketOrder& tau,
                                           PairScratch& scratch);

/// FHaus as a double (= TwiceFHausdorff / 2).
[[nodiscard]] double FHausdorff(const BucketOrder& sigma,
                                const BucketOrder& tau, PairScratch& scratch);

}  // namespace rankties

#endif  // RANKTIES_CORE_PREPARED_H_
