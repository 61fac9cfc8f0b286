#include "core/prepared.h"

#include <algorithm>
#include <utility>

#include "core/hausdorff.h"
#include "core/profile_metrics.h"
#include "obs/obs.h"
#include "util/checked_math.h"
#include "util/contracts.h"
#include "util/simd.h"

namespace rankties {

namespace {

// Fenwick primitives on the raw per-tau-bucket buffer (slot 0 unused) so the
// hot loop never constructs a tree object; indices are 0-based bucket
// indices.
inline void FenwickAdd(std::int64_t* tree, std::size_t size,
                       std::size_t index, std::int64_t delta) {
  for (std::size_t i = index + 1; i <= size; i += i & (~i + 1)) {
    tree[i] += delta;
  }
}

inline std::int64_t FenwickPrefix(const std::int64_t* tree,
                                  std::size_t index) {
  std::int64_t sum = 0;
  for (std::size_t i = index + 1; i > 0; i -= i & (~i + 1)) sum += tree[i];
  return sum;
}

// The flat joint histogram pays one pass over all t_sigma * t_tau cells, so
// it is worth it while the key space stays a small multiple of n (the cell
// scan is sequential — far cheaper per op than the sorted feed's sort) and
// its memory stays bounded; beyond the cap the sorted feed wins and keeps
// scratch memory O(n) instead of O(t_sigma * t_tau).
inline bool UseFlatJoint(std::size_t n, std::size_t product) {
  constexpr std::size_t kMaxFlatCells = std::size_t{1} << 20;  // 8 MiB
  return product <= std::max<std::size_t>(
                        64, std::min(32 * n, kMaxFlatCells));
}

// The flat feed relies on every consumed cell being re-zeroed by the walk,
// so a reused scratch needs no bulk clear. Debug builds re-prove that
// invariant at entry (the contract is only referenced from a
// RANKTIES_DCHECK, so release builds never evaluate it).
bool JointCountsAllZero(const std::vector<std::int64_t>& cells,
                        std::size_t limit) {
  const std::size_t checked = std::min(cells.size(), limit);
  for (std::size_t i = 0; i < checked; ++i) {
    if (cells[i] != 0) return false;
  }
  return true;
}

// Grows `buffer` to at least `size` zeroed entries; true when it grew.
template <typename T>
bool GrowTo(std::vector<T>& buffer, std::size_t size) {
  if (buffer.size() >= size) return false;
  buffer.resize(size);
  return true;
}

// The bucket of `order` that holds more than half of its n > 0 elements,
// or num_buckets() when none does. Such a bucket spans more than half of
// by_bucket(), so it holds the element at position n/2: O(1).
std::size_t MajorityBucket(const BucketOrder& order) {
  const std::size_t n = order.n();
  const auto middle = static_cast<std::size_t>(order.by_bucket()[n / 2]);
  const auto b = static_cast<std::size_t>(order.bucket_of()[middle]);
  return 2 * order.bucket(b).size() > n ? b : order.num_buckets();
}

// The walk's flat feed pivots on sigma's majority bucket only. What both
// kernels' visitors sum (the discordant and tied-both counts, FHaus's
// larger footrule) is symmetric in the pair, so a kernel takes the pair as
// (tau, sigma) when tau's majority bucket is the larger one. Pairs on the
// sorted feed keep their order without a scan.
bool PivotOnTau(const BucketOrder& sigma, const BucketOrder& tau) {
  if (!UseFlatJoint(sigma.n(), sigma.num_buckets() * tau.num_buckets())) {
    return false;
  }
  const auto majority_size = [](const BucketOrder& order) {
    const std::size_t b = MajorityBucket(order);
    return b < order.num_buckets() ? order.bucket(b).size() : 0;
  };
  return majority_size(tau) > majority_size(sigma);
}

}  // namespace

// Calls visit(s, t, c, row_before, slot) for every occupied cell of the
// joint histogram in row-major order, where row_before counts row s in
// columns < t. With kEarlierRows, `slot` is the count of rows < s in columns
// <= t; otherwise it is the visitor's own per-tau-bucket slot t, zero when
// the walk starts.
template <bool kEarlierRows, typename Visit>
void PairScratch::WalkJointCells(const BucketOrder& sigma,
                                 const BucketOrder& tau, Visit visit) {
  const std::size_t n = sigma.n();
  const std::size_t t_sigma = sigma.num_buckets();
  const std::size_t t_tau = tau.num_buckets();
  const std::vector<BucketIndex>& sigma_of = sigma.bucket_of();
  const std::vector<BucketIndex>& tau_of = tau.bucket_of();
  const std::size_t product = t_sigma * t_tau;
  bool grew = GrowTo(per_tau_, t_tau + 1);
  std::int64_t* const per_tau = per_tau_.data();
  std::fill(per_tau, per_tau + t_tau + 1, 0);
  if (UseFlatJoint(n, product)) {
    // The flat feed: fill the histogram, then scan every cell; with
    // kEarlierRows, per_tau[t] is a plain column-prefix array.
    RANKTIES_DCHECK(JointCountsAllZero(cells_, product));
    grew |= GrowTo(cells_, product);
    const std::size_t pivot = MajorityBucket(sigma);
    if (pivot < t_sigma) {
      // Sigma bucket `pivot` holds more than n/2 elements. Its row starts
      // as tau's bucket sizes, and only the other elements are scattered,
      // bucket by bucket, each moving one count out of the pivot row.
      // Below n/2 the id-order scatter wins.
      const std::vector<std::size_t>& sigma_off = sigma.bucket_offset();
      const std::vector<std::size_t>& tau_off = tau.bucket_offset();
      const std::vector<ElementId>& by_bucket = sigma.by_bucket();
      std::int64_t* const pivot_row = cells_.data() + pivot * t_tau;
      for (std::size_t t = 0; t < t_tau; ++t) {
        pivot_row[t] = static_cast<std::int64_t>(tau_off[t + 1] - tau_off[t]);
      }
      for (std::size_t s = 0; s < t_sigma; ++s) {
        if (s == pivot) continue;
        std::int64_t* const row = cells_.data() + s * t_tau;
        for (std::size_t i = sigma_off[s]; i < sigma_off[s + 1]; ++i) {
          const auto t = static_cast<std::size_t>(
              tau_of[static_cast<std::size_t>(by_bucket[i])]);
          ++row[t];
          --pivot_row[t];
        }
      }
      RANKTIES_OBS_COUNT("prepared.pivot_walks", 1);
    } else {
      // SIMD-staged int32 keys (they fit, the flat key space is capped at
      // 2^20), scattered serially in id order.
      grew |= GrowTo(keys32_, n);
      simd::JointKeys32(sigma_of.data(), tau_of.data(), n,
                        static_cast<std::int32_t>(t_tau), keys32_.data());
      for (std::size_t e = 0; e < n; ++e) {
        ++cells_[static_cast<std::size_t>(keys32_[e])];
      }
    }
    for (std::size_t s = 0; s < t_sigma; ++s) {
      std::int64_t* const row = cells_.data() + s * t_tau;
      std::int64_t row_before = 0;
      for (std::size_t t = 0; t < t_tau; ++t) {
        const std::int64_t c = row[t];
        if (c != 0) {
          visit(s, t, c, row_before, per_tau[t]);
          row[t] = 0;
        }
        row_before += c;
        if constexpr (kEarlierRows) per_tau[t] += row_before;
      }
    }
  } else {
    // The sorted feed: a key packs (s, t) as s << 32 | t (bucket indices
    // are non-negative int32), so ascending keys list the cells in
    // row-major order, one run of equal keys per occupied cell.
    grew |= GrowTo(keys64_, n);
    std::int64_t* const keys = keys64_.data();
    for (std::size_t e = 0; e < n; ++e) {
      keys[e] = (std::int64_t{sigma_of[e]} << 32) | tau_of[e];
    }
    std::sort(keys, keys + n);
    std::size_t row_s = t_sigma;  // sentinel: no row visited yet
    std::int64_t row_before = 0;
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && keys[j] == keys[i]) ++j;
      const std::size_t s = static_cast<std::size_t>(keys[i] >> 32);
      const std::size_t t = static_cast<std::size_t>(keys[i] & 0xFFFFFFFF);
      const std::int64_t c = static_cast<std::int64_t>(j - i);
      if (s != row_s) {
        row_s = s;
        row_before = 0;
      }
      if constexpr (kEarlierRows) {
        // The tree holds every cell visited so far, so its prefix through
        // t also counts this row's earlier columns.
        const std::int64_t earlier = FenwickPrefix(per_tau, t) - row_before;
        FenwickAdd(per_tau, t_tau, t, c);
        visit(s, t, c, row_before, earlier);
      } else {
        visit(s, t, c, row_before, per_tau[t]);
      }
      row_before += c;
      i = j;
    }
  }
  if (grew) {
    RANKTIES_OBS_COUNT("prepared.scratch_grows", 1);
  } else {
    RANKTIES_OBS_COUNT("prepared.scratch_reuse_hits", 1);
  }
}

PairCounts ComputePairCounts(const BucketOrder& sigma,
                             const BucketOrder& tau,
                             PairScratch& scratch) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::size_t n = sigma.n();
  PairCounts counts;
  if (n < 2) return counts;
  if (PivotOnTau(sigma, tau)) {
    counts = ComputePairCounts(tau, sigma, scratch);
    std::swap(counts.tied_sigma_only, counts.tied_tau_only);
    return counts;
  }

  // A cell (s, t) with count c holds choose2(c) tied-both pairs, and each
  // of its elements is discordant with every element of an earlier sigma
  // bucket whose tau bucket lies above t: offset[s] elements precede row s,
  // `earlier` of them in columns <= t. Both sums stay in locals, so the
  // visitor neither branches nor stores.
  const std::vector<std::size_t>& offset = sigma.bucket_offset();
  std::int64_t twice_tied_both = 0;
  std::int64_t discordant = 0;
  scratch.WalkJointCells</*kEarlierRows=*/true>(
      sigma, tau,
      [&](std::size_t s, std::size_t, std::int64_t c, std::int64_t,
          std::int64_t earlier) {
        twice_tied_both += CheckedMul(c, c - 1);
        discordant += c * (static_cast<std::int64_t>(offset[s]) - earlier);
      });
  counts.tied_both = twice_tied_both / 2;
  counts.discordant = discordant;
  counts.tied_sigma_only = sigma.tied_pairs() - counts.tied_both;
  counts.tied_tau_only = tau.tied_pairs() - counts.tied_both;
  counts.concordant = CheckedChoose2(static_cast<std::int64_t>(n)) -
                      counts.discordant - counts.tied_sigma_only -
                      counts.tied_tau_only - counts.tied_both;
  return counts;
}

std::int64_t TwiceKprof(const BucketOrder& sigma,
                        const BucketOrder& tau, PairScratch& scratch) {
  if (sigma.n() < 2) return 0;  // no pairs on a degenerate universe
  return TwiceKprofFromCounts(ComputePairCounts(sigma, tau, scratch));
}

double Kprof(const BucketOrder& sigma, const BucketOrder& tau,
             PairScratch& scratch) {
  return static_cast<double>(TwiceKprof(sigma, tau, scratch)) / 2.0;
}

double KendallP(const BucketOrder& sigma, const BucketOrder& tau,
                double p, PairScratch& scratch) {
  RANKTIES_DCHECK(p >= 0.0 && p <= 1.0);
  if (sigma.n() < 2) return 0.0;  // no pairs on a degenerate universe
  return KendallPFromCounts(ComputePairCounts(sigma, tau, scratch), p);
}

std::int64_t KHausdorff(const BucketOrder& sigma,
                        const BucketOrder& tau, PairScratch& scratch) {
  if (sigma.n() < 2) return 0;  // no pairs on a degenerate universe
  return KHausdorffFromCounts(ComputePairCounts(sigma, tau, scratch));
}

std::int64_t TwiceFHausdorff(const BucketOrder& sigma,
                             const BucketOrder& tau,
                             PairScratch& scratch) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  if (sigma.n() < 2) return 0;  // no displacement on a degenerate universe
  if (PivotOnTau(sigma, tau)) return TwiceFHausdorff(tau, sigma, scratch);

  // Theorem 5's two candidate refinement pairs, without materializing them.
  // With rho = identity, the four permutations rank elements by
  //   sigma1: (sigma bucket asc, tau bucket desc, id asc)
  //   tau1:   (tau bucket asc, sigma bucket asc, id asc)
  //   sigma2: (sigma bucket asc, tau bucket asc, id asc)
  //   tau2:   (tau bucket asc, sigma bucket desc, id asc)
  // (rank/refinement.cc's TauRefine/TauRefineFull sort exactly these keys).
  // Within any joint bucket cell (s, t) each order lists the cell's
  // elements in ascending id, so the rank displacement |rank_sigma_k(e) -
  // rank_tau_k(e)| is one constant per cell and each candidate footrule is
  // a sum of cnt(s, t) * |displacement(s, t)| over occupied cells. The
  // displacements need only the cell count, the bucket offsets of
  // both sides, and two running prefixes of the row-major walk:
  // row_before (elements of row s in earlier columns) and col_before
  // (elements of column t in earlier rows, kept in the walk's slot t).
  const std::vector<std::size_t>& sigma_off = sigma.bucket_offset();
  const std::vector<std::size_t>& tau_off = tau.bucket_offset();
  std::int64_t f1 = 0;
  std::int64_t f2 = 0;
  scratch.WalkJointCells</*kEarlierRows=*/false>(
      sigma, tau,
      [&](std::size_t s, std::size_t t, std::int64_t c,
          std::int64_t row_before, std::int64_t& col_before) {
        const std::int64_t before_s = static_cast<std::int64_t>(sigma_off[s]);
        const std::int64_t row_total =
            static_cast<std::int64_t>(sigma_off[s + 1]) - before_s;
        const std::int64_t before_t = static_cast<std::int64_t>(tau_off[t]);
        const std::int64_t col_total =
            static_cast<std::int64_t>(tau_off[t + 1]) - before_t;
        const std::int64_t d1 = (before_s + row_total - row_before - c) -
                                (before_t + col_before);
        const std::int64_t d2 = (before_s + row_before) -
                                (before_t + col_total - col_before - c);
        f1 += c * (d1 < 0 ? -d1 : d1);
        f2 += c * (d2 < 0 ? -d2 : d2);
        col_before += c;
      });
  return 2 * std::max(f1, f2);
}

double FHausdorff(const BucketOrder& sigma, const BucketOrder& tau,
                  PairScratch& scratch) {
  return static_cast<double>(TwiceFHausdorff(sigma, tau, scratch)) / 2.0;
}

}  // namespace rankties
