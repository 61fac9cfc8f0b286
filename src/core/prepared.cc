#include "core/prepared.h"

#include <algorithm>

#include "core/hausdorff.h"
#include "core/profile_metrics.h"
#include "obs/obs.h"
#include "util/checked_math.h"
#include "util/contracts.h"
#include "util/simd.h"

namespace rankties {

namespace {

// Fenwick primitives on a raw scratch vector (slot 0 unused) so the hot
// loop never constructs a tree object. `tree` must have at least size+1
// zeroed slots; indices are 0-based bucket indices.
inline void FenwickAdd(std::vector<std::int64_t>& tree, std::size_t size,
                       std::size_t index, std::int64_t delta) {
  for (std::size_t i = index + 1; i <= size; i += i & (~i + 1)) {
    tree[i] += delta;
  }
}

inline std::int64_t FenwickPrefix(const std::vector<std::int64_t>& tree,
                                  std::size_t index) {
  std::int64_t sum = 0;
  for (std::size_t i = index + 1; i > 0; i -= i & (~i + 1)) sum += tree[i];
  return sum;
}

// The flat joint histogram pays one pass over all t_sigma * t_tau cells, so
// it is worth it while the key space stays a small multiple of n (the cell
// scan is sequential — far cheaper per op than the fallback's sort) and its
// memory stays bounded; beyond the cap the sort-and-run-count fallback wins
// and keeps scratch memory O(n) instead of O(t_sigma * t_tau).
inline bool UseFlatJoint(std::size_t n, std::size_t product) {
  constexpr std::size_t kMaxFlatCells = std::size_t{1} << 20;  // 8 MiB
  return product <= std::max<std::size_t>(
                        64, std::min(32 * n, kMaxFlatCells));
}

// The flat-histogram mode relies on every consumed cell being re-zeroed by
// the row scan, so a reused scratch needs no bulk clear. Debug builds
// re-prove that invariant at entry (the contract is only referenced from a
// RANKTIES_DCHECK, so release builds never evaluate it).
bool JointCountsAllZero(const std::vector<std::int64_t>& cells,
                        std::size_t limit) {
  const std::size_t checked = std::min(cells.size(), limit);
  for (std::size_t i = 0; i < checked; ++i) {
    if (cells[i] != 0) return false;
  }
  return true;
}

}  // namespace

void PairScratch::Reserve(std::size_t n, std::size_t buckets) {
  if (fenwick_.size() < buckets + 1) fenwick_.resize(buckets + 1, 0);
  const std::size_t product = buckets * buckets;
  if (UseFlatJoint(n, product) && joint_counts_.size() < product) {
    joint_counts_.resize(product, 0);
  }
  if (joint_keys_.capacity() < n) joint_keys_.reserve(n);
  if (keys32_.capacity() < n) keys32_.reserve(n);
}

PairCounts ComputePairCounts(const BucketOrder& sigma,
                             const BucketOrder& tau,
                             PairScratch& scratch) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::size_t n = sigma.n();
  PairCounts counts;
  if (n < 2) return counts;

  const std::size_t t_sigma = sigma.num_buckets();
  const std::size_t t_tau = tau.num_buckets();
  const std::vector<BucketIndex>& sigma_of = sigma.bucket_of();
  const std::vector<BucketIndex>& tau_of = tau.bucket_of();

  // --- tied_both and discordant in one joint-histogram pass (flat mode). ---
  bool scratch_grew = false;
  const std::size_t product = t_sigma * t_tau;
  if (UseFlatJoint(n, product)) {
    // Build the flat (sigma bucket, tau bucket) histogram, then walk its
    // rows in sigma-bucket order keeping P[t] = elements of earlier sigma
    // buckets with tau bucket <= t. A cell (s, t) with count c contributes
    // choose2(c) tied-both pairs and c * (inserted - P[t]) discordant pairs
    // — the same per-element sums the Fenwick fallback accumulates, batched
    // per cell, with no per-element tree walks and no sort. Cells are
    // re-zeroed as they are consumed, so the buffer never needs a bulk
    // clear (entries are zero outside a call, by invariant).
    RANKTIES_DCHECK(JointCountsAllZero(scratch.joint_counts_, product));
    if (scratch.joint_counts_.size() < product) {
      scratch.joint_counts_.resize(product, 0);
      scratch_grew = true;
    }
    if (scratch.fenwick_.size() < t_tau + 1) {
      scratch.fenwick_.resize(t_tau + 1);
      scratch_grew = true;
    }
    // Key computation is SIMD-dispatched (util/simd.h): stage the int32 keys
    // (the flat key space is capped at 2^20, so they fit), then scatter the
    // increments serially — the histogram write is the inherently scalar
    // half of the fused scan.
    if (scratch.keys32_.capacity() < n) {
      scratch.keys32_.reserve(n);
      scratch_grew = true;
    }
    scratch.keys32_.resize(n);
    simd::JointKeys32(sigma_of.data(), tau_of.data(), n,
                      static_cast<std::int32_t>(t_tau),
                      scratch.keys32_.data());
    for (std::size_t e = 0; e < n; ++e) {
      ++scratch.joint_counts_[static_cast<std::size_t>(scratch.keys32_[e])];
    }
    std::int64_t* const prefix = scratch.fenwick_.data();  // plain array here
    std::fill(prefix, prefix + t_tau, 0);
    std::int64_t inserted = 0;
    for (std::size_t s = 0; s < t_sigma; ++s) {
      std::int64_t* const row = scratch.joint_counts_.data() + s * t_tau;
      std::int64_t running = 0;
      for (std::size_t t = 0; t < t_tau; ++t) {
        const std::int64_t c = row[t];
        if (c != 0) {
          counts.tied_both += CheckedChoose2(c);
          counts.discordant += c * (inserted - prefix[t]);
          row[t] = 0;
        }
        running += c;
        prefix[t] += running;
      }
      inserted += running;
    }
    counts.tied_sigma_only = sigma.tied_pairs() - counts.tied_both;
    counts.tied_tau_only = tau.tied_pairs() - counts.tied_both;
    counts.concordant = CheckedChoose2(static_cast<std::int64_t>(n)) -
                        counts.discordant - counts.tied_sigma_only -
                        counts.tied_tau_only - counts.tied_both;
    if (scratch_grew) {
      RANKTIES_OBS_COUNT("prepared.scratch_grows", 1);
    } else {
      RANKTIES_OBS_COUNT("prepared.scratch_reuse_hits", 1);
    }
    return counts;
  }
  {
    // Key space too large for a flat buffer: sort the n joint keys in place
    // (reused capacity, no heap traffic) and count runs. The key build is
    // SIMD-dispatched (util/simd.h) like the flat-histogram path; the sort
    // and run walk stay scalar (Fenwick-free but data-dependent).
    if (scratch.joint_keys_.capacity() < n) {
      scratch.joint_keys_.reserve(n);
      scratch_grew = true;
    }
    scratch.joint_keys_.resize(n);
    simd::JointKeys64(sigma_of.data(), tau_of.data(), n,
                      static_cast<std::int64_t>(t_tau),
                      scratch.joint_keys_.data());
    std::sort(scratch.joint_keys_.begin(), scratch.joint_keys_.end());
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && scratch.joint_keys_[j] == scratch.joint_keys_[i]) ++j;
      counts.tied_both += CheckedChoose2(static_cast<std::int64_t>(j - i));
      i = j;
    }
  }
  counts.tied_sigma_only = sigma.tied_pairs() - counts.tied_both;
  counts.tied_tau_only = tau.tied_pairs() - counts.tied_both;

  // --- Discordant pairs: Fenwick inversion count over tau buckets, walking
  // sigma's by-bucket order (same visit order as the per-pair sort, so
  // the arithmetic is identical). Same-sigma-bucket elements are all queried
  // before any is inserted, so sigma-ties never count.
  if (scratch.fenwick_.size() < t_tau + 1) {
    scratch.fenwick_.resize(t_tau + 1);
    scratch_grew = true;
  }
  // Clear the active prefix unconditionally: resize() zero-fills only the
  // slots it appends, and slots below that still hold the previous call's
  // tree.
  std::fill(scratch.fenwick_.begin(),
            scratch.fenwick_.begin() + static_cast<std::ptrdiff_t>(t_tau + 1),
            0);
  const std::vector<ElementId>& by_bucket = sigma.by_bucket();
  const std::vector<std::size_t>& offset = sigma.bucket_offset();
  std::int64_t inserted = 0;
  for (std::size_t b = 0; b < t_sigma; ++b) {
    const std::size_t lo = offset[b];
    const std::size_t hi = offset[b + 1];
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t tb =
          static_cast<std::size_t>(tau_of[static_cast<std::size_t>(
              by_bucket[k])]);
      counts.discordant += inserted - FenwickPrefix(scratch.fenwick_, tb);
    }
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t tb =
          static_cast<std::size_t>(tau_of[static_cast<std::size_t>(
              by_bucket[k])]);
      FenwickAdd(scratch.fenwick_, t_tau, tb, 1);
      ++inserted;
    }
  }

  counts.concordant = CheckedChoose2(static_cast<std::int64_t>(n)) -
                      counts.discordant - counts.tied_sigma_only -
                      counts.tied_tau_only - counts.tied_both;
  if (scratch_grew) {
    RANKTIES_OBS_COUNT("prepared.scratch_grows", 1);
  } else {
    RANKTIES_OBS_COUNT("prepared.scratch_reuse_hits", 1);
  }
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
  const std::size_t n = sigma.n();
  if (n < 2) return 0;  // no displacement on a degenerate universe

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
  // both sides, and two running prefixes maintained by a row-major sweep:
  // row_before (elements of row s in earlier columns) and col_before[t]
  // (elements of column t in earlier rows).
  const std::size_t t_sigma = sigma.num_buckets();
  const std::size_t t_tau = tau.num_buckets();
  const std::vector<std::size_t>& sigma_off = sigma.bucket_offset();
  const std::vector<std::size_t>& tau_off = tau.bucket_offset();
  const std::vector<BucketIndex>& sigma_of = sigma.bucket_of();
  const std::vector<BucketIndex>& tau_of = tau.bucket_of();

  bool scratch_grew = false;
  if (scratch.fenwick_.size() < t_tau + 1) {
    scratch.fenwick_.resize(t_tau + 1);
    scratch_grew = true;
  }
  std::int64_t* const col_before = scratch.fenwick_.data();  // plain array
  std::fill(col_before, col_before + t_tau, 0);

  std::int64_t f1 = 0;
  std::int64_t f2 = 0;
  const auto add_cell = [&](std::size_t s, std::size_t t, std::int64_t c,
                            std::int64_t row_before) {
    const std::int64_t before_s = static_cast<std::int64_t>(sigma_off[s]);
    const std::int64_t row_total =
        static_cast<std::int64_t>(sigma_off[s + 1]) - before_s;
    const std::int64_t before_t = static_cast<std::int64_t>(tau_off[t]);
    const std::int64_t col_total =
        static_cast<std::int64_t>(tau_off[t + 1]) - before_t;
    const std::int64_t d1 = (before_s + row_total - row_before - c) -
                            (before_t + col_before[t]);
    const std::int64_t d2 = (before_s + row_before) -
                            (before_t + col_total - col_before[t] - c);
    f1 += c * (d1 < 0 ? -d1 : d1);
    f2 += c * (d2 < 0 ? -d2 : d2);
    col_before[t] += c;
  };

  const std::size_t product = t_sigma * t_tau;
  if (UseFlatJoint(n, product)) {
    // Same flat joint histogram as ComputePairCounts (SIMD-staged keys,
    // cells re-zeroed as the sweep consumes them).
    RANKTIES_DCHECK(JointCountsAllZero(scratch.joint_counts_, product));
    if (scratch.joint_counts_.size() < product) {
      scratch.joint_counts_.resize(product, 0);
      scratch_grew = true;
    }
    if (scratch.keys32_.capacity() < n) {
      scratch.keys32_.reserve(n);
      scratch_grew = true;
    }
    scratch.keys32_.resize(n);
    simd::JointKeys32(sigma_of.data(), tau_of.data(), n,
                      static_cast<std::int32_t>(t_tau),
                      scratch.keys32_.data());
    for (std::size_t e = 0; e < n; ++e) {
      ++scratch.joint_counts_[static_cast<std::size_t>(scratch.keys32_[e])];
    }
    for (std::size_t s = 0; s < t_sigma; ++s) {
      std::int64_t* const row = scratch.joint_counts_.data() + s * t_tau;
      std::int64_t row_before = 0;
      for (std::size_t t = 0; t < t_tau; ++t) {
        const std::int64_t c = row[t];
        if (c != 0) {
          add_cell(s, t, c, row_before);
          row_before += c;
          row[t] = 0;
        }
      }
    }
  } else {
    // Key space too large for a flat buffer: sort the n joint keys and walk
    // the runs — sorted order is exactly the row-major cell sweep.
    if (scratch.joint_keys_.capacity() < n) {
      scratch.joint_keys_.reserve(n);
      scratch_grew = true;
    }
    scratch.joint_keys_.resize(n);
    simd::JointKeys64(sigma_of.data(), tau_of.data(), n,
                      static_cast<std::int64_t>(t_tau),
                      scratch.joint_keys_.data());
    std::sort(scratch.joint_keys_.begin(), scratch.joint_keys_.end());
    std::size_t prev_s = t_sigma;  // sentinel: no row processed yet
    std::int64_t row_before = 0;
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && scratch.joint_keys_[j] == scratch.joint_keys_[i]) ++j;
      const std::int64_t key = scratch.joint_keys_[i];
      const std::size_t s =
          static_cast<std::size_t>(key) / t_tau;
      const std::size_t t =
          static_cast<std::size_t>(key) % t_tau;
      if (s != prev_s) {
        row_before = 0;
        prev_s = s;
      }
      const std::int64_t c = static_cast<std::int64_t>(j - i);
      add_cell(s, t, c, row_before);
      row_before += c;
      i = j;
    }
  }
  if (scratch_grew) {
    RANKTIES_OBS_COUNT("prepared.scratch_grows", 1);
  } else {
    RANKTIES_OBS_COUNT("prepared.scratch_reuse_hits", 1);
  }
  return 2 * std::max(f1, f2);
}

double FHausdorff(const BucketOrder& sigma, const BucketOrder& tau,
                  PairScratch& scratch) {
  return static_cast<double>(TwiceFHausdorff(sigma, tau, scratch)) / 2.0;
}

}  // namespace rankties
