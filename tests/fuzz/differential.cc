#include "fuzz/differential.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "core/batch_engine.h"
#include "core/footrule.h"
#include "core/footrule_matching.h"
#include "core/hausdorff.h"
#include "core/kendall.h"
#include "core/metric_registry.h"
#include "core/pair_counts.h"
#include "core/prepared.h"
#include "core/profile_metrics.h"
#include "rank/refinement.h"
#include "ref/per_pair.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rankties::fuzz {

namespace {

constexpr double kPenaltyGrid[] = {0.0, 0.1, 0.25, 1.0 / 3.0, 0.5,
                                   0.7, 0.75, 0.9, 1.0};

std::string Render(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string Render(std::int64_t v) { return std::to_string(v); }

void Fail(const FuzzCase& c, const char* property, const std::string& detail,
          CheckStats* stats) {
  std::ostringstream out;
  out << "[" << property << "] " << detail << " | " << c.Describe()
      << " | replay: fuzz_test --seed=" << c.seed;
  stats->failures.push_back(out.str());
}

template <typename T>
void ExpectEq(const FuzzCase& c, const char* property, T got, T want,
              CheckStats* stats) {
  ++stats->comparisons;
  if (got != want) {
    Fail(c, property, "got " + Render(got) + " want " + Render(want), stats);
  }
}

template <typename T>
void ExpectLe(const FuzzCase& c, const char* property, T lhs, T rhs,
              CheckStats* stats) {
  ++stats->comparisons;
  if (lhs > rhs) {
    Fail(c, property, Render(lhs) + " exceeds " + Render(rhs), stats);
  }
}

}  // namespace

void CheckDifferential(const FuzzCase& c, const DriverOptions& options,
                       CheckStats* stats) {
  const BucketOrder& sigma = c.sigma;
  const BucketOrder& tau = c.tau;

  // Profile metrics vs the O(n^2) definitional oracle — exact integers.
  ExpectEq(c, "Kprof-vs-oracle", TwiceKprof(sigma, tau),
           ref::TwiceKprof(sigma, tau), stats);
  ExpectEq(c, "Fprof-vs-oracle", TwiceFprof(sigma, tau),
           ref::TwiceFprof(sigma, tau), stats);
  for (double p : kPenaltyGrid) {
    ExpectEq(c, "KendallP-vs-oracle", KendallP(sigma, tau, p),
             ref::KendallP(sigma, tau, p), stats);
  }

  // The two optimized Hausdorff-Kendall paths agree at any size.
  ExpectEq(c, "Prop6-vs-Thm5", KHausdorff(sigma, tau),
           ref::KHausdorffTheorem5(sigma, tau), stats);

  // The exponential enumeration oracle, where the budget allows.
  if (ref::RefinementPairCount(sigma, tau) <= options.enumeration_budget) {
    ++stats->enumeration_cases;
    ExpectEq(c, "KHaus-vs-enumeration", KHausdorff(sigma, tau),
             ref::KHausdorff(sigma, tau), stats);
    ExpectEq(c, "FHaus-vs-enumeration", TwiceFHausdorff(sigma, tau),
             ref::TwiceFHausdorff(sigma, tau), stats);
  }

  // The registry dispatch agrees with the oracle dispatch bit-for-bit on
  // the polynomial kinds (Hausdorff kinds are covered above).
  for (MetricKind kind : {MetricKind::kKprof, MetricKind::kFprof}) {
    ExpectEq(c, MetricName(kind), ComputeMetric(kind, sigma, tau),
             ref::ComputeMetric(kind, sigma, tau), stats);
  }

  // The zero-allocation kernels agree with the per-pair oracle tier
  // (src/ref/per_pair.h) bit-for-bit on every family. The scratch is
  // deliberately shared across all fuzz cases (static, one fuzz thread) so
  // reuse across wildly varying n and bucket counts is itself under test.
  {
    static PairScratch scratch;
    const PairCounts counts = ref::ComputePairCounts(sigma, tau);
    ++stats->comparisons;
    if (!(ComputePairCounts(sigma, tau, scratch) == counts)) {
      Fail(c, "prepared-pair-counts",
           "kernel and per-pair pair classification disagree", stats);
    }
    ExpectEq(c, "prepared-Kprof", TwiceKprof(sigma, tau, scratch),
             TwiceKprofFromCounts(counts), stats);
    ExpectEq(c, "prepared-KHaus", KHausdorff(sigma, tau, scratch),
             KHausdorffFromCounts(counts), stats);
    ExpectEq(c, "prepared-Fprof", TwiceFprof(sigma, tau),
             ref::TwiceFprofByPosition(sigma, tau), stats);
    ExpectEq(c, "prepared-FHaus", TwiceFHausdorff(sigma, tau, scratch),
             ref::TwiceFHausdorffTheorem5(sigma, tau), stats);
    for (double p : kPenaltyGrid) {
      ExpectEq(c, "prepared-KendallP", KendallP(sigma, tau, p, scratch),
               KendallPFromCounts(counts, p), stats);
    }
  }

  // The structured O(n log n) slot-assignment solver against the general
  // Hungarian matcher, on the typed footrule instance induced by
  // (sigma, type(rho)): slot c of a type-alpha order is a bucket run at a
  // fixed twice-position, element e sits at sigma's twice-position, and the
  // cost is |element_pos - slot_pos|. The Hungarian cross-check is O(n^3),
  // so gate by n to keep the fuzz loop fast.
  if (sigma.n() >= 1 && sigma.n() <= 24) {
    const std::size_t n = sigma.n();
    std::vector<std::int64_t> element_pos(n);
    for (std::size_t e = 0; e < n; ++e) {
      element_pos[e] = sigma.TwicePosition(static_cast<ElementId>(e));
    }
    std::vector<std::int64_t> slot_pos;
    slot_pos.reserve(n);
    std::int64_t before = 0;
    for (std::size_t size : c.rho.Type()) {
      const std::int64_t twice_pos =
          2 * before + static_cast<std::int64_t>(size) + 1;
      for (std::size_t s = 0; s < size; ++s) slot_pos.push_back(twice_pos);
      before += static_cast<std::int64_t>(size);
    }
    const StatusOr<AssignmentResult> structured =
        StructuredSlotAssignment(element_pos, slot_pos);
    ++stats->comparisons;
    if (!structured.ok()) {
      Fail(c, "structured-matcher-status", structured.status().message(),
           stats);
    } else {
      std::vector<std::vector<std::int64_t>> cost(
          n, std::vector<std::int64_t>(n, 0));
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t col = 0; col < n; ++col) {
          cost[r][col] = std::abs(element_pos[r] - slot_pos[col]);
        }
      }
      const StatusOr<AssignmentResult> general = MinCostAssignment(cost);
      ++stats->comparisons;
      if (!general.ok()) {
        Fail(c, "structured-matcher-hungarian", general.status().message(),
             stats);
      } else {
        ExpectEq(c, "structured-vs-hungarian-cost",
                 structured.value().total_cost, general.value().total_cost,
                 stats);
        // The structured assignment must itself be a valid permutation
        // whose induced cost matches its reported total.
        std::vector<bool> used(n, false);
        std::int64_t recomputed = 0;
        bool valid = structured.value().column_of_row.size() == n;
        for (std::size_t r = 0; valid && r < n; ++r) {
          const std::size_t col = structured.value().column_of_row[r];
          if (col >= n || used[col]) {
            valid = false;
            break;
          }
          used[col] = true;
          recomputed += cost[r][col];
        }
        ++stats->comparisons;
        if (!valid) {
          Fail(c, "structured-matcher-permutation",
               "column_of_row is not a permutation", stats);
        } else {
          ExpectEq(c, "structured-matcher-cost-consistency", recomputed,
                   structured.value().total_cost, stats);
        }
      }
    }
  }
}

void CheckMetamorphic(const FuzzCase& c, CheckStats* stats) {
  const BucketOrder& sigma = c.sigma;
  const BucketOrder& tau = c.tau;
  const BucketOrder& rho = c.rho;
  Rng rng(c.seed ^ 0xd1ffe4f00dULL);

  // Identity and symmetry.
  for (MetricKind kind : AllMetricKinds()) {
    ExpectEq(c, "identity", ComputeMetric(kind, sigma, sigma), 0.0, stats);
    ExpectEq(c, "symmetry", ComputeMetric(kind, sigma, tau),
             ComputeMetric(kind, tau, sigma), stats);
  }

  // Triangle inequality for all four metrics, on exact (doubled) integers.
  ExpectLe(c, "triangle-Kprof", TwiceKprof(sigma, rho),
           TwiceKprof(sigma, tau) + TwiceKprof(tau, rho), stats);
  ExpectLe(c, "triangle-Fprof", TwiceFprof(sigma, rho),
           TwiceFprof(sigma, tau) + TwiceFprof(tau, rho), stats);
  ExpectLe(c, "triangle-KHaus", KHausdorff(sigma, rho),
           KHausdorff(sigma, tau) + KHausdorff(tau, rho), stats);
  ExpectLe(c, "triangle-FHaus", TwiceFHausdorff(sigma, rho),
           TwiceFHausdorff(sigma, tau) + TwiceFHausdorff(tau, rho), stats);

  // Theorem 7 factor-2 bands: eqs. (4), (5), (6), doubled.
  const std::int64_t tk = TwiceKprof(sigma, tau);
  const std::int64_t tf = TwiceFprof(sigma, tau);
  const std::int64_t kh = KHausdorff(sigma, tau);
  const std::int64_t tfh = TwiceFHausdorff(sigma, tau);
  ExpectLe(c, "Thm7-KHaus<=FHaus", 2 * kh, tfh, stats);
  ExpectLe(c, "Thm7-FHaus<=2KHaus", tfh, 4 * kh, stats);
  ExpectLe(c, "Thm7-Kprof<=Fprof", tk, tf, stats);
  ExpectLe(c, "Thm7-Fprof<=2Kprof", tf, 2 * tk, stats);
  ExpectLe(c, "Thm7-Kprof<=KHaus", tk, 2 * kh, stats);
  ExpectLe(c, "Thm7-KHaus<=2Kprof", 2 * kh, 2 * tk, stats);

  // K^(p) is non-decreasing in p; K^(1/2) is exactly Kprof.
  double prev = KendallP(sigma, tau, kPenaltyGrid[0]);
  for (double p : kPenaltyGrid) {
    const double value = KendallP(sigma, tau, p);
    ExpectLe(c, "KendallP-monotone", prev, value, stats);
    prev = value;
  }
  ExpectEq(c, "KendallP-half-is-Kprof", 2.0 * KendallP(sigma, tau, 0.5),
           static_cast<double>(tk), stats);

  // Prop 13 (a): exact triangle inequality for p in [1/2, 1].
  for (double p : {0.5, 0.75, 1.0}) {
    ExpectLe(c, "Prop13-metric-triangle", KendallP(sigma, rho, p),
             KendallP(sigma, tau, p) + KendallP(tau, rho, p), stats);
  }
  // Prop 13 (b): for p in (0, 1/2) the triangle inequality only holds up
  // to the relaxation constant 1/(2p) (near metric).
  for (int i = 0; i < 3; ++i) {
    const double p = rng.UniformReal(0.01, 0.49);
    const double direct = KendallP(sigma, rho, p);
    const double detour =
        KendallP(sigma, tau, p) + KendallP(tau, rho, p);
    const double bound = detour / (2.0 * p);
    ExpectLe(c, "Prop13-near-metric-bound", direct,
             bound + 1e-9 * (1.0 + bound), stats);
  }

  // Refinement consistency: the * operator refines its second argument,
  // and any pair of full refinements is sandwiched between the discordant
  // count and the all-ties-break-badly count. All four metrics live in the
  // same band.
  {
    ++stats->comparisons;
    if (!IsRefinementOf(TauRefine(tau, sigma), sigma)) {
      Fail(c, "tau-refine-refines", "TauRefine(tau, sigma) !< sigma", stats);
    }
    const PairCounts counts = ComputePairCountsNaive(sigma, tau);
    const std::int64_t lo = counts.discordant;
    const std::int64_t hi = counts.discordant + counts.tied_sigma_only +
                            counts.tied_tau_only + counts.tied_both;
    const Permutation s = RandomFullRefinement(sigma, rng);
    const Permutation t = RandomFullRefinement(tau, rng);
    const std::int64_t k_st = ref::KendallTau(s, t);
    ExpectLe(c, "refinement-sandwich-lo", lo, k_st, stats);
    ExpectLe(c, "refinement-sandwich-hi", k_st, hi, stats);
    ExpectLe(c, "refinement-sandwich-Kprof-lo", 2 * lo, tk, stats);
    ExpectLe(c, "refinement-sandwich-Kprof-hi", tk, 2 * hi, stats);
    ExpectLe(c, "refinement-sandwich-KHaus-lo", lo, kh, stats);
    ExpectLe(c, "refinement-sandwich-KHaus-hi", kh, hi, stats);
  }

  // On full rankings every tie-aware metric collapses to its classical
  // ancestor.
  if (sigma.IsFull() && tau.IsFull()) {
    const Permutation s = sigma.CanonicalRefinement();
    const Permutation t = tau.CanonicalRefinement();
    const std::int64_t k = KendallTau(s, t);
    const std::int64_t f = Footrule(s, t);
    ExpectEq(c, "full-Kprof-is-K", tk, 2 * k, stats);
    ExpectEq(c, "full-KHaus-is-K", kh, k, stats);
    ExpectEq(c, "full-Fprof-is-F", tf, 2 * f, stats);
    ExpectEq(c, "full-FHaus-is-F", tfh, 2 * f, stats);
  }

  // Relabeling invariance: renaming elements changes nothing.
  {
    const Permutation names = Permutation::Random(sigma.n(), rng);
    const BucketOrder sigma2 = Relabel(sigma, names);
    const BucketOrder tau2 = Relabel(tau, names);
    for (MetricKind kind : AllMetricKinds()) {
      ExpectEq(c, "relabeling-invariance", ComputeMetric(kind, sigma, tau),
               ComputeMetric(kind, sigma2, tau2), stats);
    }
  }
}

void CheckBatchEngine(const std::vector<BucketOrder>& lists,
                      std::uint64_t seed, const DriverOptions& options,
                      CheckStats* stats) {
  if (lists.empty()) return;
  FuzzCase label;  // carrier for the failure-message context only
  label.seed = seed;
  label.sigma = label.tau = label.rho = lists.front();

  const std::size_t m = lists.size();
  for (MetricKind kind : AllMetricKinds()) {
    // Serial ground truth, accumulated in index order.
    std::vector<std::vector<double>> expected(m, std::vector<double>(m));
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        expected[i][j] = ComputeMetric(kind, lists[i], lists[j]);
      }
    }
    double expected_total = 0.0;
    for (std::size_t j = 0; j < m; ++j) expected_total += expected[0][j];

    for (std::size_t threads : {std::size_t{1}, options.wide_threads}) {
      ThreadPool::SetGlobalThreads(threads);
      const std::string tag = std::string(MetricName(kind)) + "@threads=" +
                              std::to_string(threads);
      const std::vector<std::vector<double>> matrix =
          DistanceMatrix(kind, lists);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          ++stats->comparisons;
          if (matrix[i][j] != expected[i][j]) {
            Fail(label, "batch-matrix",
                 tag + " [" + std::to_string(i) + "][" + std::to_string(j) +
                     "] got " + Render(matrix[i][j]) + " want " +
                     Render(expected[i][j]),
                 stats);
          }
        }
      }
      // The legacy per-pair engine stays the prepared engine's oracle.
      const std::vector<std::vector<double>> unprepared =
          ref::DistanceMatrixUnprepared(kind, lists);
      ++stats->comparisons;
      if (unprepared != expected) {
        Fail(label, "batch-matrix-unprepared",
             tag + " legacy engine diverged from the serial reference",
             stats);
      }
      ++stats->comparisons;
      if (matrix != unprepared) {
        Fail(label, "batch-matrix-prepared-vs-unprepared",
             tag + " prepared and legacy engines disagree", stats);
      }
      const std::vector<double> row =
          DistancesToAll(kind, lists.front(), lists);
      for (std::size_t j = 0; j < m; ++j) {
        ++stats->comparisons;
        if (row[j] != expected[0][j]) {
          Fail(label, "batch-row",
               tag + " [" + std::to_string(j) + "] got " + Render(row[j]) +
                   " want " + Render(expected[0][j]),
               stats);
        }
      }
      const double total = TotalDistanceParallel(kind, lists.front(), lists);
      ++stats->comparisons;
      if (total != expected_total) {
        Fail(label, "batch-total",
             tag + " got " + Render(total) + " want " +
                 Render(expected_total),
             stats);
      }
    }
    ThreadPool::SetGlobalThreads(0);  // restore the default lane count
  }
}

}  // namespace rankties::fuzz
