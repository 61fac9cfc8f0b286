#include "fuzz/mutation_trace.h"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/median_rank.h"
#include "core/metric_registry.h"
#include "core/online_median.h"
#include "core/prepared.h"
#include "core/profile_metrics.h"
#include "gen/random_orders.h"
#include "rank/bucket_order.h"
#include "ref/per_pair.h"
#include "ref/ref_metrics.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace rankties::fuzz {

namespace {

constexpr MetricKind kAllKinds[] = {MetricKind::kKprof, MetricKind::kFprof,
                                    MetricKind::kKHaus, MetricKind::kFHaus};

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kKprof: return "Kprof";
    case MetricKind::kFprof: return "Fprof";
    case MetricKind::kKHaus: return "KHaus";
    case MetricKind::kFHaus: return "FHaus";
  }
  return "?";
}

void TraceFail(std::uint64_t seed, std::int64_t step, const char* property,
               const std::string& detail, CheckStats* stats) {
  std::ostringstream out;
  out << "[mutation-trace/" << property << "] " << detail
      << " | trace seed=" << seed << " step=" << step;
  stats->failures.push_back(out.str());
}

void ExpectTrue(std::uint64_t seed, std::int64_t step, const char* property,
                bool condition, const std::string& detail,
                CheckStats* stats) {
  ++stats->comparisons;
  if (!condition) TraceFail(seed, step, property, detail, stats);
}

// --- Ground-truth edits -----------------------------------------------
//
// The ground truth is maintained as a plain bucket list-of-lists through
// code deliberately independent of the delta paths under test: every edit
// rebuilds a BucketOrder via the ordinary FromBuckets factory, and that
// from-scratch build is what the delta-edited arrays are compared against.

std::vector<std::vector<ElementId>> BucketsOf(const BucketOrder& order) {
  std::vector<std::vector<ElementId>> buckets;
  for (std::size_t b = 0; b < order.num_buckets(); ++b) {
    buckets.emplace_back(order.bucket(b).begin(), order.bucket(b).end());
  }
  return buckets;
}

BucketOrder FromBucketsChecked(std::size_t n,
                               std::vector<std::vector<ElementId>> buckets) {
  buckets.erase(std::remove_if(buckets.begin(), buckets.end(),
                               [](const std::vector<ElementId>& bucket) {
                                 return bucket.empty();
                               }),
                buckets.end());
  StatusOr<BucketOrder> order = BucketOrder::FromBuckets(n, buckets);
  RANKTIES_DCHECK_OK(order);
  return *std::move(order);
}

void EraseFromBucket(std::vector<ElementId>& bucket, ElementId e) {
  bucket.erase(std::find(bucket.begin(), bucket.end(), e));
}

std::size_t BucketIndexOf(const std::vector<std::vector<ElementId>>& buckets,
                          ElementId e) {
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (std::find(buckets[b].begin(), buckets[b].end(), e) !=
        buckets[b].end()) {
      return b;
    }
  }
  return buckets.size();
}

BucketOrder TruthMoveToBucket(const BucketOrder& order, ElementId e,
                              std::size_t target) {
  std::vector<std::vector<ElementId>> buckets = BucketsOf(order);
  EraseFromBucket(buckets[BucketIndexOf(buckets, e)], e);
  buckets[target].push_back(e);
  std::sort(buckets[target].begin(), buckets[target].end());
  return FromBucketsChecked(order.n(), std::move(buckets));
}

BucketOrder TruthMoveToNewBucket(const BucketOrder& order, ElementId e,
                                 std::size_t before) {
  const std::vector<std::vector<ElementId>> old = BucketsOf(order);
  std::vector<std::vector<ElementId>> buckets;
  for (std::size_t b = 0; b <= old.size(); ++b) {
    if (b == before) buckets.push_back({e});
    if (b == old.size()) break;
    std::vector<ElementId> kept = old[b];
    if (std::find(kept.begin(), kept.end(), e) != kept.end()) {
      EraseFromBucket(kept, e);
    }
    buckets.push_back(std::move(kept));
  }
  return FromBucketsChecked(order.n(), std::move(buckets));
}

BucketOrder TruthInsertItem(const BucketOrder& order, std::size_t bucket) {
  std::vector<std::vector<ElementId>> buckets = BucketsOf(order);
  if (buckets.empty()) {
    buckets.push_back({0});
  } else {
    buckets[bucket].push_back(static_cast<ElementId>(order.n()));
  }
  return FromBucketsChecked(order.n() + 1, std::move(buckets));
}

BucketOrder TruthEraseItem(const BucketOrder& order, ElementId e) {
  std::vector<std::vector<ElementId>> buckets = BucketsOf(order);
  EraseFromBucket(buckets[BucketIndexOf(buckets, e)], e);
  for (std::vector<ElementId>& bucket : buckets) {
    for (ElementId& x : bucket) {
      if (x > e) --x;
    }
  }
  return FromBucketsChecked(order.n() - 1, std::move(buckets));
}

// --- Per-step assertions ----------------------------------------------

// The delta-maintained ranking must equal the from-scratch FromBuckets
// build of the ground truth, array for array.
void CheckPreparedEquals(std::uint64_t seed, std::int64_t step,
                         const BucketOrder& live, const BucketOrder& truth,
                         CheckStats* stats) {
  ExpectTrue(seed, step, "prepared-arrays",
             live.bucket_of() == truth.bucket_of() &&
                 live.by_bucket() == truth.by_bucket() &&
                 live.bucket_offset() == truth.bucket_offset() &&
                 live.twice_position() == truth.twice_position() &&
                 live.tied_pairs() == truth.tied_pairs(),
             "delta-edited arrays diverge from a fresh build", stats);
}

// Row `list` of the maintained matrix against the src/ref oracle (and the
// independently-constructed Theorem 5 path for FHaus).
void CheckRowAgainstOracle(std::uint64_t seed, std::int64_t step,
                           const IncrementalDistanceMatrix& engine,
                           const std::vector<BucketOrder>& truth,
                           std::size_t list, const DriverOptions& options,
                           CheckStats* stats) {
  for (std::size_t j = 0; j < truth.size(); ++j) {
    if (j == list) continue;
    const double got = engine.Matrix()[list][j];
    double want = 0.0;
    bool checked = true;
    switch (engine.kind()) {
      case MetricKind::kKprof:
        want = static_cast<double>(ref::TwiceKprof(truth[list], truth[j])) /
               2.0;
        break;
      case MetricKind::kFprof:
        want = static_cast<double>(ref::TwiceFprof(truth[list], truth[j])) /
               2.0;
        break;
      case MetricKind::kKHaus:
        if (ref::RefinementPairCount(truth[list], truth[j]) <=
            options.enumeration_budget) {
          ++stats->enumeration_cases;
          want = static_cast<double>(ref::KHausdorff(truth[list], truth[j]));
        } else {
          // Beyond the enumeration budget the independent oracle is the
          // Theorem 5 refinement construction.
          want = static_cast<double>(
              ref::KHausdorffTheorem5(truth[list], truth[j]));
        }
        break;
      case MetricKind::kFHaus:
        if (ref::RefinementPairCount(truth[list], truth[j]) <=
            options.enumeration_budget) {
          ++stats->enumeration_cases;
          want = static_cast<double>(
                     ref::TwiceFHausdorff(truth[list], truth[j])) /
                 2.0;
        } else {
          // The explicit Theorem 5 construction, the oracle for the
          // kernel this engine runs.
          want = static_cast<double>(ref::TwiceFHausdorffTheorem5(
                     truth[list], truth[j])) /
                 2.0;
        }
        break;
      default:
        checked = false;
        break;
    }
    if (!checked) continue;
    ExpectTrue(seed, step, "row-vs-oracle", got == want,
               std::string(KindName(engine.kind())) + " row value diverges",
               stats);
  }
}

// The whole maintained matrix against a full kernel recompute.
void CheckMatrixEquals(std::uint64_t seed, std::int64_t step,
                       const IncrementalDistanceMatrix& engine,
                       const std::vector<BucketOrder>& truth,
                       CheckStats* stats) {
  const std::vector<std::vector<double>> full =
      DistanceMatrix(engine.kind(), truth);
  bool equal = true;
  for (std::size_t i = 0; i < truth.size() && equal; ++i) {
    for (std::size_t j = 0; j < truth.size(); ++j) {
      // Bit-exact: the engine's contract is == with a full recompute.
      if (engine.Matrix()[i][j] != full[i][j]) {
        equal = false;
        break;
      }
    }
  }
  ExpectTrue(seed, step, "matrix-vs-full", equal,
             std::string(KindName(engine.kind())) +
                 " matrix diverges from DistanceMatrix recompute",
             stats);
}

void CheckMedianEquals(std::uint64_t seed, std::int64_t step,
                       const OnlineMedianAggregator& aggregator,
                       const std::vector<BucketOrder>& truth, std::size_t k,
                       CheckStats* stats) {
  StatusOr<std::vector<std::int64_t>> online = aggregator.ScoresQuad();
  StatusOr<std::vector<std::int64_t>> batch =
      MedianRankScoresQuad(truth, MedianPolicy::kLower);
  std::string detail = "online median scores diverge from batch";
  if (online.ok() && batch.ok() && *online != *batch) {
    std::ostringstream dump;
    dump << detail << ": online [";
    for (std::int64_t v : *online) dump << " " << v;
    dump << " ] batch [";
    for (std::int64_t v : *batch) dump << " " << v;
    dump << " ] m=" << truth.size();
    detail = dump.str();
  }
  ExpectTrue(seed, step, "median-scores",
             online.ok() && batch.ok() && *online == *batch, detail, stats);
  StatusOr<BucketOrder> online_topk = aggregator.CurrentTopK(k);
  StatusOr<BucketOrder> batch_topk =
      MedianAggregateTopK(truth, k, MedianPolicy::kLower);
  ExpectTrue(seed, step, "median-topk",
             online_topk.ok() && batch_topk.ok() && *online_topk == *batch_topk,
             "online top-k diverges from batch", stats);
}

}  // namespace

void CheckMutationTrace(std::uint64_t seed, std::size_t steps,
                        const DriverOptions& options, CheckStats* stats) {
  Rng rng(seed);
  // Two size bands, like the main sweep: small universes keep the
  // exponential enumeration oracle in play, larger ones stress the
  // affected-range arithmetic.
  const std::size_t n = static_cast<std::size_t>(
      seed % 3 == 2 ? rng.UniformInt(8, 24) : rng.UniformInt(2, 6));
  const std::size_t m = static_cast<std::size_t>(rng.UniformInt(2, 6));

  std::vector<BucketOrder> truth;
  truth.reserve(m);
  for (std::size_t v = 0; v < m; ++v) {
    truth.push_back(RandomBucketOrder(n, rng));
  }

  std::vector<IncrementalDistanceMatrix> engines;
  engines.reserve(4);
  for (MetricKind kind : kAllKinds) {
    StatusOr<IncrementalDistanceMatrix> engine =
        IncrementalDistanceMatrix::Create(kind, truth);
    RANKTIES_DCHECK_OK(engine);
    engines.push_back(std::move(*engine));
  }
  OnlineMedianAggregator aggregator(n);
  for (const BucketOrder& voter : truth) {
    const Status added = aggregator.AddVoter(voter);
    ExpectTrue(seed, -1, "add-voter-status", added.ok(), added.message(),
               stats);
  }

  for (std::size_t s = 0; s < steps; ++s) {
    const std::int64_t step = static_cast<std::int64_t>(s);
    const std::size_t list = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(m) - 1));
    const ElementId e = static_cast<ElementId>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
    const std::size_t t = truth[list].num_buckets();
    const std::int64_t op = rng.UniformInt(0, 9);
    if (op < 6) {
      // MoveToBucket — target drawn over all current buckets, so no-ops
      // (target == source) occur and are checked too.
      const std::size_t target = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(t) - 1));
      truth[list] = TruthMoveToBucket(truth[list], e, target);
      for (IncrementalDistanceMatrix& engine : engines) {
        const Status moved = engine.MoveToBucket(list, e, target);
        ExpectTrue(seed, step, "move-status", moved.ok(), moved.message(),
                   stats);
      }
    } else if (op < 9) {
      // MoveToNewBucket — `before` may equal num_buckets() (append).
      const std::size_t before = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(t)));
      truth[list] = TruthMoveToNewBucket(truth[list], e, before);
      for (IncrementalDistanceMatrix& engine : engines) {
        const Status moved = engine.MoveToNewBucket(list, e, before);
        ExpectTrue(seed, step, "move-status", moved.ok(), moved.message(),
                   stats);
      }
    } else {
      // ReplaceList — the escape hatch for wholesale edits.
      truth[list] = RandomBucketOrder(n, rng);
      for (IncrementalDistanceMatrix& engine : engines) {
        const Status replaced = engine.ReplaceList(list, truth[list]);
        ExpectTrue(seed, step, "replace-status", replaced.ok(),
                   replaced.message(), stats);
      }
    }
    const Status updated = aggregator.UpdateVoter(list, truth[list]);
    ExpectTrue(seed, step, "update-voter-status", updated.ok(),
               updated.message(), stats);

    for (const IncrementalDistanceMatrix& engine : engines) {
      CheckPreparedEquals(seed, step, engine.List(list), truth[list], stats);
      CheckMatrixEquals(seed, step, engine, truth, stats);
      CheckRowAgainstOracle(seed, step, engine, truth, list, options, stats);
    }
    CheckMedianEquals(seed, step, aggregator, truth, (n + 1) / 2, stats);
    ++stats->mutation_steps;
  }

  // Wind down: withdraw voters one at a time (swap-with-last on both
  // sides) and re-check against the batch median at every corpus size.
  std::size_t remaining = m;
  while (remaining > 1) {
    const std::size_t victim = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(remaining) - 1));
    const Status removed = aggregator.RemoveVoter(victim);
    ExpectTrue(seed, -1, "remove-voter-status", removed.ok(),
               removed.message(), stats);
    truth[victim] = std::move(truth[remaining - 1]);
    truth.pop_back();
    --remaining;
    CheckMedianEquals(seed, -1, aggregator, truth, (n + 1) / 2, stats);
  }
}

void CheckPreparedEditTrace(std::uint64_t seed, std::size_t steps,
                            CheckStats* stats) {
  Rng rng(seed);
  BucketOrder truth =
      RandomBucketOrder(static_cast<std::size_t>(rng.UniformInt(2, 12)), rng);
  BucketOrder live = truth;
  for (std::size_t s = 0; s < steps; ++s) {
    const std::int64_t step = static_cast<std::int64_t>(s);
    const std::size_t n = truth.n();
    const std::size_t t = truth.num_buckets();
    std::int64_t op = n == 0 ? 2 : rng.UniformInt(0, 9);
    if (n <= 1 && op >= 8) op = 2;  // keep erase for domains that have 2+
    Status applied = Status::Ok();
    if (op < 4) {
      const ElementId e = static_cast<ElementId>(
          rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
      const std::size_t target = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(t) - 1));
      truth = TruthMoveToBucket(truth, e, target);
      applied = live.MoveToBucket(e, target);
    } else if (op < 7) {
      const ElementId e = static_cast<ElementId>(
          rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
      const std::size_t before = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(t)));
      truth = TruthMoveToNewBucket(truth, e, before);
      applied = live.MoveToNewBucket(e, before);
    } else if (op < 8) {
      const std::size_t bucket =
          t == 0 ? 0
                 : static_cast<std::size_t>(
                       rng.UniformInt(0, static_cast<std::int64_t>(t) - 1));
      truth = TruthInsertItem(truth, bucket);
      applied = live.InsertItem(bucket);
    } else {
      const ElementId e = static_cast<ElementId>(
          rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
      truth = TruthEraseItem(truth, e);
      applied = live.EraseItem(e);
    }
    ExpectTrue(seed, step, "edit-status", applied.ok(), applied.message(),
               stats);
    CheckPreparedEquals(seed, step, live, truth, stats);
    ++stats->mutation_steps;
  }
}

}  // namespace rankties::fuzz
