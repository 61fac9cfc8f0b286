// Prepared-kernel engine vs the legacy per-pair path (the PR's tentpole):
// micro benchmarks of the pairwise kernels plus a `--json` mode for the CI
// bench-regression gate.
//
// `bench_pairwise --json` times ref::DistanceMatrixUnprepared (hash-map +
// sort + fresh Fenwick per pair) against the kernel engine (tiled all-pairs
// sweep with per-lane PairScratch) at threads=1 on the same
// inputs, verifies the matrices are bit-identical, and emits
// rankties-bench-v2 JSON. The gate enforces a minimum speedup on the
// gate-eligible records (m >= 64, n >= 1000, tied inputs). Running at one
// thread keeps the measurement meaningful on single-core CI runners: the
// speedup measured here is pure per-pair kernel cost, not parallelism.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "bench_json.h"
#include "core/batch_engine.h"
#include "core/hausdorff.h"
#include "core/pair_counts.h"
#include "core/prepared.h"
#include "core/profile_metrics.h"
#include "gen/mallows.h"
#include "gen/random_orders.h"
#include "gen/score_dist.h"
#include "obs/obs.h"
#include "ref/per_pair.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rankties {
namespace {

std::pair<BucketOrder, BucketOrder> MakePair(std::size_t n,
                                             std::uint64_t seed) {
  Rng rng(seed);
  return {RandomFewValued(n, 5.0, rng), RandomFewValued(n, 5.0, rng)};
}

void BM_PairCountsLegacy(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref::ComputePairCounts(sigma, tau));
  }
}
BENCHMARK(BM_PairCountsLegacy)->RangeMultiplier(4)->Range(64, 16384);

void BM_PairCountsPrepared(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 1);
  PairScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePairCounts(sigma, tau, scratch));
  }
}
BENCHMARK(BM_PairCountsPrepared)->RangeMultiplier(4)->Range(64, 16384);

void BM_KprofPrepared(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 2);
  PairScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwiceKprof(sigma, tau, scratch));
  }
}
BENCHMARK(BM_KprofPrepared)->RangeMultiplier(4)->Range(64, 16384);

// ---------------------------------------------------------------------------
// --json mode: legacy vs prepared DistanceMatrix for the CI speedup gate.

std::vector<BucketOrder> MakeTiedLists(std::size_t m, std::size_t n,
                                       std::uint64_t seed) {
  Rng rng(seed);
  const Permutation center = Permutation::Random(n, rng);
  std::vector<BucketOrder> lists;
  lists.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    // Alternate tie structures: quantized Mallows (8 wide buckets) and
    // few-valued attribute shapes. Nearly every pair's joint key space fits
    // the flat feed's 32n-cell cap (at m = 64, n = 1000 only 46 of 2,016
    // pairs exceed it), so these lists time the flat feed.
    if (i % 2 == 0) {
      lists.push_back(QuantizedMallows(center, 0.7, 8, rng));
    } else {
      lists.push_back(RandomFewValued(n, 6.0, rng));
    }
  }
  return lists;
}

// rankties-e2e's point_fine shape: 512 buckets over n = 1024, so every
// pair's 2^18-cell joint key space is past the flat feed's cap and these
// lists time the sorted feed.
std::vector<BucketOrder> MakeFineLists(std::size_t m, std::size_t n,
                                       std::uint64_t seed) {
  Rng rng(seed);
  const Permutation center = Permutation::Random(n, rng);
  std::vector<BucketOrder> lists;
  lists.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    lists.push_back(QuantizedMallows(center, 0.95, 512, rng));
  }
  return lists;
}

// rankties-e2e's dist_coarse shape: quantized score draws alternating
// between Pareto(1.2), whose heavy tail crowds most elements into one
// bucket, and skew-normal(6.0), 48 levels each. Three of four pairs
// include a Pareto list, the shape the flat feed's majority-bucket pivot
// serves.
std::vector<BucketOrder> MakeSkewedLists(std::size_t m, std::size_t n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BucketOrder> lists;
  lists.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    SkewedOrderConfig config;
    config.distribution = i % 2 == 0 ? ScoreDistribution::kPareto
                                     : ScoreDistribution::kNormalSkewed;
    config.pareto_shape = 1.2;
    config.skew_shape = 6.0;
    config.quantization = 48;
    StatusOr<BucketOrder> order = SkewedScoreOrder(n, config, rng);
    if (!order.ok()) std::abort();  // the config above is valid
    lists.push_back(std::move(*order));
  }
  return lists;
}

// Top-10 lists: every pair pivots on a bottom bucket of n - 10 elements.
std::vector<BucketOrder> MakeTopKLists(std::size_t m, std::size_t n,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BucketOrder> lists;
  lists.reserve(m);
  for (std::size_t i = 0; i < m; ++i) lists.push_back(RandomTopK(n, 10, rng));
  return lists;
}

bool SameMatrix(const std::vector<std::vector<double>>& a,
                const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

template <typename MatrixFn>
double TimeBestOf(int reps, MatrixFn fn,
                  std::vector<std::vector<double>>* out) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    *out = fn();
    const double seconds = watch.Seconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

int RunJsonMode() {
  obs::SetEnabled(false);  // timed sections run uninstrumented
  struct Case {
    MetricKind kind;
    std::size_t m;
    std::size_t n;
    int reps;
    bool gate_eligible;
    std::vector<BucketOrder> (*make_lists)(std::size_t, std::size_t,
                                           std::uint64_t);
    // Keys a record apart from another case with the same metric, lists
    // and n; null for the original cases.
    const char* mode;
  };
  // The gate cases carry the acceptance criterion (>= 3x on DistanceMatrix
  // at m >= 64, n >= 1000, ties present). Fprof is recorded but not gated:
  // its legacy path is already a plain L1 loop, so the prepared win there
  // is bounded. The small Kprof case tracks fixed overheads only. FHaus
  // pits the joint-bucket-run kernel against the eight-sort Theorem 5
  // construction (the dedicated >= 50x gate lives in bench_hausdorff).
  // The n = 1024 cases are recorded and checked for a match, not gated,
  // and keep to 32 lists because the Theorem 5 construction dominates this
  // binary's run time in the sanitizer builds. The fine lists are the only
  // ones on the sorted feed; the skewed and top-k lists ("mode") are the
  // only ones whose largest buckets hold more than n/2 elements, so they
  // time the flat feed's majority-bucket pivot.
  const Case cases[] = {
      {MetricKind::kKprof, 16, 512, 3, false, MakeTiedLists, nullptr},
      {MetricKind::kKprof, 64, 1000, 2, true, MakeTiedLists, nullptr},
      {MetricKind::kKHaus, 64, 1000, 2, true, MakeTiedLists, nullptr},
      {MetricKind::kFprof, 64, 1000, 2, false, MakeTiedLists, nullptr},
      {MetricKind::kFHaus, 64, 1000, 2, true, MakeTiedLists, nullptr},
      {MetricKind::kKprof, 32, 1024, 2, false, MakeFineLists, nullptr},
      {MetricKind::kFHaus, 32, 1024, 2, false, MakeFineLists, nullptr},
      {MetricKind::kKprof, 32, 1024, 2, false, MakeSkewedLists, "skewed"},
      {MetricKind::kFHaus, 32, 1024, 2, false, MakeSkewedLists, "skewed"},
      {MetricKind::kKprof, 32, 1024, 2, false, MakeTopKLists, "topk"},
      {MetricKind::kFHaus, 32, 1024, 2, false, MakeTopKLists, "topk"},
  };
  std::vector<benchjson::Record> records;
  bool all_match = true;
  ThreadPool::SetGlobalThreads(1);
  for (const Case& c : cases) {
    const std::vector<BucketOrder> lists =
        c.make_lists(c.m, c.n, 7000 * c.m + c.n);
    const std::size_t pairs = c.m * (c.m - 1) / 2;

    std::vector<std::vector<double>> legacy;
    const double legacy_seconds = TimeBestOf(
        c.reps, [&] { return ref::DistanceMatrixUnprepared(c.kind, lists); },
        &legacy);
    std::vector<std::vector<double>> prepared;
    const double prepared_seconds = TimeBestOf(
        c.reps, [&] { return DistanceMatrix(c.kind, lists); }, &prepared);

    const bool match = SameMatrix(legacy, prepared);
    all_match = all_match && match;

    for (const bool is_prepared : {false, true}) {
      const double seconds = is_prepared ? prepared_seconds : legacy_seconds;
      benchjson::Record record;
      record.Str("name", "pairwise_matrix")
          .Str("metric", MetricName(c.kind))
          .Str("engine", is_prepared ? "prepared" : "legacy")
          .Int("lists", static_cast<long long>(c.m))
          .Int("n", static_cast<long long>(c.n))
          .Int("threads", 1)
          .Num("seconds", seconds)
          .Int("items", static_cast<long long>(pairs))
          .Num("throughput", static_cast<double>(pairs) / seconds)
          .Bool("gate_eligible", c.gate_eligible);
      if (c.mode != nullptr) record.Str("mode", c.mode);
      if (is_prepared) {
        record.Num("speedup_vs_legacy", legacy_seconds / prepared_seconds)
            .Bool("match_legacy", match);
      }
      records.push_back(record);
    }
  }
  ThreadPool::SetGlobalThreads(0);  // restore the default pool

  // One instrumented pass so the document carries the kernel engine's
  // counters (batch.shard_ns, batch.tiles, prepared.scratch_reuse_hits).
  obs::Registry::Global().ResetAll();
  obs::SetEnabled(true);
  {
    const std::vector<BucketOrder> lists = MakeTiedLists(16, 512, 16512);
    std::vector<std::vector<double>> matrix =
        DistanceMatrix(MetricKind::kKprof, lists);
    benchmark::DoNotOptimize(matrix);
  }
  obs::SetEnabled(false);

  benchjson::WriteDocument(stdout, "bench_pairwise", records,
                           obs::MetricsJsonObject());
  if (!all_match) {
    std::fprintf(stderr,
                 "bench_pairwise: prepared DistanceMatrix diverged from the "
                 "legacy path\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rankties

int main(int argc, char** argv) {
  if (rankties::benchjson::HasFlag(argc, argv, "--json")) {
    return rankties::RunJsonMode();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
