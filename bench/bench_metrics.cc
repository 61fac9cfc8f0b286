// E9: "all metrics admit efficient computation" (paper §4).
// Timing of Kprof / Fprof / KHaus / FHaus and of the O(n log n) pair engine
// vs the naive O(n^2) engine across domain sizes.
//
// `bench_metrics --json` switches to the batch-engine comparison mode: it
// times DistanceMatrix over batches of quantized-Mallows lists at threads=1
// vs threads=N (N = RANKTIES_THREADS or the hardware), verifies the two
// matrices are bit-identical, and emits rankties-bench-v2 JSON (with an obs
// metrics block) for the CI bench-regression gate.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_json.h"
#include "core/batch_engine.h"
#include "obs/obs.h"
#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/pair_counts.h"
#include "core/profile_metrics.h"
#include "gen/mallows.h"
#include "gen/random_orders.h"
#include "ref/per_pair.h"
#include "ref/ref_metrics.h"
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

void BM_Kprof(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwiceKprof(sigma, tau));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Kprof)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_Fprof(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwiceFprof(sigma, tau));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fprof)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_KHaus(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KHausdorff(sigma, tau));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KHaus)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_KHausTheorem5(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref::KHausdorffTheorem5(sigma, tau));
  }
}
BENCHMARK(BM_KHausTheorem5)->RangeMultiplier(4)->Range(64, 16384);

void BM_FHaus(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwiceFHausdorff(sigma, tau));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FHaus)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_PairCountsFast(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePairCounts(sigma, tau));
  }
}
BENCHMARK(BM_PairCountsFast)->RangeMultiplier(4)->Range(64, 16384);

void BM_PairCountsNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto [sigma, tau] = MakePair(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref::ClassifyPairs(sigma, tau));
  }
}
BENCHMARK(BM_PairCountsNaive)->RangeMultiplier(4)->Range(64, 4096);

// ---------------------------------------------------------------------------
// --json mode: parallel batch engine vs the serial path.

std::vector<BucketOrder> MakeMallowsLists(std::size_t m, std::size_t n,
                                          std::uint64_t seed) {
  Rng rng(seed);
  const Permutation center = Permutation::Random(n, rng);
  std::vector<BucketOrder> lists;
  lists.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    lists.push_back(QuantizedMallows(center, 0.7, 8, rng));
  }
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

// Best-of-`reps` wall time of DistanceMatrix at the current thread count.
double TimeMatrix(MetricKind kind, const std::vector<BucketOrder>& lists,
                  int reps, std::vector<std::vector<double>>* out) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    *out = DistanceMatrix(kind, lists);
    const double seconds = watch.Seconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

int RunJsonMode() {
  // Timed sections run with collection off (the gate compares wall times);
  // obs is switched on afterwards for one instrumented pass so the document
  // carries a populated bench-v2 metrics block.
  obs::SetEnabled(false);
  struct Case {
    MetricKind kind;
    std::size_t m;
    std::size_t n;
    int reps;
  };
  // FHaus runs ~50x slower per pair than Kprof (the Theorem 5 construction
  // builds four refinements), so it only gets the mid-size grid.
  const Case cases[] = {
      {MetricKind::kKprof, 16, 512, 3},
      {MetricKind::kKprof, 64, 1000, 2},
      {MetricKind::kKprof, 128, 2000, 2},
      {MetricKind::kFHaus, 64, 1000, 2},
  };
  const std::size_t par_threads = ThreadPool::DefaultThreads();
  std::vector<benchjson::Record> records;
  bool all_match = true;
  for (const Case& c : cases) {
    const std::vector<BucketOrder> lists =
        MakeMallowsLists(c.m, c.n, 1000 * c.m + c.n);
    const std::size_t pairs = c.m * (c.m - 1) / 2;

    ThreadPool::SetGlobalThreads(1);
    std::vector<std::vector<double>> serial;
    const double serial_seconds = TimeMatrix(c.kind, lists, c.reps, &serial);

    ThreadPool::SetGlobalThreads(par_threads);
    std::vector<std::vector<double>> parallel;
    const double parallel_seconds =
        TimeMatrix(c.kind, lists, c.reps, &parallel);

    const bool match = SameMatrix(serial, parallel);
    all_match = all_match && match;

    for (const bool is_parallel : {false, true}) {
      const double seconds = is_parallel ? parallel_seconds : serial_seconds;
      benchjson::Record record;
      record.Str("name", "distance_matrix")
          .Str("metric", MetricName(c.kind))
          .Int("lists", static_cast<long long>(c.m))
          .Int("n", static_cast<long long>(c.n))
          .Int("threads",
               static_cast<long long>(is_parallel ? par_threads : 1))
          .Num("seconds", seconds)
          .Int("items", static_cast<long long>(pairs))
          .Num("throughput", static_cast<double>(pairs) / seconds)
          .Bool("gate_eligible", c.m >= 64);
      if (is_parallel) {
        record.Num("speedup", serial_seconds / parallel_seconds)
            .Bool("match_serial", match);
      }
      records.push_back(record);
    }
  }
  ThreadPool::SetGlobalThreads(0);  // restore the default pool

  // One instrumented pass over the smallest case to populate the metrics
  // block (counters/histograms from the batch engine and thread pool).
  obs::Registry::Global().ResetAll();
  obs::SetEnabled(true);
  {
    const std::vector<BucketOrder> lists = MakeMallowsLists(16, 512, 16512);
    std::vector<std::vector<double>> matrix = DistanceMatrix(
        MetricKind::kKprof, lists);
    benchmark::DoNotOptimize(matrix);
  }
  obs::SetEnabled(false);

  benchjson::WriteDocument(stdout, "bench_metrics", records,
                           obs::MetricsJsonObject());
  if (!all_match) {
    std::fprintf(stderr,
                 "bench_metrics: parallel DistanceMatrix diverged from the "
                 "serial path\n");
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
