// E6: the optimal-bucketing DP (Theorem 10 / Appendix A.6.4). Times
// OptimalBucketing with the O(n^2) scaling check of the paper's claim, next
// to the paper's Figure 1 (ref::FDaggerCostFigure1) on the same even
// scores, plus the median -> f-dagger pipeline.

#include <benchmark/benchmark.h>

#include "core/median_rank.h"
#include "core/optimal_bucketing.h"
#include "gen/random_orders.h"
#include "ref/fdagger.h"
#include "util/rng.h"

namespace rankties {
namespace {

std::vector<std::int64_t> MedianScores(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BucketOrder> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(RandomFewValued(n, 4.0, rng));
  auto scores = MedianRankScoresQuad(inputs, MedianPolicy::kLower);
  return scores.ok() ? *scores : std::vector<std::int64_t>(n, 4);
}

void BM_FDagger(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto scores = MedianScores(n, 1);
  for (auto _ : state) {
    auto result = OptimalBucketing(scores);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FDagger)
    ->RangeMultiplier(2)
    ->Range(128, 8192)
    ->Complexity(benchmark::oNSquared);

void BM_FDaggerFigure1(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto scores = MedianScores(n, 1);
  for (auto _ : state) {
    std::int64_t cost = ref::FDaggerCostFigure1(scores);
    benchmark::DoNotOptimize(cost);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FDaggerFigure1)
    ->RangeMultiplier(2)
    ->Range(128, 8192)
    ->Complexity(benchmark::oNSquared);

// The end-to-end Theorem 10 pipeline: median scores -> f-dagger.
void BM_MedianPlusFDagger(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<BucketOrder> inputs;
  for (int i = 0; i < 7; ++i) inputs.push_back(RandomFewValued(n, 4.0, rng));
  for (auto _ : state) {
    auto scores = MedianRankScoresQuad(inputs, MedianPolicy::kLower);
    auto result = OptimalBucketing(*scores);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MedianPlusFDagger)->RangeMultiplier(4)->Range(128, 8192);

}  // namespace
}  // namespace rankties
