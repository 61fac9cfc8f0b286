#ifndef RANKTIES_BENCH_E2E_WORKLOADS_H_
#define RANKTIES_BENCH_E2E_WORKLOADS_H_

/// The rankties-e2e scenario table: one config row per workload, in the
/// hyrise benchmarklib TableGenerator idiom (distribution configs with named
/// factories, one generator that turns a row plus a seed into inputs). Only
/// the harness generates inputs; the library only ever receives the built
/// lists or their text.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/mallows.h"
#include "gen/score_dist.h"
#include "rank/bucket_order.h"
#include "rank/permutation.h"
#include "util/rng.h"

namespace rankties::e2e {

/// How a workload's lists are drawn.
struct ListDistribution {
  enum class Kind { kSkewedScores, kMallows };

  /// Quantized score draws that alternate list by list between
  /// Pareto(pareto_shape) and skew-normal(skew_shape), `levels` score levels
  /// each (gen/score_dist.h). Heavy tails crowd the low buckets.
  static constexpr ListDistribution Skewed(double pareto_shape,
                                           double skew_shape,
                                           std::uint32_t levels) {
    ListDistribution d;
    d.kind = Kind::kSkewedScores;
    d.pareto_shape = pareto_shape;
    d.skew_shape = skew_shape;
    d.levels = levels;
    return d;
  }

  /// Quantized Mallows samples (gen/mallows.h) around one seeded center:
  /// dispersion `phi`, `buckets` near-equal rank bands per list.
  static constexpr ListDistribution Mallows(double phi, std::size_t buckets) {
    ListDistribution d;
    d.kind = Kind::kMallows;
    d.phi = phi;
    d.buckets = buckets;
    return d;
  }

  Kind kind = Kind::kMallows;
  double pareto_shape = 1.5;
  double skew_shape = 4.0;
  std::uint32_t levels = 64;
  double phi = 1.0;
  std::size_t buckets = 1;
};

/// The user-visible pipeline one job runs (bench_e2e.cc has the steps).
enum class JobKind {
  kDist,    ///< text -> ParseBucketOrders -> DistanceMatrix x4 -> text
  kPoint,   ///< one ComputeMetric pair under all four metrics
  kAgg,     ///< text -> median / MEDRANK / f-dagger / costs -> text
  kCorpus,  ///< corpus write -> reopen -> out-of-core median + matrices
};

struct WorkloadConfig {
  const char* name;
  JobKind job;
  std::size_t lists;
  std::size_t n;
  ListDistribution distribution;
  /// Untimed jobs run during set-up, so caches, scratch buffers and pool
  /// threads are warm before the first timed job.
  int warmup_jobs;
};

/// Top-k of the agg pipeline, as in `rank_tool agg <file> 10`.
inline constexpr std::size_t kAggTopK = 10;

inline constexpr WorkloadConfig kWorkloads[] = {
    // dist_coarse — `rank_tool dist` on skewed lists with ~29 buckets each
    // and 2.5 MB of text. Kernel- and pool-heavy (flat-histogram kernels,
    // 8128 pairs x 4 metrics), so parallel scaling and kernel speed show
    // here.
    {"dist_coarse", JobKind::kDist, 128, 4096,
     ListDistribution::Skewed(1.2, 6.0, 48), 3},
    // dist_small — the same pipeline on the `rank_tool gen 512 16 0.7 8`
    // shape. Per-job fixed costs (pool dispatch, parse set-up, allocation)
    // dominate and kernel work is tiny; a serial cutoff must show here
    // while dist_coarse stays put.
    {"dist_small", JobKind::kDist, 16, 512, ListDistribution::Mallows(0.7, 8),
     200},
    // point_fine — the library point-query path: ComputeMetric on one
    // seeded pair under all four metrics, no parse and no pool. Its 512x512
    // bucket key space sends the prepared kernels down the sorted fallback.
    {"point_fine", JobKind::kPoint, 64, 1024,
     ListDistribution::Mallows(0.95, 512), 50},
    // agg_median — `rank_tool agg` with k=10: the paper's section-6
    // aggregation layer (median, MEDRANK, the O(n^2) f-dagger DP, costs)
    // with no distance matrix.
    {"agg_median", JobKind::kAgg, 33, 4096,
     ListDistribution::Mallows(0.9, 512), 5},
    // corpus_ooc — dist_coarse-shaped lists through the on-disk store: each
    // job writes the corpus, reopens it behind a block cache a fifth of its
    // size, and runs the streaming median and out-of-core matrices. The
    // only workload that touches the store; decode, CRC and re-freeze
    // overhead dominate.
    {"corpus_ooc", JobKind::kCorpus, 64, 4096,
     ListDistribution::Skewed(1.2, 6.0, 48), 2},
};

/// The row named `name`, or nullptr.
inline const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& config : kWorkloads) {
    if (name == config.name) return &config;
  }
  return nullptr;
}

/// Draws `config.lists` lists over {0..n-1}; deterministic in `seed`.
inline std::vector<BucketOrder> GenerateLists(const WorkloadConfig& config,
                                              std::uint64_t seed) {
  Rng rng(seed);
  const ListDistribution& dist = config.distribution;
  std::vector<BucketOrder> lists;
  lists.reserve(config.lists);
  if (dist.kind == ListDistribution::Kind::kMallows) {
    const Permutation center = Permutation::Random(config.n, rng);
    for (std::size_t i = 0; i < config.lists; ++i) {
      lists.push_back(QuantizedMallows(center, dist.phi, dist.buckets, rng));
    }
    return lists;
  }
  for (std::size_t i = 0; i < config.lists; ++i) {
    SkewedOrderConfig score;
    score.distribution = i % 2 == 0 ? ScoreDistribution::kPareto
                                    : ScoreDistribution::kNormalSkewed;
    score.pareto_shape = dist.pareto_shape;
    score.skew_shape = dist.skew_shape;
    score.quantization = dist.levels;
    StatusOr<BucketOrder> order = SkewedScoreOrder(config.n, score, rng);
    if (!order.ok()) std::abort();  // the table's configs are all valid
    lists.push_back(std::move(*order));
  }
  return lists;
}

/// `count` seeded list pairs (i < j) for point queries and kernel probes.
inline std::vector<std::pair<std::size_t, std::size_t>> GeneratePairs(
    std::size_t lists, std::size_t count, std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(count);
  const auto last = static_cast<std::int64_t>(lists) - 1;
  while (pairs.size() < count) {
    const auto i = static_cast<std::size_t>(rng.UniformInt(0, last));
    const auto j = static_cast<std::size_t>(rng.UniformInt(0, last));
    if (i != j) pairs.emplace_back(std::min(i, j), std::max(i, j));
  }
  return pairs;
}

}  // namespace rankties::e2e

#endif  // RANKTIES_BENCH_E2E_WORKLOADS_H_
