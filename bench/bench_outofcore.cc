// Closed-loop harness for the out-of-core shard-at-a-time engines: what
// does streaming a corpus through the block cache cost against the in-RAM
// engines, and does the cache stay inside its budget while the corpus is
// several times larger?
//
// The harness writes a skewed synthetic corpus (gen/score_dist.h — Pareto
// and skew-normal score draws, quantized into ties) to a
// rankties-corpus-v1 file in the working directory, then opens it with a
// block-cache budget of corpus/5 so the acceptance ratio (corpus >= 4x
// cache) holds with margin. Two loops, both at threads=1 so the in-RAM
// baseline and the streaming engine spend the same parallelism:
//  * median — StreamingMedianRankScoresQuad + StreamingMedianInducedOrder
//    vs MedianRankScoresQuad + MedianInducedOrder on the same lists, under
//    a deliberately small accumulation budget (forces multi-pass).
//  * matrix — OutOfCoreDistanceMatrix vs DistanceMatrix per metric kind,
//    once at the default memory budget (the whole corpus is one block) and
//    once at a budget of two chunks (one chunk per block, so every later
//    chunk streams against it).
//
// `bench_outofcore --json` emits rankties-bench-v2 JSON. The CI bench gate
// asserts match_in_ram (bit-exact streaming results), cache_within_budget
// (peak resident bytes <= configured budget), and budget_ratio >= 4 on
// every record, and bounds the default-budget matrices' streaming / in-RAM
// time ratio; cache hit rate, bytes-read-per-pair and chunk loads per call
// ride along as numbers, and the metrics block carries the store.cache.* /
// store.io.* / outofcore.* counters from a small instrumented pass.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/batch_engine.h"
#include "core/median_rank.h"
#include "core/metric_registry.h"
#include "core/outofcore.h"
#include "gen/score_dist.h"
#include "obs/obs.h"
#include "store/corpus_reader.h"
#include "store/corpus_writer.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rankties {
namespace {

constexpr std::size_t kLists = 96;
constexpr std::size_t kDomain = 4096;
constexpr std::uint32_t kBlockSize = 16 * 1024;
constexpr std::uint64_t kListsPerChunk = 8;
constexpr int kReps = 3;  // best-of
// Corpus bytes / cache budget; >= 4 is the acceptance floor, 5 gives it
// margin without collapsing the cache to nothing.
constexpr std::uint64_t kBudgetDivisor = 5;
// Accumulation budget for the streaming median: small enough that the
// element range cannot fit in one pass, so the bench really exercises the
// multi-pass path (kLists * 8 bytes per element => ~1365 elements/pass).
constexpr std::size_t kMedianBudget = std::size_t{1} << 20;

const char kCorpusPath[] = "bench_outofcore_corpus.rktc";

/// Skewed corpus per the gen satellite: alternate Pareto and skew-normal
/// score draws so both distributions shape the tie structure on disk.
std::vector<BucketOrder> MakeSkewedCorpus(std::size_t m, std::size_t n,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BucketOrder> lists;
  lists.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    SkewedOrderConfig config;
    if (i % 2 == 0) {
      config.distribution = ScoreDistribution::kPareto;
      config.pareto_shape = 1.2;  // heavy tail => crowded low buckets
    } else {
      config.distribution = ScoreDistribution::kNormalSkewed;
      config.skew_shape = 6.0;
    }
    config.quantization = 48;
    StatusOr<BucketOrder> order = SkewedScoreOrder(n, config, rng);
    if (!order.ok()) std::abort();
    lists.push_back(std::move(*order));
  }
  return lists;
}

void WriteCorpusFile(const std::string& path,
                     const std::vector<BucketOrder>& lists) {
  store::CorpusWriter::Options options;
  options.block_size = kBlockSize;
  options.lists_per_chunk = kListsPerChunk;
  StatusOr<store::CorpusWriter> writer =
      store::CorpusWriter::Create(path, lists.front().n(), options);
  if (!writer.ok()) std::abort();
  for (const BucketOrder& order : lists) {
    if (!writer->Append(order).ok()) std::abort();
  }
  if (!writer->Finish().ok()) std::abort();
}

struct CorpusShape {
  std::uint64_t corpus_bytes = 0;        ///< full file size on disk
  std::uint64_t cache_budget_bytes = 0;  ///< corpus_bytes / kBudgetDivisor
};

CorpusShape ShapeOf(const store::CorpusReader& reader) {
  CorpusShape shape;
  shape.corpus_bytes =
      reader.header().dir_offset + reader.header().dir_bytes;
  shape.cache_budget_bytes = shape.corpus_bytes / kBudgetDivisor;
  return shape;
}

/// A pager sized so peak residency stays inside the reported budget: Pin
/// admits the new frame before evicting, so the momentary peak is one
/// block above capacity — hand that block to the slack.
store::Pager::Options CacheOptions(const CorpusShape& shape) {
  store::Pager::Options cache;
  cache.capacity_bytes =
      static_cast<std::size_t>(shape.cache_budget_bytes - kBlockSize);
  return cache;
}

store::CorpusReader OpenReader(const std::string& path,
                               const store::Pager::Options& cache) {
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, cache);
  if (!reader.ok()) std::abort();
  return std::move(*reader);
}

struct CacheReport {
  double hit_rate = 0.0;
  double bytes_read = 0.0;  ///< per rep, averaged
  bool within_budget = false;
};

CacheReport ReportCache(const store::Pager& pager,
                        const CorpusShape& shape) {
  CacheReport report;
  const double hits = static_cast<double>(pager.hits());
  const double misses = static_cast<double>(pager.misses());
  report.hit_rate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  report.bytes_read = static_cast<double>(pager.bytes_read()) / kReps;
  report.within_budget =
      static_cast<std::uint64_t>(pager.peak_resident_bytes()) <=
      shape.cache_budget_bytes;
  return report;
}

struct MedianCaseResult {
  double in_ram_seconds = 0.0;
  double streaming_seconds = 0.0;
  bool match_in_ram = false;
  CacheReport cache;
};

MedianCaseResult RunMedianCase(const std::vector<BucketOrder>& lists,
                               const CorpusShape& shape) {
  MedianCaseResult result;
  StatusOr<std::vector<std::int64_t>> ram_scores(
      Status::InvalidArgument("unset"));
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch watch;
    ram_scores = MedianRankScoresQuad(lists, MedianPolicy::kLower);
    const double seconds = watch.Seconds();
    if (!ram_scores.ok()) std::abort();
    if (rep == 0 || seconds < result.in_ram_seconds) {
      result.in_ram_seconds = seconds;
    }
  }

  store::CorpusReader reader = OpenReader(kCorpusPath, CacheOptions(shape));
  OutOfCoreOptions options;
  options.memory_budget_bytes = kMedianBudget;
  StatusOr<std::vector<std::int64_t>> streamed(
      Status::InvalidArgument("unset"));
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch watch;
    streamed = StreamingMedianRankScoresQuad(reader, MedianPolicy::kLower,
                                             options);
    const double seconds = watch.Seconds();
    if (!streamed.ok()) std::abort();
    if (rep == 0 || seconds < result.streaming_seconds) {
      result.streaming_seconds = seconds;
    }
  }
  result.cache = ReportCache(reader.pager(), shape);

  const auto ram_order = MedianInducedOrder(lists, MedianPolicy::kLower);
  const auto streamed_order =
      StreamingMedianInducedOrder(reader, MedianPolicy::kLower, options);
  result.match_in_ram = *ram_scores == *streamed &&
                        ram_order.ok() && streamed_order.ok() &&
                        *ram_order == *streamed_order;
  return result;
}

/// A matrix memory budget of two chunks: the decoded-chunk figure
/// OutOfCoreDistanceMatrix documents, list_count * (16n + 8) +
/// 8 * bucket_count, for the corpus's largest chunk, doubled.
std::size_t TwoChunkBudget(const store::CorpusReader& reader) {
  std::uint64_t largest = 0;
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    const store::ChunkEntry& entry = reader.chunk(c);
    largest = std::max(largest, entry.list_count * (16 * reader.n() + 8) +
                                    8 * entry.bucket_count);
  }
  return static_cast<std::size_t>(2 * largest);
}

struct MatrixCaseResult {
  double in_ram_seconds = 0.0;
  double outofcore_seconds = 0.0;
  bool match_in_ram = false;
  CacheReport cache;
  std::int64_t chunk_loads = 0;  ///< per call
};

MatrixCaseResult RunMatrixCase(MetricKind kind,
                               const std::vector<BucketOrder>& lists,
                               const CorpusShape& shape,
                               const OutOfCoreOptions& options) {
  MatrixCaseResult result;
  std::vector<std::vector<double>> in_ram;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch watch;
    in_ram = DistanceMatrix(kind, lists);
    const double seconds = watch.Seconds();
    if (in_ram.empty()) std::abort();
    if (rep == 0 || seconds < result.in_ram_seconds) {
      result.in_ram_seconds = seconds;
    }
  }

  store::CorpusReader reader = OpenReader(kCorpusPath, CacheOptions(shape));
  StatusOr<std::vector<std::vector<double>>> streamed(
      Status::InvalidArgument("unset"));
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch watch;
    streamed = OutOfCoreDistanceMatrix(kind, reader, options);
    const double seconds = watch.Seconds();
    if (!streamed.ok()) std::abort();
    if (rep == 0 || seconds < result.outofcore_seconds) {
      result.outofcore_seconds = seconds;
    }
  }
  result.cache = ReportCache(reader.pager(), shape);
  result.match_in_ram = *streamed == in_ram;  // bit-exact, rowwise

  // One more, untimed call with the obs counters on for the load count.
  obs::SetEnabled(true);
  const obs::Counter* loads = obs::GetCounter("outofcore.chunk_loads");
  const std::int64_t before = loads->Value();
  if (!OutOfCoreDistanceMatrix(kind, reader, options).ok()) std::abort();
  result.chunk_loads = loads->Value() - before;
  obs::SetEnabled(false);
  return result;
}

/// Small instrumented pass so the JSON document carries the cache and
/// streaming counters; sizes are deliberately tiny — the counters
/// characterize the access pattern, not this machine.
void RunInstrumentedPass() {
  obs::Registry::Global().ResetAll();
  obs::SetEnabled(true);
  const char path[] = "bench_outofcore_instrumented.rktc";
  const std::vector<BucketOrder> lists = MakeSkewedCorpus(16, 256, 52000);
  WriteCorpusFile(path, lists);
  {
    store::Pager::Options cache;
    cache.capacity_bytes = 2 * kBlockSize;
    store::CorpusReader reader = OpenReader(path, cache);
    OutOfCoreOptions options;
    options.memory_budget_bytes = 16 * 1024;
    if (!StreamingMedianRankScoresQuad(reader, MedianPolicy::kLower, options)
             .ok()) {
      std::abort();
    }
    if (!OutOfCoreDistanceMatrix(MetricKind::kKprof, reader).ok()) {
      std::abort();
    }
  }
  std::remove(path);
  obs::SetEnabled(false);
}

constexpr MetricKind kMatrixKinds[] = {
    MetricKind::kKprof,
    MetricKind::kFprof,
    MetricKind::kKHaus,
    MetricKind::kFHaus,
};

/// The matrix passes: the default budget, then two chunks.
struct MatrixPass {
  const char* mode;  ///< nullptr for the default budget
  OutOfCoreOptions options;
};

std::vector<MatrixPass> MatrixPasses(const store::CorpusReader& reader) {
  OutOfCoreOptions two_chunks;
  two_chunks.memory_budget_bytes = TwoChunkBudget(reader);
  return {{nullptr, OutOfCoreOptions{}}, {"two_chunks", two_chunks}};
}

double PairCount() {
  return static_cast<double>(kLists) * (kLists - 1) / 2.0;
}

void FillCommon(benchjson::Record& record, const CorpusShape& shape,
                const CacheReport& cache, bool match) {
  record.Int("lists", static_cast<long long>(kLists))
      .Int("n", static_cast<long long>(kDomain))
      .Int("threads", 1)
      .Str("workload", "skewed")
      .Int("corpus_bytes", static_cast<long long>(shape.corpus_bytes))
      .Int("cache_budget_bytes",
           static_cast<long long>(shape.cache_budget_bytes))
      .Num("budget_ratio", static_cast<double>(shape.corpus_bytes) /
                               static_cast<double>(shape.cache_budget_bytes))
      .Num("cache_hit_rate", cache.hit_rate)
      .Num("bytes_read", cache.bytes_read)
      .Bool("cache_within_budget", cache.within_budget)
      .Bool("match_in_ram", match)
      .Bool("gate_eligible", true);
}

int RunJsonMode() {
  obs::SetEnabled(false);  // timed sections run uninstrumented
  ThreadPool::SetGlobalThreads(1);
  const std::vector<BucketOrder> lists =
      MakeSkewedCorpus(kLists, kDomain, 41000);
  WriteCorpusFile(kCorpusPath, lists);
  const store::CorpusReader plain =
      OpenReader(kCorpusPath, store::Pager::Options{});
  const CorpusShape shape = ShapeOf(plain);

  std::vector<benchjson::Record> records;
  bool all_ok = true;
  {
    const MedianCaseResult r = RunMedianCase(lists, shape);
    all_ok = all_ok && r.match_in_ram && r.cache.within_budget;
    benchjson::Record record;
    record.Str("name", "outofcore_median")
        .Str("metric", "median_rank")
        .Str("engine", "streaming_median")
        .Num("seconds", r.streaming_seconds)
        .Num("seconds_in_ram", r.in_ram_seconds)
        .Int("items", static_cast<long long>(kLists * kDomain))
        .Num("throughput",
             static_cast<double>(kLists * kDomain) / r.streaming_seconds);
    FillCommon(record, shape, r.cache, r.match_in_ram);
    records.push_back(record);
  }
  for (const MatrixPass& pass : MatrixPasses(plain)) {
    for (const MetricKind kind : kMatrixKinds) {
      const MatrixCaseResult r =
          RunMatrixCase(kind, lists, shape, pass.options);
      all_ok = all_ok && r.match_in_ram && r.cache.within_budget;
      benchjson::Record record;
      record.Str("name", "outofcore_matrix")
          .Str("metric", MetricName(kind))
          .Str("engine", "outofcore_matrix");
      if (pass.mode != nullptr) record.Str("mode", pass.mode);
      record.Num("seconds", r.outofcore_seconds)
          .Num("seconds_in_ram", r.in_ram_seconds)
          .Int("items", static_cast<long long>(PairCount()))
          .Num("throughput", PairCount() / r.outofcore_seconds)
          .Num("bytes_read_per_pair", r.cache.bytes_read / PairCount())
          .Int("memory_budget_bytes",
               static_cast<long long>(pass.options.memory_budget_bytes))
          .Int("chunk_loads", static_cast<long long>(r.chunk_loads));
      FillCommon(record, shape, r.cache, r.match_in_ram);
      records.push_back(record);
    }
  }
  ThreadPool::SetGlobalThreads(0);  // restore the default pool
  std::remove(kCorpusPath);

  RunInstrumentedPass();
  benchjson::WriteDocument(stdout, "bench_outofcore", records,
                           obs::MetricsJsonObject());
  if (!all_ok) {
    std::fprintf(stderr,
                 "bench_outofcore: a streaming engine diverged from its "
                 "in-RAM twin or the cache overran its budget\n");
    return 1;
  }
  return 0;
}

int RunHumanMode() {
  obs::SetEnabled(false);
  ThreadPool::SetGlobalThreads(1);
  const std::vector<BucketOrder> lists =
      MakeSkewedCorpus(kLists, kDomain, 41000);
  WriteCorpusFile(kCorpusPath, lists);
  const store::CorpusReader plain =
      OpenReader(kCorpusPath, store::Pager::Options{});
  const CorpusShape shape = ShapeOf(plain);
  std::printf("=== out-of-core engines vs in-RAM "
              "(m=%zu, n=%zu, corpus %.2f MiB, cache budget %.2f MiB, "
              "best of %d) ===\n\n",
              kLists, kDomain,
              static_cast<double>(shape.corpus_bytes) / (1 << 20),
              static_cast<double>(shape.cache_budget_bytes) / (1 << 20),
              kReps);
  std::printf("%-17s %13s %13s %9s %6s %8s %7s\n", "case", "in-RAM (ms)",
              "stream (ms)", "hit rate", "loads", "budget", "match");
  bool all_ok = true;
  {
    const MedianCaseResult r = RunMedianCase(lists, shape);
    all_ok = all_ok && r.match_in_ram && r.cache.within_budget;
    std::printf("%-17s %13.3f %13.3f %8.1f%% %6s %8s %7s\n", "median_rank",
                r.in_ram_seconds * 1e3, r.streaming_seconds * 1e3,
                r.cache.hit_rate * 100.0, "-",
                r.cache.within_budget ? "ok" : "OVER",
                r.match_in_ram ? "yes" : "NO");
  }
  for (const MatrixPass& pass : MatrixPasses(plain)) {
    for (const MetricKind kind : kMatrixKinds) {
      const MatrixCaseResult r =
          RunMatrixCase(kind, lists, shape, pass.options);
      all_ok = all_ok && r.match_in_ram && r.cache.within_budget;
      std::string label = MetricName(kind);
      if (pass.mode != nullptr) {
        label += ' ';
        label += pass.mode;
      }
      std::printf("%-17s %13.3f %13.3f %8.1f%% %6lld %8s %7s\n",
                  label.c_str(), r.in_ram_seconds * 1e3,
                  r.outofcore_seconds * 1e3, r.cache.hit_rate * 100.0,
                  static_cast<long long>(r.chunk_loads),
                  r.cache.within_budget ? "ok" : "OVER",
                  r.match_in_ram ? "yes" : "NO");
    }
  }
  std::printf("\ncorpus is %.1fx the cache budget; every streaming result "
              "is checked bit-exact against the in-RAM engine.\n",
              static_cast<double>(shape.corpus_bytes) /
                  static_cast<double>(shape.cache_budget_bytes));
  ThreadPool::SetGlobalThreads(0);
  std::remove(kCorpusPath);
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace rankties

int main(int argc, char** argv) {
  if (rankties::benchjson::HasFlag(argc, argv, "--json")) {
    return rankties::RunJsonMode();
  }
  return rankties::RunHumanMode();
}
