// bench_e2e: the rankties-e2e harness. Runs one workload of the scenario
// table (workloads.h) as a closed loop — one client, the next job starts
// when the previous answer returns — on a global pool of 4 lanes (the
// caller plus 3 workers, never more than the CPUs this process may use).
// Every job is a whole user-visible pipeline, from input text or corpus
// file to the emitted answer, and every job's answer is checked.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--work-dir DIR]
//             [--traced [--trace-out FILE]]
//
// The plain run reports the end-to-end metrics. The traced run wraps every
// public call of every other job in a bench-side span (spans.h), runs
// out-of-loop probes, and reports the per-layer metrics instead. A layer
// the workload's own job never calls is measured by running the pipeline
// that calls it on the workload's own inputs, so every per-layer metric
// exists on every workload. The result is one JSON object on the last line
// of stdout; bench/e2e/run.py drives this binary and README.md defines
// every metric.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "access/medrank_engine.h"
#include "core/batch_engine.h"
#include "core/best_input.h"
#include "core/cost.h"
#include "core/median_rank.h"
#include "core/metric_registry.h"
#include "core/optimal_bucketing.h"
#include "core/outofcore.h"
#include "core/prepared.h"
#include "rank/io.h"
#include "ref/ref_metrics.h"
#include "spans.h"
#include "stats.h"
#include "store/corpus_reader.h"
#include "store/corpus_writer.h"
#include "util/checked_math.h"
#include "util/simd.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace rankties::e2e {
namespace {

constexpr std::size_t kLanes = 4;
constexpr int kSetupReps = 5;
// Every run times at least this many jobs, so p90 has ten samples beyond
// it; a run whose jobs are slow measures longer than --seconds.
constexpr std::size_t kMinTimedJobs = 100;
constexpr std::size_t kPointPairs = 4096;
constexpr std::size_t kCrossCheckPairs = 3;
constexpr MedianPolicy kPolicy = MedianPolicy::kLower;

// Store shape of the corpus jobs: 16 KiB blocks, 8 lists per chunk, a
// block cache of a fifth of the corpus, a 1 MiB streaming-median budget.
constexpr std::uint32_t kBlockSize = 16 * 1024;
constexpr std::uint64_t kListsPerChunk = 8;
constexpr std::uint64_t kCacheDivisor = 5;
constexpr std::size_t kMedianBudget = std::size_t{1} << 20;

// Traced run: the span store, the room kept free in it for the probe
// passes (the loop stops tracing when it runs low), the job ids of probe
// passes, and the probe repetition counts.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 17;
constexpr std::size_t kProbeSpanRoom = 1024;
constexpr std::int64_t kProbeJobBase = 1'000'000'000;
constexpr std::int64_t kProbeJobsPerKind = 1000;
constexpr int kProbeReps = 3;
constexpr int kScalingJobs = 10;
constexpr int kDispatchCalls = 2000;
constexpr int kFreezeRounds = 5;
constexpr std::size_t kKernelPairs = 32;

// Span names per metric kind, in AllMetricKinds() order.
constexpr const char* kMatrixSpan[] = {
    "batch_engine.matrix.Kprof", "batch_engine.matrix.Fprof",
    "batch_engine.matrix.KHaus", "batch_engine.matrix.FHaus"};
constexpr const char* kPointSpan[] = {
    "metric_registry.point.Kprof", "metric_registry.point.Fprof",
    "metric_registry.point.KHaus", "metric_registry.point.FHaus"};
constexpr const char* kOutOfCoreSpan[] = {
    "outofcore.matrix.Kprof", "outofcore.matrix.Fprof",
    "outofcore.matrix.KHaus", "outofcore.matrix.FHaus"};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

using Matrix = std::vector<std::vector<double>>;

std::size_t KindIndex(MetricKind kind) {
  return static_cast<std::size_t>(kind);
}

double ValueOr(std::optional<double> value) { return value.value_or(kNaN); }

/// Calls `call` inside a span named `name` and returns its result.
template <typename Call>
auto InSpan(SpanRecorder* spans, const char* name, Call&& call) {
  SpanScope span(spans, name);
  return call();
}

/// FNV-1a, 64-bit: the digest the dist and agg jobs compare.
std::uint64_t Fnv64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Where a corpus job writes its file and how big its cache is.
struct CorpusPlan {
  std::string path;
  std::uint64_t corpus_bytes = 0;
  /// corpus_bytes / kCacheDivisor; peak cache residency must stay within.
  std::uint64_t cache_budget_bytes = 0;
};

/// A workload's generated inputs.
struct Inputs {
  std::vector<BucketOrder> lists;
  /// FormatBucketOrders(lists), the input of the parsing jobs.
  std::string text;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  /// Set for the corpus jobs.
  CorpusPlan corpus;
};

/// What a job's answer must equal, computed once at set-up on one lane.
struct Reference {
  /// Digest of the text the dist or agg pipeline emits.
  std::uint64_t digest = 0;
  /// DistanceMatrix per metric kind.
  std::vector<Matrix> matrices;
  /// MedianRankScoresQuad, for the corpus job's streaming median.
  std::vector<std::int64_t> median_scores;
};

/// What one job did. The traced run reads the counters.
struct JobResult {
  /// Empty unless the job failed: a non-OK Status, a wrong answer or a
  /// budget violation.
  std::string error;
  std::int64_t medrank_accesses = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t matrix_bytes_read = 0;
  std::int64_t peak_resident_bytes = 0;
};

/// One job call. `reference` is null in probe passes, whose answers go
/// unchecked; `spans` is null in untraced jobs.
struct JobContext {
  const Inputs& inputs;
  const Reference* reference;
  SpanRecorder* spans;
  std::size_t index;
};

/// One matrix exactly as `rank_tool dist` prints it.
void EmitMatrix(MetricKind kind, const Matrix& matrix, std::string* out) {
  *out += "# ";
  *out += MetricName(kind);
  *out += '\n';
  char number[64];
  for (const std::vector<double>& row : matrix) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      std::snprintf(number, sizeof(number), "%s%.1f", j != 0 ? "\t" : "",
                    row[j]);
      *out += number;
    }
    *out += '\n';
  }
}

/// ParseBucketOrders plus the domain checks `rank_tool` applies.
StatusOr<std::vector<BucketOrder>> ParseLists(const JobContext& ctx) {
  SpanScope span(ctx.spans, "rank.parse");
  StatusOr<std::vector<BucketOrder>> orders =
      ParseBucketOrders(ctx.inputs.text);
  if (!orders.ok()) return orders.status();
  if (orders->empty()) return Status::InvalidArgument("no bucket orders");
  for (const BucketOrder& order : *orders) {
    if (order.n() != orders->front().n()) {
      return Status::InvalidArgument("domain sizes differ between lines");
    }
  }
  return orders;
}

/// `rank_tool dist`: parse, four distance matrices, their text.
JobResult RunDistJob(const JobContext& ctx) {
  JobResult result;
  StatusOr<std::vector<BucketOrder>> orders = ParseLists(ctx);
  if (!orders.ok()) {
    result.error = orders.status().ToString();
    return result;
  }
  std::string out;
  for (const MetricKind kind : AllMetricKinds()) {
    const Matrix matrix =
        InSpan(ctx.spans, kMatrixSpan[KindIndex(kind)],
               [&] { return DistanceMatrix(kind, *orders); });
    SpanScope span(ctx.spans, "emit");
    EmitMatrix(kind, matrix, &out);
  }
  if (ctx.reference != nullptr && Fnv64(out) != ctx.reference->digest) {
    result.error = "dist output digest differs from the 1-lane reference";
  }
  return result;
}

/// The `rank_tool agg <file> 10` pipeline on parsed lists: appends the
/// lines it prints to `out`.
Status AggPipeline(const std::vector<BucketOrder>& lists, SpanRecorder* spans,
                   std::string* out, std::int64_t* medrank_accesses) {
  const auto k = static_cast<long long>(kAggTopK);
  char line[160];
  const StatusOr<Permutation> full =
      InSpan(spans, "median_rank.full",
             [&] { return MedianAggregateFull(lists, kPolicy); });
  if (!full.ok()) return full.status();
  {
    SpanScope span(spans, "emit");
    *out += "median full ranking: " + full->ToString() + "\n";
  }
  const StatusOr<BucketOrder> topk =
      InSpan(spans, "median_rank.topk",
             [&] { return MedianAggregateTopK(lists, kAggTopK, kPolicy); });
  if (!topk.ok()) return topk.status();
  {
    SpanScope span(spans, "emit");
    std::snprintf(line, sizeof(line), "median top-%lld      : ", k);
    *out += line + topk->ToString() + "\n";
  }
  const StatusOr<MedrankResult> medrank = InSpan(
      spans, "medrank", [&] { return MedrankTopK(lists, kAggTopK); });
  if (!medrank.ok()) return medrank.status();
  *medrank_accesses = medrank->total_accesses;
  {
    SpanScope span(spans, "emit");
    std::string winners;
    for (const ElementId w : medrank->winners) {
      winners += (winners.empty() ? "" : " ") + std::to_string(w);
    }
    std::snprintf(line, sizeof(line), "medrank top-%lld     : [", k);
    *out += line + winners;
    std::snprintf(line, sizeof(line), "] (%lld sorted accesses, depth %lld)\n",
                  static_cast<long long>(medrank->total_accesses),
                  static_cast<long long>(medrank->depth));
    *out += line;
  }
  const StatusOr<std::vector<std::int64_t>> scores =
      InSpan(spans, "median_rank.scores",
             [&] { return MedianRankScoresQuad(lists, kPolicy); });
  if (!scores.ok()) return scores.status();
  const StatusOr<BucketingResult> fdagger = InSpan(
      spans, "optimal_bucketing.dp", [&] { return OptimalBucketing(*scores); });
  if (!fdagger.ok()) return fdagger.status();
  {
    SpanScope span(spans, "emit");
    *out += "f-dagger           : " + fdagger->order.ToString() + "\n";
  }
  const double full_cost = InSpan(spans, "cost.total_distance", [&] {
    return TotalDistance(MetricKind::kFprof,
                         BucketOrder::FromPermutation(*full), lists);
  });
  const double fdagger_cost = InSpan(spans, "cost.total_distance", [&] {
    return TotalDistance(MetricKind::kFprof, fdagger->order, lists);
  });
  const StatusOr<BestInputResult> best =
      InSpan(spans, "best_input",
             [&] { return BestInputAggregate(lists, MetricKind::kFprof); });
  if (!best.ok()) return best.status();
  SpanScope span(spans, "emit");
  std::snprintf(line, sizeof(line),
                "sum Fprof: full=%.1f f-dagger=%.1f best-input=%.1f\n",
                full_cost, fdagger_cost, best->total_cost);
  *out += line;
  return Status::Ok();
}

/// `rank_tool agg <file> 10`: parse, then AggPipeline.
JobResult RunAggJob(const JobContext& ctx) {
  JobResult result;
  StatusOr<std::vector<BucketOrder>> orders = ParseLists(ctx);
  if (!orders.ok()) {
    result.error = orders.status().ToString();
    return result;
  }
  std::string out;
  const Status status =
      AggPipeline(*orders, ctx.spans, &out, &result.medrank_accesses);
  if (!status.ok()) {
    result.error = status.ToString();
  } else if (ctx.reference != nullptr &&
             Fnv64(out) != ctx.reference->digest) {
    result.error = "agg output digest differs from the 1-lane reference";
  }
  return result;
}

/// One point query: a seeded pair under all four metrics.
JobResult RunPointJob(const JobContext& ctx) {
  JobResult result;
  const auto [i, j] = ctx.inputs.pairs[ctx.index % ctx.inputs.pairs.size()];
  for (const MetricKind kind : AllMetricKinds()) {
    const double d = InSpan(ctx.spans, kPointSpan[KindIndex(kind)], [&] {
      return ComputeMetric(kind, ctx.inputs.lists[i], ctx.inputs.lists[j]);
    });
    if (ctx.reference != nullptr &&
        d != ctx.reference->matrices[KindIndex(kind)][i][j]) {
      result.error = std::string(MetricName(kind)) +
                     " point query differs from the prepared matrix";
    }
  }
  return result;
}

Status WriteCorpus(const std::vector<BucketOrder>& lists,
                   const std::string& path) {
  store::CorpusWriter::Options options;
  options.block_size = kBlockSize;
  options.lists_per_chunk = kListsPerChunk;
  StatusOr<store::CorpusWriter> writer =
      store::CorpusWriter::Create(path, lists.front().n(), options);
  if (!writer.ok()) return writer.status();
  for (const BucketOrder& order : lists) {
    const Status appended = writer->Append(order);
    if (!appended.ok()) return appended;
  }
  return writer->Finish();
}

/// A cache one block under the budget: Pin admits a new frame before it
/// evicts, so residency peaks one block above capacity. A corpus too small
/// for that gets one block.
store::Pager::Options CacheOptions(const CorpusPlan& plan) {
  store::Pager::Options cache;
  cache.capacity_bytes = static_cast<std::size_t>(
      std::max<std::uint64_t>(plan.cache_budget_bytes, 2 * kBlockSize) -
      kBlockSize);
  return cache;
}

/// Writes the corpus once to learn its size, which sets the cache budget.
StatusOr<CorpusPlan> PlanCorpus(const std::vector<BucketOrder>& lists,
                                std::string path) {
  const Status written = WriteCorpus(lists, path);
  if (!written.ok()) return written;
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  if (!reader.ok()) return reader.status();
  CorpusPlan plan;
  plan.path = std::move(path);
  plan.corpus_bytes = reader->header().dir_offset + reader->header().dir_bytes;
  plan.cache_budget_bytes = plan.corpus_bytes / kCacheDivisor;
  return plan;
}

/// Corpus write, reopen behind the block cache, the streaming median and
/// the four out-of-core matrices; each checked bit-exact against the
/// in-RAM engines, and the cache against its budget.
JobResult RunCorpusJob(const JobContext& ctx) {
  JobResult result;
  const CorpusPlan& plan = ctx.inputs.corpus;
  const Reference* ref = ctx.reference;
  const Status written = InSpan(ctx.spans, "store.write", [&] {
    return WriteCorpus(ctx.inputs.lists, plan.path);
  });
  if (!written.ok()) {
    result.error = written.ToString();
    return result;
  }
  StatusOr<store::CorpusReader> reader = InSpan(ctx.spans, "store.open", [&] {
    return store::CorpusReader::Open(plan.path, CacheOptions(plan));
  });
  if (!reader.ok()) {
    result.error = reader.status().ToString();
    return result;
  }
  const StatusOr<std::vector<std::int64_t>> scores =
      InSpan(ctx.spans, "outofcore.median", [&] {
        OutOfCoreOptions options;
        options.memory_budget_bytes = kMedianBudget;
        return StreamingMedianRankScoresQuad(*reader, kPolicy, options);
      });
  if (!scores.ok()) {
    result.error = scores.status().ToString();
    return result;
  }
  if (ref != nullptr && *scores != ref->median_scores) {
    result.error = "streaming median differs from the in-RAM median";
  }
  const store::Pager& pager = reader->pager();
  const std::int64_t bytes_before = pager.bytes_read();
  for (const MetricKind kind : AllMetricKinds()) {
    const StatusOr<Matrix> matrix =
        InSpan(ctx.spans, kOutOfCoreSpan[KindIndex(kind)],
               [&] { return OutOfCoreDistanceMatrix(kind, *reader); });
    if (!matrix.ok()) {
      result.error = matrix.status().ToString();
      return result;
    }
    if (ref != nullptr && *matrix != ref->matrices[KindIndex(kind)]) {
      result.error = std::string(MetricName(kind)) +
                     " out-of-core matrix differs from DistanceMatrix";
    }
  }
  result.cache_hits = pager.hits();
  result.cache_misses = pager.misses();
  result.matrix_bytes_read = pager.bytes_read() - bytes_before;
  result.peak_resident_bytes = pager.peak_resident_bytes();
  if (ref != nullptr && static_cast<std::uint64_t>(
                            result.peak_resident_bytes) >
                            plan.cache_budget_bytes) {
    result.error = "block cache residency exceeded its budget";
  }
  return result;
}

JobResult RunJob(JobKind kind, const JobContext& ctx) {
  switch (kind) {
    case JobKind::kDist:
      return RunDistJob(ctx);
    case JobKind::kPoint:
      return RunPointJob(ctx);
    case JobKind::kAgg:
      return RunAggJob(ctx);
    case JobKind::kCorpus:
      return RunCorpusJob(ctx);
  }
  return JobResult{"unknown job kind"};
}

StatusOr<Inputs> MakeInputs(const WorkloadConfig& config, std::uint64_t seed,
                            const std::string& corpus_path) {
  Inputs inputs;
  inputs.lists = GenerateLists(config, seed);
  if (config.job == JobKind::kDist || config.job == JobKind::kAgg) {
    inputs.text = FormatBucketOrders(inputs.lists);
  }
  inputs.pairs = GeneratePairs(config.lists, kPointPairs, seed);
  if (config.job == JobKind::kCorpus) {
    StatusOr<CorpusPlan> plan = PlanCorpus(inputs.lists, corpus_path);
    if (!plan.ok()) return plan.status();
    inputs.corpus = std::move(*plan);
  }
  return inputs;
}

/// The reference answers, plus the set-up cross-check: a few seeded pairs
/// of the reference matrices against ComputeMetric and, for Kprof and
/// Fprof, against the O(n^2) oracles of src/ref. Call on a 1-lane pool.
Reference BuildReference(const WorkloadConfig& config, const Inputs& inputs,
                         std::vector<std::string>* errors) {
  Reference ref;
  for (const MetricKind kind : AllMetricKinds()) {
    ref.matrices.push_back(DistanceMatrix(kind, inputs.lists));
  }
  for (std::size_t p = 0; p < kCrossCheckPairs; ++p) {
    const BucketOrder& a = inputs.lists[inputs.pairs[p].first];
    const BucketOrder& b = inputs.lists[inputs.pairs[p].second];
    for (const MetricKind kind : AllMetricKinds()) {
      const double d = ref.matrices[KindIndex(kind)][inputs.pairs[p].first]
                                   [inputs.pairs[p].second];
      const bool has_oracle =
          kind == MetricKind::kKprof || kind == MetricKind::kFprof;
      if (d != ComputeMetric(kind, a, b) ||
          (has_oracle && d != ref::ComputeMetric(kind, a, b))) {
        errors->push_back(std::string("set-up cross-check failed for ") +
                          MetricName(kind));
      }
    }
  }
  std::string out;
  if (config.job == JobKind::kDist) {
    for (const MetricKind kind : AllMetricKinds()) {
      EmitMatrix(kind, ref.matrices[KindIndex(kind)], &out);
    }
  } else if (config.job == JobKind::kAgg) {
    std::int64_t accesses = 0;
    const Status status = AggPipeline(inputs.lists, nullptr, &out, &accesses);
    if (!status.ok()) errors->push_back(status.ToString());
  } else if (config.job == JobKind::kCorpus) {
    StatusOr<std::vector<std::int64_t>> scores =
        MedianRankScoresQuad(inputs.lists, kPolicy);
    if (!scores.ok()) {
      errors->push_back(scores.status().ToString());
    } else {
      ref.median_scores = std::move(*scores);
    }
  }
  ref.digest = Fnv64(out);
  return ref;
}

// --- Process measurements ---------------------------------------------------

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set of this process image, from VmHWM. Not ru_maxrss:
/// Linux carries that across exec, so it would report the parent's peak
/// when a large parent (a Python driver) forks and execs this binary.
double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return kNaN;
  char line[256];
  double kib = kNaN;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

// --- The traced run's per-layer report --------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Job id of repetition `rep` of the probe pass over pipeline `kind`.
std::int64_t ProbeJobId(JobKind kind, int rep) {
  return kProbeJobBase + static_cast<std::int64_t>(kind) * kProbeJobsPerKind +
         rep;
}

/// Per-job samples of one per-layer quantity, split by where they came
/// from: the timed loop's traced jobs, or probes. Probe samples of a layer
/// come only from the first probe pass that calls it, so a probe value
/// never mixes, say, the dist and the agg output formatting.
struct Samples {
  std::vector<double> loop;
  std::vector<double> probe;
  std::int64_t probe_pass = -1;

  void Add(std::int64_t job, double value) {
    if (job < kProbeJobBase) {
      loop.push_back(value);
      return;
    }
    const std::int64_t pass = (job - kProbeJobBase) / kProbeJobsPerKind;
    if (probe.empty()) probe_pass = pass;
    if (pass == probe_pass) probe.push_back(value);
  }

  /// The loop median when the workload's own job produced samples, else
  /// the probe median.
  double Value() const {
    return ValueOr(Median(loop.empty() ? probe : loop));
  }
};

class LayerReport {
 public:
  LayerReport(const WorkloadConfig& config, Inputs& inputs,
              const Reference& reference, std::size_t lanes,
              std::string probe_corpus_path)
      : config_(config),
        inputs_(inputs),
        reference_(reference),
        lanes_(lanes),
        probe_corpus_path_(std::move(probe_corpus_path)) {}

  ~LayerReport() { std::remove(probe_corpus_path_.c_str()); }
  LayerReport(const LayerReport&) = delete;
  LayerReport& operator=(const LayerReport&) = delete;

  /// Records the counters of a traced job.
  void AddJob(std::int64_t job, const JobResult& result) {
    if (result.medrank_accesses > 0) {
      samples_["medrank.sorted_accesses"].Add(
          job, static_cast<double>(result.medrank_accesses));
    }
    const std::int64_t lookups = result.cache_hits + result.cache_misses;
    if (lookups == 0) return;
    const double pairs = static_cast<double>(
        CheckedMul(CheckedChoose2(CheckedInt64(inputs_.lists.size())),
                   CheckedInt64(AllMetricKinds().size())));
    samples_["store.cache_hit_rate"].Add(
        job, static_cast<double>(result.cache_hits) /
                 static_cast<double>(lookups));
    samples_["store.cache_misses"].Add(
        job, static_cast<double>(result.cache_misses));
    samples_["store.bytes_read_per_pair"].Add(
        job, static_cast<double>(result.matrix_bytes_read) / pairs);
    samples_["store.peak_resident_kb"].Add(
        job, static_cast<double>(result.peak_resident_bytes) / 1024.0);
  }

  /// Out-of-loop probes: the pipelines the workload's own job does not
  /// run, on its own inputs; the serial kernels; the pool; a chunk sweep.
  void RunProbes(SpanRecorder& spans, std::vector<std::string>* errors) {
    if (inputs_.text.empty()) inputs_.text = FormatBucketOrders(inputs_.lists);
    if (inputs_.corpus.path.empty()) {
      StatusOr<CorpusPlan> plan = PlanCorpus(inputs_.lists, probe_corpus_path_);
      if (!plan.ok()) {
        errors->push_back(plan.status().ToString());
        return;
      }
      inputs_.corpus = std::move(*plan);
    }
    for (const JobKind kind : {JobKind::kDist, JobKind::kPoint, JobKind::kAgg,
                               JobKind::kCorpus}) {
      if (kind == config_.job) continue;
      for (int rep = 0; rep < kProbeReps; ++rep) {
        const std::int64_t job = ProbeJobId(kind, rep);
        spans.SetJob(job);
        const JobResult result =
            RunJob(kind, JobContext{inputs_, nullptr, &spans,
                                    static_cast<std::size_t>(rep)});
        if (!result.error.empty()) errors->push_back(result.error);
        AddJob(job, result);
      }
    }
    ProbeKernels(errors);
    ProbePool(errors);
    ProbeChunks(errors);
  }

  /// Folds the spans into per-job self times per span name.
  void AddSpans(const SpanRecorder& spans) {
    const std::vector<std::int64_t> self = spans.SelfNanos();
    std::map<std::string, std::map<std::int64_t, double>> per_job;
    for (std::size_t s = 0; s < self.size(); ++s) {
      const Span& span = spans.spans()[s];
      per_job[span.name][span.job] += static_cast<double>(self[s]) * 1e-6;
    }
    for (const auto& [name, jobs] : per_job) {
      for (const auto& [job, ms] : jobs) samples_[name].Add(job, ms);
    }
  }

  std::vector<Metric> Metrics(double overhead_pct) const {
    std::vector<Metric> m;
    const auto per_kind = [&](const char* prefix, const char* const* samples,
                              double scale, const char* unit) {
      for (const MetricKind kind : AllMetricKinds()) {
        m.push_back({std::string(prefix) + MetricName(kind),
                     Layer(samples[KindIndex(kind)]) * scale, unit});
      }
    };
    const double parse_ms = Layer("rank.parse");
    m.push_back({"rank.parse_ms", parse_ms, "ms"});
    m.push_back({"rank.parse_mb_per_s",
                 static_cast<double>(inputs_.text.size()) / 1e3 / parse_ms,
                 "MB/s"});
    m.push_back({"emit.ms", Layer("emit"), "ms"});
    per_kind("batch_engine.matrix_ms.", kMatrixSpan, 1.0, "ms");
    m.push_back({"prepared.freeze_us_per_list",
                 Layer("prepared.freeze_us_per_list"), "us"});
    per_kind("prepared.pair_us.", kKernelSamples, 1.0, "us");
    m.push_back({"thread_pool.dispatch_us", Layer("thread_pool.dispatch_us"),
                 "us"});
    const double serial_ms = Layer("thread_pool.job_ms.1");
    const double speedup_t4 = serial_ms / Layer("thread_pool.job_ms.4");
    m.push_back({"thread_pool.speedup_t2",
                 serial_ms / Layer("thread_pool.job_ms.2"), "ratio"});
    m.push_back({"thread_pool.speedup_t4", speedup_t4, "ratio"});
    m.push_back({"thread_pool.efficiency_t4", speedup_t4 / 4.0, "ratio"});
    per_kind("metric_registry.point_us.", kPointSpan, 1e3, "us");
    m.push_back({"median_rank.full_ms", Layer("median_rank.full"), "ms"});
    m.push_back({"median_rank.topk_ms", Layer("median_rank.topk"), "ms"});
    m.push_back({"median_rank.scores_ms", Layer("median_rank.scores"), "ms"});
    m.push_back({"medrank.ms", Layer("medrank"), "ms"});
    m.push_back({"medrank.sorted_accesses", Layer("medrank.sorted_accesses"),
                 "count"});
    m.push_back(
        {"optimal_bucketing.dp_ms", Layer("optimal_bucketing.dp"), "ms"});
    m.push_back({"cost.total_distance_ms", Layer("cost.total_distance"), "ms"});
    m.push_back({"best_input.ms", Layer("best_input"), "ms"});
    m.push_back({"store.write_ms", Layer("store.write"), "ms"});
    m.push_back({"store.bytes_per_cell",
                 static_cast<double>(inputs_.corpus.corpus_bytes) /
                     static_cast<double>(inputs_.lists.size() *
                                         inputs_.lists.front().n()),
                 "bytes"});
    m.push_back({"store.open_ms", Layer("store.open"), "ms"});
    m.push_back({"store.read_chunk_ms", Layer("store.read_chunk"), "ms"});
    m.push_back(
        {"store.cache_hit_rate", Layer("store.cache_hit_rate"), "ratio"});
    m.push_back({"store.cache_misses", Layer("store.cache_misses"), "count"});
    m.push_back({"store.bytes_read_per_pair",
                 Layer("store.bytes_read_per_pair"), "bytes"});
    m.push_back(
        {"store.peak_resident_kb", Layer("store.peak_resident_kb"), "KiB"});
    m.push_back({"outofcore.median_ms", Layer("outofcore.median"), "ms"});
    per_kind("outofcore.matrix_ms.", kOutOfCoreSpan, 1.0, "ms");
    for (const MetricKind kind : AllMetricKinds()) {
      m.push_back({std::string("outofcore.vs_ram.") + MetricName(kind),
                   Layer(kOutOfCoreSpan[KindIndex(kind)]) /
                       Layer(kMatrixSpan[KindIndex(kind)]),
                   "ratio"});
    }
    m.push_back(
        {"outofcore.prepare_chunk_ms", Layer("outofcore.prepare_chunk"), "ms"});
    m.push_back({"trace.overhead_pct", overhead_pct, "%"});
    return m;
  }

 private:
  static constexpr const char* kKernelSamples[] = {
      "prepared.pair_us.Kprof", "prepared.pair_us.Fprof",
      "prepared.pair_us.KHaus", "prepared.pair_us.FHaus"};

  double Layer(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? kNaN : it->second.Value();
  }

  void AddProbe(const std::string& name, double value) {
    samples_[name].probe.push_back(value);
  }

  /// Serial prepared kernels on a warm PairScratch, on the workload's own
  /// lists: the freeze cost per list and the cost per pair.
  void ProbeKernels(std::vector<std::string>* errors) {
    const std::vector<BucketOrder>& lists = inputs_.lists;
    std::vector<PreparedRanking> prepared(lists.size());
    for (int round = 0; round < kFreezeRounds; ++round) {
      Stopwatch watch;
      for (std::size_t i = 0; i < lists.size(); ++i) {
        prepared[i] = PreparedRanking(lists[i]);
      }
      AddProbe("prepared.freeze_us_per_list",
               watch.Seconds() * 1e6 / static_cast<double>(lists.size()));
    }
    PairScratch scratch;
    double sum = 0.0;  // uses every kernel result
    for (int round = 0; round < kProbeReps; ++round) {
      for (std::size_t p = 0; p < kKernelPairs; ++p) {
        const PreparedRanking& a = prepared[inputs_.pairs[p].first];
        const PreparedRanking& b = prepared[inputs_.pairs[p].second];
        for (const MetricKind kind : AllMetricKinds()) {
          Stopwatch watch;
          switch (kind) {
            case MetricKind::kKprof:
              sum += Kprof(a, b, scratch);
              break;
            case MetricKind::kFprof:
              sum += Fprof(a, b);
              break;
            case MetricKind::kKHaus:
              sum += static_cast<double>(KHausdorff(a, b, scratch));
              break;
            case MetricKind::kFHaus:
              sum += FHausdorff(a, b, scratch);
              break;
          }
          AddProbe(kKernelSamples[KindIndex(kind)], watch.Seconds() * 1e6);
        }
      }
    }
    if (!std::isfinite(sum)) errors->push_back("non-finite kernel distance");
  }

  /// An empty 4-chunk ParallelFor, and the workload's own job at 1, 2 and
  /// 4 lanes.
  void ProbePool(std::vector<std::string>* errors) {
    const std::function<void(std::size_t, std::size_t)> empty =
        [](std::size_t, std::size_t) {};
    for (int call = 0; call < kDispatchCalls; ++call) {
      Stopwatch watch;
      ThreadPool::Global().ParallelFor(0, 4, 1, empty);
      AddProbe("thread_pool.dispatch_us", watch.Seconds() * 1e6);
    }
    for (const std::size_t lanes : {1, 2, 4}) {
      ThreadPool::SetGlobalThreads(lanes);
      for (int j = 0; j < kScalingJobs; ++j) {
        Stopwatch watch;
        const JobResult result =
            RunJob(config_.job, JobContext{inputs_, &reference_, nullptr,
                                           static_cast<std::size_t>(j)});
        AddProbe("thread_pool.job_ms." + std::to_string(lanes),
                 watch.Millis());
        if (!result.error.empty()) errors->push_back(result.error);
      }
    }
    ThreadPool::SetGlobalThreads(lanes_);
  }

  /// A sequential sweep over the corpus chunks: decode alone, and decode
  /// plus the freeze the out-of-core matrix pays per chunk load.
  void ProbeChunks(std::vector<std::string>* errors) {
    StatusOr<store::CorpusReader> reader = store::CorpusReader::Open(
        inputs_.corpus.path, CacheOptions(inputs_.corpus));
    if (!reader.ok()) {
      errors->push_back(reader.status().ToString());
      return;
    }
    std::vector<BucketOrder> chunk;
    for (int round = 0; round < kProbeReps; ++round) {
      for (std::size_t c = 0; c < reader->num_chunks(); ++c) {
        Stopwatch watch;
        const Status status = reader->ReadChunk(c, &chunk);
        if (!status.ok()) {
          errors->push_back(status.ToString());
          return;
        }
        AddProbe("store.read_chunk", watch.Millis());
        std::vector<PreparedRanking> prepared;
        prepared.reserve(chunk.size());
        for (const BucketOrder& order : chunk) prepared.emplace_back(order);
        AddProbe("outofcore.prepare_chunk", watch.Millis());
      }
    }
  }

  const WorkloadConfig& config_;
  Inputs& inputs_;
  const Reference& reference_;
  std::size_t lanes_;
  std::string probe_corpus_path_;
  std::map<std::string, Samples> samples_;
};

// --- Command line and output ------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  std::string trace_out;
  std::string work_dir = ".";
};

std::optional<Options> ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--traced") {
      options.traced = true;
    } else if (flag == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (flag == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  if (!(options.seconds > 0.0)) return std::nullopt;
  return options;
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name> [--seed N] "
               "[--seconds S] [--work-dir DIR] [--traced [--trace-out FILE]]"
               "\nworkloads:",
               problem);
  for (const WorkloadConfig& config : kWorkloads) {
    std::fprintf(stderr, " %s", config.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void PrintNumber(double value) {
  if (std::isfinite(value)) {
    std::printf("%.17g", value);
  } else {
    std::printf("null");
  }
}

void PrintString(std::string_view text) {
  std::printf("\"");
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else {
      std::printf("%c", static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
  }
  std::printf("\"");
}

int Main(int argc, char** argv) {
  const std::optional<Options> options = ParseOptions(argc, argv);
  if (!options) return Usage("bad arguments");
  const WorkloadConfig* config = FindWorkload(options->workload);
  if (config == nullptr) return Usage("unknown workload");
  const std::size_t nproc = UsableCpus();
  const std::size_t lanes = std::min(kLanes, nproc);
  const std::string path_stem = options->work_dir + "/" + config->name + "-" +
                                std::to_string(::getpid());
  const std::string corpus_path = path_stem + ".rktc";

  // Set-up, several times over: generate the inputs, start the pool, run
  // the warm-up jobs. The 1-lane reference is computed once, untimed.
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  Inputs inputs;
  Reference reference;
  double check_s = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch watch;
    StatusOr<Inputs> made = MakeInputs(*config, options->seed, corpus_path);
    if (!made.ok()) {
      std::fprintf(stderr, "bench_e2e: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    inputs = std::move(*made);
    double seconds = watch.Seconds();
    if (rep == 0) {
      Stopwatch check;
      ThreadPool::SetGlobalThreads(1);
      reference = BuildReference(*config, inputs, &errors);
      check_s = check.Seconds();
    }
    watch.Reset();
    ThreadPool::SetGlobalThreads(lanes);
    for (int w = 0; w < config->warmup_jobs; ++w) {
      const JobResult result =
          RunJob(config->job, JobContext{inputs, &reference, nullptr,
                                         static_cast<std::size_t>(w)});
      if (!result.error.empty()) errors.push_back(result.error);
    }
    setup_s.push_back(seconds + watch.Seconds());
  }

  // The timed closed loop. In the traced run every other job is traced,
  // so the untraced half gives the tracing overhead.
  SpanRecorder spans(options->traced ? kSpanCapacity : 0);
  LayerReport layers(*config, inputs, reference, lanes,
                     path_stem + "-probe.rktc");
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const double cpu_before = CpuSeconds();
  Stopwatch wall;
  for (std::size_t job = 0;
       wall.Seconds() < options->seconds || attempted < kMinTimedJobs; ++job) {
    const bool traced =
        options->traced && job % 2 == 1 && spans.HasRoom(kProbeSpanRoom);
    spans.SetJob(static_cast<std::int64_t>(job));
    Stopwatch watch;
    const JobResult result = RunJob(
        config->job,
        JobContext{inputs, &reference, traced ? &spans : nullptr, job});
    (traced ? traced_ms : plain_ms).push_back(watch.Millis());
    ++attempted;
    if (!result.error.empty()) {
      ++failed;
      if (errors.size() < 8) errors.push_back(result.error);
    }
    if (traced) layers.AddJob(static_cast<std::int64_t>(job), result);
  }
  const double wall_s = wall.Seconds();
  const double cpu_s = CpuSeconds() - cpu_before;
  const double peak_rss_mib = PeakRssMiB();

  std::vector<Metric> metrics;
  std::string trace_file;
  if (options->traced) {
    layers.RunProbes(spans, &errors);
    layers.AddSpans(spans);
    metrics = layers.Metrics(
        (ValueOr(Median(traced_ms)) / ValueOr(Median(plain_ms)) - 1.0) *
        100.0);
    if (!options->trace_out.empty()) {
      if (spans.WriteChromeTrace(options->trace_out)) {
        trace_file = options->trace_out;
      } else {
        errors.push_back("cannot write " + options->trace_out);
      }
    }
  } else {
    metrics = {
        {"job_p50_ms", ValueOr(TailPercentile(plain_ms, 0.5)), "ms"},
        {"jobs_per_s", static_cast<double>(attempted - failed) / wall_s,
         "1/s"},
        {"cpu_ms_per_job", cpu_s * 1e3 / static_cast<double>(attempted),
         "ms"},
        {"peak_rss_mb", peak_rss_mib, "MiB"},
        {"setup_s", ValueOr(Median(setup_s)), "s"},
    };
  }
  std::remove(corpus_path.c_str());

  std::printf("{\"schema\":\"rankties-e2e-v1\",\"header\":{\"workload\":");
  PrintString(config->name);
  std::printf(",\"nproc\":%zu,\"compiler\":", nproc);
  PrintString(RANKTIES_E2E_COMPILER_ID " " RANKTIES_E2E_COMPILER_VERSION);
  std::printf(",\"build_type\":");
  PrintString(RANKTIES_E2E_BUILD_TYPE);
  std::printf(",\"simd\":");
  PrintString(simd::LevelName(simd::ActiveLevel()));
  std::printf(",\"seed\":%llu,\"threads\":%zu,\"run_seconds\":",
              static_cast<unsigned long long>(options->seed), lanes);
  PrintNumber(options->seconds);
  std::printf("},\"traced\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"failed_frac\":",
              options->traced ? "true" : "false", attempted, failed);
  PrintNumber(static_cast<double>(failed) / static_cast<double>(attempted));
  // Reported beside the metrics, not among them: on a shared host the tail
  // moves more between runs of the same code than any regression bound.
  std::printf(",\"job_p90_ms\":");
  PrintNumber(ValueOr(TailPercentile(plain_ms, 0.9)));
  std::printf(",\"timed_s\":");
  PrintNumber(wall_s);
  std::printf(",\"check_s\":");
  PrintNumber(check_s);
  if (options->traced) {
    std::printf(",\"spans\":%zu,\"spans_dropped\":%zu,\"trace_file\":",
                spans.spans().size(), spans.dropped());
    PrintString(trace_file);
  }
  std::printf(",\"errors\":[");
  for (std::size_t e = 0; e < errors.size(); ++e) {
    if (e != 0) std::printf(",");
    PrintString(errors[e]);
  }
  std::printf("],\"metrics\":{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) std::printf(",");
    PrintString(metrics[i].name);
    std::printf(":{\"value\":");
    PrintNumber(metrics[i].value);
    std::printf(",\"unit\":");
    PrintString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return errors.empty() && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rankties::e2e

int main(int argc, char** argv) { return rankties::e2e::Main(argc, argv); }
