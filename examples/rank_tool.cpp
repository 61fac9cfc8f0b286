// rank_tool: a small command-line front end over the library, so the
// paper's machinery can be driven from shell scripts without writing C++.
//
// Usage:
//   rank_tool [--threads N] [--trace=<file>] [--metrics]
//             [--metrics-out <file>] [--openmetrics=<file>] <command> ...
//
//   --threads N sets the worker count for the batch metric engine (dist and
//   agg use it); it overrides the RANKTIES_THREADS environment variable.
//   --trace=<file> enables the flight recorder during the command and
//   writes its events as Chrome trace-event JSON to <file> (loads in
//   ui.perfetto.dev / chrome://tracing; see docs/OBSERVABILITY.md).
//   --metrics enables metric collection and prints the counter/histogram
//   snapshot as one JSON object on stdout after the command output.
//   --metrics-out <file> writes the same bare metrics JSON object to <file>.
//   --openmetrics=<file> writes an OpenMetrics text exposition (counters,
//   histograms, query-unit costs) to <file>.
//   The command runs inside a "rank_tool.<command>" query unit, so the
//   OpenMetrics export carries its attributed costs. Any failed export
//   write makes the exit status nonzero.
//
//   rank_tool dist <file>              pairwise distance matrices (all four
//                                      metrics) over the bucket orders in
//                                      <file>, one per line: "[0 1 | 2]"
//   rank_tool agg <file> [k]           median aggregation (full ranking,
//                                      top-k list if k given, and f-dagger)
//   rank_tool gen <n> <m> [phi [t]]    emit m random bucket orders on n
//                                      elements (quantized Mallows with
//                                      dispersion 0 < phi <= 1 into
//                                      1 <= t <= n buckets, by default
//                                      min(n, max(2, n/4)); plain uniform if
//                                      phi omitted)
//   rank_tool query <csv> <schema> <q> preference query over a CSV table.
//                                      <schema> is comma-separated
//                                      name=num|cat pairs; <q> uses the
//                                      query syntax of db/query_parser.h,
//                                      e.g. "price:asc~50 stars:desc"
//
// Example:
//   rank_tool gen 10 5 0.5 4 > voters.txt
//   rank_tool dist voters.txt
//   rank_tool agg voters.txt 3

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "rankties.h"

using namespace rankties;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "rank_tool: %s\n", message.c_str());
  return 1;
}

// A decimal integer spanning the whole token and at least `min`.
std::optional<long long> ParseIntArg(const char* text, long long min) {
  long long value = 0;
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end || value < min) return std::nullopt;
  return value;
}

StatusOr<std::vector<BucketOrder>> LoadOrders(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  StatusOr<std::vector<BucketOrder>> orders = ParseBucketOrders(buffer.str());
  if (!orders.ok()) return orders.status();
  if (orders->empty()) return Status::InvalidArgument("no bucket orders");
  const std::size_t n = orders->front().n();
  for (const BucketOrder& order : *orders) {
    if (order.n() != n) {
      return Status::InvalidArgument("domain sizes differ between lines");
    }
  }
  return orders;
}

int CmdDist(const std::string& path) {
  auto orders = LoadOrders(path);
  if (!orders.ok()) return Fail(orders.status().ToString());
  for (MetricKind kind : AllMetricKinds()) {
    std::printf("# %s\n", MetricName(kind));
    const std::vector<std::vector<double>> matrix =
        DistanceMatrix(kind, *orders);
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      for (std::size_t j = 0; j < matrix[i].size(); ++j) {
        std::printf("%s%.1f", j ? "\t" : "", matrix[i][j]);
      }
      std::printf("\n");
    }
  }
  return 0;
}

int CmdAgg(const std::string& path, int k) {
  auto orders = LoadOrders(path);
  if (!orders.ok()) return Fail(orders.status().ToString());
  // One median pass: the full ranking (Theorem 11), the top-k list
  // (Theorem 9) and f-dagger (Theorem 10) all come from these scores.
  auto scores = MedianRankScoresQuad(*orders, MedianPolicy::kLower);
  if (!scores.ok()) return Fail(scores.status().ToString());
  const Permutation full =
      BucketOrder::FromIntKeys(*scores).CanonicalRefinement();
  std::printf("median full ranking: %s\n", full.ToString().c_str());
  if (k > 0) {
    const auto top = static_cast<std::size_t>(k);
    if (top > full.n()) {
      return Fail(Status::InvalidArgument("k exceeds domain size").ToString());
    }
    const BucketOrder topk = BucketOrder::TopKOf(full, top);
    std::printf("median top-%d      : %s\n", k, topk.ToString().c_str());
    auto medrank = MedrankTopK(*orders, top);
    if (!medrank.ok()) return Fail(medrank.status().ToString());
    std::string winners;
    for (ElementId w : medrank->winners) {
      winners += (winners.empty() ? "" : " ") + std::to_string(w);
    }
    std::printf(
        "medrank top-%d     : [%s] (%lld sorted accesses, depth %lld)\n",
        k, winners.c_str(),
                static_cast<long long>(medrank->total_accesses),
                static_cast<long long>(medrank->depth));
  }
  auto fdagger = OptimalBucketing(*scores);
  if (!fdagger.ok()) return Fail(fdagger.status().ToString());
  std::printf("f-dagger           : %s\n", fdagger->order.ToString().c_str());
  std::printf("sum Fprof: full=%.1f f-dagger=%.1f best-input=%.1f\n",
              TotalDistance(MetricKind::kFprof,
                            BucketOrder::FromPermutation(full), *orders),
              TotalDistance(MetricKind::kFprof, fdagger->order, *orders),
              BestInputAggregate(*orders, MetricKind::kFprof)->total_cost);
  return 0;
}

int CmdGen(int argc, char** argv) {
  if (argc < 4) return Fail("gen needs <n> <m>");
  const std::optional<long long> n_arg = ParseIntArg(argv[2], 1);
  const std::optional<long long> m_arg = ParseIntArg(argv[3], 1);
  if (!n_arg || !m_arg) return Fail("n and m must be integers >= 1");
  double phi = 0;  // 0: uniform orders
  if (argc > 4) {
    const char* end = argv[4] + std::strlen(argv[4]);
    const auto [stop, error] = std::from_chars(argv[4], end, phi);
    if (error != std::errc() || stop != end || !(phi > 0 && phi <= 1)) {
      return Fail("phi must be a number in (0, 1]");
    }
  }
  const std::optional<long long> t_arg =
      argc > 5 ? ParseIntArg(argv[5], 1)
               : std::min(*n_arg, std::max(2LL, *n_arg / 4));
  if (!t_arg || *t_arg > *n_arg) return Fail("t must be an integer in [1, n]");
  const std::size_t n = static_cast<std::size_t>(*n_arg);
  const std::size_t m = static_cast<std::size_t>(*m_arg);
  const std::size_t t = static_cast<std::size_t>(*t_arg);
  Rng rng(static_cast<std::uint64_t>(n * 1000003 + m));
  const Permutation center = Permutation::Random(n, rng);
  std::vector<BucketOrder> orders;
  for (std::size_t i = 0; i < m; ++i) {
    if (phi > 0) {
      orders.push_back(QuantizedMallows(center, phi, t, rng));
    } else {
      orders.push_back(RandomBucketOrder(n, rng));
    }
  }
  std::printf("%s", FormatBucketOrders(orders).c_str());
  return 0;
}

StatusOr<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Column> columns;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected name=num|cat in '" + item +
                                     "'");
    }
    const std::string kind = item.substr(eq + 1);
    Column column;
    column.name = item.substr(0, eq);
    if (kind == "num") {
      column.type = ColumnType::kNumeric;
    } else if (kind == "cat") {
      column.type = ColumnType::kCategorical;
    } else {
      return Status::InvalidArgument("column kind must be num or cat in '" +
                                     item + "'");
    }
    columns.push_back(std::move(column));
  }
  if (columns.empty()) return Status::InvalidArgument("empty schema spec");
  return Schema(std::move(columns));
}

int CmdQuery(const std::string& csv_path, const std::string& schema_spec,
             const std::string& query_text) {
  auto schema = ParseSchemaSpec(schema_spec);
  if (!schema.ok()) return Fail(schema.status().ToString());
  std::ifstream in(csv_path);
  if (!in) return Fail("cannot open '" + csv_path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto table = Table::FromCsv(*schema, buffer.str());
  if (!table.ok()) return Fail(table.status().ToString());
  auto prefs = ParsePreferences(*schema, query_text);
  if (!prefs.ok()) return Fail(prefs.status().ToString());

  PreferenceQuery query(*table);
  for (const AttributePreference& pref : *prefs) query.Add(pref);
  auto result = query.TopK(10);
  if (!result.ok()) return Fail(result.status().ToString());
  std::printf("top rows (best first):\n");
  for (ElementId row : result->top_rows) {
    std::printf("  #%-6d", row);
    for (std::size_t c = 0; c < schema->num_columns(); ++c) {
      std::printf(" %s=%s", schema->column(c).name.c_str(),
                  table->At(static_cast<std::size_t>(row), c)
                      .ToString()
                      .c_str());
    }
    std::printf("\n");
  }
  auto online = query.TopKMedrank(10);
  if (online.ok()) {
    std::printf("(MEDRANK path used %lld sorted accesses of %zu possible)\n",
                static_cast<long long>(online->sorted_accesses),
                prefs->size() * table->num_rows());
  }
  return 0;
}

}  // namespace

namespace {

int Dispatch(int argc, char** argv) {
  if (argc < 2) {
    return Fail(
        "usage: rank_tool [--threads N] [--trace=<file>] [--metrics] "
        "dist|agg|gen|query ... (see file header)");
  }
  const std::string cmd = argv[1];
  if (cmd == "dist") {
    if (argc < 3) return Fail("dist needs a file");
    return CmdDist(argv[2]);
  }
  if (cmd == "agg") {
    if (argc < 3) return Fail("agg needs a file");
    const std::optional<long long> k =
        argc > 3 ? ParseIntArg(argv[3], 0) : std::optional<long long>(0);
    if (!k || *k > std::numeric_limits<int>::max()) {
      return Fail("k must be an integer >= 0");
    }
    return CmdAgg(argv[2], static_cast<int>(*k));
  }
  if (cmd == "gen") {
    return CmdGen(argc, argv);
  }
  if (cmd == "query") {
    if (argc < 5) return Fail("query needs <csv> <schema> <query>");
    return CmdQuery(argv[2], argv[3], argv[4]);
  }
  return Fail("unknown command '" + cmd + "'");
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the global flags before command dispatch.
  std::string trace_path;
  std::string metrics_out_path;
  std::string openmetrics_path;
  bool print_metrics = false;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    const std::string flag = argv[arg];
    if (flag == "--threads") {
      if (arg + 1 >= argc) return Fail("--threads needs a worker count");
      const std::size_t threads = ThreadPool::ParseThreadsSpec(argv[arg + 1]);
      if (threads == 0) {
        return Fail("invalid --threads value '" + std::string(argv[arg + 1]) +
                    "'");
      }
      ThreadPool::SetGlobalThreads(threads);
      arg += 2;
    } else if (flag.rfind("--trace=", 0) == 0) {
      trace_path = flag.substr(8);
      if (trace_path.empty()) return Fail("--trace needs a file path");
      arg += 1;
    } else if (flag == "--metrics") {
      print_metrics = true;
      arg += 1;
    } else if (flag == "--metrics-out") {
      if (arg + 1 >= argc) return Fail("--metrics-out needs a file path");
      metrics_out_path = argv[arg + 1];
      arg += 2;
    } else if (flag.rfind("--openmetrics=", 0) == 0) {
      openmetrics_path = flag.substr(14);
      if (openmetrics_path.empty()) {
        return Fail("--openmetrics needs a file path");
      }
      arg += 1;
    } else {
      return Fail("unknown flag '" + flag + "'");
    }
  }
  const bool want_metrics = print_metrics || !metrics_out_path.empty() ||
                            !openmetrics_path.empty();
  if (want_metrics) obs::SetEnabled(true);
  if (!trace_path.empty()) obs::FlightRecorder::Global().SetEnabled(true);

  int rc;
  {
    // Attribute the whole command to one query unit so per-command costs
    // show up in the OpenMetrics export.
    const char* cmd = arg < argc ? argv[arg] : "none";
    // Unit name is dynamic by design: one unit per CLI command.
    obs::QueryUnitScope unit(  // rankties-lint: allow(RT007)
        std::string("rank_tool.") + cmd);
    rc = Dispatch(argc - (arg - 1), argv + (arg - 1));
  }

  obs::FlightRecorder::Global().SetEnabled(false);
  bool export_failed = false;
  if (!trace_path.empty() && !obs::WritePerfettoJson(trace_path)) {
    Fail("cannot write trace to '" + trace_path + "'");
    export_failed = true;
  }
  if (!metrics_out_path.empty() && !obs::WriteMetricsJson(metrics_out_path)) {
    Fail("cannot write metrics to '" + metrics_out_path + "'");
    export_failed = true;
  }
  if (!openmetrics_path.empty() && !obs::WriteOpenMetrics(openmetrics_path)) {
    Fail("cannot write openmetrics to '" + openmetrics_path + "'");
    export_failed = true;
  }
  if (print_metrics) {
    std::printf("%s\n", obs::MetricsJsonObject().c_str());
  }
  if (export_failed && rc == 0) rc = 1;
  return rc;
}
