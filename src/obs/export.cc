#include "obs/export.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace rankties {
namespace obs {

namespace {

/// JSON string-body escaping: the two mandatory escapes, the common
/// whitespace shorthands, and \u00XX for the remaining control bytes.
/// Everything else (including multi-byte UTF-8) passes through verbatim.
void AppendEscaped(std::string& out, const std::string& raw) {
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
}

void AppendInt(std::string& out, std::int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld",
                static_cast<long long>(value));
  out += buffer;
}

void AppendNum(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out += buffer;
}

/// Non-negative `ns` as exact decimal microseconds ("12.345"), the
/// trace-event unit; a double would round steady-clock readings of a
/// long-running host.
void AppendMicros(std::string& out, std::int64_t ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buffer;
}

void AppendMetricsObject(std::string& out) {
  const std::vector<CounterSnapshot> counters =
      Registry::Global().CounterSnapshots();
  const std::vector<HistogramSnapshot> histograms =
      Registry::Global().HistogramSnapshots();
  out += "{\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ", ";
    out += "\"";
    AppendEscaped(out, counters[i].name);
    out += "\": ";
    AppendInt(out, counters[i].value);
  }
  out += "}, \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i) out += ", ";
    out += "\"";
    AppendEscaped(out, h.name);
    out += "\": {\"count\": ";
    AppendInt(out, h.count);
    out += ", \"sum\": ";
    AppendInt(out, h.sum);
    out += ", \"mean\": ";
    AppendNum(out, h.Mean());
    out += ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += "[";
      AppendInt(out, Histogram::BucketUpperEdge(b));
      out += ", ";
      AppendInt(out, h.buckets[b]);
      out += "]";
    }
    out += "]}";
  }
  out += "}}";
}

/// OpenMetrics label-value escaping: backslash, double quote, newline.
void AppendOmLabelValue(std::string& out, const std::string& raw) {
  for (const char c : raw) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
}

/// One `family{label="value", ...} number` exposition line.
void AppendOmSample(
    std::string& out, const char* family,
    const std::vector<std::pair<const char*, std::string>>& labels,
    std::int64_t value) {
  out += family;
  out += "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first;
    out += "=\"";
    AppendOmLabelValue(out, labels[i].second);
    out += "\"";
  }
  out += "} ";
  AppendInt(out, value);
  out += "\n";
}

/// Cumulative histogram exposition under `family` with an extra
/// identifying label (name= or unit=): _bucket lines ending at le="+Inf",
/// then _sum and _count.
void AppendOmHistogram(
    std::string& out, const char* family, const char* id_label,
    const std::string& id_value,
    const std::array<std::int64_t, kHistogramBuckets>& buckets,
    std::int64_t count, std::int64_t sum) {
  std::int64_t cumulative = 0;
  std::string bucket_family = std::string(family) + "_bucket";
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;  // sparse: only buckets that moved
    cumulative += buckets[b];
    char le[32];
    std::snprintf(le, sizeof(le), "%lld",
                  static_cast<long long>(Histogram::BucketUpperEdge(b)));
    AppendOmSample(out, bucket_family.c_str(),
                   {{id_label, id_value}, {"le", le}}, cumulative);
  }
  AppendOmSample(out, bucket_family.c_str(),
                 {{id_label, id_value}, {"le", "+Inf"}}, count);
  AppendOmSample(out, (std::string(family) + "_sum").c_str(),
                 {{id_label, id_value}}, sum);
  AppendOmSample(out, (std::string(family) + "_count").c_str(),
                 {{id_label, id_value}}, count);
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), out);
  if (written != content.size()) {
    std::fclose(out);
    return false;
  }
  return std::fclose(out) == 0;
}

}  // namespace

std::string MetricsJsonObject() {
  std::string out;
  AppendMetricsObject(out);
  return out;
}

std::string OpenMetricsText() {
  std::string out;
  out += "# TYPE rankties_counter counter\n";
  out += "# HELP rankties_counter Registry counters; the rankties name is "
         "the name label.\n";
  for (const CounterSnapshot& counter :
       Registry::Global().CounterSnapshots()) {
    AppendOmSample(out, "rankties_counter_total", {{"name", counter.name}},
                   counter.value);
  }
  out += "# TYPE rankties_histogram histogram\n";
  out += "# HELP rankties_histogram Registry histograms (log2 buckets, "
         "inclusive integer upper edges).\n";
  for (const HistogramSnapshot& histogram :
       Registry::Global().HistogramSnapshots()) {
    AppendOmHistogram(out, "rankties_histogram", "name", histogram.name,
                      histogram.buckets, histogram.count, histogram.sum);
  }
  const std::vector<QueryUnitSnapshot> units =
      SloRegistry::Global().UnitSnapshots();
  out += "# TYPE rankties_query_unit_queries counter\n";
  for (const QueryUnitSnapshot& unit : units) {
    AppendOmSample(out, "rankties_query_unit_queries_total",
                   {{"unit", unit.unit}}, unit.queries);
  }
  out += "# TYPE rankties_query_unit_latency_ns histogram\n";
  for (const QueryUnitSnapshot& unit : units) {
    AppendOmHistogram(out, "rankties_query_unit_latency_ns", "unit",
                      unit.unit, unit.latency_buckets, unit.queries,
                      unit.latency_sum_ns);
  }
  out += "# TYPE rankties_query_unit_cost counter\n";
  out += "# HELP rankties_query_unit_cost Counter increments attributed to "
         "the unit (Section 6 access costs and friends).\n";
  out += "# TYPE rankties_query_unit_cost_max gauge\n";
  for (const QueryUnitSnapshot& unit : units) {
    for (const QueryUnitCounterCost& cost : unit.costs) {
      AppendOmSample(out, "rankties_query_unit_cost_total",
                     {{"unit", unit.unit}, {"counter", cost.counter}},
                     cost.total);
      AppendOmSample(out, "rankties_query_unit_cost_max",
                     {{"unit", unit.unit}, {"counter", cost.counter}},
                     cost.max_per_query);
    }
  }
  out += "# EOF\n";
  return out;
}

std::string PerfettoJsonDocument() {
  const FlightRecorder& recorder = FlightRecorder::Global();
  const std::vector<FlightEvent> events = recorder.Drain();
  std::string out;
  out.reserve(256 + events.size() * 160);
  out += "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"dropped\": ";
  AppendInt(out, recorder.dropped());
  out += ", \"overwritten\": ";
  AppendInt(out, recorder.overwritten());
  out += "}, \"traceEvents\": [\n";
  out += "  {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"rankties\"}}";
  for (const FlightEvent& event : events) {
    const auto id = static_cast<FlightEventId>(event.event);
    // Spans are complete ("X") events; point events are thread-scoped
    // instants ("i").
    out += event.is_span() ? ",\n  {\"ph\": \"X\""
                           : ",\n  {\"ph\": \"i\", \"s\": \"t\"";
    out += ", \"cat\": \"rankties\", \"pid\": 1, \"tid\": ";
    AppendInt(out, static_cast<std::int64_t>(event.thread));
    out += ", \"name\": \"";
    AppendEscaped(out, FlightEventName(id));
    out += "\", \"ts\": ";
    AppendMicros(out, event.ts_ns);
    if (event.is_span()) {
      out += ", \"dur\": ";
      AppendMicros(out, event.dur_ns);
    }
    out += ", \"args\": {";
    bool first = true;
    for (std::size_t i = 0; i < event.args.size(); ++i) {
      const char* arg = FlightEventArgName(id, i);
      if (arg == nullptr) continue;
      if (!first) out += ", ";
      first = false;
      out += "\"";
      out += arg;
      out += "\": ";
      AppendInt(out, event.args[i]);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool WriteMetricsJson(const std::string& path) {
  return WriteTextFile(path, MetricsJsonObject() + "\n");
}

bool WriteOpenMetrics(const std::string& path) {
  return WriteTextFile(path, OpenMetricsText());
}

bool WritePerfettoJson(const std::string& path) {
  return WriteTextFile(path, PerfettoJsonDocument());
}

}  // namespace obs
}  // namespace rankties
