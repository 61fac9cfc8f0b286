// Tests for the export formats (src/obs/export.h): JSON and OpenMetrics
// escaping round-trips for hostile metric names (quotes, backslashes,
// control bytes, UTF-8), cumulative-histogram validity, the Perfetto
// document rendered from the flight rings, and valid-but-empty output when
// nothing was recorded.

#include <gtest/gtest.h>

#include <string>

#include "obs/obs.h"

namespace rankties {
namespace {

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

// Balanced braces/brackets outside strings — the realistic failure mode of
// a hand-rolled emitter (same check as obs_test.cc).
bool BalancedJson(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

class ExportFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().ResetAll();
    obs::SloRegistry::Global().ResetAll();
    obs::FlightRecorder::Global().Clear();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::FlightRecorder::Global().SetEnabled(false);
    obs::FlightRecorder::Global().Clear();
    obs::SloRegistry::Global().ResetAll();
  }
};

TEST_F(ExportFormatTest, JsonEscapesHostileMetricNames) {
  // Registry names are arbitrary strings; the JSON emitters must escape
  // them rather than trust the lowercase.dotted convention.
  obs::GetCounter("test.export.quote\"backslash\\tab\tnewline\n")->Add(3);
  obs::GetCounter(std::string("test.export.ctrl\x01") + "byte")->Add(4);
  obs::GetCounter("test.export.utf8.\xc3\xa9\xe2\x82\xac")->Add(5);
  const std::string metrics = obs::MetricsJsonObject();
  EXPECT_TRUE(BalancedJson(metrics)) << metrics;
  EXPECT_TRUE(
      Contains(metrics, "test.export.quote\\\"backslash\\\\tab\\tnewline\\n"));
  EXPECT_TRUE(Contains(metrics, "test.export.ctrl\\u0001byte"));
  // Multi-byte UTF-8 passes through verbatim.
  EXPECT_TRUE(Contains(metrics, "test.export.utf8.\xc3\xa9\xe2\x82\xac"));
}

TEST_F(ExportFormatTest, OpenMetricsEscapesLabelValues) {
  obs::GetCounter("test.export.om\"quote\\slash\nline")->Add(7);
  obs::GetCounter("test.export.om.utf8.\xc3\xa9")->Add(8);
  const std::string text = obs::OpenMetricsText();
  // OpenMetrics label escaping: \\ for backslash, \" for quote, \n for
  // newline — and nothing else.
  EXPECT_TRUE(Contains(
      text,
      "rankties_counter_total{name=\"test.export.om\\\"quote\\\\slash\\n"
      "line\"} 7"));
  EXPECT_TRUE(Contains(
      text, "rankties_counter_total{name=\"test.export.om.utf8.\xc3\xa9\"} 8"));
  // No raw newline may survive inside a label value: every exposition line
  // must start with a family name or a comment.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!line.empty()) {
      EXPECT_TRUE(line[0] == '#' || Contains(line, "rankties_")) << line;
    }
    start = end + 1;
  }
  EXPECT_TRUE(text.size() >= 6 && text.compare(text.size() - 6, 6,
                                               "# EOF\n") == 0);
}

TEST_F(ExportFormatTest, OpenMetricsHistogramIsCumulative) {
  obs::Histogram* histogram = obs::GetHistogram("test.export.histogram");
  histogram->Record(1);   // bucket edge 1
  histogram->Record(5);   // bucket edge 7
  histogram->Record(6);   // bucket edge 7
  histogram->Record(100);  // bucket edge 127
  const std::string text = obs::OpenMetricsText();
  const std::string id = "{name=\"test.export.histogram\"";
  EXPECT_TRUE(
      Contains(text, "rankties_histogram_bucket" + id + ",le=\"1\"} 1"));
  EXPECT_TRUE(
      Contains(text, "rankties_histogram_bucket" + id + ",le=\"7\"} 3"));
  EXPECT_TRUE(
      Contains(text, "rankties_histogram_bucket" + id + ",le=\"127\"} 4"));
  EXPECT_TRUE(
      Contains(text, "rankties_histogram_bucket" + id + ",le=\"+Inf\"} 4"));
  EXPECT_TRUE(Contains(text, "rankties_histogram_sum" + id + "} 112"));
  EXPECT_TRUE(Contains(text, "rankties_histogram_count" + id + "} 4"));
}

TEST_F(ExportFormatTest, OpenMetricsCarriesQueryUnits) {
  obs::Counter* counter = obs::GetCounter("test.export.unit_cost");
  {
    obs::QueryUnitScope unit("test.export.unit");
    counter->Add(21);
  }
  const std::string text = obs::OpenMetricsText();
  EXPECT_TRUE(Contains(
      text, "rankties_query_unit_queries_total{unit=\"test.export.unit\"} 1"));
  EXPECT_TRUE(Contains(
      text,
      "rankties_query_unit_cost_total{unit=\"test.export.unit\","
      "counter=\"test.export.unit_cost\"} 21"));
  EXPECT_TRUE(Contains(
      text,
      "rankties_query_unit_cost_max{unit=\"test.export.unit\","
      "counter=\"test.export.unit_cost\"} 21"));
  EXPECT_FALSE(Contains(text, "rankties_slo_"));
}

TEST_F(ExportFormatTest, PerfettoRendersSpansAndPointEventsFromTheRings) {
  obs::FlightRecorder::Global().SetEnabled(true);
  {
    obs::FlightSpan span(obs::FlightEventId::kTaRun);
    span.SetArgs(4, 17, 6);
    obs::FlightRecord(obs::FlightEventId::kOnlineMedianAdd, 2, 9);
  }
  obs::FlightRecorder::Global().SetEnabled(false);
  const std::string doc = obs::PerfettoJsonDocument();
  EXPECT_TRUE(BalancedJson(doc)) << doc;
  EXPECT_TRUE(Contains(doc, "\"displayTimeUnit\": \"ns\""));
  EXPECT_TRUE(
      Contains(doc, "\"otherData\": {\"dropped\": 0, \"overwritten\": 0}"));
  EXPECT_TRUE(Contains(doc, "\"ph\": \"M\""));
  EXPECT_TRUE(Contains(doc, "\"process_name\""));
  // The span is a complete event with a duration...
  EXPECT_TRUE(Contains(doc, "{\"ph\": \"X\", \"cat\": \"rankties\""));
  EXPECT_TRUE(Contains(doc, "\"name\": \"access.ta.run\""));
  EXPECT_TRUE(Contains(doc, "\"dur\": "));
  EXPECT_TRUE(
      Contains(doc, "\"args\": {\"k\": 4, \"sorted\": 17, \"random\": 6}"));
  // ...the point event a thread-scoped instant with its named args only.
  EXPECT_TRUE(Contains(doc, "{\"ph\": \"i\", \"s\": \"t\""));
  EXPECT_TRUE(Contains(doc, "\"name\": \"online_median.add_voter\""));
  EXPECT_TRUE(Contains(doc, "\"args\": {\"voter\": 2, \"n\": 9}"));
}

TEST_F(ExportFormatTest, EmptyDocumentsStayValid) {
  const std::string om = obs::OpenMetricsText();
  EXPECT_TRUE(Contains(om, "# TYPE rankties_counter counter"));
  EXPECT_TRUE(om.size() >= 6 &&
              om.compare(om.size() - 6, 6, "# EOF\n") == 0);
  EXPECT_TRUE(BalancedJson(obs::PerfettoJsonDocument()));
  EXPECT_TRUE(BalancedJson(obs::MetricsJsonObject()));
}

}  // namespace
}  // namespace rankties
