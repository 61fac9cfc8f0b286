// Tests for the src/obs observability subsystem: counter/histogram
// exactness under concurrent writers, flight-span nesting, JSON export
// round-trip, and the runtime-disabled / compiled-out behavior. The whole
// file compiles in both build modes; tests that need live collection are
// gated on RANKTIES_OBS_DISABLED and replaced by no-op-behavior checks
// there.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace rankties {
namespace {

// Minimal structural JSON sanity check: balanced braces/brackets outside
// strings. The exporter is hand-rolled, so malformed nesting is the
// realistic failure mode.
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

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

#ifndef RANKTIES_OBS_DISABLED

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().ResetAll();
    obs::FlightRecorder::Global().Clear();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::FlightRecorder::Global().SetEnabled(false);
    obs::FlightRecorder::Global().Clear();
  }
};

TEST_F(ObsTest, CounterExactUnderConcurrentWriters) {
  obs::Counter* counter = obs::GetCounter("test.concurrent_counter");
  constexpr int kThreads = 4;
  constexpr std::int64_t kIncrements = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (std::int64_t i = 0; i < kIncrements; ++i) counter->Add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), kThreads * kIncrements);
}

TEST_F(ObsTest, HistogramExactUnderConcurrentWriters) {
  obs::Histogram* histogram = obs::GetHistogram("test.concurrent_histogram");
  constexpr int kThreads = 4;
  constexpr std::int64_t kRecords = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (std::int64_t i = 0; i < kRecords; ++i) histogram->Record(i % 7);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const obs::HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kRecords);
  std::int64_t per_thread = 0;
  for (std::int64_t i = 0; i < kRecords; ++i) per_thread += i % 7;
  EXPECT_EQ(snapshot.sum, kThreads * per_thread);
}

TEST_F(ObsTest, HistogramBucketEdges) {
  EXPECT_EQ(obs::Histogram::BucketIndex(-5), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(obs::Histogram::BucketUpperEdge(1), 1);
  EXPECT_EQ(obs::Histogram::BucketUpperEdge(2), 3);
  EXPECT_EQ(obs::Histogram::BucketUpperEdge(3), 7);
  // Every representable value lands in the bucket whose edge bounds it.
  for (const std::int64_t v : {1LL, 2LL, 5LL, 100LL, 1LL << 40}) {
    const std::size_t b = obs::Histogram::BucketIndex(v);
    EXPECT_LE(v, obs::Histogram::BucketUpperEdge(b)) << v;
  }
}

TEST_F(ObsTest, RegistryReturnsStableHandles) {
  obs::Counter* first = obs::GetCounter("test.stable_handle");
  obs::Counter* second = obs::GetCounter("test.stable_handle");
  EXPECT_EQ(first, second);
  obs::Histogram* h1 = obs::GetHistogram("test.stable_histogram");
  obs::Histogram* h2 = obs::GetHistogram("test.stable_histogram");
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(first->name(), "test.stable_handle");
}

TEST_F(ObsTest, RuntimeDisabledDropsWrites) {
  obs::Counter* counter = obs::GetCounter("test.runtime_disabled");
  obs::SetEnabled(false);
  counter->Add(17);
  EXPECT_EQ(counter->Value(), 0);
  obs::SetEnabled(true);
  counter->Add(17);
  EXPECT_EQ(counter->Value(), 17);
}

TEST_F(ObsTest, MacrosCacheHandlesAndAccumulate) {
  for (int i = 0; i < 3; ++i) {
    RANKTIES_OBS_COUNT("test.macro_counter", 5);
    RANKTIES_OBS_RECORD("test.macro_histogram", 2);
  }
  EXPECT_EQ(obs::GetCounter("test.macro_counter")->Value(), 15);
  EXPECT_EQ(obs::GetHistogram("test.macro_histogram")->Snapshot().count, 3);
}

TEST_F(ObsTest, ScopedHistogramTimerRecordsOneSample) {
  obs::Histogram* histogram = obs::GetHistogram("test.scoped_timer");
  { obs::ScopedHistogramTimer timer(histogram); }
  const obs::HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, 1);
  EXPECT_GE(snapshot.sum, 0);
}

TEST_F(ObsTest, NestedSpansDrainAsTimeContainedCompleteEvents) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.SetEnabled(true);
  {
    obs::FlightSpan outer(obs::FlightEventId::kBatchMatrix);
    outer.SetArgs(4, 6, 1);
    {
      obs::FlightSpan inner(obs::FlightEventId::kParallelFor);
      inner.SetArgs(42, 1, 2);
    }
    {
      obs::FlightSpan sibling(obs::FlightEventId::kParallelFor);
    }
  }
  recorder.SetEnabled(false);
  const std::vector<obs::FlightEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 3u);
  // Drained by start time: outer, inner, sibling.
  const obs::FlightEvent& outer = events[0];
  const obs::FlightEvent& inner = events[1];
  const obs::FlightEvent& sibling = events[2];
  EXPECT_EQ(outer.event,
            static_cast<std::uint32_t>(obs::FlightEventId::kBatchMatrix));
  EXPECT_EQ(inner.event,
            static_cast<std::uint32_t>(obs::FlightEventId::kParallelFor));
  for (const obs::FlightEvent* child : {&inner, &sibling}) {
    ASSERT_TRUE(child->is_span());
    EXPECT_EQ(child->thread, outer.thread);
    EXPECT_GE(child->ts_ns, outer.ts_ns);
    EXPECT_LE(child->ts_ns + child->dur_ns, outer.ts_ns + outer.dur_ns);
  }
  EXPECT_GE(sibling.ts_ns, inner.ts_ns + inner.dur_ns);
  EXPECT_EQ(inner.args[0], 42);
  EXPECT_EQ(outer.args[1], 6);

  const std::string doc = obs::PerfettoJsonDocument();
  EXPECT_TRUE(BalancedJson(doc)) << doc;
  EXPECT_TRUE(Contains(doc, "\"ph\": \"X\""));
  EXPECT_TRUE(Contains(doc, "\"name\": \"batch.distance_matrix\""));
  EXPECT_TRUE(Contains(
      doc, "\"args\": {\"items\": 42, \"grain\": 1, \"helpers\": 2}"));
}

TEST_F(ObsTest, SpanOpenedWhileRecorderOffEmitsNothing) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  {
    obs::FlightSpan span(obs::FlightEventId::kBatchMatrix);
    recorder.SetEnabled(true);  // too late: the span opened while off
  }
  recorder.SetEnabled(false);
  EXPECT_TRUE(recorder.Drain().empty());
}

TEST_F(ObsTest, JsonExportRoundTrip) {
  obs::GetCounter("test.export_counter")->Add(123);
  obs::GetHistogram("test.export_histogram")->Record(5);
  const std::string metrics = obs::MetricsJsonObject();
  EXPECT_TRUE(BalancedJson(metrics)) << metrics;
  EXPECT_TRUE(Contains(metrics, "\"counters\""));
  EXPECT_TRUE(Contains(metrics, "\"histograms\""));
  EXPECT_TRUE(Contains(metrics, "\"test.export_counter\": 123"));
  EXPECT_TRUE(Contains(metrics, "\"test.export_histogram\""));
}

TEST_F(ObsTest, ResetAllZeroesEveryMetric) {
  obs::GetCounter("test.reset_counter")->Add(9);
  obs::GetHistogram("test.reset_histogram")->Record(9);
  obs::Registry::Global().ResetAll();
  EXPECT_EQ(obs::GetCounter("test.reset_counter")->Value(), 0);
  EXPECT_EQ(obs::GetHistogram("test.reset_histogram")->Snapshot().count, 0);
}

#else  // RANKTIES_OBS_DISABLED

TEST(ObsDisabledTest, ApiIsInertButValid) {
  obs::SetEnabled(true);  // must be a no-op
  EXPECT_FALSE(obs::Enabled());
  obs::Counter* counter = obs::GetCounter("test.disabled_counter");
  counter->Add(17);
  EXPECT_EQ(counter->Value(), 0);
  obs::Histogram* histogram = obs::GetHistogram("test.disabled_histogram");
  histogram->Record(5);
  EXPECT_EQ(histogram->Snapshot().count, 0);
  RANKTIES_OBS_COUNT("test.disabled_macro", 1);
  RANKTIES_OBS_RECORD("test.disabled_macro_h", 1);
  EXPECT_TRUE(obs::Registry::Global().CounterSnapshots().empty());
}

TEST(ObsDisabledTest, TracingIsInertButValid) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.SetEnabled(true);
  {
    obs::FlightSpan span(obs::FlightEventId::kBatchMatrix);
    span.SetArgs(1);
  }
  EXPECT_TRUE(recorder.Drain().empty());
  EXPECT_FALSE(recorder.enabled());
}

TEST(ObsDisabledTest, ExportsStayValidJson) {
  const std::string doc = obs::PerfettoJsonDocument();
  EXPECT_TRUE(BalancedJson(doc)) << doc;
  EXPECT_TRUE(Contains(doc, "\"traceEvents\""));
  const std::string metrics = obs::MetricsJsonObject();
  EXPECT_TRUE(BalancedJson(metrics)) << metrics;
}

#endif  // RANKTIES_OBS_DISABLED

}  // namespace
}  // namespace rankties
