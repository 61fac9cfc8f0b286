// Tests for the flight recorder (src/obs/flight.h): bounded
// overwrite-oldest rings shared by spans and point events, multi-thread
// drains, runtime-disabled no-op behavior, and the contracts-layer
// post-mortem hook.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <regex>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/contracts.h"

namespace rankties {
namespace {

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::FlightRecorder::Global().Clear();
    obs::FlightRecorder::Global().SetEnabled(true);
  }
  void TearDown() override {
    obs::FlightRecorder::Global().SetEnabled(false);
    obs::FlightRecorder::Global().Clear();
  }
};

TEST_F(FlightTest, RecordsAndDrainsInTimestampOrder) {
  obs::FlightRecord(obs::FlightEventId::kTaRun, 1, 10, 3);
  obs::FlightRecord(obs::FlightEventId::kNraRun, 2, 20, 0);
  obs::FlightRecord(obs::FlightEventId::kMedrankRun, 3, 30, 4);
  const std::vector<obs::FlightEvent> events =
      obs::FlightRecorder::Global().Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].event,
            static_cast<std::uint32_t>(obs::FlightEventId::kTaRun));
  EXPECT_EQ(events[1].event,
            static_cast<std::uint32_t>(obs::FlightEventId::kNraRun));
  EXPECT_EQ(events[2].event,
            static_cast<std::uint32_t>(obs::FlightEventId::kMedrankRun));
  EXPECT_EQ(events[0].args[0], 1);
  EXPECT_EQ(events[0].args[1], 10);
  EXPECT_EQ(events[0].args[2], 3);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns, events[2].ts_ns);
  EXPECT_EQ(obs::FlightRecorder::Global().overwritten(), 0);
  EXPECT_EQ(obs::FlightRecorder::Global().dropped(), 0);
}

TEST_F(FlightTest, RingOverwritesOldestAndStaysBounded) {
  constexpr std::int64_t kExtra = 100;
  const std::int64_t total =
      static_cast<std::int64_t>(obs::FlightRecorder::kEventsPerThread) +
      kExtra;
  for (std::int64_t i = 0; i < total; ++i) {
    obs::FlightRecord(obs::FlightEventId::kParallelFor, i, 0, 0);
  }
  const std::vector<obs::FlightEvent> events =
      obs::FlightRecorder::Global().Drain();
  ASSERT_EQ(events.size(), obs::FlightRecorder::kEventsPerThread);
  // The oldest kExtra events were overwritten: the survivors are exactly
  // the suffix [kExtra, total).
  EXPECT_EQ(events.front().args[0], kExtra);
  EXPECT_EQ(events.back().args[0], total - 1);
  EXPECT_EQ(obs::FlightRecorder::Global().overwritten(), kExtra);
}

TEST_F(FlightTest, SpansAndPointEventsShareTheRingThroughWrapAround) {
  // Alternate a span (args i, dur >= 0) and a point event (args i, dur -1)
  // until the ring has wrapped; the survivors must still pair up.
  constexpr std::int64_t kExtra = 50;
  const std::int64_t total =
      static_cast<std::int64_t>(obs::FlightRecorder::kEventsPerThread) / 2 +
      kExtra;
  for (std::int64_t i = 0; i < total; ++i) {
    {
      obs::FlightSpan span(obs::FlightEventId::kBatchMatrix);
      span.SetArgs(i, 2 * i, 3 * i);
    }
    obs::FlightRecord(obs::FlightEventId::kIncrementalMove, i);
  }
  const std::vector<obs::FlightEvent> events =
      obs::FlightRecorder::Global().Drain();
  ASSERT_EQ(events.size(), obs::FlightRecorder::kEventsPerThread);
  EXPECT_EQ(obs::FlightRecorder::Global().overwritten(), 2 * kExtra);
  // The oldest 2*kExtra events (kExtra of each form) were overwritten.
  EXPECT_EQ(events.front().args[0], kExtra);
  EXPECT_EQ(events.back().args[0], total - 1);
  // Every surviving span kept its args and duration, and so did the point
  // event recorded after it closed.
  std::map<std::int64_t, std::int64_t> point_ts;
  for (const obs::FlightEvent& event : events) {
    if (!event.is_span()) point_ts[event.args[0]] = event.ts_ns;
  }
  EXPECT_EQ(point_ts.size(), static_cast<std::size_t>(total - kExtra));
  std::int64_t spans = 0;
  for (const obs::FlightEvent& event : events) {
    if (!event.is_span()) continue;
    ++spans;
    EXPECT_EQ(event.event,
              static_cast<std::uint32_t>(obs::FlightEventId::kBatchMatrix));
    EXPECT_EQ(event.args[1], 2 * event.args[0]);
    EXPECT_EQ(event.args[2], 3 * event.args[0]);
    const auto point = point_ts.find(event.args[0]);
    ASSERT_NE(point, point_ts.end());
    EXPECT_GE(point->second, event.ts_ns + event.dur_ns);
  }
  EXPECT_EQ(spans, total - kExtra);
}

TEST_F(FlightTest, DrainMergesEventsFromMultipleThreads) {
  constexpr int kThreads = 3;
  constexpr std::int64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        obs::FlightRecord(obs::FlightEventId::kIncrementalMove, t, i, 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<obs::FlightEvent> events =
      obs::FlightRecorder::Global().Drain();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  // Per-spawned-thread: full count, distinct ring index, sorted output.
  std::vector<std::int64_t> per_tag(kThreads, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_GE(events[i].args[0], 0);
    ASSERT_LT(events[i].args[0], kThreads);
    ++per_tag[static_cast<std::size_t>(events[i].args[0])];
    if (i > 0) {
      EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
    }
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_tag[t], kPerThread);
}

TEST_F(FlightTest, DisabledRecorderDropsEventsSilently) {
  obs::FlightRecorder::Global().SetEnabled(false);
  obs::FlightRecord(obs::FlightEventId::kTaRun, 7, 7, 7);
  EXPECT_TRUE(obs::FlightRecorder::Global().Drain().empty());
  EXPECT_EQ(obs::FlightRecorder::Global().dropped(), 0);
}

TEST_F(FlightTest, EventNamesFollowMetricConvention) {
  const std::regex kDotted("[a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*)+");
  for (std::uint32_t id = 1;
       id < static_cast<std::uint32_t>(obs::FlightEventId::kCount); ++id) {
    const char* name =
        obs::FlightEventName(static_cast<obs::FlightEventId>(id));
    EXPECT_STRNE(name, "unknown") << "id " << id;
    // Event names double as span names: lowercase.dotted, like metrics.
    EXPECT_TRUE(std::regex_match(name, kDotted)) << name;
    EXPECT_NE(obs::FlightEventArgName(static_cast<obs::FlightEventId>(id), 0),
              nullptr)
        << name;
  }
  // Torn events (garbage ids) must resolve to a printable fallback.
  EXPECT_STREQ(obs::FlightEventName(static_cast<obs::FlightEventId>(9999)),
               "unknown");
}

#if RANKTIES_DCHECK_ENABLED && defined(GTEST_HAS_DEATH_TEST)

using FlightDeathTest = FlightTest;

TEST_F(FlightDeathTest, ContractFailureDumpsPostMortem) {
  // Enabling the recorder installed the contracts failure hook; a violated
  // DCHECK must print the recorded events before aborting.
  obs::FlightRecord(obs::FlightEventId::kMedrankRun, 5, 123, 2);
  EXPECT_DEATH(RANKTIES_DCHECK(1 == 2),
               "flight recorder post-mortem.*access\\.medrank\\.run");
}

#endif  // RANKTIES_DCHECK_ENABLED && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace rankties
