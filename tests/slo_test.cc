// Tests for per-query cost attribution (src/obs/slo.h).
// The headline acceptance test interleaves two MEDRANK streaming queries on
// one thread and asserts that each query unit reports its own Section-6
// sorted-access cost exactly, with the two attributions summing bit-exactly
// to the aggregate registry counter.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "access/medrank_stream.h"
#include "gen/random_orders.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace rankties {
namespace {

#ifndef RANKTIES_OBS_DISABLED

class SloTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().ResetAll();
    obs::SloRegistry::Global().ResetAll();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::SloRegistry::Global().ResetAll();
  }
};

TEST_F(SloTest, InterleavedMedrankQueriesAttributeCostsSeparately) {
  Rng rng(11);
  std::vector<BucketOrder> inputs_a;
  for (int i = 0; i < 5; ++i) inputs_a.push_back(RandomBucketOrder(18, rng));
  std::vector<BucketOrder> inputs_b;
  for (int i = 0; i < 3; ++i) inputs_b.push_back(RandomBucketOrder(24, rng));
  MedrankStream stream_a(MakeSources(inputs_a));
  MedrankStream stream_b(MakeSources(inputs_b));

  // Interleave the two queries winner-by-winner on this thread, wrapping
  // every NextWinner call in its own unit's scope.
  bool a_done = false;
  bool b_done = false;
  while (!a_done || !b_done) {
    if (!a_done) {
      obs::QueryUnitScope unit("test.slo.medrank_a");
      a_done = !stream_a.NextWinner().has_value();
    }
    if (!b_done) {
      obs::QueryUnitScope unit("test.slo.medrank_b");
      b_done = !stream_b.NextWinner().has_value();
    }
  }

  const char* const kCost = "access.medrank_stream.sorted_accesses";
  const obs::QueryUnitSnapshot a =
      obs::SloRegistry::Global().UnitSnapshot("test.slo.medrank_a");
  const obs::QueryUnitSnapshot b =
      obs::SloRegistry::Global().UnitSnapshot("test.slo.medrank_b");
  // Each unit's attributed cost is exactly its stream's own access count...
  EXPECT_GT(stream_a.total_accesses(), 0);
  EXPECT_GT(stream_b.total_accesses(), 0);
  EXPECT_EQ(a.CostTotal(kCost), stream_a.total_accesses());
  EXPECT_EQ(b.CostTotal(kCost), stream_b.total_accesses());
  // ...and the two sum bit-exactly to the aggregate registry counter.
  EXPECT_EQ(a.CostTotal(kCost) + b.CostTotal(kCost),
            obs::GetCounter(kCost)->Value());
  // One query per NextWinner call, including the exhausting call.
  EXPECT_EQ(a.queries,
            static_cast<std::int64_t>(stream_a.winners().size()) + 1);
  EXPECT_EQ(b.queries,
            static_cast<std::int64_t>(stream_b.winners().size()) + 1);
  EXPECT_GE(a.latency_sum_ns, 0);
  EXPECT_LE(a.CostMaxPerQuery(kCost), a.CostTotal(kCost));
}

TEST_F(SloTest, AttributedIsReadableWhileScopeIsLive) {
  obs::Counter* counter = obs::GetCounter("test.slo.live");
  obs::QueryUnitScope unit("test.slo.live_unit");
  counter->Add(13);
  EXPECT_EQ(unit.Attributed(counter), 13);
  counter->Add(4);
  EXPECT_EQ(unit.Attributed(counter), 17);
  const std::vector<obs::CounterSnapshot> attributed =
      unit.AttributedSnapshots();
  ASSERT_EQ(attributed.size(), 1u);
  EXPECT_EQ(attributed[0].name, "test.slo.live");
  EXPECT_EQ(attributed[0].value, 17);
}

TEST_F(SloTest, NestedScopesAttributeToInnermostOnly) {
  obs::Counter* counter = obs::GetCounter("test.slo.nested");
  {
    obs::QueryUnitScope outer("test.slo.outer");
    counter->Add(5);
    {
      obs::QueryUnitScope inner("test.slo.inner");
      counter->Add(70);
      EXPECT_EQ(inner.Attributed(counter), 70);
      EXPECT_EQ(outer.Attributed(counter), 5);
    }
    counter->Add(2);  // outer resumes after inner closes
    EXPECT_EQ(outer.Attributed(counter), 7);
  }
  const obs::QueryUnitSnapshot outer =
      obs::SloRegistry::Global().UnitSnapshot("test.slo.outer");
  const obs::QueryUnitSnapshot inner =
      obs::SloRegistry::Global().UnitSnapshot("test.slo.inner");
  EXPECT_EQ(outer.CostTotal("test.slo.nested"), 7);
  EXPECT_EQ(inner.CostTotal("test.slo.nested"), 70);
}

TEST_F(SloTest, RepeatedQueriesAccumulateAndTrackMax) {
  obs::Counter* counter = obs::GetCounter("test.slo.repeat");
  for (const std::int64_t cost : {3, 11, 6}) {
    obs::QueryUnitScope unit("test.slo.repeat_unit");
    counter->Add(cost);
  }
  const obs::QueryUnitSnapshot unit =
      obs::SloRegistry::Global().UnitSnapshot("test.slo.repeat_unit");
  EXPECT_EQ(unit.queries, 3);
  EXPECT_EQ(unit.CostTotal("test.slo.repeat"), 20);
  EXPECT_EQ(unit.CostMaxPerQuery("test.slo.repeat"), 11);
  EXPECT_GE(unit.MeanLatencyNs(), 0.0);
}

TEST_F(SloTest, QueryUnitRecordsOneFlightSpan) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  {
    obs::QueryUnitScope unit("test.slo.span_unit");
  }
  recorder.SetEnabled(false);
  const std::vector<obs::FlightEvent> events = recorder.Drain();
  recorder.Clear();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event,
            static_cast<std::uint32_t>(obs::FlightEventId::kQueryUnit));
  EXPECT_TRUE(events[0].is_span());
  const obs::QueryUnitSnapshot unit =
      obs::SloRegistry::Global().UnitSnapshot("test.slo.span_unit");
  EXPECT_GE(unit.latency_sum_ns, 0);
  EXPECT_LE(unit.latency_sum_ns, events[0].dur_ns);
}

TEST_F(SloTest, ResetAllDropsUnits) {
  {
    obs::QueryUnitScope unit("test.slo.reset_unit");
  }
  EXPECT_EQ(obs::SloRegistry::Global().UnitSnapshots().size(), 1u);
  obs::SloRegistry::Global().ResetAll();
  EXPECT_TRUE(obs::SloRegistry::Global().UnitSnapshots().empty());
}

#else  // RANKTIES_OBS_DISABLED

TEST(SloDisabledTest, ApiIsInertButValid) {
  obs::Counter* counter = obs::GetCounter("test.slo.disabled");
  {
    obs::QueryUnitScope unit("test.slo.disabled_unit");
    counter->Add(5);
    EXPECT_EQ(unit.Attributed(counter), 0);
    EXPECT_TRUE(unit.AttributedSnapshots().empty());
    EXPECT_EQ(unit.unit(), "test.slo.disabled_unit");
  }
  EXPECT_TRUE(obs::SloRegistry::Global().UnitSnapshots().empty());
  const obs::QueryUnitSnapshot snapshot =
      obs::SloRegistry::Global().UnitSnapshot("test.slo.disabled_unit");
  EXPECT_EQ(snapshot.queries, 0);
}

#endif  // RANKTIES_OBS_DISABLED

}  // namespace
}  // namespace rankties
