// Regression tests for degenerate inputs across every metric entry point:
// the empty ranking (n = 0), the single-element universe (n = 1), and the
// all-tied single bucket. All distances are 0 — there are no pairs to count
// and positions coincide — and nothing may assert, divide by zero, or
// return NaN.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "access/medrank_engine.h"
#include "access/nra_median.h"
#include "access/ta_median.h"
#include "core/batch_engine.h"
#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/median_rank.h"
#include "core/metric_registry.h"
#include "core/online_median.h"
#include "core/profile_metrics.h"
#include "obs/obs.h"
#include "rank/bucket_order.h"
#include "rank/permutation.h"
#include "ref/per_pair.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

void ExpectAllMetricsZero(const BucketOrder& sigma, const BucketOrder& tau) {
  EXPECT_EQ(TwiceKprof(sigma, tau), 0);
  EXPECT_EQ(TwiceFprof(sigma, tau), 0);
  EXPECT_EQ(KHausdorff(sigma, tau), 0);
  EXPECT_EQ(ref::KHausdorffTheorem5(sigma, tau), 0);
  EXPECT_EQ(TwiceFHausdorff(sigma, tau), 0);
  EXPECT_EQ(ref::TwiceFHausdorffTheorem5(sigma, tau), 0);
  for (double p : {0.0, 0.25, 0.5, 1.0}) {
    const double kp = KendallP(sigma, tau, p);
    EXPECT_EQ(kp, 0.0) << "p=" << p;
    EXPECT_FALSE(std::isnan(kp));
  }
  for (MetricKind kind : AllMetricKinds()) {
    EXPECT_EQ(ComputeMetric(kind, sigma, tau), 0.0) << MetricName(kind);
    // The ref Hausdorff oracles enumerate every full refinement; keep them
    // to universes where that is instantaneous.
    if (sigma.n() <= 6) {
      EXPECT_EQ(ref::ComputeMetric(kind, sigma, tau), 0.0) << MetricName(kind);
    }
  }
}

TEST(DegenerateInputsTest, EmptyRanking) {
  const BucketOrder empty;
  ASSERT_EQ(empty.n(), 0u);
  ExpectAllMetricsZero(empty, empty);
  EXPECT_EQ(Kavg(empty, empty), 0.0);
  EXPECT_EQ(ref::Kavg(empty, empty), 0.0);
  Rng rng(1);
  EXPECT_EQ(KavgSampled(empty, empty, 16, rng), 0.0);
}

TEST(DegenerateInputsTest, SingleElementUniverse) {
  const BucketOrder single = BucketOrder::SingleBucket(1);
  const BucketOrder as_perm = BucketOrder::FromPermutation(Permutation(1));
  ExpectAllMetricsZero(single, single);
  ExpectAllMetricsZero(single, as_perm);
  EXPECT_EQ(Kavg(single, as_perm), 0.0);
  EXPECT_EQ(ref::Kavg(single, as_perm), 0.0);
  Rng rng(2);
  EXPECT_EQ(KavgSampled(single, as_perm, 16, rng), 0.0);
}

TEST(DegenerateInputsTest, AllTiedBucketIsIdentity) {
  for (std::size_t n : {2u, 5u, 17u}) {
    const BucketOrder tied = BucketOrder::SingleBucket(n);
    ExpectAllMetricsZero(tied, tied);
  }
}

// Degenerate inputs through the *instrumented* paths: collection and the
// flight recorder on, so the obs hooks in the access engines and batch
// engine see n = 1, k = 0, and all-tied inputs without asserting or
// emitting garbage.
TEST(DegenerateInputsTest, InstrumentedEnginesSurviveDegenerateInputs) {
  obs::SetEnabled(true);
  obs::FlightRecorder::Global().SetEnabled(true);

  const std::vector<BucketOrder> singles = {BucketOrder::SingleBucket(1),
                                            BucketOrder::SingleBucket(1)};
  EXPECT_TRUE(TaMedianTopK(singles, 1).ok());
  EXPECT_TRUE(NraMedianTopK(singles, 1).ok());
  EXPECT_TRUE(MedrankTopK(singles, 1).ok());
  // k = 0 returns before the instrumented region; still must be clean.
  EXPECT_TRUE(TaMedianTopK(singles, 0).ok());

  const std::vector<BucketOrder> tied = {BucketOrder::SingleBucket(5),
                                         BucketOrder::SingleBucket(5),
                                         BucketOrder::SingleBucket(5)};
  const auto matrix = DistanceMatrix(MetricKind::kKprof, tied);
  for (const auto& row : matrix) {
    for (const double d : row) EXPECT_EQ(d, 0.0);
  }

  obs::FlightRecorder::Global().SetEnabled(false);
  const std::string doc = obs::PerfettoJsonDocument();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  obs::SetEnabled(false);
}

// OnlineMedianAggregator::CurrentTopK at the edges of k and of the voter
// count: k == 0 is a legal (all-nil) query, k > n must fail cleanly, and a
// single-voter corpus's median is that voter's own position vector.
TEST(DegenerateInputsTest, OnlineMedianTopKEdges) {
  const std::size_t n = 4;
  OnlineMedianAggregator online(n);
  // Before any voter, every query fails — k == 0 included: there is no
  // aggregate to take a prefix of.
  EXPECT_FALSE(online.CurrentTopK(0).ok());

  const BucketOrder voter = *BucketOrder::FromBuckets(n, {{2}, {0, 3}, {1}});
  ASSERT_TRUE(online.AddVoter(voter).ok());

  // k == 0: a top-0 list is one all-nil bucket, not an error.
  auto top0 = online.CurrentTopK(0);
  ASSERT_TRUE(top0.ok());
  EXPECT_EQ(top0->n(), n);
  EXPECT_EQ(top0->num_buckets(), 1u);

  // k > n: out of range, and the aggregator state survives the rejection.
  EXPECT_FALSE(online.CurrentTopK(n + 1).ok());
  EXPECT_EQ(online.num_voters(), 1u);

  // Single voter: the median of one ballot is the ballot. Scores are the
  // quadrupled positions and top-n is the voter's order with remaining
  // ties broken by id (element 0 ahead of 3 inside the tied bucket).
  auto scores = online.ScoresQuad();
  ASSERT_TRUE(scores.ok());
  for (std::size_t e = 0; e < n; ++e) {
    EXPECT_EQ((*scores)[e],
              2 * voter.TwicePosition(static_cast<ElementId>(e)));
  }
  auto single = MedianRankScoresQuad({voter}, MedianPolicy::kLower);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(*scores, *single);
  auto topn = online.CurrentTopK(n);
  auto batch_topn = MedianAggregateTopK({voter}, n, MedianPolicy::kLower);
  ASSERT_TRUE(topn.ok() && batch_topn.ok());
  EXPECT_EQ(*topn, *batch_topn);

  // k == n == 0: the empty aggregator over an empty universe still needs a
  // voter before answering, and then answers the empty list.
  OnlineMedianAggregator empty(0);
  EXPECT_FALSE(empty.CurrentTopK(0).ok());
  ASSERT_TRUE(empty.AddVoter(BucketOrder()).ok());
  auto empty_topk = empty.CurrentTopK(0);
  ASSERT_TRUE(empty_topk.ok());
  EXPECT_EQ(empty_topk->n(), 0u);
}

TEST(DegenerateInputsTest, GuardsDoNotOvertrigger) {
  // n = 2 is the smallest non-degenerate universe; the guards must leave
  // it alone. [0 1] vs [0 | 1]: one pair, tied in exactly one ranking.
  const BucketOrder tied = BucketOrder::SingleBucket(2);
  const BucketOrder split = *BucketOrder::FromBuckets(2, {{0}, {1}});
  EXPECT_EQ(TwiceKprof(tied, split), 1);
  EXPECT_EQ(KHausdorff(tied, split), 1);
  EXPECT_EQ(KendallP(tied, split, 0.25), 0.25);
  EXPECT_EQ(Kavg(tied, split), 0.5);
}

}  // namespace
}  // namespace rankties
