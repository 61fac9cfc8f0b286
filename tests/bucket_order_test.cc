#include "rank/bucket_order.h"

#include <gtest/gtest.h>

#include "gen/random_orders.h"
#include "rank/io.h"
#include "util/rng.h"

namespace rankties {
namespace {

// Checks the five flat arrays of `order` against hand-computed values, and
// Validate().
void ExpectFlat(const BucketOrder& order,
                const std::vector<BucketIndex>& bucket_of,
                const std::vector<ElementId>& by_bucket,
                const std::vector<std::size_t>& bucket_offset,
                const std::vector<std::int64_t>& twice_position,
                std::int64_t tied_pairs) {
  EXPECT_EQ(order.bucket_of(), bucket_of);
  EXPECT_EQ(order.by_bucket(), by_bucket);
  EXPECT_EQ(order.bucket_offset(), bucket_offset);
  EXPECT_EQ(order.twice_position(), twice_position);
  EXPECT_EQ(order.tied_pairs(), tied_pairs);
  EXPECT_TRUE(order.Validate().ok()) << order.Validate();
}

TEST(BucketOrderTest, FromBucketsBasic) {
  auto order = BucketOrder::FromBuckets(5, {{1, 0}, {2}, {3, 4}});
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->n(), 5u);
  EXPECT_EQ(order->num_buckets(), 3u);
  EXPECT_EQ(order->BucketOf(0), 0);
  EXPECT_EQ(order->BucketOf(1), 0);
  EXPECT_EQ(order->BucketOf(2), 1);
  EXPECT_EQ(order->BucketOf(3), 2);
  EXPECT_EQ(order->BucketOf(4), 2);
  // Buckets store elements ascending regardless of input order.
  const std::span<const ElementId> front = order->bucket(0);
  EXPECT_EQ(std::vector<ElementId>(front.begin(), front.end()),
            (std::vector<ElementId>{0, 1}));
}

TEST(BucketOrderFlatTest, FactoriesBuildHandComputedArrays) {
  ExpectFlat(BucketOrder(), {}, {}, {0}, {}, 0);
  ExpectFlat(BucketOrder::SingleBucket(0), {}, {}, {0}, {}, 0);
  // [2 5 | 0 | 1 3 4]: doubled positions 3, 6 and 10.
  ExpectFlat(BucketOrder::FromBuckets(6, {{5, 2}, {0}, {4, 1, 3}}).value(),
             {1, 2, 0, 2, 2, 0}, {2, 5, 0, 1, 3, 4}, {0, 2, 3, 6},
             {6, 10, 3, 10, 10, 3}, 1 + 0 + 3);
  // [1 3 | 2 | 0].
  ExpectFlat(BucketOrder::FromBucketIndex({2, 0, 1, 0}).value(),
             {2, 0, 1, 0}, {1, 3, 2, 0}, {0, 2, 3, 4}, {8, 3, 6, 3}, 1);
  const Permutation perm = Permutation::FromOrder({2, 0, 1}).value();
  ExpectFlat(BucketOrder::FromPermutation(perm), {1, 2, 0}, {2, 0, 1},
             {0, 1, 2, 3}, {4, 6, 2}, 0);
  ExpectFlat(BucketOrder::SingleBucket(3), {0, 0, 0}, {0, 1, 2}, {0, 3},
             {4, 4, 4}, 3);
  // Top-2 of 3 1 0 2 and the scores that induce the same [3 | 1 | 0 2].
  const Permutation top = Permutation::FromOrder({3, 1, 0, 2}).value();
  ExpectFlat(BucketOrder::TopKOf(top, 2), {2, 1, 2, 0}, {3, 1, 0, 2},
             {0, 1, 2, 4}, {7, 4, 7, 2}, 1);
  ExpectFlat(BucketOrder::FromScores({3.5, 1.0, 3.5, 0.5}), {2, 1, 2, 0},
             {3, 1, 0, 2}, {0, 1, 2, 4}, {7, 4, 7, 2}, 1);
  ExpectFlat(BucketOrder::FromIntKeys({5, 5, -1}), {1, 1, 0}, {2, 0, 1},
             {0, 1, 3}, {5, 5, 2}, 1);
}

TEST(BucketOrderFlatTest, ReverseAndRestrictToBuildHandComputedArrays) {
  const BucketOrder order =
      BucketOrder::FromBuckets(6, {{2, 5}, {0}, {1, 3, 4}}).value();
  // [1 3 4 | 0 | 2 5].
  ExpectFlat(order.Reverse(), {1, 0, 2, 0, 0, 2}, {1, 3, 4, 0, 2, 5},
             {0, 3, 4, 6}, {8, 4, 11, 4, 4, 11}, 3 + 0 + 1);
  // Every bucket survives: new ids 0, 1, 2 are old 4, 0, 5.
  ExpectFlat(order.RestrictTo({4, 0, 5}).value(), {2, 1, 0}, {2, 1, 0},
             {0, 1, 2, 3}, {6, 4, 2}, 0);
  // The middle bucket drops out: old 5, 4, 2 give [0 2 | 1].
  ExpectFlat(order.RestrictTo({5, 4, 2}).value(), {0, 1, 0}, {0, 2, 1},
             {0, 2, 3}, {3, 6, 3}, 1);
  ExpectFlat(order.RestrictTo({3, 1}).value(), {0, 0}, {0, 1}, {0, 2},
             {3, 3}, 1);
}

TEST(BucketOrderTest, PositionsMatchPaperDefinition) {
  // pos(B_i) = sum_{j<i} |B_j| + (|B_i|+1)/2 (paper §2).
  auto order = BucketOrder::FromBuckets(6, {{0, 1}, {2}, {3, 4, 5}});
  ASSERT_TRUE(order.ok());
  // Bucket 0: pos = (2+1)/2 = 1.5.
  EXPECT_EQ(order->TwicePosition(0), 3);
  EXPECT_DOUBLE_EQ(order->Position(1), 1.5);
  // Bucket 1: pos = 2 + 1 = 3.
  EXPECT_EQ(order->TwicePosition(2), 6);
  // Bucket 2: pos = 3 + 2 = 5.
  EXPECT_EQ(order->TwicePosition(5), 10);
}

TEST(BucketOrderTest, FullRankingPositionsAreOneBased) {
  Permutation identity(4);
  const BucketOrder order = BucketOrder::FromPermutation(identity);
  EXPECT_TRUE(order.IsFull());
  for (ElementId e = 0; e < 4; ++e) {
    EXPECT_EQ(order.TwicePosition(e), 2 * (e + 1));
  }
}

TEST(BucketOrderTest, FromBucketsRejectsBadInput) {
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0, 1}}).ok());          // missing
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0, 1, 1}, {2}}).ok());  // dup
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0, 1, 2}, {}}).ok());   // empty
  EXPECT_FALSE(BucketOrder::FromBuckets(2, {{0, 5}}).ok());          // range
}

TEST(BucketOrderTest, FromBucketIndexRoundTrip) {
  auto order = BucketOrder::FromBucketIndex({2, 0, 1, 0});
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->ToString(), "[1 3 | 2 | 0]");
  EXPECT_FALSE(BucketOrder::FromBucketIndex({0, 2}).ok());  // gap
}

TEST(BucketOrderTest, SingleBucketTiesEverything) {
  const BucketOrder order = BucketOrder::SingleBucket(4);
  EXPECT_EQ(order.num_buckets(), 1u);
  for (ElementId e = 0; e < 4; ++e) {
    // pos = (4+1)/2 = 2.5.
    EXPECT_EQ(order.TwicePosition(e), 5);
  }
  EXPECT_TRUE(order.Tied(0, 3));
}

TEST(BucketOrderTest, TopKShape) {
  Permutation identity(6);
  const BucketOrder order = BucketOrder::TopKOf(identity, 2);
  EXPECT_TRUE(order.IsTopK(2));
  EXPECT_FALSE(order.IsTopK(3));
  EXPECT_EQ(order.Type(), (std::vector<std::size_t>{1, 1, 4}));
  // Bottom bucket position: pos = 2 + (4+1)/2 = 4.5.
  EXPECT_EQ(order.TwicePosition(5), 9);
  // k = n degenerates to the full ranking.
  EXPECT_TRUE(BucketOrder::TopKOf(identity, 6).IsFull());
  EXPECT_TRUE(BucketOrder::TopKOf(identity, 6).IsTopK(6));
}

TEST(BucketOrderTest, FromScoresGroupsEqualValues) {
  const BucketOrder order = BucketOrder::FromScores({3.5, 1.0, 3.5, 0.5});
  EXPECT_EQ(order.ToString(), "[3 | 1 | 0 2]");
}

TEST(BucketOrderTest, ReverseMatchesPaperFormula) {
  // sigma^R(d) = |D| + 1 - sigma(d) (paper §2).
  auto order = BucketOrder::FromBuckets(5, {{0}, {1, 2}, {3, 4}});
  ASSERT_TRUE(order.ok());
  const BucketOrder rev = order->Reverse();
  const std::int64_t twice_n_plus_1 = 2 * (5 + 1);
  for (ElementId e = 0; e < 5; ++e) {
    EXPECT_EQ(rev.TwicePosition(e), twice_n_plus_1 - order->TwicePosition(e))
        << "element " << e;
  }
  // Reversing twice is the identity.
  EXPECT_EQ(rev.Reverse(), *order);
}

TEST(BucketOrderTest, TypeAndAheadAndTied) {
  auto order = BucketOrder::FromBuckets(4, {{3}, {0, 2}, {1}});
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->Type(), (std::vector<std::size_t>{1, 2, 1}));
  EXPECT_TRUE(order->Ahead(3, 0));
  EXPECT_TRUE(order->Tied(0, 2));
  EXPECT_FALSE(order->Ahead(0, 2));
  EXPECT_FALSE(order->Ahead(1, 3));
}

TEST(BucketOrderTest, CanonicalRefinementIsRefinement) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder order = RandomBucketOrder(10, rng);
    const Permutation refined = order.CanonicalRefinement();
    // Every strict order in `order` is preserved.
    for (ElementId a = 0; a < 10; ++a) {
      for (ElementId b = 0; b < 10; ++b) {
        if (order.Ahead(a, b)) {
          EXPECT_LT(refined.Rank(a), refined.Rank(b));
        }
      }
    }
  }
}

TEST(BucketOrderTest, ParseRoundTrip) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder order = RandomBucketOrder(12, rng);
    auto parsed = ParseBucketOrder(order.ToString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, order);
  }
}

TEST(BucketOrderTest, ParseRejectsMalformed) {
  EXPECT_FALSE(ParseBucketOrder("0 1 | 2").ok());    // no brackets
  EXPECT_FALSE(ParseBucketOrder("[0 1 | ]").ok());   // trailing empty bucket
  EXPECT_FALSE(ParseBucketOrder("[0 | | 1]").ok());  // empty middle bucket
  EXPECT_FALSE(ParseBucketOrder("[0 2]").ok());      // non-contiguous ids
  EXPECT_FALSE(ParseBucketOrder("[0 1] x").ok());    // trailing junk
  EXPECT_FALSE(ParseBucketOrder("[0 1").ok());       // unterminated
  EXPECT_EQ(ParseBucketOrder("[99999999999]").status().code(),
            StatusCode::kInvalidArgument);  // id overflows ElementId
}

TEST(BucketOrderTest, FormatAndParseMany) {
  Rng rng(99);
  std::vector<BucketOrder> orders;
  for (int i = 0; i < 5; ++i) orders.push_back(RandomBucketOrder(8, rng));
  auto parsed = ParseBucketOrders(FormatBucketOrders(orders));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), orders.size());
  for (std::size_t i = 0; i < orders.size(); ++i) {
    EXPECT_EQ((*parsed)[i], orders[i]);
  }
}

}  // namespace
}  // namespace rankties
