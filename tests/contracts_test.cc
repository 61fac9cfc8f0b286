// Tests for the contract layer (util/contracts.h): death tests prove the
// checks fire on malformed bucket orders in debug builds, and the
// compile-out tests prove a release build never evaluates a contract
// argument (the bench gate depends on that zero cost).
#include "util/contracts.h"

#include <vector>

#include "core/prepared.h"
#include "rank/bucket_order.h"
#include "rank/permutation.h"
#include "util/status.h"
#include "gtest/gtest.h"

namespace rankties {
namespace {

BucketOrder MakeOrder(std::size_t n,
                      std::vector<std::vector<ElementId>> buckets) {
  StatusOr<BucketOrder> order = BucketOrder::FromBuckets(n, std::move(buckets));
  EXPECT_TRUE(order.ok()) << order.status();
  return *order;
}

TEST(ValidateTest, AcceptsFactoryBuiltOrders) {
  EXPECT_TRUE(BucketOrder().Validate().ok());
  EXPECT_TRUE(BucketOrder::SingleBucket(5).Validate().ok());
  EXPECT_TRUE(MakeOrder(4, {{1, 2}, {0}, {3}}).Validate().ok());
  EXPECT_TRUE(MakeOrder(4, {{1, 2}, {0}, {3}}).Reverse().Validate().ok());
}

TEST(ValidateTest, FactoriesRejectMalformedInputs) {
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0}, {}, {1, 2}}).ok());
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0, 1}, {1, 2}}).ok());
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0}, {1}}).ok());
  EXPECT_FALSE(BucketOrder::FromBuckets(2, {{0, 5}}).ok());
}

#if RANKTIES_DCHECK_ENABLED

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, DcheckFiresOnFalseCondition) {
  EXPECT_DEATH(RANKTIES_DCHECK(1 + 1 == 3), "contract violation");
}

TEST(ContractsDeathTest, DcheckOkFiresOnEmptyBucket) {
  EXPECT_DEATH(
      RANKTIES_DCHECK_OK(BucketOrder::FromBuckets(3, {{0}, {}, {1, 2}})),
      "empty bucket");
}

TEST(ContractsDeathTest, DcheckOkFiresOnDuplicateElement) {
  EXPECT_DEATH(
      RANKTIES_DCHECK_OK(BucketOrder::FromBuckets(3, {{0, 1}, {1, 2}})),
      "element appears in two buckets");
}

TEST(ContractsDeathTest, DcheckOkFiresOnUncoveredDomain) {
  EXPECT_DEATH(RANKTIES_DCHECK_OK(BucketOrder::FromBuckets(3, {{0}, {1}})),
               "element missing from all buckets");
}

TEST(ContractsDeathTest, DcheckOkFiresOnPlainErrorStatus) {
  EXPECT_DEATH(RANKTIES_DCHECK_OK(Status::InvalidArgument("boom")), "boom");
}

TEST(ContractsDeathTest, PreparedKernelRejectsDomainMismatch) {
  const BucketOrder sigma = BucketOrder::SingleBucket(3);
  const BucketOrder tau = BucketOrder::SingleBucket(4);
  PairScratch scratch;
  EXPECT_DEATH(static_cast<void>(ComputePairCounts(sigma, tau, scratch)),
               "contract violation");
}

TEST(ContractsDeathTest, BoundsFiresOutsideRange) {
  const std::size_t index = 7;
  const std::size_t size = 3;
  EXPECT_DEATH(RANKTIES_BOUNDS(index, size), "outside \\[0, 3\\)");
}

TEST(ContractsDeathTest, BoundsFiresOnNegativeIndex) {
  const int index = -1;
  EXPECT_DEATH(RANKTIES_BOUNDS(index, 3), "outside \\[0, 3\\)");
}

TEST(ContractsTest, PassingContractsAreSilent) {
  RANKTIES_DCHECK(2 + 2 == 4);
  RANKTIES_DCHECK_OK(Status::Ok());
  RANKTIES_BOUNDS(2, 3);
}

#else  // !RANKTIES_DCHECK_ENABLED

// Release builds: the whole contract argument sits in a dead branch. A
// side-effecting argument must never execute — this is the compile-out
// guarantee the bench gate relies on.
TEST(ContractsCompileOutTest, DcheckDoesNotEvaluateItsArgument) {
  int calls = 0;
  auto fails_and_counts = [&calls]() {
    ++calls;
    return false;
  };
  RANKTIES_DCHECK(fails_and_counts());
  EXPECT_EQ(calls, 0);
}

TEST(ContractsCompileOutTest, DcheckOkDoesNotEvaluateItsArgument) {
  int calls = 0;
  auto error_and_counts = [&calls]() {
    ++calls;
    return Status::InvalidArgument("never printed");
  };
  RANKTIES_DCHECK_OK(error_and_counts());
  EXPECT_EQ(calls, 0);
}

TEST(ContractsCompileOutTest, BoundsDoesNotEvaluateItsArguments) {
  int calls = 0;
  auto out_of_range_and_counts = [&calls]() {
    ++calls;
    return 99;
  };
  RANKTIES_BOUNDS(out_of_range_and_counts(), 3);
  EXPECT_EQ(calls, 0);
}

TEST(ContractsCompileOutTest, MalformedInputsStillReturnStatus) {
  // With contracts off the factory-level runtime validation still rejects
  // malformed inputs; only the redundant debug re-checks disappear.
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0}, {}, {1, 2}}).ok());
}

#endif  // RANKTIES_DCHECK_ENABLED

}  // namespace
}  // namespace rankties
