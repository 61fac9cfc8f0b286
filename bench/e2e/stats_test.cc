#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace rankties::e2e {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(TailPercentileTest, P90NeedsAHundredSamples) {
  EXPECT_FALSE(TailPercentile(OneTo(99), 0.9).has_value());
  EXPECT_FALSE(TailPercentile({}, 0.9).has_value());
  const std::optional<double> p90 = TailPercentile(OneTo(100), 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(*p90, 90.0);  // ten samples (91..100) lie beyond it
}

TEST(TailPercentileTest, P50NeedsTwentySamples) {
  EXPECT_FALSE(TailPercentile(OneTo(19), 0.5).has_value());
  EXPECT_EQ(TailPercentile(OneTo(20), 0.5), 10.0);
  EXPECT_EQ(TailPercentile(OneTo(101), 0.5), 51.0);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_FALSE(Median({}).has_value());
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

}  // namespace
}  // namespace rankties::e2e
