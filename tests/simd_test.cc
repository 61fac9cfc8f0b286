#include "util/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace rankties::simd {
namespace {

// Restores the process dispatch level after each test so the override never
// leaks into other suites in the same binary.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override { SetLevelForTesting(DetectLevel()); }
};

TEST_F(SimdTest, DetectionIsConsistent) {
  // The detected level can only be AVX2 on hardware that supports it and
  // when the override is absent; scalar is always a legal answer.
  const Level detected = DetectLevel();
  if (detected == Level::kAvx2) {
    EXPECT_TRUE(CpuHasAvx2());
    EXPECT_FALSE(ScalarForcedByEnv());
  }
  // The CI dispatch matrix runs this binary once with RANKTIES_NO_AVX2 set
  // and once without; the forced-scalar leg proves the env override
  // end-to-end.
  if (ScalarForcedByEnv()) {
    EXPECT_EQ(DetectLevel(), Level::kScalar);
  }
  EXPECT_STREQ(LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
}

TEST_F(SimdTest, SetLevelForTestingClampsToHardware) {
  SetLevelForTesting(Level::kScalar);
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  SetLevelForTesting(Level::kAvx2);
  if (CpuHasAvx2()) {
    EXPECT_EQ(ActiveLevel(), Level::kAvx2);
  } else {
    EXPECT_EQ(ActiveLevel(), Level::kScalar);
  }
}

// Bit-identity of the dispatched kernels against the scalar twins, across
// lengths that cover the empty case, sub-vector-width tails, exact vector
// multiples, and long mixed runs.
TEST_F(SimdTest, AbsDiffSumMatchesScalarAtEveryLevel) {
  Rng rng(20260807);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{7}, std::size_t{8}, std::size_t{64}, std::size_t{1001}}) {
    std::vector<std::int64_t> a(n);
    std::vector<std::int64_t> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Doubled positions in real use are bounded by 2n, but the kernel
      // contract is plain int64 L1; exercise a wider (still non-overflowing)
      // range including negatives.
      a[i] = rng.UniformInt(-1'000'000, 1'000'000);
      b[i] = rng.UniformInt(-1'000'000, 1'000'000);
    }
    const std::int64_t want = AbsDiffSumI64Scalar(a.data(), b.data(), n);
    for (const Level level : {Level::kScalar, Level::kAvx2}) {
      SetLevelForTesting(level);
      EXPECT_EQ(AbsDiffSumI64(a.data(), b.data(), n), want)
          << "n=" << n << " level=" << LevelName(ActiveLevel());
    }
  }
}

TEST_F(SimdTest, JointKeysMatchScalarAtEveryLevel) {
  Rng rng(99);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{8},
        std::size_t{9}, std::size_t{16}, std::size_t{400}}) {
    for (const std::int32_t t_tau : {1, 2, 7, 1024}) {
      std::vector<std::int32_t> sigma_of(n);
      std::vector<std::int32_t> tau_of(n);
      for (std::size_t i = 0; i < n; ++i) {
        sigma_of[i] = static_cast<std::int32_t>(rng.UniformInt(0, 1023));
        tau_of[i] = static_cast<std::int32_t>(rng.UniformInt(0, t_tau - 1));
      }
      std::vector<std::int32_t> want(n);
      JointKeys32Scalar(sigma_of.data(), tau_of.data(), n, t_tau,
                        want.data());
      for (const Level level : {Level::kScalar, Level::kAvx2}) {
        SetLevelForTesting(level);
        std::vector<std::int32_t> got(n, -1);
        JointKeys32(sigma_of.data(), tau_of.data(), n, t_tau, got.data());
        EXPECT_EQ(got, want)
            << "n=" << n << " t_tau=" << t_tau
            << " level=" << LevelName(ActiveLevel());
      }
    }
  }
}

}  // namespace
}  // namespace rankties::simd
