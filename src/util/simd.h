#ifndef RANKTIES_UTIL_SIMD_H_
#define RANKTIES_UTIL_SIMD_H_

/// Runtime SIMD dispatch shim for the prepared-kernel hot loops: the Fprof
/// L1 accumulation and the key staging of the flat feed of core/prepared.cc's
/// joint-cell walk (the walk's sorted feed builds its int64 keys inline).
///
/// Contract (DESIGN.md §7):
///  * This header is the only translation-unit-visible home of raw vector
///    intrinsics in the repo — enforced by rankties-lint rule RT006. Callers
///    use the dispatching entry points (AbsDiffSumI64, JointKeys32) and never
///    see an intrinsic.
///  * Every vector kernel has a scalar twin, and the dispatcher guarantees
///    bit-identical results between the two: all kernels here are exact
///    integer computations with order-independent accumulation, so lane
///    count never changes the answer. The fuzz/oracle suites run under both
///    paths in CI (simd-dispatch matrix job).
///  * On non-x86 targets (or non-GCC/Clang toolchains) the scalar path is
///    the only path: the intrinsics and the detection code are compiled out
///    entirely, not stubbed.
///  * The AVX2 path is selected at runtime iff the CPU supports AVX2 and the
///    environment variable RANKTIES_NO_AVX2 is unset. The decision is made
///    once, on first use, before any worker thread exists (the thread pool
///    is lazily constructed by the first parallel batch call, which already
///    sits above any kernel call).
///
/// The AVX2 functions use per-function `__attribute__((target("avx2")))`
/// so the translation units that include this header keep their portable
/// baseline flags; only these bodies are compiled for AVX2, and they are
/// never reached unless the runtime check passed.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RANKTIES_SIMD_X86 1
#include <immintrin.h>
#else
#define RANKTIES_SIMD_X86 0
#endif

#if RANKTIES_SIMD_X86
// The read-only environment scan below walks the POSIX environment block
// directly instead of calling std::getenv, which the clang-tidy profile
// bans as mt-unsafe; a pure scan of the block keeps this header free of
// suppressions. The scan happens once, before any worker thread exists.
extern "C" char** environ;
#endif

namespace rankties::simd {

/// The dispatch levels, lowest first. kScalar is always available and is
/// the reference semantics; kAvx2 is an implementation detail that must be
/// observationally identical.
enum class Level : std::uint8_t { kScalar = 0, kAvx2 = 1 };

inline const char* LevelName(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

/// True when the RANKTIES_NO_AVX2 environment variable is set (to anything,
/// including the empty string) — the CI dispatch matrix uses it to force the
/// scalar path on AVX2-capable runners. Always false on non-x86 builds,
/// where scalar is the only path regardless.
inline bool ScalarForcedByEnv() {
#if RANKTIES_SIMD_X86
  constexpr const char kName[] = "RANKTIES_NO_AVX2";
  constexpr std::size_t kLen = sizeof(kName) - 1;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, kName, kLen) == 0 && (*env)[kLen] == '=') {
      return true;
    }
  }
#endif
  return false;
}

/// What the hardware supports, independent of any override.
inline bool CpuHasAvx2() {
#if RANKTIES_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// Re-derives the dispatch decision from the CPU and the environment; pure,
/// no caching. ActiveLevel() below caches the first result.
inline Level DetectLevel() {
  return (CpuHasAvx2() && !ScalarForcedByEnv()) ? Level::kAvx2
                                                : Level::kScalar;
}

namespace internal {
inline std::atomic<Level>& ActiveLevelSlot() {
  static std::atomic<Level> slot{DetectLevel()};
  return slot;
}
}  // namespace internal

/// The level the dispatching kernels actually use. Detected once on first
/// call; stable for the life of the process unless a test overrides it.
inline Level ActiveLevel() {
  return internal::ActiveLevelSlot().load(std::memory_order_relaxed);
}

/// Test hook: force a level (clamped to what the CPU supports, so asking
/// for kAvx2 on scalar-only hardware degrades to kScalar instead of
/// faulting). Tests use this to run both paths in one process and assert
/// bit-identity.
inline void SetLevelForTesting(Level level) {
  if (level == Level::kAvx2 && !CpuHasAvx2()) level = Level::kScalar;
  internal::ActiveLevelSlot().store(level, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Kernel: sum of |a[i] - b[i]| over int64 arrays (the Fprof / footrule L1
// accumulation on doubled positions). Exact integer result; the inputs are
// doubled positions bounded by 2n, so the sum is bounded by 2n^2 and the
// accumulator cannot overflow for any domain that fits in memory.

inline std::int64_t AbsDiffSumI64Scalar(const std::int64_t* a,
                                        const std::int64_t* b,
                                        std::size_t n) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t d = a[i] - b[i];
    total += d < 0 ? -d : d;
  }
  return total;
}

#if RANKTIES_SIMD_X86
__attribute__((target("avx2"))) inline std::int64_t AbsDiffSumI64Avx2(
    const std::int64_t* a, const std::int64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i d = _mm256_sub_epi64(va, vb);
    // |d| without a native epi64 abs: (d ^ sign) - sign, sign = d < 0.
    const __m256i sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), d);
    acc = _mm256_add_epi64(acc,
                           _mm256_sub_epi64(_mm256_xor_si256(d, sign), sign));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    const std::int64_t d = a[i] - b[i];
    total += d < 0 ? -d : d;
  }
  return total;
}
#endif  // RANKTIES_SIMD_X86

/// Dispatching entry point.
inline std::int64_t AbsDiffSumI64(const std::int64_t* a, const std::int64_t* b,
                                  std::size_t n) {
#if RANKTIES_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) return AbsDiffSumI64Avx2(a, b, n);
#endif
  return AbsDiffSumI64Scalar(a, b, n);
}

// ---------------------------------------------------------------------------
// Kernel: joint-histogram keys keys[i] = sigma_of[i] * t_tau + tau_of[i]
// (the flat feed of core/prepared.cc's joint-cell walk). Only used there,
// where the key space t_sigma * t_tau is capped at 2^20, so the int32
// product cannot overflow.

inline void JointKeys32Scalar(const std::int32_t* sigma_of,
                              const std::int32_t* tau_of, std::size_t n,
                              std::int32_t t_tau, std::int32_t* keys) {
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = sigma_of[i] * t_tau + tau_of[i];
  }
}

#if RANKTIES_SIMD_X86
__attribute__((target("avx2"))) inline void JointKeys32Avx2(
    const std::int32_t* sigma_of, const std::int32_t* tau_of, std::size_t n,
    std::int32_t t_tau, std::int32_t* keys) {
  const __m256i vt = _mm256_set1_epi32(t_tau);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sigma_of + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tau_of + i));
    const __m256i key = _mm256_add_epi32(_mm256_mullo_epi32(vs, vt), vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i), key);
  }
  for (; i < n; ++i) {
    keys[i] = sigma_of[i] * t_tau + tau_of[i];
  }
}
#endif  // RANKTIES_SIMD_X86

/// Dispatching entry point.
inline void JointKeys32(const std::int32_t* sigma_of,
                        const std::int32_t* tau_of, std::size_t n,
                        std::int32_t t_tau, std::int32_t* keys) {
#if RANKTIES_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    JointKeys32Avx2(sigma_of, tau_of, n, t_tau, keys);
    return;
  }
#endif
  JointKeys32Scalar(sigma_of, tau_of, n, t_tau, keys);
}

}  // namespace rankties::simd

#endif  // RANKTIES_UTIL_SIMD_H_
