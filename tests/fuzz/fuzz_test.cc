// Differential + metamorphic fuzz harness for the four tie-aware metrics.
//
// Every case derives from a single 64-bit seed. Reproduce any CI failure
// locally with
//
//     fuzz_test --seed=<s>
//
// (the seed is printed in every failure message). Sweep shape is
// configurable: --seed-base=<s> / --cases=<n> / --failure-file=<path>, or
// the environment equivalents RANKTIES_FUZZ_SEED_BASE /
// RANKTIES_FUZZ_CASES / RANKTIES_FUZZ_FAILURE_FILE. On top of those,
// --max-cases=<n> (env RANKTIES_FUZZ_MAX_CASES) *caps* the effective case
// count without replacing it — CI shards export RANKTIES_FUZZ_CASES for
// the full window while a local smoke run tacks on --max-cases=50, and
// whichever is smaller wins. The mutation-trace sweep scales with the same
// case count (one trace per ~40 cases), so the cap shrinks it too.
//
// --obs (or RANKTIES_OBS=1) turns metric collection and the flight
// recorder on for the whole sweep, so the fuzz workload also exercises the
// src/obs instrumentation in the engines under test (a CI shard runs this
// way). On failure the flight recorder's newest events are dumped to
// stderr as a post-mortem. --trace=<path> (env RANKTIES_FUZZ_PERFETTO)
// additionally writes the flight rings' newest window as Chrome
// trace-event JSON — CI publishes it as a workflow artifact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/hausdorff.h"
#include "core/kendall.h"
#include "core/profile_metrics.h"
#include "fuzz/differential.h"
#include "fuzz/fuzz_corpus.h"
#include "fuzz/mutation_trace.h"
#include "gen/random_orders.h"
#include "obs/obs.h"
#include "rank/refinement.h"
#include "ref/per_pair.h"
#include "util/rng.h"

namespace rankties::fuzz {
namespace {

struct FuzzFlags {
  std::uint64_t seed_base = 0xF00D;
  std::int64_t cases = 1500;
  std::optional<std::int64_t> max_cases;  ///< cap on `cases`, never a raise
  std::optional<std::uint64_t> single_seed;
  std::string failure_file;
  std::string trace_file;
  bool obs = false;

  std::int64_t EffectiveCases() const {
    return max_cases ? std::min(cases, *max_cases) : cases;
  }
};

FuzzFlags& Flags() {
  static FuzzFlags flags;
  return flags;
}

// The sweep mixes two size bands, chosen by the seed itself (never by loop
// position) so that --seed=<s> rebuilds the identical case: two of three
// seeds stay small enough for the exponential enumeration oracle, the
// third exercises the polynomial paths on larger universes.
FuzzCase MakeBandedCase(std::uint64_t seed) {
  return seed % 3 == 2 ? MakeCase(seed, 8, 48) : MakeCase(seed, 2, 7);
}

void ReportFailures(const CheckStats& stats,
                    const std::vector<std::uint64_t>& failing_seeds) {
  for (const std::string& failure : stats.failures) {
    ADD_FAILURE() << failure;
  }
  if (!Flags().failure_file.empty() && !failing_seeds.empty()) {
    std::ofstream out(Flags().failure_file, std::ios::app);
    for (std::uint64_t seed : failing_seeds) out << seed << "\n";
  }
}

TEST(FuzzHarnessTest, DifferentialAndMetamorphicSweep) {
  const DriverOptions options;
  CheckStats stats;
  std::vector<std::uint64_t> failing_seeds;
  std::vector<std::uint64_t> seeds;
  if (Flags().single_seed) {
    seeds.push_back(*Flags().single_seed);
  } else {
    for (std::int64_t i = 0; i < Flags().EffectiveCases(); ++i) {
      seeds.push_back(Flags().seed_base + static_cast<std::uint64_t>(i));
    }
  }
  for (std::uint64_t seed : seeds) {
    const FuzzCase c = MakeBandedCase(seed);
    if (Flags().single_seed) {
      std::fprintf(stderr, "replaying %s\n", c.Describe().c_str());
    }
    const std::size_t before = stats.failures.size();
    CheckDifferential(c, options, &stats);
    CheckMetamorphic(c, &stats);
    if (stats.failures.size() != before) failing_seeds.push_back(seed);
  }
  ReportFailures(stats, failing_seeds);
  std::fprintf(stderr,
               "fuzz sweep: %lld cases, %lld comparisons, %lld with "
               "enumeration oracle\n",
               static_cast<long long>(seeds.size()),
               static_cast<long long>(stats.comparisons),
               static_cast<long long>(stats.enumeration_cases));
  if (!Flags().single_seed && Flags().EffectiveCases() >= 1000) {
    // The acceptance floor: the harness must actually exercise the
    // oracle at scale, not silently skip it.
    EXPECT_GE(stats.comparisons, 10'000);
    EXPECT_GE(stats.enumeration_cases, Flags().EffectiveCases() / 20);
  }
}

// The mutation-trace family: seeded random edit scripts through every
// delta path — BucketOrder in-place edits, IncrementalDistanceMatrix
// count/row maintenance for all four metrics, OnlineMedianAggregator
// voter updates and withdrawals — each step cross-checked bit-exactly
// against a full recompute (fresh FromBuckets build, DistanceMatrix, src/ref
// oracle, batch median). Trace count scales with the case window so the
// default CI window lands well past the 1,000-step acceptance floor.
TEST(FuzzHarnessTest, MutationTraceSweep) {
  DriverOptions options;
  // Traces re-consult the enumeration oracle after every step of a small
  // universe, not once per case, so they get a tighter budget than the
  // one-shot differential sweep.
  options.enumeration_budget = 20'000;
  CheckStats stats;
  std::vector<std::uint64_t> failing_seeds;
  const std::int64_t cases = Flags().EffectiveCases();
  const std::int64_t corpus_traces = std::max<std::int64_t>(3, cases / 60);
  const std::int64_t edit_traces = std::max<std::int64_t>(4, cases / 40);
  for (std::int64_t i = 0; i < corpus_traces; ++i) {
    const std::uint64_t seed =
        Flags().seed_base + 0x3A5E000 + static_cast<std::uint64_t>(i);
    const std::size_t before = stats.failures.size();
    CheckMutationTrace(seed, /*steps=*/24, options, &stats);
    if (stats.failures.size() != before) failing_seeds.push_back(seed);
  }
  for (std::int64_t i = 0; i < edit_traces; ++i) {
    const std::uint64_t seed =
        Flags().seed_base + 0x7E517000 + static_cast<std::uint64_t>(i);
    const std::size_t before = stats.failures.size();
    CheckPreparedEditTrace(seed, /*steps=*/40, &stats);
    if (stats.failures.size() != before) failing_seeds.push_back(seed);
  }
  ReportFailures(stats, failing_seeds);
  std::fprintf(stderr,
               "mutation traces: %lld corpus + %lld edit, %lld steps, "
               "%lld comparisons\n",
               static_cast<long long>(corpus_traces),
               static_cast<long long>(edit_traces),
               static_cast<long long>(stats.mutation_steps),
               static_cast<long long>(stats.comparisons));
  if (!Flags().single_seed && cases >= 1000) {
    // Acceptance floor (ISSUE 7): >= 1000 seeded edit steps, each
    // asserting bit-exact agreement of every delta path.
    EXPECT_GE(stats.mutation_steps, 1000);
  }
}

TEST(FuzzHarnessTest, BatchEnginePathsBitAgree) {
  const DriverOptions options;
  CheckStats stats;
  std::vector<std::uint64_t> failing_seeds;
  for (std::size_t n : {5u, 16u, 33u}) {
    const std::uint64_t group_seed = Flags().seed_base + 7919 * n;
    std::vector<BucketOrder> lists;
    for (std::uint64_t offset = 0; offset < 4; ++offset) {
      const FuzzCase c = MakeCase(group_seed + offset, n, n);
      lists.push_back(c.sigma);
      lists.push_back(c.tau);
      lists.push_back(c.rho);
    }
    const std::size_t before = stats.failures.size();
    CheckBatchEngine(lists, group_seed, options, &stats);
    if (stats.failures.size() != before) failing_seeds.push_back(group_seed);
  }
  ReportFailures(stats, failing_seeds);
  EXPECT_GT(stats.comparisons, 0);
}

// Satellite: Theorem 5 / Proposition 6 agreement on 1,000 seeded random
// partial-ranking pairs — the combinatorial formula, the library's
// Theorem 5 path, and a from-scratch construction of *both* refinement
// pairs through the public rank API all coincide, and the constructed
// rankings really are refinements.
TEST(Theorem5AgreementTest, FormulaMatchesConstructionsOn1000Pairs) {
  Rng rng(20040612);  // PODS 2004
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t n =
        static_cast<std::size_t>(rng.UniformInt(2, trial % 10 == 0 ? 64 : 24));
    const BucketOrder sigma = RandomBucketOrder(n, rng);
    const BucketOrder tau = RandomBucketOrder(n, rng);
    const std::int64_t formula = KHausdorff(sigma, tau);
    ASSERT_EQ(formula, ref::KHausdorffTheorem5(sigma, tau))
        << "trial " << trial << " n=" << n;

    const Permutation anchor(n);  // rho: an arbitrary full ranking
    const Permutation sigma1 =
        TauRefineFull(anchor, TauRefine(tau.Reverse(), sigma));
    const Permutation tau1 = TauRefineFull(anchor, TauRefine(sigma, tau));
    const Permutation sigma2 = TauRefineFull(anchor, TauRefine(tau, sigma));
    const Permutation tau2 =
        TauRefineFull(anchor, TauRefine(sigma.Reverse(), tau));
    for (const Permutation* s : {&sigma1, &sigma2}) {
      ASSERT_TRUE(IsRefinementOf(BucketOrder::FromPermutation(*s), sigma))
          << "trial " << trial;
    }
    for (const Permutation* t : {&tau1, &tau2}) {
      ASSERT_TRUE(IsRefinementOf(BucketOrder::FromPermutation(*t), tau))
          << "trial " << trial;
    }
    ASSERT_EQ(formula, std::max(KendallTau(sigma1, tau1),
                                KendallTau(sigma2, tau2)))
        << "trial " << trial << " n=" << n;
  }
}

// Satellite: Proposition 13. K^(p) keeps the exact triangle inequality for
// p in [1/2, 1]; below 1/2 it is only a near metric — the inequality can
// fail, but never by more than the factor 1/(2p).
TEST(Prop13Test, TriangleHoldsForMetricRange) {
  Rng rng(0x13131313);
  for (int trial = 0; trial < 400; ++trial) {
    const FuzzCase c = MakeCase(0x1313000 + static_cast<std::uint64_t>(trial),
                                2, 32);
    for (double p : {0.5, 0.6, 0.75, 0.875, 1.0}) {
      EXPECT_LE(KendallP(c.sigma, c.rho, p),
                KendallP(c.sigma, c.tau, p) + KendallP(c.tau, c.rho, p))
          << c.Describe() << " p=" << p;
    }
    for (int s = 0; s < 4; ++s) {
      const double p = rng.UniformReal(0.01, 0.49);
      const double detour =
          KendallP(c.sigma, c.tau, p) + KendallP(c.tau, c.rho, p);
      const double bound = detour / (2.0 * p);
      EXPECT_LE(KendallP(c.sigma, c.rho, p), bound + 1e-9 * (1.0 + bound))
          << c.Describe() << " p=" << p;
    }
  }
}

TEST(Prop13Test, TriangleViolationWitnessBelowHalf) {
  // The canonical witness: [0|1] -> [0 1] -> [1|0]. The direct distance is
  // 1 (one discordant pair); each hop costs only p. For p < 1/2 the
  // triangle inequality fails, and the ratio attains the relaxation
  // constant 1/(2p) exactly.
  const BucketOrder split = *BucketOrder::FromBuckets(2, {{0}, {1}});
  const BucketOrder tied = BucketOrder::SingleBucket(2);
  const BucketOrder flipped = *BucketOrder::FromBuckets(2, {{1}, {0}});
  for (double p : {0.1, 0.25, 0.4, 0.49}) {
    const double direct = KendallP(split, flipped, p);
    const double detour =
        KendallP(split, tied, p) + KendallP(tied, flipped, p);
    EXPECT_GT(direct, detour) << "p=" << p;          // plain triangle fails
    EXPECT_DOUBLE_EQ(direct / detour, 1.0 / (2.0 * p));  // ... exactly 1/(2p)
  }
  for (double p : {0.5, 0.75, 1.0}) {
    EXPECT_LE(KendallP(split, flipped, p),
              KendallP(split, tied, p) + KendallP(tied, flipped, p));
  }
}

// Seeds pinned from development sweeps (a 100,000-case run of the
// differential driver found no core-vs-oracle divergence). One replayed
// representative per adversarial family — fully tied giant buckets,
// nil-bucket top-k pairs, zipf heads, shared prefixes — plus the seed-space
// extremes; they must stay green forever.
TEST(FuzzRegressionTest, PinnedSeeds) {
  const DriverOptions options;
  CheckStats stats;
  std::vector<std::uint64_t> failing_seeds;
  const std::uint64_t pinned[] = {
      0xF00D,      // first seed of the default CI window (all-singleton n=5)
      3,           // all-singleton n=7 against a coarse rho
      9,           // one-giant-bucket: sigma fully tied at n=4
      13,          // top-k-nil: tau = [0 | 1 2], k=1 with nil bottom bucket
      22,          // zipf-buckets whose head swallowed the whole universe
      14,          // zipf-buckets at n=44, beyond the enumeration budget
      0xDEADBEEF,  // shared-prefix pair at n=37
      0x7FFFFFFFFFFFFFFF,  // seed arithmetic near the top of the range
  };
  for (std::uint64_t seed : pinned) {
    const FuzzCase c = MakeBandedCase(seed);
    const std::size_t before = stats.failures.size();
    CheckDifferential(c, options, &stats);
    CheckMetamorphic(c, &stats);
    if (stats.failures.size() != before) failing_seeds.push_back(seed);
  }
  ReportFailures(stats, failing_seeds);
}

}  // namespace
}  // namespace rankties::fuzz

namespace {

std::uint64_t ParseU64(const char* text) {
  return static_cast<std::uint64_t>(std::strtoull(text, nullptr, 0));
}

// Runs in main() before gtest spawns anything; single-threaded, so the
// mt-unsafe getenv reads below are safe. NOLINTBEGIN(concurrency-mt-unsafe)
void ParseFuzzFlags(int argc, char** argv) {
  rankties::fuzz::FuzzFlags& flags = rankties::fuzz::Flags();
  if (const char* env = std::getenv("RANKTIES_FUZZ_SEED_BASE")) {
    flags.seed_base = ParseU64(env);
  }
  if (const char* env = std::getenv("RANKTIES_FUZZ_CASES")) {
    flags.cases = static_cast<std::int64_t>(ParseU64(env));
  }
  if (const char* env = std::getenv("RANKTIES_FUZZ_MAX_CASES")) {
    flags.max_cases = static_cast<std::int64_t>(ParseU64(env));
  }
  if (const char* env = std::getenv("RANKTIES_FUZZ_FAILURE_FILE")) {
    flags.failure_file = env;
  }
  if (const char* env = std::getenv("RANKTIES_OBS")) {
    flags.obs = env[0] != '\0' && env[0] != '0';
  }
  if (const char* env = std::getenv("RANKTIES_FUZZ_PERFETTO")) {
    flags.trace_file = env;
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seed=", 7) == 0) {
      flags.single_seed = ParseU64(arg + 7);
    } else if (std::strncmp(arg, "--seed-base=", 12) == 0) {
      flags.seed_base = ParseU64(arg + 12);
    } else if (std::strncmp(arg, "--cases=", 8) == 0) {
      flags.cases = static_cast<std::int64_t>(ParseU64(arg + 8));
    } else if (std::strncmp(arg, "--max-cases=", 12) == 0) {
      flags.max_cases = static_cast<std::int64_t>(ParseU64(arg + 12));
    } else if (std::strncmp(arg, "--failure-file=", 15) == 0) {
      flags.failure_file = arg + 15;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      flags.trace_file = arg + 8;
    } else if (std::strcmp(arg, "--obs") == 0) {
      flags.obs = true;
    }
  }
}
// NOLINTEND(concurrency-mt-unsafe)

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ParseFuzzFlags(argc, argv);
  const bool obs_on = rankties::fuzz::Flags().obs ||
                      !rankties::fuzz::Flags().trace_file.empty();
  rankties::obs::FlightRecorder& recorder =
      rankties::obs::FlightRecorder::Global();
  if (obs_on) {
    rankties::obs::SetEnabled(true);
    recorder.SetEnabled(true);
    std::fprintf(stderr, "fuzz: obs collection + flight recorder enabled\n");
  }
  const int rc = RUN_ALL_TESTS();
  if (obs_on) {
    recorder.SetEnabled(false);
    std::fprintf(stderr,
                 "fuzz: %zu flight events kept (%lld overwritten), "
                 "counters:\n%s\n",
                 recorder.Drain().size(),
                 static_cast<long long>(recorder.overwritten()),
                 rankties::obs::MetricsJsonObject().c_str());
    if (rc != 0) {
      // Post-mortem: the newest structured events leading into the
      // failing window (RANKTIES_DCHECK aborts dump the same way through
      // the contracts failure hook).
      recorder.DumpToStderr(128);
    }
    const std::string& trace = rankties::fuzz::Flags().trace_file;
    if (!trace.empty()) {
      if (rankties::obs::WritePerfettoJson(trace)) {
        std::fprintf(stderr, "fuzz: perfetto trace written to %s\n",
                     trace.c_str());
      } else {
        std::fprintf(stderr, "fuzz: FAILED to write perfetto trace to %s\n",
                     trace.c_str());
        return rc == 0 ? 1 : rc;
      }
    }
  }
  return rc;
}
