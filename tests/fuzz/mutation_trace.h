#ifndef RANKTIES_TESTS_FUZZ_MUTATION_TRACE_H_
#define RANKTIES_TESTS_FUZZ_MUTATION_TRACE_H_

#include <cstdint>

#include "fuzz/differential.h"

/// The mutation-trace fuzz family (incremental engines): seeded random edit
/// scripts applied through every delta path — BucketOrder in-place
/// edits, IncrementalDistanceMatrix row/count maintenance, and
/// OnlineMedianAggregator voter updates — asserting bit-exact agreement
/// with a full from-scratch recompute (kernels, batch engine, and
/// the src/ref oracle) after *every* step. A trace that diverges reports
/// the trace seed; replay with `fuzz_test --seed=<s>` is not applicable
/// here (traces are a separate sweep), so messages carry the trace seed
/// and step index instead.
namespace rankties::fuzz {

/// One corpus trace: m rankings over one universe, a per-kind
/// IncrementalDistanceMatrix for all four metrics, and an
/// OnlineMedianAggregator, driven through `steps` seeded moves
/// (MoveToBucket / MoveToNewBucket / occasional ReplaceList). After every
/// step: the delta-maintained flat arrays equal a fresh build of the
/// ground truth, every matrix equals DistanceMatrix over the ground truth
/// bit-for-bit, the mutated row matches the src/ref oracle (enumeration
/// oracles within options.enumeration_budget), and the online median
/// scores/top-k equal the batch MedianRankScoresQuad / MedianAggregateTopK.
/// The trace ends by withdrawing voters one at a time (RemoveVoter) with
/// the same batch cross-check at each size.
void CheckMutationTrace(std::uint64_t seed, std::size_t steps,
                        const DriverOptions& options, CheckStats* stats);

/// One single-ranking trace over all four BucketOrder delta ops —
/// InsertItem / EraseItem included, which change the universe size — each
/// step asserting array-for-array equality with a fresh FromBuckets build
/// of the ground truth.
void CheckPreparedEditTrace(std::uint64_t seed, std::size_t steps,
                            CheckStats* stats);

}  // namespace rankties::fuzz

#endif  // RANKTIES_TESTS_FUZZ_MUTATION_TRACE_H_
