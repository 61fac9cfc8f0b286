#ifndef RANKTIES_GEN_RANDOM_ORDERS_H_
#define RANKTIES_GEN_RANDOM_ORDERS_H_

#include <cstddef>
#include <vector>

#include "rank/bucket_order.h"
#include "rank/permutation.h"
#include "util/rng.h"

namespace rankties {

/// A uniformly random composition of n (ordered positive parts): the random
/// *type* of a bucket order (paper A.1). Each of the n-1 gaps is a boundary
/// independently with probability 1/2, so all 2^(n-1) compositions are
/// equally likely. n = 0 gives the empty type.
std::vector<std::size_t> RandomType(std::size_t n, Rng& rng);

/// A random bucket order: random type + uniformly random assignment of
/// elements to the slots. n = 0 gives the empty order.
BucketOrder RandomBucketOrder(std::size_t n, Rng& rng);

/// A random bucket order with exactly `t` buckets (uniform composition into
/// t parts via stars-and-bars boundary sampling, then random assignment).
/// Requires 1 <= t <= n.
BucketOrder RandomBucketOrderWithBuckets(std::size_t n, std::size_t t,
                                         Rng& rng);

/// A random top-k list (random permutation truncated at k). Requires k <= n.
BucketOrder RandomTopK(std::size_t n, std::size_t k, Rng& rng);

/// A bucket order drawn by grouping a random permutation into buckets whose
/// sizes are geometric with mean ~`mean_bucket`, clipped to the remaining
/// domain. Produces the "few distinct values" shape of database attributes.
BucketOrder RandomFewValued(std::size_t n, double mean_bucket, Rng& rng);

}  // namespace rankties

#endif  // RANKTIES_GEN_RANDOM_ORDERS_H_
