// rankties-lint-fixture: expect RT010
// An oracle beside the production code it checks: the naive twin lives
// in src/core, and the header reaches into the oracle tier. A bug shared
// by the two could cancel itself out in the differential tests; oracles
// belong in src/ref alone.
#include "ref/ref_metrics.h"

#include <cstdint>

#include "rank/permutation.h"

namespace rankties {

std::int64_t KendallTauNaive(const Permutation& sigma, const Permutation& tau);

}  // namespace rankties
