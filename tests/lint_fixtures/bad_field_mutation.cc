// rankties-lint-fixture: expect RT005
// Reaching into BucketOrder's representation outside src/rank/ bypasses
// the partition/position invariants that Validate() certifies.
#include <vector>

namespace rankties {

struct FakeOrder {
  std::vector<long> twice_pos_;
};

void ClobberPositions(FakeOrder& order) {
  order.twice_pos_.clear();
}

}  // namespace rankties
