#include "core/footrule_matching.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "util/combinatorics.h"

namespace rankties {

StatusOr<AssignmentResult> MinCostAssignment(
    const std::vector<std::vector<std::int64_t>>& cost) {
  const std::size_t n = cost.size();
  if (n == 0) return Status::InvalidArgument("empty cost matrix");
  for (const auto& row : cost) {
    if (row.size() != n) {
      return Status::InvalidArgument("cost matrix must be square");
    }
  }
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

  // Jonker–Volgenant shortest augmenting path with potentials; 1-based
  // internal arrays, row 0 / column 0 are sentinels.
  std::vector<std::int64_t> u(n + 1, 0), v(n + 1, 0);
  std::vector<std::size_t> row_of_col(n + 1, 0);  // p[j]: row matched to col j
  std::vector<std::size_t> way(n + 1, 0);
  for (std::size_t r = 1; r <= n; ++r) {
    row_of_col[0] = r;
    std::size_t j0 = 0;
    std::vector<std::int64_t> minv(n + 1, kInf);
    std::vector<bool> used(n + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = row_of_col[j0];
      std::int64_t delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const std::int64_t cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[row_of_col[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (row_of_col[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      row_of_col[j0] = row_of_col[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.column_of_row.assign(n, 0);
  for (std::size_t j = 1; j <= n; ++j) {
    result.column_of_row[row_of_col[j] - 1] = j - 1;
  }
  for (std::size_t r = 0; r < n; ++r) {
    result.total_cost += cost[r][result.column_of_row[r]];
  }
  return result;
}

StatusOr<AssignmentResult> StructuredSlotAssignment(
    const std::vector<std::int64_t>& element_pos,
    const std::vector<std::int64_t>& slot_pos) {
  const std::size_t n = element_pos.size();
  if (n == 0) return Status::InvalidArgument("empty instance");
  if (slot_pos.size() != n) {
    return Status::InvalidArgument("element/slot counts differ");
  }
  for (std::size_t c = 1; c < n; ++c) {
    if (slot_pos[c] < slot_pos[c - 1]) {
      return Status::InvalidArgument(
          "slot positions not non-decreasing; use MinCostAssignment");
    }
  }
  // Exchange argument: crossing pairs (a <= a' matched to b' >= b matched
  // to a') never beat the uncrossed matching under |.|, so sorting elements
  // by position and pairing them with the already-sorted slots in order is
  // optimal. Ties broken by element id so the result is deterministic.
  std::vector<std::size_t> by_pos(n);
  std::iota(by_pos.begin(), by_pos.end(), 0);
  std::sort(by_pos.begin(), by_pos.end(),
            [&](std::size_t a, std::size_t b) {
              if (element_pos[a] != element_pos[b]) {
                return element_pos[a] < element_pos[b];
              }
              return a < b;
            });
  AssignmentResult result;
  result.column_of_row.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t e = by_pos[k];
    result.column_of_row[e] = k;
    result.total_cost += std::abs(element_pos[e] - slot_pos[k]);
  }
  return result;
}

namespace {

// The m == 1 fast path shared by FootruleOptimalOfType and
// FootruleOptimalFull: a single input makes every row cost
// |2 sigma(e) - slot position|, exactly the structured shape.
StatusOr<AssignmentResult> SingleInputAssignment(
    const BucketOrder& input, const std::vector<std::int64_t>& slot_pos) {
  const std::size_t n = input.n();
  std::vector<std::int64_t> element_pos(n);
  for (std::size_t e = 0; e < n; ++e) {
    element_pos[e] = input.TwicePosition(static_cast<ElementId>(e));
  }
  return StructuredSlotAssignment(element_pos, slot_pos);
}

}  // namespace

StatusOr<FootruleOptimalTypedResult> FootruleOptimalOfType(
    const std::vector<BucketOrder>& inputs,
    const std::vector<std::size_t>& alpha) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();
  std::size_t total = 0;
  for (std::size_t s : alpha) {
    if (s == 0) return Status::InvalidArgument("zero bucket size in type");
    total += s;
  }
  if (total != n) {
    return Status::InvalidArgument("type sizes do not sum to n");
  }

  // Column c is a slot of bucket slot_bucket[c] with doubled position
  // slot_twice_pos[c].
  std::vector<BucketIndex> slot_bucket(n);
  std::vector<std::int64_t> slot_twice_pos(n);
  {
    std::size_t c = 0;
    std::int64_t before = 0;
    for (std::size_t b = 0; b < alpha.size(); ++b) {
      const std::int64_t size = static_cast<std::int64_t>(alpha[b]);
      const std::int64_t twice_pos = 2 * before + size + 1;
      for (std::size_t i = 0; i < alpha[b]; ++i, ++c) {
        slot_bucket[c] = static_cast<BucketIndex>(b);
        slot_twice_pos[c] = twice_pos;
      }
      before += size;
    }
  }
  // Single input: the slot positions are non-decreasing by construction, so
  // the structured monotone solver replaces the O(n^3) Hungarian run. With
  // several inputs the row costs are sums of absolute deviations (not a
  // single |a - b|), so the general matcher remains the solver.
  StatusOr<AssignmentResult> assignment =
      inputs.size() == 1
          ? SingleInputAssignment(inputs.front(), slot_twice_pos)
          : Status::InvalidArgument("multi-input instance is unstructured");
  if (!assignment.ok()) {
    std::vector<std::vector<std::int64_t>> cost(
        n, std::vector<std::int64_t>(n, 0));
    for (const BucketOrder& input : inputs) {
      for (std::size_t e = 0; e < n; ++e) {
        const std::int64_t twice_pos =
            input.TwicePosition(static_cast<ElementId>(e));
        for (std::size_t c = 0; c < n; ++c) {
          cost[e][c] += std::abs(twice_pos - slot_twice_pos[c]);
        }
      }
    }
    assignment = MinCostAssignment(cost);
  }
  if (!assignment.ok()) return assignment.status();
  std::vector<BucketIndex> bucket_of(n);
  for (std::size_t e = 0; e < n; ++e) {
    bucket_of[e] = slot_bucket[assignment->column_of_row[e]];
  }
  StatusOr<BucketOrder> order = BucketOrder::FromBucketIndex(bucket_of);
  if (!order.ok()) return order.status();
  return FootruleOptimalTypedResult{std::move(order).value(),
                                    assignment->total_cost};
}

StatusOr<FootruleOptimalTypedResult> FootruleOptimalTopK(
    const std::vector<BucketOrder>& inputs, std::size_t k) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();
  if (k > n) return Status::InvalidArgument("k exceeds domain size");
  std::vector<std::size_t> alpha;
  if (k == n) {
    alpha.assign(n, 1);
  } else {
    alpha.assign(k, 1);
    alpha.push_back(n - k);
  }
  return FootruleOptimalOfType(inputs, alpha);
}

StatusOr<FootruleOptimalTypedResult> FprofOptimalPartial(
    const std::vector<BucketOrder>& inputs) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();
  if (n > 16) {
    return Status::InvalidArgument(
        "type enumeration limited to n <= 16 (2^(n-1) assignment solves)");
  }
  StatusOr<FootruleOptimalTypedResult> best =
      Status::Internal("no type evaluated");
  Status failure = Status::Ok();
  ForEachComposition(n, [&](const std::vector<std::size_t>& alpha) {
    StatusOr<FootruleOptimalTypedResult> candidate =
        FootruleOptimalOfType(inputs, alpha);
    if (!candidate.ok()) {
      failure = candidate.status();
      return false;
    }
    if (!best.ok() ||
        candidate->twice_total_cost < best->twice_total_cost) {
      best = std::move(candidate);
    }
    return true;
  });
  if (!failure.ok()) return failure;
  return best;
}

StatusOr<FootruleOptimalResult> FootruleOptimalFull(
    const std::vector<BucketOrder>& inputs) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();
  // Slot r (0-based) is rank r+1 with doubled position 2(r+1) — strictly
  // increasing, so single-input instances are structured.
  StatusOr<AssignmentResult> assignment =
      Status::InvalidArgument("multi-input instance is unstructured");
  if (inputs.size() == 1) {
    std::vector<std::int64_t> slot_pos(n);
    for (std::size_t r = 0; r < n; ++r) {
      slot_pos[r] = 2 * static_cast<std::int64_t>(r + 1);
    }
    assignment = SingleInputAssignment(inputs.front(), slot_pos);
  }
  if (!assignment.ok()) {
    // cost[e][r] = sum_i |2 sigma_i(e) - 2(r+1)|.
    std::vector<std::vector<std::int64_t>> cost(
        n, std::vector<std::int64_t>(n, 0));
    for (const BucketOrder& input : inputs) {
      for (std::size_t e = 0; e < n; ++e) {
        const std::int64_t twice_pos =
            input.TwicePosition(static_cast<ElementId>(e));
        for (std::size_t r = 0; r < n; ++r) {
          cost[e][r] +=
              std::abs(twice_pos - 2 * static_cast<std::int64_t>(r + 1));
        }
      }
    }
    assignment = MinCostAssignment(cost);
  }
  if (!assignment.ok()) return assignment.status();
  std::vector<ElementId> ranks(n);
  for (std::size_t e = 0; e < n; ++e) {
    ranks[e] = static_cast<ElementId>(assignment->column_of_row[e]);
  }
  StatusOr<Permutation> perm = Permutation::FromRanks(std::move(ranks));
  if (!perm.ok()) return perm.status();
  return FootruleOptimalResult{std::move(perm).value(),
                               assignment->total_cost};
}

}  // namespace rankties
