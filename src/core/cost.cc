#include "core/cost.h"

#include <limits>

#include "core/batch_engine.h"
#include "core/footrule.h"
#include "core/profile_metrics.h"

namespace rankties {

std::int64_t TwiceTotalFprof(const BucketOrder& candidate,
                             const std::vector<BucketOrder>& inputs) {
  std::int64_t total = 0;
  for (const BucketOrder& input : inputs) {
    total += TwiceFprof(candidate, input);
  }
  return total;
}

double TotalDistance(MetricKind kind, const BucketOrder& candidate,
                     const std::vector<BucketOrder>& inputs) {
  const std::vector<double> distances = DistancesToAll(kind, candidate, inputs);
  double total = 0.0;
  for (const double d : distances) total += d;
  return total;
}

double TotalKendallP(const BucketOrder& candidate,
                     const std::vector<BucketOrder>& inputs, double p) {
  double total = 0.0;
  for (const BucketOrder& input : inputs) {
    total += KendallP(candidate, input, p);
  }
  return total;
}

double ApproxRatio(double candidate_cost, double optimal_cost) {
  if (optimal_cost == 0.0) {
    return candidate_cost == 0.0 ? 1.0
                                 : std::numeric_limits<double>::infinity();
  }
  return candidate_cost / optimal_cost;
}

}  // namespace rankties
