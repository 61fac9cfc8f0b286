#include "core/best_input.h"

#include "core/batch_engine.h"

namespace rankties {

StatusOr<BestInputResult> BestInputAggregate(
    const std::vector<BucketOrder>& inputs, MetricKind kind) {
  if (inputs.empty()) return Status::InvalidArgument("no input rankings");
  // Every metric is symmetric and integer-exact, so one DistanceMatrix
  // (each pair once, on the global thread pool) gives every row sum the
  // full m x m grid would. Sums and the argmin (first index on ties) run
  // serially in index order.
  const std::vector<std::vector<double>> matrix = DistanceMatrix(kind, inputs);
  BestInputResult best;
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    double total = 0.0;
    for (const double d : matrix[i]) total += d;
    if (i == 0 || total < best.total_cost) best = {i, total};
  }
  return best;
}

}  // namespace rankties
