#include "core/metric_registry.h"

#include "core/prepared.h"

namespace rankties {

const std::vector<MetricKind>& AllMetricKinds() {
  static const std::vector<MetricKind> kKinds = {
      MetricKind::kKprof, MetricKind::kFprof, MetricKind::kKHaus,
      MetricKind::kFHaus};
  return kKinds;
}

const char* MetricName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kKprof:
      return "Kprof";
    case MetricKind::kFprof:
      return "Fprof";
    case MetricKind::kKHaus:
      return "KHaus";
    case MetricKind::kFHaus:
      return "FHaus";
  }
  return "unknown";
}

double ComputeMetric(MetricKind kind, const BucketOrder& sigma,
                     const BucketOrder& tau) {
  PairScratch scratch;
  return ComputeMetric(kind, sigma, tau, scratch);
}

double ComputeMetric(MetricKind kind, const BucketOrder& sigma,
                     const BucketOrder& tau, PairScratch& scratch) {
  switch (kind) {
    case MetricKind::kKprof:
      return Kprof(sigma, tau, scratch);
    case MetricKind::kFprof:
      return Fprof(sigma, tau);
    case MetricKind::kKHaus:
      return static_cast<double>(KHausdorff(sigma, tau, scratch));
    case MetricKind::kFHaus:
      return FHausdorff(sigma, tau, scratch);
  }
  return 0.0;  // unreachable; keeps -Wreturn-type quiet
}

MetricFn MetricFunction(MetricKind kind) {
  return [kind](const BucketOrder& sigma, const BucketOrder& tau) {
    return ComputeMetric(kind, sigma, tau);
  };
}

}  // namespace rankties
