#include "activity/pattern.h"

#include <cmath>

namespace ipscope::activity {

const char* PatternName(BlockPattern pattern) {
  switch (pattern) {
    case BlockPattern::kInactive:
      return "inactive";
    case BlockPattern::kStaticSparse:
      return "static-sparse";
    case BlockPattern::kDynamicShortLease:
      return "dynamic-short-lease";
    case BlockPattern::kDynamicLongLease:
      return "dynamic-long-lease";
    case BlockPattern::kFullyUtilized:
      return "fully-utilized";
    case BlockPattern::kMixed:
      return "mixed";
  }
  return "?";
}

PatternFeatures ComputeFeatures(const ActivityMatrix& m) {
  // One word-level sweep over the rows (per-host Get loops are a lint
  // perf.row-loop finding). The integer totals are the ones FillingDegree
  // and SpatioTemporalActivity would return, so every double below is the
  // same division of the same integers.
  const std::array<std::uint16_t, 256> host_days = m.HostActiveDayCounts();
  PatternFeatures f;
  std::int64_t total_active_days = 0;
  for (std::uint16_t days : host_days) {
    total_active_days += days;
    f.filling_degree += days > 0 ? 1 : 0;
  }
  if (f.filling_degree == 0) return f;
  f.stu = static_cast<double>(total_active_days) / (256.0 * m.days());
  f.mean_host_days = static_cast<double>(total_active_days) /
                     static_cast<double>(f.filling_degree);
  double sq_sum = 0.0;
  for (std::uint16_t days : host_days) {
    if (days == 0) continue;
    double delta = static_cast<double>(days) - f.mean_host_days;
    sq_sum += delta * delta;
  }
  double variance = sq_sum / static_cast<double>(f.filling_degree);
  f.host_days_cv =
      f.mean_host_days > 0 ? std::sqrt(variance) / f.mean_host_days : 0.0;
  return f;
}

BlockPattern ClassifyPattern(const PatternFeatures& f) {
  if (f.filling_degree == 0) return BlockPattern::kInactive;
  // Near-complete utilization: every address active nearly every day —
  // the gateway/proxy signature (Section 6).
  if (f.stu > 0.97 && f.filling_degree > 250) {
    return BlockPattern::kFullyUtilized;
  }
  // The paper's Fig 8b: sparsely populated blocks are overwhelmingly
  // statically assigned.
  if (f.filling_degree < 100) {
    return BlockPattern::kStaticSparse;
  }
  // Re-dealt short-lease pools smear activity uniformly across the pool:
  // every address ends up with an almost identical number of active days.
  if (f.host_days_cv < 0.25 && f.filling_degree >= 200) {
    return BlockPattern::kDynamicShortLease;
  }
  // Long leases bind addresses to heterogeneous subscribers: per-address
  // activity levels diverge strongly.
  if (f.host_days_cv >= 0.25) {
    return BlockPattern::kDynamicLongLease;
  }
  return BlockPattern::kMixed;
}

}  // namespace ipscope::activity
