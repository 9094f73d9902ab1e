// Block activity-pattern classification (Figs 6 & 7).
//
// The paper identifies characteristic /24 activity patterns caused by the
// interplay of address assignment practice and user behaviour:
//   * statically assigned, sparsely populated blocks (Fig 6a),
//   * dynamically assigned pools cycled round-robin (Fig 6b),
//   * dynamic pools with long leases — a few near-continuously-active
//     addresses plus intermittent ones (Fig 6c),
//   * dynamic pools with ~24h leases — dense, high-turnover fill (Fig 6d),
//   * fully utilized blocks (gateways/proxies, Section 5.3/6).
//
// ClassifyPattern is a heuristic over interpretable features; its agreement
// with simulator ground truth is measured in tests and in the fig6 bench.
#pragma once

#include "activity/matrix.h"

namespace ipscope::activity {

enum class BlockPattern {
  kInactive,          // no activity at all
  kStaticSparse,      // low FD, stable set of addresses
  kDynamicShortLease, // very high FD, high daily turnover
  kDynamicLongLease,  // high FD, low turnover, mixed host activity
  kFullyUtilized,     // near-complete spatio-temporal utilization
  kMixed,             // none of the clean shapes
};

const char* PatternName(BlockPattern pattern);

// Every feature is a reduction of the block's per-host active-day counts
// (ActivityMatrix::HostActiveDayCounts), so ComputeFeatures makes one pass
// over the rows.
struct PatternFeatures {
  int filling_degree = 0;   // distinct active addresses
  double stu = 0.0;         // spatio-temporal utilization
  double mean_host_days = 0.0;  // mean active days per active address
  // Coefficient of variation of per-host active-day counts — the key
  // lease-regime discriminator: a re-dealt short-lease pool gives every
  // address a near-identical activity share (cv ~ 0), whereas long leases
  // tie addresses to heterogeneous subscribers (cv >> 0).
  double host_days_cv = 0.0;
};

PatternFeatures ComputeFeatures(const ActivityMatrix& matrix);

BlockPattern ClassifyPattern(const PatternFeatures& features);

inline BlockPattern ClassifyPattern(const ActivityMatrix& matrix) {
  return ClassifyPattern(ComputeFeatures(matrix));
}

}  // namespace ipscope::activity
