// Figs 11 & 12: Internet-wide demographics of the active IPv4 space.
//
// Per active /24: spatio-temporal utilization (already in (0,1]), traffic
// contribution and relative host count (both log-normalized by the maximum
// across active blocks, paper §7), binned into a 10x10x10 cube (Fig 11) and
// split per RIR into 10x10 STU x traffic grids colored by mean host count
// (Fig 12).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>

#include "activity/store.h"
#include "cdn/observatory.h"
#include "geo/country.h"
#include "stats/binning.h"

namespace ipscope::analysis {

struct DemographicsResult {
  stats::FeatureCube cube{10};
  std::array<stats::FeatureCube, geo::kRirCount> per_rir{
      stats::FeatureCube{10}, stats::FeatureCube{10}, stats::FeatureCube{10},
      stats::FeatureCube{10}, stats::FeatureCube{10}};
  std::uint64_t blocks = 0;

  // The paper's headline observations on the cube.
  double low_stu_cluster = 0.0;   // fraction of blocks with STU < 0.2
  double high_stu_cluster = 0.0;  // fraction with STU > 0.8
  // Fraction of each RIR's blocks in the "gateway corner"
  // (STU >= 0.9 and normalized host count >= 0.7).
  std::array<double, geo::kRirCount> gateway_corner{};
};

// `daily_store` and `daily_hits` come from one daily observatory, so row i
// of each is the same block.
DemographicsResult RunDemographics(const sim::World& world,
                                   const activity::ActivityStore& daily_store,
                                   const cdn::BlockHitTable& daily_hits);

void PrintDemographics(const DemographicsResult& result, std::ostream& os);

}  // namespace ipscope::analysis
