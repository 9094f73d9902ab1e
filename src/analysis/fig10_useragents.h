// Fig 10: User-Agent diversity per /24 — traffic volume (sampled requests)
// vs relative host count (unique UA strings), with the three regions the
// paper identifies: the residential bulk, low-diversity crawler bots, and
// high-diversity gateway blocks (disproportionately Asian cellular CGN).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "cdn/observatory.h"
#include "cdn/useragent.h"
#include "stats/histogram.h"

namespace ipscope::analysis {

struct Fig10Result {
  std::vector<cdn::BlockUaSample> samples;  // blocks with >=1 sample
  stats::LogLogGrid grid{10.0, 8, 7};

  std::uint64_t region_residential = 0;
  std::uint64_t region_bots = 0;
  std::uint64_t region_gateways = 0;

  // The paper's attribution of the gateway region via WHOIS (observational,
  // like the paper's manual inspection): share of gateway-region blocks
  // registered to cellular operators, and share registered in APNIC.
  double gateway_whois_cellular = 0.0;
  double gateway_whois_apnic = 0.0;

  // Ground-truth checks of the gateway region (validation the paper could
  // not do).
  double gateway_cgn_precision = 0.0;
  double gateway_apnic_fraction = 0.0;
  double bots_crawler_precision = 0.0;
};

// The gateway region: >= min_samples samples (500 at the paper's 1/4096
// rate), >= 30% of them unique strings.
bool IsGatewaySample(const cdn::BlockUaSample& sample, double min_samples);

// Samples each block's UA stream over the last 28 steps (paper §6.3).
Fig10Result RunFig10(const sim::World& world,
                     const cdn::BlockHitTable& daily_hits);

void PrintFig10(const Fig10Result& result, std::ostream& os);

}  // namespace ipscope::analysis
