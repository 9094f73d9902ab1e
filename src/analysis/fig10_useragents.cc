#include "analysis/fig10_useragents.h"

#include <ostream>

#include "geo/country.h"
#include "report/table.h"
#include "whois/whois.h"

namespace ipscope::analysis {

namespace {

enum class UaRegion { kResidential, kBots, kGateways };

// Region boundaries in the (samples, unique) plane. Bots issue masses of
// requests through one or two strings; gateways combine high volume with
// high diversity; everything else is the residential bulk.
UaRegion ClassifyRegion(const cdn::BlockUaSample& s) {
  double samples = static_cast<double>(s.samples);
  double unique = static_cast<double>(s.unique_uas);
  if (samples >= 100 && unique <= std::max(4.0, samples / 50.0)) {
    return UaRegion::kBots;
  }
  if (IsGatewaySample(s, 500)) return UaRegion::kGateways;
  return UaRegion::kResidential;
}

}  // namespace

bool IsGatewaySample(const cdn::BlockUaSample& sample, double min_samples) {
  const auto samples = static_cast<double>(sample.samples);
  return samples >= min_samples &&
         static_cast<double>(sample.unique_uas) >= 0.3 * samples;
}

Fig10Result RunFig10(const sim::World& world,
                     const cdn::BlockHitTable& daily_hits) {
  Fig10Result out;
  const int days = daily_hits.steps;
  cdn::UserAgentSampler sampler{world.config().ua_sample_rate};
  whois::WhoisDirectory directory{world};

  std::uint64_t gateway_cgn = 0, gateway_apnic = 0, bots_crawler = 0;
  std::uint64_t whois_cellular = 0, whois_apnic = 0;

  for (std::size_t i = 0; i < daily_hits.plans.size(); ++i) {
    const sim::BlockPlan& plan = *daily_hits.plans[i];
    cdn::BlockUaSample sample =
        sampler.Sample(plan, daily_hits.Sum(i, days - 28, days));
    if (sample.samples == 0) continue;
    out.grid.Add(static_cast<double>(sample.samples),
                 static_cast<double>(sample.unique_uas));
    switch (ClassifyRegion(sample)) {
      case UaRegion::kResidential:
        ++out.region_residential;
        break;
      case UaRegion::kBots:
        ++out.region_bots;
        if (plan.base.kind == sim::PolicyKind::kCrawlerBots) ++bots_crawler;
        break;
      case UaRegion::kGateways: {
        ++out.region_gateways;
        if (plan.base.kind == sim::PolicyKind::kCgnGateway) ++gateway_cgn;
        if (plan.country >= 0 &&
            geo::Countries()[static_cast<std::size_t>(plan.country)].rir ==
                geo::Rir::kApnic) {
          ++gateway_apnic;
        }
        // The paper's method: consult the registry for who holds the block.
        auto record = directory.Lookup(net::BlockKeyOf(plan.block));
        if (record) {
          if (record->org_type == "cellular-operator") ++whois_cellular;
          int ci = geo::CountryIndex(record->country);
          if (ci >= 0 && geo::Countries()[static_cast<std::size_t>(ci)].rir ==
                             geo::Rir::kApnic) {
            ++whois_apnic;
          }
        }
        break;
      }
    }
    out.samples.push_back(sample);
  }

  if (out.region_gateways > 0) {
    out.gateway_cgn_precision = static_cast<double>(gateway_cgn) /
                                static_cast<double>(out.region_gateways);
    out.gateway_apnic_fraction = static_cast<double>(gateway_apnic) /
                                 static_cast<double>(out.region_gateways);
    out.gateway_whois_cellular = static_cast<double>(whois_cellular) /
                                 static_cast<double>(out.region_gateways);
    out.gateway_whois_apnic = static_cast<double>(whois_apnic) /
                              static_cast<double>(out.region_gateways);
  }
  if (out.region_bots > 0) {
    out.bots_crawler_precision = static_cast<double>(bots_crawler) /
                                 static_cast<double>(out.region_bots);
  }
  return out;
}

void PrintFig10(const Fig10Result& result, std::ostream& os) {
  os << "=== Fig 10: UA samples vs unique UA strings per /24 ===\n";
  os << "log-log density (rows: unique UAs 10^y, cols: samples 10^x):\n";
  for (int y = result.grid.y_bins() - 1; y >= 0; --y) {
    os << "10^" << y << " |";
    for (int x = 0; x < result.grid.x_bins(); ++x) {
      std::uint64_t c = result.grid.count(x, y);
      char ch = ' ';
      if (c > 0) ch = '.';
      if (c > 10) ch = 'o';
      if (c > 100) ch = 'O';
      if (c > 1000) ch = '@';
      os << ch;
    }
    os << "\n";
  }
  os << "      ";
  for (int x = 0; x < result.grid.x_bins(); ++x) os << x;
  os << "  (10^x samples)\n\n";

  std::uint64_t total = result.region_residential + result.region_bots +
                        result.region_gateways;
  report::Table t({"region", "blocks", "share"});
  auto frac = [&](std::uint64_t n) {
    return report::FormatPercent(
        total ? static_cast<double>(n) / static_cast<double>(total) : 0.0);
  };
  t.AddRow({"residential bulk",
            report::FormatCount(result.region_residential),
            frac(result.region_residential)});
  t.AddRow({"bots (low diversity)", report::FormatCount(result.region_bots),
            frac(result.region_bots)});
  t.AddRow({"gateways (high diversity)",
            report::FormatCount(result.region_gateways),
            frac(result.region_gateways)});
  t.Print(os);
  os << "gateway region WHOIS attribution: "
     << report::FormatPercent(result.gateway_whois_cellular)
     << " registered to cellular operators, "
     << report::FormatPercent(result.gateway_whois_apnic)
     << " registered in APNIC   [paper: \"more than half... located in "
        "Asia, majority cellular\"]\n";
  os << "gateway region ground truth: "
     << report::FormatPercent(result.gateway_cgn_precision)
     << " are true CGN blocks; "
     << report::FormatPercent(result.gateway_apnic_fraction)
     << " in APNIC\n";
  os << "bot region ground truth: "
     << report::FormatPercent(result.bots_crawler_precision)
     << " are true crawler blocks\n";
}

}  // namespace ipscope::analysis
