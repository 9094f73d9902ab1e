#include "analysis/demographics.h"

#include <algorithm>
#include <ostream>
#include <vector>

#include "cdn/useragent.h"
#include "report/table.h"

namespace ipscope::analysis {

DemographicsResult RunDemographics(const sim::World& world,
                                   const activity::ActivityStore& daily_store,
                                   const cdn::BlockHitTable& daily_hits) {
  DemographicsResult out;
  const int days = daily_hits.steps;
  cdn::UserAgentSampler sampler{world.config().ua_sample_rate};

  struct BlockFeatures {
    double stu;
    double traffic;
    double hosts;
    int rir;  // -1 when unknown
  };
  std::vector<BlockFeatures> features;
  for (std::size_t i = 0; i < daily_hits.plans.size(); ++i) {
    const sim::BlockPlan& plan = *daily_hits.plans[i];
    BlockFeatures f;
    f.stu = daily_store.MatrixAt(i).Stu(0, days);
    f.traffic = static_cast<double>(daily_hits.Sum(i, 0, days));
    f.hosts = static_cast<double>(
        sampler.Sample(plan, daily_hits.Sum(i, days - 28, days)).unique_uas);
    f.rir = plan.country >= 0
                ? static_cast<int>(
                      geo::Countries()[static_cast<std::size_t>(plan.country)]
                          .rir)
                : -1;
    features.push_back(f);
  }

  double max_traffic = 0, max_hosts = 0;
  for (const auto& f : features) {
    max_traffic = std::max(max_traffic, f.traffic);
    max_hosts = std::max(max_hosts, f.hosts);
  }

  std::array<std::uint64_t, geo::kRirCount> rir_blocks{};
  std::array<std::uint64_t, geo::kRirCount> rir_corner{};
  for (const auto& f : features) {
    double traffic_n = stats::LogNormalize(f.traffic, max_traffic);
    double hosts_n = stats::LogNormalize(f.hosts, max_hosts);
    out.cube.Add(f.stu, traffic_n, hosts_n);
    ++out.blocks;
    if (f.stu < 0.2) out.low_stu_cluster += 1;
    if (f.stu > 0.8) out.high_stu_cluster += 1;
    if (f.rir >= 0) {
      auto r = static_cast<std::size_t>(f.rir);
      out.per_rir[r].Add(f.stu, traffic_n, hosts_n);
      ++rir_blocks[r];
      if (f.stu >= 0.9 && hosts_n >= 0.7) ++rir_corner[r];
    }
  }
  if (out.blocks > 0) {
    out.low_stu_cluster /= static_cast<double>(out.blocks);
    out.high_stu_cluster /= static_cast<double>(out.blocks);
  }
  for (int r = 0; r < geo::kRirCount; ++r) {
    auto ri = static_cast<std::size_t>(r);
    out.gateway_corner[ri] =
        rir_blocks[ri] ? static_cast<double>(rir_corner[ri]) /
                             static_cast<double>(rir_blocks[ri])
                       : 0.0;
  }
  return out;
}

namespace {

void PrintGrid(const stats::FeatureCube& cube, std::ostream& os) {
  auto marginal = cube.Marginal01();
  auto hosts = cube.MeanFeature2Per01();
  int bins = cube.bins();
  std::uint64_t max_cell = 1;
  for (auto c : marginal) max_cell = std::max(max_cell, c);
  os << "  (rows: traffic 1.0 at top; cols: STU 0->1; size symbol by block "
        "count, UPPERCASE = high mean host count)\n";
  for (int traffic = bins - 1; traffic >= 0; --traffic) {
    os << "  ";
    for (int stu = 0; stu < bins; ++stu) {
      std::uint64_t c =
          marginal[static_cast<std::size_t>(stu) * bins + traffic];
      double host = hosts[static_cast<std::size_t>(stu) * bins + traffic];
      char ch = ' ';
      if (c > 0) ch = '.';
      if (c > max_cell / 64) ch = 'o';
      if (c > max_cell / 8) ch = 'x';
      if (c > max_cell / 2) ch = '*';
      if (host >= 0.7 && c > 0) ch = static_cast<char>(
          ch == '.' ? 'H' : std::toupper(static_cast<unsigned char>(ch)));
      os << ch;
    }
    os << "\n";
  }
}

}  // namespace

void PrintDemographics(const DemographicsResult& result, std::ostream& os) {
  os << "=== Fig 11: demographics cube (STU x traffic x host count), N="
     << report::FormatCount(result.blocks) << " blocks ===\n";
  PrintGrid(result.cube, os);
  os << "STU < 0.2 cluster: " << report::FormatPercent(result.low_stu_cluster)
     << ", STU > 0.8 cluster: "
     << report::FormatPercent(result.high_stu_cluster)
     << "   [paper: strong bimodal split along the STU axis]\n";

  os << "\n=== Fig 12: per-RIR STU x traffic grids ===\n";
  for (int r = 0; r < geo::kRirCount; ++r) {
    auto ri = static_cast<std::size_t>(r);
    os << "\n-- " << geo::RirName(static_cast<geo::Rir>(r))
       << " (gateway corner: "
       << report::FormatPercent(result.gateway_corner[ri]) << ")\n";
    PrintGrid(result.per_rir[ri], os);
  }
  os << "\n[paper: ARIN skews to low utilization; LACNIC/AFRINIC highly "
        "utilized; APNIC/AFRINIC show a pronounced high-STU high-host-count "
        "gateway corner]\n";
}

}  // namespace ipscope::analysis
