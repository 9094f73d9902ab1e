// End-to-end integration tests: run every paper experiment on one shared
// medium-sized world and assert the *shape* invariants the paper reports.
// These are the same checks a reader would perform against the bench
// harness output.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/demographics.h"
#include "analysis/fig1_growth.h"
#include "analysis/fig10_useragents.h"
#include "analysis/fig3_geography.h"
#include "analysis/fig4_churn.h"
#include "analysis/fig5_dissect.h"
#include "analysis/fig6_patterns.h"
#include "analysis/fig8_blocks.h"
#include "analysis/fig9_traffic.h"
#include "analysis/table1_datasets.h"
#include "analysis/table2_longterm.h"
#include "analysis/visibility.h"
#include "bgp/table.h"
#include "cdn/observatory.h"
#include "sim/world.h"

namespace ipscope::analysis {
namespace {

class AnalysisIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.target_client_blocks = 1500;
    world_ = new sim::World{config};
    feed_ = new bgp::RoutingFeed{*world_};
    daily_obs_ = new cdn::Observatory{cdn::Observatory::Daily(*world_)};
    daily_ = new activity::ActivityStore{daily_obs_->BuildStore()};
    weekly_ = new activity::ActivityStore{
        cdn::Observatory::Weekly(*world_).BuildStore()};
    daily_hits_ = new cdn::BlockHitTable{daily_obs_->BuildHitTable()};
  }
  static void TearDownTestSuite() {
    delete daily_hits_;
    delete weekly_;
    delete daily_;
    delete daily_obs_;
    delete feed_;
    delete world_;
  }

  static sim::World* world_;
  static bgp::RoutingFeed* feed_;
  static cdn::Observatory* daily_obs_;
  static activity::ActivityStore* daily_;
  static activity::ActivityStore* weekly_;
  static cdn::BlockHitTable* daily_hits_;
};

sim::World* AnalysisIntegration::world_ = nullptr;
bgp::RoutingFeed* AnalysisIntegration::feed_ = nullptr;
cdn::Observatory* AnalysisIntegration::daily_obs_ = nullptr;
activity::ActivityStore* AnalysisIntegration::daily_ = nullptr;
activity::ActivityStore* AnalysisIntegration::weekly_ = nullptr;
cdn::BlockHitTable* AnalysisIntegration::daily_hits_ = nullptr;

TEST_F(AnalysisIntegration, Fig1GrowthStagnates) {
  auto result = RunFig1(world_->config().seed);
  EXPECT_GT(result.growth.pre2014_fit.r_squared, 0.98);
  EXPECT_GT(result.stagnation_gap, 0.05);
  std::ostringstream os;
  PrintFig1(result, os);
  EXPECT_NE(os.str().find("Fig 1"), std::string::npos);
}

TEST_F(AnalysisIntegration, Table1ChurnRatios) {
  auto result = RunTable1(*world_, *feed_);
  // Totals exceed averages (churn), ratio in the paper's ballpark (~1.5).
  double daily_ratio =
      static_cast<double>(result.daily.total_ips) / result.daily.avg_ips;
  double weekly_ratio =
      static_cast<double>(result.weekly.total_ips) / result.weekly.avg_ips;
  EXPECT_GT(daily_ratio, 1.15);
  EXPECT_LT(daily_ratio, 2.2);
  EXPECT_GT(weekly_ratio, 1.15);
  EXPECT_LT(weekly_ratio, 2.2);
  // More ASes/blocks in total than per snapshot.
  EXPECT_GE(static_cast<double>(result.daily.total_blocks),
            result.daily.avg_blocks);
  EXPECT_GT(result.weekly.total_ases, 0u);
}

TEST_F(AnalysisIntegration, Fig2VisibilityShape) {
  auto result = RunVisibility(*world_, *daily_, *feed_);
  // Paper: >40% of CDN-active addresses invisible to ICMP. Allow slack.
  EXPECT_GT(result.cdn_missed_by_icmp, 0.30);
  EXPECT_LT(result.cdn_missed_by_icmp, 0.70);
  // ICMP-only is a small minority at IP level (paper ~8%).
  EXPECT_LT(result.ips.IcmpOnlyFraction(), 0.25);
  // The gap narrows at coarser granularities.
  EXPECT_LT(result.blocks.CdnOnlyFraction(), result.ips.CdnOnlyFraction());
  EXPECT_LT(result.ases.CdnOnlyFraction(), result.blocks.CdnOnlyFraction());
  // A good chunk of ICMP-only addresses classify as infra (paper ~half).
  const auto& c = result.icmp_only_class;
  std::uint64_t total = c.server + c.server_router + c.router + c.unknown;
  ASSERT_GT(total, 0u);
  double infra_frac =
      static_cast<double>(c.server + c.server_router + c.router) /
      static_cast<double>(total);
  EXPECT_GT(infra_frac, 0.3);
  EXPECT_LT(infra_frac, 0.95);  // some "unknown" must remain
}

TEST_F(AnalysisIntegration, Fig3GeographyShape) {
  auto result = RunFig3(*world_, *daily_);
  // Every RIR gains visibility from the CDN.
  for (const auto& split : result.per_rir) {
    EXPECT_GT(split.cdn_only, 0u);
  }
  // Countries sorted by total visible; US or CN must lead.
  ASSERT_GE(result.countries.size(), 5u);
  EXPECT_TRUE(result.countries[0].code == "US" ||
              result.countries[0].code == "CN");
  // ICMP response rate ordering: CN clearly above JP (paper: 80% vs 25%).
  double cn = -1, jp = -1;
  for (const auto& cv : result.countries) {
    if (cv.code == "CN") cn = cv.icmp_response_rate;
    if (cv.code == "JP") jp = cv.icmp_response_rate;
  }
  ASSERT_GE(cn, 0);
  ASSERT_GE(jp, 0);
  EXPECT_GT(cn, jp + 0.2);
}

TEST_F(AnalysisIntegration, Fig4ChurnShape) {
  auto result = RunFig4(*daily_, *weekly_);
  // Daily churn well above the long-window plateau; plateau nonzero.
  const auto& daily = result.windows[0];
  const auto& weekly7 = result.windows[3];   // 7d
  const auto& monthly = result.windows[5];   // 28d
  EXPECT_GT(daily.up.median, weekly7.up.median);
  EXPECT_GT(weekly7.up.median, 2.0);   // churn does not vanish
  EXPECT_GT(monthly.up.median, 2.0);
  EXPECT_LT(monthly.up.median, daily.up.median);
  // Weekend effect: max daily churn clearly above median.
  EXPECT_GT(daily.up.max, daily.up.median * 1.15);
  // Year-long divergence vs first week in the paper's 15-40% band.
  std::size_t last = result.yearly.appear.size() - 1;
  double appear_frac = static_cast<double>(result.yearly.appear[last]) /
                       static_cast<double>(result.yearly.active[last]);
  EXPECT_GT(appear_frac, 0.15);
  EXPECT_LT(appear_frac, 0.40);
}

TEST_F(AnalysisIntegration, Fig5DissectShape) {
  auto result = RunFig5(*daily_, *feed_, daily_obs_->spec());
  // 5a: churn is widespread; a meaningful share of ASes above 10%.
  const auto& pa7 = result.per_as[1];
  ASSERT_GT(pa7.median_up_pcts.size(), 20u);
  EXPECT_GT(pa7.frac_below_5pct, 0.15);
  EXPECT_GT(pa7.frac_above_10pct, 0.02);
  // 5b: daily events are dominated by individual addresses...
  const auto& daily_bins = result.event_sizes[0];
  EXPECT_GT(daily_bins.ge29, 0.5);
  // ...while monthly events are bulkier but still heavily individual.
  const auto& monthly_bins = result.event_sizes[2];
  EXPECT_GT(monthly_bins.le16 + monthly_bins.m17_20 + monthly_bins.m21_24,
            daily_bins.le16 + daily_bins.m17_20 + daily_bins.m21_24);
  // 5c: BGP sees almost none of it; monthly > daily correlation.
  EXPECT_LT(result.bgp[2].UpPct(), 10.0);
  EXPECT_GE(result.bgp[2].UpPct(), result.bgp[0].UpPct());
  EXPECT_LT(result.bgp[2].SteadyPct(), result.bgp[2].UpPct() + 1.0);
}

TEST_F(AnalysisIntegration, Table2LongTermShape) {
  auto result = RunTable2(*weekly_, *feed_);
  EXPECT_GT(result.appear_total, 0u);
  EXPECT_GT(result.disappear_total, 0u);
  // Whole-block events carry a large share of year-scale churn (65%/54%).
  EXPECT_GT(result.appear_whole_block_frac, 0.25);
  EXPECT_GT(result.disappear_whole_block_frac, 0.20);
  // BGP: the vast majority of appear/disappear has no routing change.
  EXPECT_GT(result.appear_bgp.no_change, 0.75);
  EXPECT_GT(result.disappear_bgp.no_change, 0.75);
  // Top-10 concentration exists and the two top-10 lists overlap.
  EXPECT_GT(result.top10_appear_share, 0.10);
  EXPECT_GE(result.top10_overlap, 3);
}

TEST_F(AnalysisIntegration, Fig6PatternClassifierAgreesWithTruth) {
  auto result = RunFig6(*world_, *daily_);
  EXPECT_GE(result.exemplars.size(), 4u);
  EXPECT_GT(result.overall_agreement, 0.75);
  std::ostringstream os;
  PrintFig6(result, os, /*render_exemplars=*/false);
  EXPECT_NE(os.str().find("agreement"), std::string::npos);
}

TEST_F(AnalysisIntegration, Fig8BlocksShape) {
  auto result = RunFig8(*world_, *daily_);
  // 8a: ~10% major change (config sets 10% reconfiguration).
  EXPECT_GT(result.major_fraction, 0.04);
  EXPECT_LT(result.major_fraction, 0.20);
  EXPECT_GT(result.detector_recall, 0.5);
  EXPECT_GT(result.detector_precision, 0.5);
  // 8b: the paper's separation.
  EXPECT_GT(result.static_fd_below_64, 0.55);
  EXPECT_GT(result.dynamic_fd_above_250, 0.6);
  EXPECT_GT(result.all_fd_above_250, 0.35);
  EXPECT_GT(result.all_fd_below_64, 0.15);
  // 8c: dense blocks are mostly highly utilized, with a reclaimable tail.
  EXPECT_GT(result.high_fd_blocks, 100u);
  EXPECT_GT(result.high_fd_stu_above_80, 0.35);
  EXPECT_GT(result.high_fd_stu_below_60, 0.05);
  EXPECT_GT(result.high_fd_stu_100, 0.005);
}

TEST_F(AnalysisIntegration, Fig9TrafficShape) {
  auto weekly_obs = cdn::Observatory::Weekly(*world_);
  auto result = RunFig9(*daily_obs_, weekly_obs);
  // 9a: monotone-ish correlation: all-days median >> few-days median.
  double low = result.bins[0].median;
  double high = result.bins.back().median;
  ASSERT_GT(result.bins.back().ips, 0u);
  EXPECT_GT(high, low * 5);
  // 9b: always-on minority carries an outsized traffic share.
  EXPECT_LT(result.all_days_ip_frac, 0.20);
  EXPECT_GT(result.all_days_traffic_frac, result.all_days_ip_frac * 2.5);
  // Traffic concentration summary: strongly skewed but not degenerate.
  EXPECT_GT(result.traffic_gini, 0.5);
  EXPECT_LT(result.traffic_gini, 0.99);
  // 9c: consolidation trend across the year.
  EXPECT_GT(result.weekly_top10_share.front(), 20.0);
  EXPECT_GT(result.last_month_share, result.first_month_share + 0.5);
  EXPECT_LT(result.last_month_share, result.first_month_share + 15.0);
}

TEST_F(AnalysisIntegration, Fig10UserAgentRegions) {
  auto result = RunFig10(*world_, *daily_hits_);
  EXPECT_GT(result.samples.size(), 200u);
  // All three regions populated; residential dominates.
  EXPECT_GT(result.region_residential, result.region_gateways);
  EXPECT_GT(result.region_gateways, 0u);
  EXPECT_GT(result.region_bots, 0u);
  // Gateway region is mostly true CGN and skews to APNIC (paper: Asia).
  EXPECT_GT(result.gateway_cgn_precision, 0.6);
  EXPECT_GT(result.gateway_apnic_fraction, 0.3);
  EXPECT_GT(result.bots_crawler_precision, 0.6);
}

TEST_F(AnalysisIntegration, Fig11Fig12DemographicsShape) {
  auto result = RunDemographics(*world_, *daily_, *daily_hits_);
  EXPECT_GT(result.blocks, 500u);
  // Bimodal STU split (paper observation (i)).
  EXPECT_GT(result.low_stu_cluster + result.high_stu_cluster, 0.45);
  EXPECT_GT(result.low_stu_cluster, 0.08);
  EXPECT_GT(result.high_stu_cluster, 0.15);
  // APNIC gateway corner exceeds ARIN's (paper Fig 12 discussion).
  double apnic =
      result.gateway_corner[static_cast<int>(geo::Rir::kApnic)];
  double arin = result.gateway_corner[static_cast<int>(geo::Rir::kArin)];
  EXPECT_GT(apnic, arin);
}

}  // namespace
}  // namespace ipscope::analysis
