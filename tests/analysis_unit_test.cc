// Focused unit tests of analysis-layer building blocks (the integration
// suite covers the full experiments; these pin down the arithmetic).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/fig10_useragents.h"
#include "analysis/fig1_growth.h"
#include "analysis/fig9_traffic.h"
#include "analysis/visibility.h"
#include "stats/quantile.h"
#include "stats/summary.h"

namespace ipscope::analysis {
namespace {

TEST(VisibilitySplit, Fractions) {
  VisibilitySplit split;
  split.cdn_only = 40;
  split.both = 50;
  split.icmp_only = 10;
  EXPECT_EQ(split.total(), 100u);
  EXPECT_DOUBLE_EQ(split.CdnOnlyFraction(), 0.40);
  EXPECT_DOUBLE_EQ(split.IcmpOnlyFraction(), 0.10);
}

TEST(VisibilitySplit, EmptyIsZero) {
  VisibilitySplit split;
  EXPECT_EQ(split.total(), 0u);
  EXPECT_DOUBLE_EQ(split.CdnOnlyFraction(), 0.0);
  EXPECT_DOUBLE_EQ(split.IcmpOnlyFraction(), 0.0);
}

TEST(Fig1, DeterministicInSeed) {
  auto a = RunFig1(123);
  auto b = RunFig1(123);
  EXPECT_DOUBLE_EQ(a.stagnation_gap, b.stagnation_gap);
  EXPECT_DOUBLE_EQ(a.pre2014_mean_residual, b.pre2014_mean_residual);
}

TEST(Fig1, StagnationGapPositiveAndResidualSmall) {
  auto result = RunFig1(20160360);
  // The post-2014 series must fall well below the pre-2014 trend...
  EXPECT_GT(result.stagnation_gap, 0.08);
  EXPECT_LT(result.stagnation_gap, 0.40);
  // ...while the pre-2014 fit is tight (the "perfectly linear" era).
  EXPECT_LT(result.pre2014_mean_residual, 0.03);
}

TEST(Fig1, ScaleDoesNotChangeShape) {
  auto full = RunFig1(5, 1.0);
  auto small = RunFig1(5, 0.001);
  EXPECT_NEAR(full.stagnation_gap, small.stagnation_gap, 1e-9);
  EXPECT_NEAR(full.pre2014_mean_residual, small.pre2014_mean_residual, 1e-9);
}

TEST(Fig1, PrintMentionsKeyElements) {
  auto result = RunFig1(7);
  std::ostringstream os;
  PrintFig1(result, os);
  std::string text = os.str();
  EXPECT_NE(text.find("pre-2014 fit"), std::string::npos);
  EXPECT_NE(text.find("ARIN"), std::string::npos);   // exhaustion dates
  EXPECT_NE(text.find("2014"), std::string::npos);
  EXPECT_NE(text.find("stagnation"), std::string::npos);
}


// A daily observatory longer than a year (600 steps): every address's
// active-day hits, total and median must match a naive per-address gather
// over m.Get. The map stage once gathered into a fixed 512-entry stack
// array, which overflowed here.
TEST(Fig9, LongDailyObservatoryMatchesNaivePerAddressBins) {
  sim::WorldConfig config;
  config.target_client_blocks = 40;
  const sim::World world{config};
  sim::StepSpec spec;
  spec.start_day = 0;
  spec.step_days = 1;
  spec.steps = 600;
  spec.world_seed = config.seed;
  spec.gateway_growth = config.gateway_traffic_growth;
  const cdn::Observatory daily{world, spec};
  const Fig9Result result =
      RunFig9(daily, cdn::Observatory::Weekly(world));

  std::vector<Fig9Result::DaysActiveBin> bins(600);
  std::vector<std::vector<double>> medians(600);
  std::vector<double> totals;
  daily.ForEachBlockHits([&](const sim::BlockPlan&,
                             const activity::ActivityMatrix& m,
                             std::span<const std::uint32_t> hits) {
    for (int host = 0; host < 256; ++host) {
      std::vector<std::uint32_t> active;
      std::uint64_t total = 0;
      for (int d = 0; d < 600; ++d) {
        if (!m.Get(d, host)) continue;
        active.push_back(hits[static_cast<std::size_t>(d) * 256 +
                              static_cast<std::size_t>(host)]);
        total += active.back();
      }
      if (active.empty()) continue;
      std::sort(active.begin(), active.end());
      const std::size_t n = active.size();
      double median = active[n / 2];
      if (n % 2 == 0) median = (median + active[n / 2 - 1]) / 2.0;
      bins[n - 1].ips += 1;
      bins[n - 1].total_hits += total;
      medians[n - 1].push_back(median);
      totals.push_back(static_cast<double>(total));
    }
  });

  ASSERT_EQ(result.bins.size(), 600u);
  std::uint64_t long_lived = 0;
  for (std::size_t d = 0; d < 600; ++d) {
    EXPECT_EQ(result.bins[d].ips, bins[d].ips) << "bin " << d;
    EXPECT_EQ(result.bins[d].total_hits, bins[d].total_hits) << "bin " << d;
    if (d >= 512) long_lived += bins[d].ips;
    if (medians[d].empty()) continue;
    const double qs[] = {0.05, 0.25, 0.5, 0.75, 0.95};
    const std::vector<double> q = stats::Quantiles(medians[d], qs);
    EXPECT_EQ(result.bins[d].p5, q[0]) << "bin " << d;
    EXPECT_EQ(result.bins[d].p25, q[1]) << "bin " << d;
    EXPECT_EQ(result.bins[d].median, q[2]) << "bin " << d;
    EXPECT_EQ(result.bins[d].p75, q[3]) << "bin " << d;
    EXPECT_EQ(result.bins[d].p95, q[4]) << "bin " << d;
  }
  // The regression needs addresses active on more than 512 days.
  EXPECT_GT(long_lived, 0u);
  EXPECT_EQ(result.traffic_gini, stats::Gini(totals));
}

// A daily observatory shorter than Fig 10's 28-step window: every block is
// sampled over all 7 steps' hits. The window once started 21 steps before
// the period, reading outside each block's hits.
TEST(Fig10, ShortObservatorySamplesTheWholePeriod) {
  sim::WorldConfig config;
  config.target_client_blocks = 300;
  const sim::World world{config};
  sim::StepSpec spec = cdn::Observatory::Daily(world).spec();
  spec.steps = 7;
  const cdn::Observatory daily{world, spec};
  const Fig10Result result = RunFig10(world, daily.BuildHitTable());

  const cdn::UserAgentSampler sampler{config.ua_sample_rate};
  std::vector<cdn::BlockUaSample> expected;
  daily.ForEachBlockHits([&](const sim::BlockPlan& plan,
                             const activity::ActivityMatrix&,
                             std::span<const std::uint32_t> hits) {
    std::uint64_t total = 0;
    for (std::uint32_t v : hits) total += v;
    const cdn::BlockUaSample sample = sampler.Sample(plan, total);
    if (sample.samples > 0) expected.push_back(sample);
  });
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(result.samples.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.samples[i].key, expected[i].key) << "block " << i;
    EXPECT_EQ(result.samples[i].samples, expected[i].samples) << "block " << i;
    EXPECT_EQ(result.samples[i].unique_uas, expected[i].unique_uas)
        << "block " << i;
  }
}

}  // namespace
}  // namespace ipscope::analysis
