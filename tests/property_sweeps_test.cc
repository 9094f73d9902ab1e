// Parameterized property sweeps across the library's core invariants.
#include <gtest/gtest.h>

#include <set>

#include "activity/churn.h"
#include "activity/eventsize.h"
#include "activity/metrics.h"
#include "cdn/observatory.h"
#include "netbase/ip_set.h"
#include "rng/rng.h"
#include "sim/world.h"
#include "stats/quantile.h"

namespace ipscope {
namespace {

// ---------------------------------------------------------------------
// Ipv4Set algebra laws across densities.
// ---------------------------------------------------------------------

class IpSetDensity : public ::testing::TestWithParam<int> {};

net::Ipv4Set RandomSet(rng::Xoshiro256& g, int values, std::uint32_t range) {
  std::vector<std::uint32_t> v;
  v.reserve(static_cast<std::size_t>(values));
  for (int i = 0; i < values; ++i) v.push_back(g.NextBounded(range));
  return net::Ipv4Set::FromValues(std::move(v));
}

TEST_P(IpSetDensity, AlgebraLaws) {
  // range is chosen so density sweeps from very sparse to heavily coalesced.
  std::uint32_t range = static_cast<std::uint32_t>(GetParam());
  rng::Xoshiro256 g{static_cast<std::uint64_t>(range) * 31 + 7};
  net::Ipv4Set a = RandomSet(g, 400, range);
  net::Ipv4Set b = RandomSet(g, 400, range);

  // |A| + |B| = |A u B| + |A n B|.
  EXPECT_EQ(a.Count() + b.Count(),
            a.Union(b).Count() + a.Intersect(b).Count());
  // A \ B = A n (A \ B); (A \ B) n B = {}.
  EXPECT_EQ(a.Subtract(b).CountIntersect(b), 0u);
  // (A \ B) u (A n B) = A.
  EXPECT_EQ(a.Subtract(b).Union(a.Intersect(b)), a);
  // Union is commutative, intersection consistent with CountIntersect.
  EXPECT_EQ(a.Union(b), b.Union(a));
  EXPECT_EQ(a.Intersect(b).Count(), a.CountIntersect(b));
  // Self-laws.
  EXPECT_EQ(a.Union(a), a);
  EXPECT_EQ(a.Intersect(a), a);
  EXPECT_TRUE(a.Subtract(a).Empty());
}

TEST_P(IpSetDensity, UnionMatchesFromValuesOfTheConcatenatedMembers) {
  // Union merges two canonical interval lists; FromValues sorts and
  // coalesces the raw members. Odd trials mirror the values to the top of
  // the address line, where the adjacency check must not overflow.
  std::uint32_t range = static_cast<std::uint32_t>(GetParam());
  rng::Xoshiro256 g{static_cast<std::uint64_t>(range) * 17 + 3};
  for (int trial = 0; trial < 24; ++trial) {
    auto members = [&] {
      std::vector<std::uint32_t> v(g.NextBounded(400));
      for (std::uint32_t& x : v) {
        x = g.NextBounded(range);
        if (trial % 2 == 1) x = 0xFFFFFFFFu - x;
      }
      return v;
    };
    std::vector<std::uint32_t> va = members();
    std::vector<std::uint32_t> vb = members();
    net::Ipv4Set a = net::Ipv4Set::FromValues(va);
    net::Ipv4Set b = net::Ipv4Set::FromValues(vb);
    std::vector<std::uint32_t> both = va;
    both.insert(both.end(), vb.begin(), vb.end());
    EXPECT_EQ(a.Union(b), net::Ipv4Set::FromValues(both)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, IpSetDensity,
                         ::testing::Values(500, 2000, 20000, 1000000,
                                           0x7FFFFFFF));

// ---------------------------------------------------------------------
// Churn invariants across window sizes.
// ---------------------------------------------------------------------

class ChurnWindow : public ::testing::TestWithParam<int> {
 protected:
  static const activity::ActivityStore& Store() {
    static const activity::ActivityStore store = [] {
      sim::WorldConfig config;
      config.target_client_blocks = 300;
      static sim::World world{config};
      return cdn::Observatory::Daily(world).BuildStore();
    }();
    return store;
  }
};

TEST_P(ChurnWindow, PercentagesBoundedAndConsistent) {
  int w = GetParam();
  activity::ChurnAnalyzer churn{Store()};
  auto series = churn.Churn(w);
  int expected_pairs = Store().days() / w - 1;
  ASSERT_EQ(static_cast<int>(series.up_pct.size()), expected_pairs);
  for (double v : series.up_pct) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 100.0);
  }
  for (double v : series.down_pct) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 100.0);
  }
  EXPECT_LE(series.up.min, series.up.median);
  EXPECT_LE(series.up.median, series.up.max);
}

TEST_P(ChurnWindow, WindowUnionsNeverShrinkActivePool) {
  // The union over a window is at least as large as any contained day.
  int w = GetParam();
  const auto& store = Store();
  int num_windows = store.days() / w;
  auto daily = store.DailyActiveCounts();
  for (int win = 0; win < num_windows; ++win) {
    std::uint64_t window_count = store.CountActive(win * w, (win + 1) * w);
    for (int d = win * w; d < (win + 1) * w; ++d) {
      EXPECT_GE(window_count,
                static_cast<std::uint64_t>(daily[static_cast<std::size_t>(d)]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, ChurnWindow,
                         ::testing::Values(1, 2, 4, 7, 14, 28, 56));

// ---------------------------------------------------------------------
// Activity-kernel invariants across every policy kind.
// ---------------------------------------------------------------------

class PolicyKindSweep
    : public ::testing::TestWithParam<sim::PolicyKind> {};

TEST_P(PolicyKindSweep, KernelInvariants) {
  sim::BlockPlan plan;
  plan.block = net::Prefix{net::IPv4Addr{10, 9, 8, 0}, 24};
  plan.block_seed = 0xFEED;
  for (std::size_t i = 0; i < 256; ++i) {
    plan.host_perm[i] = static_cast<std::uint8_t>(i);
  }
  plan.base.kind = GetParam();
  plan.base.pool_size = 200;
  plan.base.subscribers = 220;
  plan.base.daily_p = 0.6f;
  plan.base.lease_days = 20;
  plan.base.occupancy = 0.8f;
  plan.base.hits_mu = 3.0f;
  plan.base.hits_sigma = 1.0f;

  sim::StepSpec spec;
  spec.start_day = 228;
  spec.step_days = 1;
  spec.steps = 30;

  std::uint32_t hits[256];
  std::uint64_t occupants[256];
  for (int step = 0; step < 30; ++step) {
    activity::DayBits bits;
    sim::GenerateStep(plan, spec, step, bits, hits, occupants);
    for (int h = 0; h < 256; ++h) {
      bool active = activity::TestBit(bits, h);
      // Hits iff active.
      EXPECT_EQ(active, hits[h] > 0) << h;
      // Activity confined to the managed pool (identity permutation).
      if (h >= 200) {
        EXPECT_FALSE(active) << h;
      }
      // Occupants only on active client addresses; never for gateways.
      if (occupants[h] != 0) {
        EXPECT_TRUE(active);
        EXPECT_NE(plan.base.kind, sim::PolicyKind::kCgnGateway);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PolicyKindSweep,
    ::testing::Values(sim::PolicyKind::kUnused, sim::PolicyKind::kStatic,
                      sim::PolicyKind::kDynamicShort,
                      sim::PolicyKind::kDynamicLong,
                      sim::PolicyKind::kCgnGateway,
                      sim::PolicyKind::kCrawlerBots,
                      sim::PolicyKind::kServerFarm,
                      sim::PolicyKind::kRouterInfra,
                      sim::PolicyKind::kMiddlebox));

// ---------------------------------------------------------------------
// Event-size invariants across window sizes.
// ---------------------------------------------------------------------

class EventSizeWindow : public ::testing::TestWithParam<int> {};

TEST_P(EventSizeWindow, HistogramAccountsForEveryEvent) {
  sim::WorldConfig config;
  config.target_client_blocks = 200;
  static sim::World world{config};
  static auto store = cdn::Observatory::Daily(world).BuildStore();

  int w = GetParam();
  auto hist = activity::EventSizes(store, 0, w, w, 2 * w, true);
  net::Ipv4Set w0 = store.ActiveSet(0, w);
  net::Ipv4Set w1 = store.ActiveSet(w, 2 * w);
  EXPECT_EQ(hist.total, w1.Subtract(w0).Count());
  std::uint64_t sum = 0;
  for (auto n : hist.by_mask) sum += n;
  EXPECT_EQ(sum, hist.total);
  // Strict-rule masks are never smaller (coarser) than paper-rule masks in
  // aggregate: the strict rule can only shrink prefixes.
  auto strict = activity::EventSizesStrict(store, 0, w, w, 2 * w, true);
  EXPECT_EQ(strict.total, hist.total);
  EXPECT_LE(hist.FractionInMaskRange(29, 32),
            strict.FractionInMaskRange(29, 32) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Windows, EventSizeWindow,
                         ::testing::Values(1, 7, 28, 56));

// ---------------------------------------------------------------------
// Quantile function properties across distributions.
// ---------------------------------------------------------------------

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, MonotoneAndWithinRange) {
  double q = GetParam();
  rng::Xoshiro256 g{99};
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng::NextNormal(g));
  std::sort(values.begin(), values.end());
  double v = stats::QuantileSorted(values, q);
  EXPECT_GE(v, values.front());
  EXPECT_LE(v, values.back());
  if (q > 0.1) {
    EXPECT_GE(v, stats::QuantileSorted(values, q - 0.1));
  }
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileSweep,
                         ::testing::Values(0.0, 0.05, 0.25, 0.5, 0.75, 0.95,
                                           1.0));

}  // namespace
}  // namespace ipscope
