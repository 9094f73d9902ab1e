#include "baseline/udmap.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

#include "cdn/observatory.h"
#include "par/pool.h"
#include "rng/rng.h"
#include "sim/policy.h"

namespace ipscope::baseline {
namespace {

sim::World& TestWorld() {
  static sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 500;
    return config;
  }()};
  return world;
}

TEST(Logins, TraceIsDeterministicAndSane) {
  cdn::LoginTraceGenerator gen{
      TestWorld(), cdn::Observatory::Daily(TestWorld()).spec()};
  const sim::BlockPlan* client = nullptr;
  for (const sim::BlockPlan& plan : TestWorld().blocks()) {
    // A static block that is active throughout the daily period.
    if (plan.base.kind == sim::PolicyKind::kStatic &&
        plan.active_from == 0 && plan.active_until > 364) {
      client = &plan;
      break;
    }
  }
  ASSERT_NE(client, nullptr);
  auto a = gen.BlockTrace(*client);
  auto b = gen.BlockTrace(*client);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  for (const cdn::LoginEvent& ev : a) {
    EXPECT_TRUE(client->block.Contains(ev.ip));
    EXPECT_NE(ev.user, 0u);
    EXPECT_GE(ev.step, 0);
    EXPECT_LT(ev.step, 112);
  }
}

TEST(Logins, GatewaysProduceNoEvents) {
  cdn::LoginTraceGenerator gen{
      TestWorld(), cdn::Observatory::Daily(TestWorld()).spec()};
  for (const sim::BlockPlan& plan : TestWorld().blocks()) {
    if (plan.base.kind == sim::PolicyKind::kCgnGateway &&
        !plan.HasReconfiguration()) {
      EXPECT_TRUE(gen.BlockTrace(plan).empty());
      return;
    }
  }
  GTEST_SKIP() << "no gateway block";
}

TEST(Logins, LoginRateScalesVolume) {
  auto spec = cdn::Observatory::Daily(TestWorld()).spec();
  cdn::LoginTraceGenerator low{TestWorld(), spec, 0.1};
  cdn::LoginTraceGenerator high{TestWorld(), spec, 0.9};
  const sim::BlockPlan* client = nullptr;
  for (const sim::BlockPlan& plan : TestWorld().blocks()) {
    if (plan.base.kind == sim::PolicyKind::kDynamicShort) {
      client = &plan;
      break;
    }
  }
  ASSERT_NE(client, nullptr);
  auto few = low.BlockTrace(*client);
  auto many = high.BlockTrace(*client);
  EXPECT_GT(many.size(), few.size() * 4);
}

// BlockTrace against a trace derived step by step from the GenerateStep
// reference, for every block Trace() covers, and Trace() against the
// BlockTraces concatenated in key order at two pool sizes.
TEST(Logins, BlockTraceMatchesPerStepReferenceForEveryClientBlock) {
  constexpr std::uint64_t kTagLogin = 0x106e;
  constexpr double kLoginRate = 0.5;
  const sim::StepSpec spec = cdn::Observatory::Daily(TestWorld()).spec();
  cdn::LoginTraceGenerator gen{TestWorld(), spec, kLoginRate};
  std::map<net::BlockKey, std::vector<cdn::LoginEvent>> by_key;
  for (const sim::BlockPlan& plan : TestWorld().blocks()) {
    if (!sim::IsClientPolicy(plan.base.kind) &&
        plan.base.kind != sim::PolicyKind::kCrawlerBots) {
      continue;
    }
    std::vector<cdn::LoginEvent> want;
    activity::DayBits bits;
    std::uint64_t occupants[256];
    for (int step = 0; step < spec.steps; ++step) {
      sim::GenerateStep(plan, spec, step, bits, nullptr, occupants);
      for (int host = 0; host < 256; ++host) {
        const std::uint64_t occ = occupants[host];
        if (occ == 0 ||
            static_cast<double>(rng::Substream(occ, kTagLogin, step) >> 11) *
                    0x1.0p-53 >=
                kLoginRate) {
          continue;
        }
        want.push_back(cdn::LoginEvent{
            occ,
            net::IPv4Addr{plan.block.network().value() +
                          static_cast<std::uint32_t>(host)},
            step});
      }
    }
    const auto got = gen.BlockTrace(plan);
    ASSERT_EQ(got, want) << plan.block << " "
                         << sim::PolicyKindName(plan.base.kind);
    by_key[net::BlockKeyOf(plan.block)] = want;
  }
  std::vector<cdn::LoginEvent> concatenated;
  for (const auto& [key, events] : by_key) {
    concatenated.insert(concatenated.end(), events.begin(), events.end());
  }
  ASSERT_GT(concatenated.size(), 100000u);
  for (int threads : {1, 4}) {
    par::GlobalPool().Resize(threads);
    EXPECT_TRUE(gen.Trace() == concatenated) << "threads " << threads;
  }
  par::GlobalPool().Resize(0);
}

TEST(Udmap, SyntheticStaticVsDynamic) {
  std::vector<cdn::LoginEvent> events;
  // Static block 10.0.0.0/24: users 1..50 each pinned to one address.
  for (int day = 0; day < 50; ++day) {
    for (std::uint64_t user = 1; user <= 50; ++user) {
      events.push_back({user, net::IPv4Addr{0x0A000000u +
                                            static_cast<std::uint32_t>(user)},
                        day});
    }
  }
  // Dynamic block 10.0.1.0/24: a new user on each address every day.
  for (int day = 0; day < 50; ++day) {
    for (std::uint32_t host = 0; host < 50; ++host) {
      std::uint64_t user = 1000 + static_cast<std::uint64_t>(day) * 100 + host;
      events.push_back({user, net::IPv4Addr{0x0A000100u + host}, day});
    }
  }
  auto result = AnalyzeLogins(events);
  ASSERT_EQ(result.blocks.size(), 2u);
  EXPECT_EQ(result.static_blocks,
            std::vector<net::BlockKey>{0x0A0000u});
  EXPECT_EQ(result.dynamic_blocks,
            std::vector<net::BlockKey>{0x0A0001u});
  // Holding durations: static pairings span the full window, dynamic one day.
  EXPECT_GT(result.blocks[0].median_holding_steps, 40.0);
  EXPECT_LT(result.blocks[1].median_holding_steps, 2.0);
}

TEST(Udmap, MinEventsLeavesQuietBlocksUnclassified) {
  std::vector<cdn::LoginEvent> events;
  for (int day = 0; day < 3; ++day) {
    events.push_back({1, net::IPv4Addr{0x0A000001u}, day});
  }
  UdmapOptions options;
  options.min_events = 50;
  auto result = AnalyzeLogins(events, options);
  EXPECT_TRUE(result.static_blocks.empty());
  EXPECT_TRUE(result.dynamic_blocks.empty());
  ASSERT_EQ(result.blocks.size(), 1u);  // stats still reported
}

TEST(Udmap, RecoversGroundTruthPolicies) {
  // The headline validation: UDmap-style inference on simulated login
  // traces recovers the true assignment regime.
  const sim::World& world = TestWorld();
  cdn::LoginTraceGenerator gen{world,
                               cdn::Observatory::Daily(world).spec()};
  auto events = gen.Trace();
  ASSERT_GT(events.size(), 10000u);
  auto result = AnalyzeLogins(events);

  std::unordered_map<net::BlockKey, sim::PolicyKind> truth;
  for (const sim::BlockPlan& plan : world.blocks()) {
    if (!plan.HasReconfiguration()) {
      truth[net::BlockKeyOf(plan.block)] = plan.base.kind;
    }
  }
  auto score = [&](const std::vector<net::BlockKey>& keys,
                   auto is_correct) {
    std::uint64_t right = 0, total = 0;
    for (net::BlockKey key : keys) {
      auto it = truth.find(key);
      if (it == truth.end()) continue;  // reconfigured: skip
      ++total;
      if (is_correct(it->second)) ++right;
    }
    return total ? static_cast<double>(right) / static_cast<double>(total)
                 : 0.0;
  };
  double dynamic_precision =
      score(result.dynamic_blocks, [](sim::PolicyKind k) {
        return k == sim::PolicyKind::kDynamicShort ||
               k == sim::PolicyKind::kDynamicLong;
      });
  double static_precision = score(result.static_blocks, [](sim::PolicyKind k) {
    return k == sim::PolicyKind::kStatic ||
           k == sim::PolicyKind::kCrawlerBots ||
           k == sim::PolicyKind::kServerFarm;
  });
  EXPECT_GT(dynamic_precision, 0.9);
  EXPECT_GT(static_precision, 0.9);
  EXPECT_GT(result.dynamic_blocks.size(), 50u);
  EXPECT_GT(result.static_blocks.size(), 30u);
}

TEST(Udmap, HoldingTimesTrackLeaseRegimes) {
  const sim::World& world = TestWorld();
  cdn::LoginTraceGenerator gen{world,
                               cdn::Observatory::Daily(world).spec()};
  // Median (user, ip) holding time: ~1 step for 24h pools, much longer for
  // static assignment.
  double static_holding = -1, short_holding = -1;
  for (const sim::BlockPlan& plan : world.blocks()) {
    if (plan.HasReconfiguration()) continue;
    if (static_holding < 0 && plan.base.kind == sim::PolicyKind::kStatic &&
        plan.base.pool_size > 30) {
      auto result = AnalyzeLogins(gen.BlockTrace(plan));
      if (!result.blocks.empty() && result.blocks[0].events > 100) {
        static_holding = result.blocks[0].median_holding_steps;
      }
    }
    if (short_holding < 0 &&
        plan.base.kind == sim::PolicyKind::kDynamicShort &&
        !plan.base.rotating) {
      auto result = AnalyzeLogins(gen.BlockTrace(plan));
      if (!result.blocks.empty()) {
        short_holding = result.blocks[0].median_holding_steps;
      }
    }
    if (static_holding >= 0 && short_holding >= 0) break;
  }
  ASSERT_GE(static_holding, 0);
  ASSERT_GE(short_holding, 0);
  EXPECT_LT(short_holding, 2.0);       // ~24h leases
  EXPECT_GT(static_holding, 20.0);     // pinned for months
}

}  // namespace
}  // namespace ipscope::baseline
