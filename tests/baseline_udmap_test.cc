#include "baseline/udmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cdn/observatory.h"
#include "par/pool.h"
#include "rng/rng.h"
#include "sim/policy.h"
#include "stats/quantile.h"

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
// reference, for every block the UDmap analysis covers.
TEST(Logins, BlockTraceMatchesPerStepReferenceForEveryClientBlock) {
  constexpr std::uint64_t kTagLogin = 0x106e;
  constexpr double kLoginRate = 0.5;
  const sim::StepSpec spec = cdn::Observatory::Daily(TestWorld()).spec();
  cdn::LoginTraceGenerator gen{TestWorld(), spec, kLoginRate};
  std::size_t total = 0;
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
    total += want.size();
  }
  EXPECT_GT(total, 100000u);
}

// The whole-trace hash-set analysis the per-block one replaced, kept as the
// reference: per-block hash sets of users per address and of users, and a
// map from pairing key to its first and last step.
UdmapResult OracleAnalyzeLogins(std::span<const cdn::LoginEvent> events) {
  constexpr double kDynamicUsersPerIp = 3.0;
  constexpr double kStaticUsersPerIp = 1.5;
  constexpr std::uint64_t kOracleMinEvents = 50;
  struct PairingSpan {
    std::int32_t first;
    std::int32_t last;
  };
  struct BlockAcc {
    std::uint64_t events = 0;
    std::unordered_map<std::uint32_t, std::unordered_set<std::uint64_t>>
        users_per_addr;
    std::unordered_set<std::uint64_t> users;
    // (user, addr) -> observed step span
    std::unordered_map<std::uint64_t, PairingSpan> pairings;
  };
  // std::map keeps blocks in ascending key order for deterministic output.
  std::map<net::BlockKey, BlockAcc> accs;

  for (const cdn::LoginEvent& ev : events) {
    BlockAcc& acc = accs[net::BlockKeyOf(ev.ip)];
    ++acc.events;
    acc.users_per_addr[ev.ip.value()].insert(ev.user);
    acc.users.insert(ev.user);
    // Mix user and address into one pairing key; collisions are harmless
    // noise at these scales.
    std::uint64_t pairing = ev.user * 0x9e3779b97f4a7c15ULL ^ ev.ip.value();
    auto [it, inserted] = acc.pairings.try_emplace(
        pairing, PairingSpan{ev.step, ev.step});
    if (!inserted) {
      it->second.first = std::min(it->second.first, ev.step);
      it->second.last = std::max(it->second.last, ev.step);
    }
  }

  UdmapResult out;
  for (auto& [key, acc] : accs) {
    BlockUdmapStats stats;
    stats.key = key;
    stats.events = acc.events;
    stats.addresses = static_cast<std::uint32_t>(acc.users_per_addr.size());
    stats.users = acc.users.size();
    double user_sum = 0;
    for (const auto& [addr, users] : acc.users_per_addr) {
      user_sum += static_cast<double>(users.size());
    }
    stats.users_per_ip =
        stats.addresses ? user_sum / stats.addresses : 0.0;
    std::vector<double> spans;
    spans.reserve(acc.pairings.size());
    for (const auto& [pairing, span] : acc.pairings) {
      spans.push_back(static_cast<double>(span.last - span.first + 1));
    }
    stats.median_holding_steps = stats::Median(std::move(spans));
    out.blocks.push_back(stats);

    if (acc.events < kOracleMinEvents) continue;
    if (stats.users_per_ip >= kDynamicUsersPerIp) {
      out.dynamic_blocks.push_back(key);
    } else if (stats.users_per_ip <= kStaticUsersPerIp) {
      out.static_blocks.push_back(key);
    }
  }
  return out;
}

// Every login-bearing block of the test world against the oracle, at two
// pool sizes. The oracle runs on one block's trace at a time and its
// results are appended in key order; it keeps blocks apart and in key
// order, so that equals one oracle run over the concatenated trace.
TEST(UdmapBlock, MatchesOracleForEveryBlock) {
  const sim::World& world = TestWorld();
  const sim::StepSpec spec = cdn::Observatory::Daily(world).spec();
  cdn::LoginTraceGenerator gen{world, spec};
  std::vector<const sim::BlockPlan*> order;
  for (const sim::BlockPlan& plan : world.blocks()) {
    if (sim::IsClientPolicy(plan.base.kind) ||
        plan.base.kind == sim::PolicyKind::kCrawlerBots) {
      order.push_back(&plan);
    }
  }
  std::sort(order.begin(), order.end(),
            [](const sim::BlockPlan* a, const sim::BlockPlan* b) {
              return net::BlockKeyOf(a->block) < net::BlockKeyOf(b->block);
            });
  UdmapResult want;
  for (const sim::BlockPlan* plan : order) {
    const std::vector<cdn::LoginEvent> trace = gen.BlockTrace(*plan);
    const UdmapResult one = OracleAnalyzeLogins(trace);
    want.events += trace.size();
    want.blocks.insert(want.blocks.end(), one.blocks.begin(),
                       one.blocks.end());
    want.dynamic_blocks.insert(want.dynamic_blocks.end(),
                               one.dynamic_blocks.begin(),
                               one.dynamic_blocks.end());
    want.static_blocks.insert(want.static_blocks.end(),
                              one.static_blocks.begin(),
                              one.static_blocks.end());
  }
  ASSERT_GT(want.blocks.size(), 300u);
  ASSERT_FALSE(want.dynamic_blocks.empty());
  ASSERT_FALSE(want.static_blocks.empty());
  for (int threads : {1, 4}) {
    par::GlobalPool().Resize(threads);
    const UdmapResult got = AnalyzeWorld(world, spec);
    EXPECT_EQ(got.events, want.events) << "threads " << threads;
    ASSERT_EQ(got.blocks.size(), want.blocks.size()) << "threads " << threads;
    for (std::size_t i = 0; i < want.blocks.size(); ++i) {
      EXPECT_TRUE(got.blocks[i] == want.blocks[i])
          << "block " << want.blocks[i].key << " threads " << threads;
    }
    EXPECT_EQ(got.dynamic_blocks, want.dynamic_blocks) << "threads " << threads;
    EXPECT_EQ(got.static_blocks, want.static_blocks) << "threads " << threads;
  }
  par::GlobalPool().Resize(0);
}

// The inverse of an odd multiplier mod 2^64 by Newton's iteration: x = a
// is right in the low 3 bits, and each step doubles that.
constexpr std::uint64_t InverseMod64(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

TEST(UdmapBlock, CollidingPairingKeysMergeLikeTheOracle) {
  constexpr std::uint64_t kPhi = 0x9e3779b97f4a7c15ULL;
  static_assert(kPhi * InverseMod64(kPhi) == 1);
  // Two distinct (user, ip) pairings in one /24 with equal pairing keys
  // user·φ ^ ip: solve u2·φ ^ ip2 = u1·φ ^ ip1 for u2.
  const net::IPv4Addr ip1{0x0A000001u};
  const net::IPv4Addr ip2{0x0A000002u};
  const std::uint64_t u1 = 12345;
  const std::uint64_t u2 =
      ((u1 * kPhi) ^ ip1.value() ^ ip2.value()) * InverseMod64(kPhi);
  ASSERT_NE(u2, u1);
  ASSERT_EQ(u1 * kPhi ^ ip1.value(), u2 * kPhi ^ ip2.value());
  std::vector<cdn::LoginEvent> events{{u1, ip1, 0}, {u2, ip2, 50},
                                      {u1, ip1, 10}};
  const UdmapResult want = OracleAnalyzeLogins(events);
  ASSERT_EQ(want.blocks.size(), 1u);
  // One span over steps 0..50, not spans of 11 and 1 steps.
  EXPECT_EQ(want.blocks[0].median_holding_steps, 51.0);
  const BlockUdmapStats got = AnalyzeBlock(0x0A0000u, events);
  EXPECT_TRUE(got == want.blocks[0]);
  EXPECT_EQ(got.median_holding_steps, 51.0);
  EXPECT_EQ(got.users, 2u);
  EXPECT_EQ(got.addresses, 2u);
}

TEST(Udmap, SyntheticStaticVsDynamic) {
  // Static block 10.0.0.0/24: users 1..50 each pinned to one address.
  std::vector<cdn::LoginEvent> static_events;
  for (int day = 0; day < 50; ++day) {
    for (std::uint64_t user = 1; user <= 50; ++user) {
      static_events.push_back(
          {user, net::IPv4Addr{0x0A000000u + static_cast<std::uint32_t>(user)},
           day});
    }
  }
  // Dynamic block 10.0.1.0/24: a new user on each address every day.
  std::vector<cdn::LoginEvent> dynamic_events;
  for (int day = 0; day < 50; ++day) {
    for (std::uint32_t host = 0; host < 50; ++host) {
      std::uint64_t user = 1000 + static_cast<std::uint64_t>(day) * 100 + host;
      dynamic_events.push_back({user, net::IPv4Addr{0x0A000100u + host}, day});
    }
  }
  auto result = Classify({AnalyzeBlock(0x0A0000u, static_events),
                          AnalyzeBlock(0x0A0001u, dynamic_events)});
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
  auto result = Classify({AnalyzeBlock(0x0A0000u, events)});
  EXPECT_TRUE(result.static_blocks.empty());
  EXPECT_TRUE(result.dynamic_blocks.empty());
  ASSERT_EQ(result.blocks.size(), 1u);  // stats still reported
}

TEST(Udmap, RecoversGroundTruthPolicies) {
  // The headline validation: UDmap-style inference on simulated login
  // traces recovers the true assignment regime.
  const sim::World& world = TestWorld();
  auto result = AnalyzeWorld(world, cdn::Observatory::Daily(world).spec());
  ASSERT_GT(result.events, 10000u);

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
      auto events = gen.BlockTrace(plan);
      auto stats = AnalyzeBlock(net::BlockKeyOf(plan.block), events);
      if (stats.events > 100) {
        static_holding = stats.median_holding_steps;
      }
    }
    if (short_holding < 0 &&
        plan.base.kind == sim::PolicyKind::kDynamicShort &&
        !plan.base.rotating) {
      auto events = gen.BlockTrace(plan);
      auto stats = AnalyzeBlock(net::BlockKeyOf(plan.block), events);
      if (stats.events > 0) {
        short_holding = stats.median_holding_steps;
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
