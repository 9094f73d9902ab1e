#include "cdn/rawlog.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cdn/observatory.h"

namespace ipscope::cdn {
namespace {

sim::World& TestWorld() {
  static sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 150;
    return config;
  }()};
  return world;
}

const sim::BlockPlan* FindClientBlock(sim::PolicyKind kind) {
  for (const sim::BlockPlan& plan : TestWorld().blocks()) {
    if (plan.base.kind == kind && !plan.HasReconfiguration()) return &plan;
  }
  return nullptr;
}

TEST(RawLog, RecordCountsMatchKernelHits) {
  Observatory daily = Observatory::Daily(TestWorld());
  RawLogGenerator raw{TestWorld(), daily.spec()};
  const sim::BlockPlan* plan =
      FindClientBlock(sim::PolicyKind::kDynamicShort);
  ASSERT_NE(plan, nullptr);

  activity::DayBits bits;
  std::uint32_t hits[256];
  sim::GenerateStep(*plan, daily.spec(), 10, bits, hits);

  std::map<std::uint32_t, std::uint32_t> per_ip;
  raw.ForBlockSteps(*plan, 10, 11, [&](const LogRecord& r) {
    ++per_ip[r.client.value()];
  });
  for (int h = 0; h < 256; ++h) {
    std::uint32_t addr = plan->block.network().value() +
                         static_cast<std::uint32_t>(h);
    auto it = per_ip.find(addr);
    std::uint32_t emitted = it == per_ip.end() ? 0 : it->second;
    EXPECT_EQ(emitted, hits[h]) << "host " << h;
  }
}

// ForBlockSteps against records derived step by step from the GenerateStep
// reference: same records, same order, for every client kind, a range that
// does not start at step 0, and both capped and uncapped streams.
TEST(RawLog, ForBlockStepsMatchesPerStepReference) {
  Observatory daily = Observatory::Daily(TestWorld());
  RawLogGenerator raw{TestWorld(), daily.spec()};
  int compared = 0;
  for (sim::PolicyKind kind :
       {sim::PolicyKind::kStatic, sim::PolicyKind::kDynamicShort,
        sim::PolicyKind::kDynamicLong, sim::PolicyKind::kCgnGateway,
        sim::PolicyKind::kCrawlerBots}) {
    const sim::BlockPlan* plan = FindClientBlock(kind);
    if (plan == nullptr) continue;
    for (std::uint32_t cap : {0u, 3u}) {
      if (cap == 0 && kind == sim::PolicyKind::kCgnGateway) continue;
      std::vector<std::string> got;
      raw.ForBlockSteps(
          *plan, 4, 9,
          [&](const LogRecord& r) { got.push_back(FormatLogLine(r)); }, cap);
      std::vector<std::string> want;
      auto collect = [&](const LogRecord& r) {
        want.push_back(FormatLogLine(r));
      };
      for (int step = 4; step < 9; ++step) {
        activity::DayBits bits;
        std::uint32_t hits[256];
        std::uint64_t occupants[256];
        sim::GenerateStep(*plan, raw.spec(), step, bits, hits, occupants);
        for (int host = 0; host < 256; ++host) {
          std::uint32_t n = hits[host];
          if (cap != 0 && n > cap) n = cap;
          if (n != 0) {
            raw.EmitRecords(*plan, step, host, n, occupants[host], collect);
          }
        }
      }
      ASSERT_FALSE(want.empty()) << sim::PolicyKindName(kind);
      EXPECT_EQ(got, want) << sim::PolicyKindName(kind) << " cap " << cap;
      ++compared;
    }
  }
  EXPECT_GE(compared, 6);
}

TEST(RawLog, PerAddressCapHonored) {
  Observatory daily = Observatory::Daily(TestWorld());
  RawLogGenerator raw{TestWorld(), daily.spec()};
  const sim::BlockPlan* plan = FindClientBlock(sim::PolicyKind::kCgnGateway);
  if (plan == nullptr) GTEST_SKIP() << "no gateway block";
  std::map<std::uint32_t, std::uint32_t> per_ip;
  raw.ForBlockSteps(*plan, 3, 4, [&](const LogRecord& r) {
    ++per_ip[r.client.value()];
  }, /*per_address_cap=*/5);
  ASSERT_FALSE(per_ip.empty());
  for (const auto& [addr, n] : per_ip) EXPECT_LE(n, 5u);
}

TEST(RawLog, TimestampsWithinDayAndDiurnal) {
  Observatory daily = Observatory::Daily(TestWorld());
  RawLogGenerator raw{TestWorld(), daily.spec()};
  const sim::BlockPlan* plan =
      FindClientBlock(sim::PolicyKind::kDynamicShort);
  ASSERT_NE(plan, nullptr);

  // Day 0 of the daily period is 2015-08-17.
  std::uint32_t day_start = static_cast<std::uint32_t>(
      timeutil::Day::FromCivil({2015, 8, 17}).value()) * 86400u;
  std::uint64_t total = 0, evening = 0, night = 0;
  const int offset = CountryUtcOffset(*plan);
  for (int step = 0; step < 5; ++step) {
    raw.ForBlockSteps(*plan, step, step + 1, [&](const LogRecord& r) {
      std::uint32_t step_start = day_start + 86400u * static_cast<std::uint32_t>(step);
      ASSERT_GE(r.unix_time, step_start);
      ASSERT_LT(r.unix_time, step_start + 86400u);
      int utc_hour = static_cast<int>((r.unix_time - step_start) / 3600);
      int local_hour = ((utc_hour + offset) % 24 + 24) % 24;
      ++total;
      if (local_hour >= 18 && local_hour < 23) ++evening;
      if (local_hour >= 1 && local_hour < 6) ++night;
    });
  }
  ASSERT_GT(total, 100u);
  // Evening traffic dominates the small hours (diurnal curve).
  EXPECT_GT(evening, night * 3);
}

TEST(RawLog, BotsUseOneUaString) {
  Observatory daily = Observatory::Daily(TestWorld());
  RawLogGenerator raw{TestWorld(), daily.spec()};
  const sim::BlockPlan* plan = FindClientBlock(sim::PolicyKind::kCrawlerBots);
  if (plan == nullptr) GTEST_SKIP() << "no crawler block";
  std::set<std::uint64_t> uas;
  raw.ForBlockSteps(
      *plan, 0, 1, [&](const LogRecord& r) { uas.insert(r.ua_id); },
      /*per_address_cap=*/50);
  EXPECT_EQ(uas.size(), 1u);
}

TEST(RawLog, LogLineRoundTrip) {
  LogRecord r;
  r.unix_time = 1439800000;
  r.client = net::IPv4Addr{72, 14, 3, 200};
  r.edge_server = 177;
  r.bytes = 48213;
  r.status = 404;
  r.ua_id = 0xDEADBEEFCAFEull;
  std::string line = FormatLogLine(r);
  LogRecord parsed;
  ASSERT_TRUE(ParseLogLine(line, parsed)) << line;
  EXPECT_EQ(parsed.unix_time, r.unix_time);
  EXPECT_EQ(parsed.client, r.client);
  EXPECT_EQ(parsed.edge_server, r.edge_server);
  EXPECT_EQ(parsed.bytes, r.bytes);
  EXPECT_EQ(parsed.status, r.status);
  EXPECT_EQ(parsed.ua_id, r.ua_id);
}

TEST(RawLog, ParseRejectsMalformedLines) {
  LogRecord r;
  EXPECT_FALSE(ParseLogLine("", r));
  EXPECT_FALSE(ParseLogLine("not a log line", r));
  EXPECT_FALSE(ParseLogLine("123 1.2.3.4 srv1 200 100", r));  // missing ua
  EXPECT_FALSE(ParseLogLine("123 1.2.3.999 srv1 200 100 ua5", r));
  EXPECT_FALSE(ParseLogLine("123 1.2.3.4 srv1 200 100 ua5 extra", r));
}

TEST(RawLog, UaStringsAreDeterministicAndDistinct) {
  EXPECT_EQ(UaString(42), UaString(42));
  EXPECT_NE(UaString(1), UaString(2));
  EXPECT_FALSE(UaString(123456).empty());
}

TEST(RawLog, DiurnalCurveNormalized) {
  const auto& curve = DiurnalCurve();
  double total = 0;
  for (double w : curve) {
    EXPECT_GT(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Peak in the evening, trough at night.
  EXPECT_GT(curve[20], curve[4] * 5);
}

TEST(LogAggregator, ReconstructsAggregates) {
  Observatory daily = Observatory::Daily(TestWorld());
  RawLogGenerator raw{TestWorld(), daily.spec()};
  const sim::BlockPlan* plan =
      FindClientBlock(sim::PolicyKind::kDynamicShort);
  ASSERT_NE(plan, nullptr);

  LogAggregator aggregator{/*ua_sample_interval=*/64};
  std::uint64_t emitted = 0;
  raw.ForBlockSteps(*plan, 7, 8, [&](const LogRecord& r) {
    aggregator.Consume(r);
    ++emitted;
  });
  EXPECT_EQ(aggregator.total_records(), emitted);
  // Per-IP aggregation matches the kernel hits.
  activity::DayBits bits;
  std::uint32_t hits[256];
  sim::GenerateStep(*plan, daily.spec(), 7, bits, hits);
  for (const auto& [addr, count] : aggregator.hits_per_ip()) {
    int host = static_cast<int>(addr & 0xFF);
    EXPECT_EQ(count, hits[host]);
  }
  // Sampling rate ~ 1/64.
  EXPECT_NEAR(static_cast<double>(aggregator.sampled_uas().size()),
              static_cast<double>(emitted) / 64.0, 3.0);
  EXPECT_LE(aggregator.unique_sampled_uas(),
            aggregator.sampled_uas().size());
}

}  // namespace
}  // namespace ipscope::cdn
