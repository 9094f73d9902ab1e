#include "cdn/observatory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cdn/dataset.h"
#include "obs/registry.h"
#include "par/pool.h"
#include "scan/icmp.h"

namespace ipscope::cdn {
namespace {

sim::World& SmallWorld() {
  static sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 300;
    return config;
  }()};
  return world;
}

// sim.hits.draws counts one draw per emitted (address, step), which is a
// set bit of the generated rows; exact fallbacks of the batched lognormal
// kernel stay rare.
TEST(Observatory, HitDrawCountersMatchThePassPopcount) {
  obs::Counter& draws = obs::GlobalRegistry().GetCounter("sim.hits.draws");
  obs::Counter& fallbacks =
      obs::GlobalRegistry().GetCounter("sim.hits.exact_fallbacks");
  for (const Observatory& o : {Observatory::Daily(SmallWorld()),
                               Observatory::Weekly(SmallWorld())}) {
    const std::uint64_t draws0 = draws.value();
    const std::uint64_t fallbacks0 = fallbacks.value();
    std::uint64_t popcount = 0;
    o.ForEachBlockHits([&](const sim::BlockPlan&,
                           const activity::ActivityMatrix& m,
                           std::span<const std::uint32_t>) {
      for (int s = 0; s < m.days(); ++s) {
        popcount += static_cast<std::uint64_t>(activity::PopCount(m.Row(s)));
      }
    });
    const std::uint64_t pass_draws = draws.value() - draws0;
    EXPECT_GT(popcount, 0u);
    EXPECT_EQ(pass_draws, popcount);
    EXPECT_LE((fallbacks.value() - fallbacks0) * 100000, pass_draws);
  }
}

TEST(Observatory, DailySpec) {
  Observatory daily = Observatory::Daily(SmallWorld());
  EXPECT_EQ(daily.spec().step_days, 1);
  EXPECT_EQ(daily.steps(), 112);
  EXPECT_EQ(daily.spec().start_day, 228);
}

TEST(Observatory, WeeklySpec) {
  Observatory weekly = Observatory::Weekly(SmallWorld());
  EXPECT_EQ(weekly.spec().step_days, 7);
  EXPECT_EQ(weekly.steps(), 52);
  EXPECT_EQ(weekly.spec().start_day, 0);
}

TEST(Observatory, StoreIsDeterministic) {
  auto s1 = Observatory::Daily(SmallWorld()).BuildStore();
  auto s2 = Observatory::Daily(SmallWorld()).BuildStore();
  ASSERT_EQ(s1.BlockCount(), s2.BlockCount());
  EXPECT_EQ(s1.CountActive(0, 112), s2.CountActive(0, 112));
  EXPECT_EQ(s1.ActiveSet(0, 112), s2.ActiveSet(0, 112));
}

TEST(Observatory, StoreMatchesVisitorBits) {
  // BuildStore and ForEachBlockHits must expose identical activity.
  Observatory daily = Observatory::Daily(SmallWorld());
  auto store = daily.BuildStore();
  std::size_t visited = 0;
  daily.ForEachBlockHits([&](const sim::BlockPlan& plan,
                             const activity::ActivityMatrix& m,
                             std::span<const std::uint32_t> hits) {
    ++visited;
    const activity::ActivityMatrix* stored =
        store.Find(net::BlockKeyOf(plan.block));
    ASSERT_NE(stored, nullptr) << plan.block;
    for (int d = 0; d < daily.steps(); ++d) {
      ASSERT_EQ(stored->Row(d), m.Row(d)) << plan.block << " day " << d;
      for (int h = 0; h < 256; ++h) {
        bool active = m.Get(d, h);
        std::uint32_t v = hits[static_cast<std::size_t>(d) * 256 +
                               static_cast<std::size_t>(h)];
        ASSERT_EQ(active, v > 0);
      }
    }
  });
  EXPECT_EQ(visited, store.BlockCount());
}

TEST(Observatory, OnlyCdnVisiblePoliciesAppear) {
  auto store = Observatory::Daily(SmallWorld()).BuildStore();
  for (const sim::BlockPlan& plan : SmallWorld().blocks()) {
    if (plan.base.kind == sim::PolicyKind::kRouterInfra ||
        plan.base.kind == sim::PolicyKind::kMiddlebox ||
        plan.base.kind == sim::PolicyKind::kUnused) {
      // Unless a reconfiguration changed the policy, these never appear.
      if (!plan.HasReconfiguration()) {
        EXPECT_EQ(store.Find(net::BlockKeyOf(plan.block)), nullptr)
            << plan.block;
      }
    }
  }
}

TEST(Observatory, TotalHitsPerStepPositiveAndWeekdayShaped) {
  const BlockHitTable table = Observatory::Daily(SmallWorld()).BuildHitTable();
  std::vector<std::uint64_t> totals(static_cast<std::size_t>(table.steps));
  for (std::size_t i = 0; i < table.plans.size(); ++i) {
    for (int s = 0; s < table.steps; ++s) {
      totals[static_cast<std::size_t>(s)] += table.Sum(i, s, s + 1);
    }
  }
  ASSERT_EQ(totals.size(), 112u);
  for (auto v : totals) EXPECT_GT(v, 0u);
}

TEST(Observatory, WeeklyActiveExceedsDailyAverage) {
  // Union over a week is at least any single day's count.
  auto weekly = Observatory::Weekly(SmallWorld()).BuildStore();
  auto daily = Observatory::Daily(SmallWorld()).BuildStore();
  // Week 33 (days 231..238) overlaps the daily period start.
  std::uint64_t week_count = weekly.CountActive(33, 34);
  std::uint64_t day_count = daily.CountActive(5, 6);
  EXPECT_GT(week_count, day_count);
}


TEST(Observatory, ParallelBuildMatchesSerial) {
  Observatory daily = Observatory::Daily(SmallWorld());
  auto serial = daily.BuildStore(1);
  auto parallel = daily.BuildStore(4);
  ASSERT_EQ(serial.BlockCount(), parallel.BlockCount());
  ASSERT_EQ(serial.days(), parallel.days());
  serial.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    const activity::ActivityMatrix* other = parallel.Find(key);
    ASSERT_NE(other, nullptr);
    for (int d = 0; d < serial.days(); ++d) {
      ASSERT_EQ(m.Row(d), other->Row(d)) << key << " day " << d;
    }
  });
}

// One ForEachBlockHits consume call: the block key plus an FNV-1a digest
// of its rows and hits.
struct Visit {
  net::BlockKey key;
  std::uint64_t digest;
  bool operator==(const Visit&) const = default;
};

std::uint64_t Digest(const activity::ActivityMatrix& m,
                     std::span<const std::uint32_t> hits) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (int d = 0; d < m.days(); ++d) {
    for (std::uint64_t word : m.Row(d)) mix(word);
  }
  for (std::uint32_t v : hits) mix(v);
  return h;
}

std::vector<Visit> Record(const Observatory& obs) {
  std::vector<Visit> visits;
  obs.ForEachBlockHits([&](const sim::BlockPlan& plan,
                           const activity::ActivityMatrix& m,
                           std::span<const std::uint32_t> hits) {
    visits.push_back({net::BlockKeyOf(plan.block), Digest(m, hits)});
  });
  return visits;
}

// Restores the default pool size when a test exits, even on failure.
struct PoolSize {
  explicit PoolSize(int threads) { par::GlobalPool().Resize(threads); }
  ~PoolSize() { par::GlobalPool().Resize(0); }
};

TEST(Observatory, ForEachBlockHitsSameSequenceAtPoolSizes1And4) {
  // A partial last batch is part of the contract under test.
  ASSERT_NE(SmallWorld().blocks().size() % Observatory::kHitsBatchBlocks, 0u);
  for (const Observatory& obs : {Observatory::Daily(SmallWorld()),
                                 Observatory::Weekly(SmallWorld())}) {
    std::vector<Visit> serial;
    std::vector<Visit> parallel;
    {
      PoolSize pool{1};
      serial = Record(obs);
    }
    {
      PoolSize pool{4};
      parallel = Record(obs);
    }
    ASSERT_GT(serial.size(), Observatory::kHitsBatchBlocks);
    EXPECT_TRUE(serial == parallel) << "steps " << obs.steps();
    for (std::size_t i = 1; i < serial.size(); ++i) {
      ASSERT_LT(serial[i - 1].key, serial[i].key) << "not in key order";
    }
  }
}

TEST(Observatory, HitTableMatchesPerStepSumsAtPoolSizes1And4) {
  // The table against the host sums of a plain ForEachBlockHits walk, on a
  // world whose visible block count leaves a partial last batch.
  const Observatory daily = Observatory::Daily(SmallWorld());
  const activity::ActivityStore store = daily.BuildStore();
  ASSERT_NE(store.BlockCount() % Observatory::kHitsBatchBlocks, 0u);
  std::vector<net::BlockKey> keys;
  std::vector<std::uint64_t> sums;
  daily.ForEachBlockHits([&](const sim::BlockPlan& plan,
                             const activity::ActivityMatrix&,
                             std::span<const std::uint32_t> hits) {
    keys.push_back(net::BlockKeyOf(plan.block));
    for (int s = 0; s < daily.steps(); ++s) {
      std::uint64_t sum = 0;
      for (int h = 0; h < 256; ++h) sum += hits[s * 256 + h];
      sums.push_back(sum);
    }
  });
  ASSERT_EQ(keys.size(), store.BlockCount());
  for (int threads : {1, 4}) {
    PoolSize pool{threads};
    const BlockHitTable table = daily.BuildHitTable();
    ASSERT_EQ(table.steps, daily.steps());
    ASSERT_EQ(table.plans.size(), store.BlockCount()) << threads << " threads";
    for (std::size_t i = 0; i < table.plans.size(); ++i) {
      const net::BlockKey key = net::BlockKeyOf(table.plans[i]->block);
      ASSERT_EQ(key, store.KeyAt(i)) << threads << " threads";
      ASSERT_EQ(key, keys[i]) << threads << " threads";
      std::uint64_t total = 0;
      for (int s = 0; s < daily.steps(); ++s) {
        const std::uint64_t expected =
            sums[i * static_cast<std::size_t>(daily.steps()) +
                 static_cast<std::size_t>(s)];
        ASSERT_EQ(table.Sum(i, s, s + 1), expected)
            << key << " step " << s << ", " << threads << " threads";
        total += expected;
      }
      // Windows clamp to the period.
      EXPECT_EQ(table.Sum(i, -5, daily.steps() + 5), total);
      EXPECT_EQ(table.Sum(i, daily.steps(), daily.steps() + 5), 0u);
    }
  }
}

// The per-step reference stream: every block with any activity, in key
// order, with its GenerateStep rows and hits.
std::vector<Visit> Reference(const Observatory& obs) {
  std::vector<const sim::BlockPlan*> plans;
  for (const sim::BlockPlan& plan : obs.world().blocks()) {
    plans.push_back(&plan);
  }
  std::sort(plans.begin(), plans.end(), [](const auto* a, const auto* b) {
    return net::BlockKeyOf(a->block) < net::BlockKeyOf(b->block);
  });
  std::vector<Visit> reference;
  for (const sim::BlockPlan* plan : plans) {
    activity::ActivityMatrix m{obs.steps()};
    std::vector<std::uint32_t> hits(static_cast<std::size_t>(obs.steps()) *
                                    256);
    bool any = false;
    for (int s = 0; s < obs.steps(); ++s) {
      sim::GenerateStep(*plan, obs.spec(), s, m.Row(s),
                        hits.data() + static_cast<std::size_t>(s) * 256);
      any = any || m.Row(s) != activity::DayBits{};
    }
    if (any) {
      reference.push_back({net::BlockKeyOf(plan->block), Digest(m, hits)});
    }
  }
  return reference;
}

TEST(Observatory, ForEachBlockHitsMatchesGenerateStepReference) {
  // The batched slot-major stream against the per-step reference: the same
  // blocks, in key order, with the same rows and hits.
  for (const Observatory& obs : {Observatory::Daily(SmallWorld()),
                                 Observatory::Weekly(SmallWorld())}) {
    std::vector<Visit> reference = Reference(obs);
    PoolSize pool{4};
    EXPECT_TRUE(Record(obs) == reference) << "steps " << obs.steps();
  }
}

TEST(Observatory, ForEachBlockHitsFlushesEveryBatchAtTheEdges) {
  // Small worlds whose daily visible (or total) block counts sit on the
  // batch edges. The seeds were found by search; the count assertions
  // catch a world-generation change that moves them off the edges.
  constexpr std::size_t kBatch = Observatory::kHitsBatchBlocks;
  struct Edge {
    std::uint64_t seed;
    int target_client_blocks;
    std::size_t total;
    std::size_t visible;
  };
  const Edge edges[] = {
      {1, 0, 0, 0},                // no blocks at all
      {62, 1, 1, 1},               // one block, visible
      {35, 40, 74, kBatch},        // exactly one batch of visible blocks
      {105, 40, 69, kBatch + 1},   // one visible block past a batch
      {99, 40, kBatch, 47},        // exactly one batch of blocks
      {9, 40, kBatch + 1, 48},     // a last batch of one block
  };
  for (const Edge& edge : edges) {
    sim::WorldConfig config;
    config.seed = edge.seed;
    config.target_client_blocks = edge.target_client_blocks;
    const sim::World world{config};
    ASSERT_EQ(world.blocks().size(), edge.total) << "seed " << edge.seed;
    const Observatory daily = Observatory::Daily(world);
    const std::vector<Visit> reference = Reference(daily);
    ASSERT_EQ(reference.size(), edge.visible) << "seed " << edge.seed;
    for (int threads : {1, 4}) {
      PoolSize pool{threads};
      EXPECT_TRUE(Record(daily) == reference)
          << "seed " << edge.seed << ", " << threads << " threads";
    }
  }
}

TEST(Observatory, ConsumeExceptionStopsTheStream) {
  // consume throws on visible block j: the exception reaches the caller
  // and no block after j is consumed, wherever j sits in its batch.
  Observatory daily = Observatory::Daily(SmallWorld());
  const std::size_t visible = Record(daily).size();
  constexpr std::size_t kBatch = Observatory::kHitsBatchBlocks;
  ASSERT_GT(visible, kBatch + 5);
  for (std::size_t j : {std::size_t{0}, kBatch - 1, kBatch + 5, visible - 1}) {
    for (int threads : {1, 4}) {
      PoolSize pool{threads};
      std::size_t consumed = 0;
      EXPECT_THROW(daily.ForEachBlockHits([&](const sim::BlockPlan&,
                                              const activity::ActivityMatrix&,
                                              std::span<const std::uint32_t>) {
        if (consumed == j) throw std::runtime_error("consume failed");
        ++consumed;
      }),
                   std::runtime_error);
      EXPECT_EQ(consumed, j) << threads << " threads";
    }
  }
}

TEST(Observatory, MapExceptionReachesCallerBeforeItsBatchIsConsumed) {
  // Fail in the map stage on the last visible block: every block of the
  // earlier batches is consumed, none of the failing batch.
  Observatory daily = Observatory::Daily(SmallWorld());
  std::vector<net::BlockKey> all;
  for (const sim::BlockPlan& plan : SmallWorld().blocks()) {
    all.push_back(net::BlockKeyOf(plan.block));
  }
  std::sort(all.begin(), all.end());
  const net::BlockKey batch_first =
      all[(all.size() - 1) / Observatory::kHitsBatchBlocks *
          Observatory::kHitsBatchBlocks];
  std::vector<Visit> visible = Record(daily);
  const net::BlockKey target = visible.back().key;
  ASSERT_GE(target, batch_first);
  const auto before = static_cast<std::size_t>(std::count_if(
      visible.begin(), visible.end(),
      [&](const Visit& v) { return v.key < batch_first; }));
  for (int threads : {1, 4}) {
    PoolSize pool{threads};
    std::size_t consumed = 0;
    EXPECT_THROW(
        daily.ForEachBlockHits(
            [&](const sim::BlockPlan& plan, const activity::ActivityMatrix&,
                std::span<const std::uint32_t>) {
              if (net::BlockKeyOf(plan.block) == target) {
                throw std::runtime_error("map failed");
              }
              return 0;
            },
            [&](const sim::BlockPlan& plan, const activity::ActivityMatrix&,
                std::span<const std::uint32_t>, int) {
              EXPECT_LT(net::BlockKeyOf(plan.block), batch_first);
              ++consumed;
            }),
        std::runtime_error);
    EXPECT_EQ(consumed, before) << threads << " threads";
  }
}

// The oracle for the one-pass month scan: the fold of Union over the
// per-day scans of the same days.
net::Ipv4Set FoldedScans(const scan::IcmpScanner& scanner,
                         std::int32_t month_start_day, int month_days,
                         int num_scans) {
  net::Ipv4Set all;
  for (int i = 0; i < num_scans; ++i) {
    all = all.Union(
        scanner.Scan(month_start_day + (i * month_days) / num_scans));
  }
  return all;
}

TEST(IcmpScanner, ScanMonthSameSetAtPoolSizes1And4) {
  scan::IcmpScanner scanner{SmallWorld()};
  net::Ipv4Set serial;
  net::Ipv4Set parallel;
  {
    PoolSize pool{1};
    serial = scanner.ScanMonth(273, 31, 8);
  }
  {
    PoolSize pool{4};
    parallel = scanner.ScanMonth(273, 31, 8);
  }
  EXPECT_GT(serial.Count(), 0u);
  EXPECT_TRUE(serial == parallel);
  EXPECT_TRUE(serial == FoldedScans(scanner, 273, 31, 8));
}

TEST(IcmpScanner, ScanMonthGatesEachScanDayByTheBlockWindow) {
  // Months whose 8 scan days (start + {0, 3, 7, 10, 14, 17, 21, 24})
  // straddle a responding client block's activation or deactivation day,
  // with one scan day just outside the window: active_from - 1 or
  // active_until. Its +-3-day neighbourhood holds activity, so only the
  // window gate keeps the block silent on that day.
  scan::IcmpScanner scanner{SmallWorld()};
  std::vector<std::int32_t> month_starts;
  for (const sim::BlockPlan& plan : SmallWorld().blocks()) {
    if (month_starts.size() >= 4) break;
    if (sim::IsInfraPolicy(plan.base.kind)) continue;
    const std::uint32_t first = plan.block.network().value();
    if (plan.active_from > 30 && plan.active_from < 330 &&
        scanner.Scan(plan.active_from + 7)
            .IntersectsRange(first, first + 255)) {
      month_starts.push_back(plan.active_from - 15);
    }
    if (plan.active_until > 30 && plan.active_until < 330 &&
        scanner.Scan(plan.active_until - 7)
            .IntersectsRange(first, first + 255)) {
      month_starts.push_back(plan.active_until - 14);
    }
  }
  ASSERT_FALSE(month_starts.empty()) << "no responding block with an edge";
  for (int threads : {1, 4}) {
    PoolSize pool{threads};
    for (std::int32_t start : month_starts) {
      EXPECT_TRUE(scanner.ScanMonth(start, 28, 8) ==
                  FoldedScans(scanner, start, 28, 8))
          << "month start " << start << ", " << threads << " threads";
    }
  }
}

TEST(Dataset, SummarizeTotalsConsistent) {
  auto store = Observatory::Daily(SmallWorld()).BuildStore();
  auto totals = SummarizeDataset(store, [](net::BlockKey) { return 1u; });
  EXPECT_EQ(totals.total_blocks, store.BlockCount());
  EXPECT_EQ(totals.total_ips, store.CountActive(0, 112));
  EXPECT_GE(static_cast<double>(totals.total_ips), totals.avg_ips);
  EXPECT_EQ(totals.total_ases, 1u);
  EXPECT_NEAR(totals.avg_ases, 1.0, 1e-9);
  // Churn: the total must exceed the per-snapshot average meaningfully.
  EXPECT_GT(static_cast<double>(totals.total_ips), totals.avg_ips * 1.1);
}

TEST(Dataset, ZeroAsnMeansUnrouted) {
  auto store = Observatory::Daily(SmallWorld()).BuildStore();
  auto totals = SummarizeDataset(store, [](net::BlockKey) { return 0u; });
  EXPECT_EQ(totals.total_ases, 0u);
}

}  // namespace
}  // namespace ipscope::cdn
