// Property tests for the slot-major generation kernels and the arena-backed
// store. GenerateBlock is an aggressive loop transposition of GenerateStep
// (epoch caching, hoisted owner tables, branchless word building, a
// separate step-major hits pass), so its contract is exact identity — every
// test here compares whole matrices and hit arrays against the naive
// per-step reference, never statistics.
#include "sim/policy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "activity/matrix.h"
#include "activity/store.h"
#include "cdn/observatory.h"
#include "rng/lognormal_batch.h"
#include "rng/rng.h"
#include "sim/behavior.h"
#include "sim/world.h"
#include "splitmix_inverse.h"

namespace ipscope::sim {
namespace {

using testing_support::UnmixSplitMix64;

BlockPlan MakePlan(PolicyKind kind) {
  BlockPlan plan;
  plan.block = net::Prefix{net::IPv4Addr{10, 1, 2, 0}, 24};
  plan.asn = 1234;
  plan.country = 0;
  plan.block_seed = 0xDEADBEEF;
  for (std::size_t i = 0; i < plan.host_perm.size(); ++i) {
    plan.host_perm[i] = static_cast<std::uint8_t>(i);
  }
  PolicyParams& p = plan.base;
  p.kind = kind;
  p.pool_size = 256;
  p.subscribers = 256;
  p.daily_p = 0.5f;
  p.weekend_factor = 1.0f;
  p.lease_days = 30;
  p.occupancy = 0.9f;
  p.hits_mu = 3.0f;
  p.hits_sigma = 1.0f;
  return plan;
}

StepSpec DailySpec() {
  StepSpec spec;
  spec.start_day = 228;
  spec.step_days = 1;
  spec.steps = 112;
  spec.world_seed = 42;
  spec.gateway_growth = 0.15;
  return spec;
}

StepSpec WeeklySpec() {
  StepSpec spec = DailySpec();
  spec.start_day = 0;
  spec.step_days = 7;
  spec.steps = 52;
  return spec;
}

// Steps longer than 255 days: a subscriber's active-day multiplier and an
// always-on address's lognormal scale both exceed a byte.
StepSpec LongStepSpec() {
  StepSpec spec = DailySpec();
  spec.start_day = 0;
  spec.step_days = 300;
  spec.steps = 3;
  return spec;
}

// The contract under test: GenerateBlock(plan, spec, rows) must equal the
// per-step reference row for row, GenerateBlock(plan, spec, rows, hits)
// must return the same rows plus GenerateStep's hits256 for every step, and
// GenerateBlock(plan, spec, rows, nullptr, occupants) the same rows plus
// GenerateStep's occupants256. Returns the number of non-zero hit counts, so
// callers can tell a real comparison from an all-zero one.
std::size_t ExpectBlockMatchesSteps(const BlockPlan& plan,
                                    const StepSpec& spec,
                                    const std::string& label) {
  const auto steps = static_cast<std::size_t>(spec.steps);
  std::vector<activity::DayBits> rows(steps);
  std::vector<activity::DayBits> hit_rows(steps);
  std::vector<activity::DayBits> occ_rows(steps);
  // Poisoned: every entry must be written, zeros included.
  std::vector<std::uint32_t> hits(steps * 256, 0xFFFFFFFFu);
  std::vector<std::uint64_t> occupants(steps * 256, ~std::uint64_t{0});
  GenerateBlock(plan, spec, rows.data());
  GenerateBlock(plan, spec, hit_rows.data(), hits.data());
  GenerateBlock(plan, spec, occ_rows.data(), nullptr, occupants.data());
  activity::DayBits ref;
  std::uint32_t ref_hits[256];
  std::uint64_t ref_occupants[256];
  std::size_t nonzero = 0;
  for (int s = 0; s < spec.steps; ++s) {
    const auto si = static_cast<std::size_t>(s);
    GenerateStep(plan, spec, s, ref, ref_hits, ref_occupants);
    EXPECT_EQ(rows[si], ref) << label << " step " << s;
    EXPECT_EQ(hit_rows[si], ref) << label << " step " << s << " (hits call)";
    EXPECT_EQ(occ_rows[si], ref)
        << label << " step " << s << " (occupants call)";
    if (rows[si] != ref || hit_rows[si] != ref || occ_rows[si] != ref) {
      return nonzero;
    }
    for (std::size_t h = 0; h < 256; ++h) {
      if (hits[si * 256 + h] != ref_hits[h]) {
        ADD_FAILURE() << label << " step " << s << " host " << h << ": hits "
                      << hits[si * 256 + h] << " != reference "
                      << ref_hits[h];
        return nonzero;
      }
      if (occupants[si * 256 + h] != ref_occupants[h]) {
        ADD_FAILURE() << label << " step " << s << " host " << h
                      << ": occupant " << occupants[si * 256 + h]
                      << " != reference " << ref_occupants[h];
        return nonzero;
      }
      nonzero += ref_hits[h] != 0 ? 1 : 0;
    }
  }
  return nonzero;
}

// A host_perm that is not the identity, so static slot order and host
// order disagree (the draw order then follows slots, not hosts).
void Shuffle(BlockPlan& plan) {
  rng::Xoshiro256 g{plan.block_seed};
  for (std::size_t i = plan.host_perm.size() - 1; i > 0; --i) {
    std::swap(plan.host_perm[i],
              plan.host_perm[g.NextBounded(static_cast<std::uint32_t>(i + 1))]);
  }
}

TEST(SubstreamTail, MatchesSubstreamForEveryLastTag) {
  // The algebraic identity the slot-major kernels lean on: hoisting the
  // tag-prefix mix out of the inner loop must not change a single draw.
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{42},
                             std::uint64_t{0xDEADBEEFCAFEBABEULL}}) {
    for (std::uint64_t tag : {std::uint64_t{0x7e01}, std::uint64_t{0x7e0b},
                              std::uint64_t{1}}) {
      rng::SubstreamTail one{seed, tag};
      rng::SubstreamTail two{seed, tag, std::uint64_t{17}};
      for (std::uint64_t i = 0; i < 300; ++i) {
        ASSERT_EQ(one.At(i), rng::Substream(seed, tag, i));
        ASSERT_EQ(two.At(i), rng::Substream(seed, tag, std::uint64_t{17}, i));
      }
    }
  }
}

TEST(DayBits, SetBitRangeMatchesPerBitLoop) {
  for (int lo : {0, 1, 31, 32, 63, 64, 100, 255, 256}) {
    for (int hi : {0, 1, 32, 64, 65, 127, 128, 200, 256}) {
      activity::DayBits fast{};
      activity::SetBitRange(fast, lo, hi);
      activity::DayBits slow{};
      for (int h = lo; h < hi; ++h) activity::SetBit(slow, h);
      ASSERT_EQ(fast, slow) << "[" << lo << ", " << hi << ")";
    }
  }
}

TEST(GenerateBlock, MatchesPerStepAcrossKindsGranularitiesAndSeeds) {
  for (PolicyKind kind :
       {PolicyKind::kUnused, PolicyKind::kStatic, PolicyKind::kDynamicShort,
        PolicyKind::kDynamicLong, PolicyKind::kCgnGateway,
        PolicyKind::kCrawlerBots, PolicyKind::kServerFarm,
        PolicyKind::kRouterInfra, PolicyKind::kMiddlebox}) {
    for (const StepSpec& spec : {DailySpec(), WeeklySpec(), LongStepSpec()}) {
      for (std::uint64_t seed :
           {std::uint64_t{0xDEADBEEF}, std::uint64_t{1},
            std::uint64_t{0x9e3779b97f4a7c15ULL}}) {
        BlockPlan plan = MakePlan(kind);
        plan.block_seed = seed;
        Shuffle(plan);
        std::string label = std::string{PolicyKindName(kind)} + "/step" +
                            std::to_string(spec.step_days) + "/seed" +
                            std::to_string(seed);
        std::size_t nonzero = ExpectBlockMatchesSteps(plan, spec, label);
        const bool cdn_visible = IsClientPolicy(kind) ||
                                 kind == PolicyKind::kCrawlerBots ||
                                 kind == PolicyKind::kServerFarm;
        EXPECT_EQ(nonzero > 0, cdn_visible) << label;
      }
    }
  }
}

TEST(GenerateBlock, MatchesPerStepForWeekendAndPoolVariants) {
  // Weekend gating only applies at daily granularity and only when the
  // factor is < 1; sweep both sides of that gate, plus partial pools and
  // both kDynamicShort flavors (rotating band vs dense fill).
  for (float weekend : {1.0f, 0.5f, 0.2f}) {
    for (PolicyKind kind : {PolicyKind::kStatic, PolicyKind::kDynamicShort,
                            PolicyKind::kDynamicLong}) {
      for (bool rotating : {false, true}) {
        if (rotating && kind != PolicyKind::kDynamicShort) continue;
        BlockPlan plan = MakePlan(kind);
        plan.base.weekend_factor = weekend;
        plan.base.rotating = rotating;
        plan.base.pool_size = 100;
        plan.base.subscribers = 60;
        Shuffle(plan);
        std::string label = std::string{PolicyKindName(kind)} + "/wf" +
                            std::to_string(weekend) +
                            (rotating ? "/rotating" : "");
        ExpectBlockMatchesSteps(plan, DailySpec(), label);
        ExpectBlockMatchesSteps(plan, WeeklySpec(), label + "/weekly");
      }
    }
  }
  // The coin-flip policies build each row word from the pool's slots under
  // the policy mask: pools that end inside, at and just past a word
  // boundary, under a partial event that takes hosts 40..140 (across the
  // first two word boundaries) from day 280 on.
  for (PolicyKind kind : {PolicyKind::kDynamicShort, PolicyKind::kCgnGateway,
                          PolicyKind::kCrawlerBots, PolicyKind::kServerFarm}) {
    for (int pool : {1, 63, 64, 65, 200, 256}) {
      BlockPlan plan = MakePlan(kind);
      plan.base.weekend_factor = 0.5f;
      plan.base.pool_size = static_cast<std::uint16_t>(pool);
      plan.base.subscribers = static_cast<std::uint16_t>(pool * 3 / 4 + 1);
      plan.events[0] = BlockEvent{280, MakePlan(PolicyKind::kStatic).base,
                                  40, 140};
      Shuffle(plan);
      const std::string label = std::string{PolicyKindName(kind)} + "/pool" +
                                std::to_string(pool);
      ExpectBlockMatchesSteps(plan, DailySpec(), label);
      ExpectBlockMatchesSteps(plan, WeeklySpec(), label + "/weekly");
    }
  }
}

TEST(UnitThreshold, EqualsTheHashUnitCompareAtTheThreshold) {
  // Every kernel coin flip is (h >> 11) < UnitThreshold(p); GenerateStep's
  // is HashUnit(h) < p. Check both sides of the integer threshold k, with
  // the 11 bits the shift drops all clear and all set.
  auto hash_unit = [](std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  };
  const double exact = 0x1.0p-53 * 3377699720527873.0;  // p · 2^53 integral
  ASSERT_EQ(std::ldexp(exact, 53), 3377699720527873.0);
  for (double p : {0.0, 0x1.0p-53, 0.3, 0.95, 0.98, 0.999, 1.0, exact}) {
    const std::uint64_t k = UnitThreshold(p);
    EXPECT_EQ(k, static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53))))
        << p;
    for (std::uint64_t m : {k - 1, k, k + 1}) {
      if (m >= (std::uint64_t{1} << 53)) continue;  // k - 1 wrapped, or > 1
      for (std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7ff}}) {
        const std::uint64_t h = (m << 11) | low;
        EXPECT_EQ((h >> 11) < k, hash_unit(h) < p)
            << "p " << p << " h >> 11 " << m << " low " << low;
      }
    }
  }
  EXPECT_EQ(UnitThreshold(-0.5), 0u);
  EXPECT_EQ(UnitThreshold(std::nan("")), 0u);
  EXPECT_EQ(UnitThreshold(1.5), std::uint64_t{1} << 53);
}

TEST(GenerateBlock, ADrawEqualToItsThresholdIsInactive) {
  // At block seed 69253 the server-farm draw of slot 0 at step 93 has
  // HashUnit(h) == 0.36433002352714539 exactly, a float: with that daily_p
  // GenerateStep's strict < leaves the slot inactive there, and so must
  // the word kernel's integer compare.
  BlockPlan plan = MakePlan(PolicyKind::kServerFarm);
  plan.block_seed = 69253;
  plan.base.pool_size = 64;
  plan.base.daily_p = 0.36433002352714539f;
  BlockPlan above = plan;
  above.base.daily_p = std::nextafter(plan.base.daily_p, 1.0f);
  activity::DayBits at_p;
  activity::DayBits above_p;
  GenerateStep(plan, DailySpec(), 93, at_p, nullptr);
  GenerateStep(above, DailySpec(), 93, above_p, nullptr);
  ASSERT_FALSE(activity::TestBit(at_p, 0));
  ASSERT_TRUE(activity::TestBit(above_p, 0)) << "the draw is not at p";
  ExpectBlockMatchesSteps(plan, DailySpec(), "draw at its threshold");
}

TEST(GenerateBlock, MatchesPerStepAcrossEventShapes) {
  PolicyParams dense;
  dense.kind = PolicyKind::kDynamicShort;
  dense.pool_size = 256;
  dense.subscribers = 300;
  dense.daily_p = 0.8f;
  dense.weekend_factor = 0.6f;
  dense.hits_mu = 3.0f;
  dense.hits_sigma = 1.0f;
  PolicyParams off;
  off.kind = PolicyKind::kUnused;

  struct Case {
    const char* name;
    BlockPlan plan;
  };
  std::vector<Case> cases;
  {
    BlockPlan p = MakePlan(PolicyKind::kStatic);
    p.events[0] = BlockEvent{280, dense};
    cases.push_back({"full_reconfig", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kStatic);
    p.events[0] = BlockEvent{280, dense, /*host_first=*/128,
                             /*host_last=*/255};
    cases.push_back({"partial_reconfig", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kDynamicLong);
    p.events[0] = BlockEvent{250, dense, 0, 63};
    p.events[1] = BlockEvent{300, off};
    cases.push_back({"two_events", p});
  }
  {
    // Event boundaries that do not align with step midpoints (weekly steps
    // quantize mid-days to step*7+3) exercise the interval scan.
    BlockPlan p = MakePlan(PolicyKind::kStatic);
    p.events[0] = BlockEvent{33, dense};
    p.events[1] = BlockEvent{34, off, 0, 127};
    cases.push_back({"adjacent_days", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kDynamicShort);
    p.active_from = 280;
    p.active_until = 300;
    cases.push_back({"activation_window", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kCgnGateway);
    p.active_from = 10;  // before the daily window: fully active
    p.events[0] = BlockEvent{330, off};
    cases.push_back({"pre_window_activation", p});
  }
  // Partial events in the middle of the block split the base policy into
  // two non-contiguous ownership segments; each segment draws hits in its
  // policy's own slot order, one after the other.
  {
    BlockPlan p = MakePlan(PolicyKind::kStatic);
    Shuffle(p);
    p.base.weekend_factor = 0.5f;
    p.events[0] = BlockEvent{280, dense, 64, 191};
    cases.push_back({"middle_partial_static", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kDynamicShort);
    p.base.rotating = true;
    p.base.pool_size = 200;
    p.base.subscribers = 150;
    p.events[0] = BlockEvent{260, MakePlan(PolicyKind::kStatic).base, 100,
                             150};
    cases.push_back({"middle_partial_rotating", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kDynamicLong);
    p.events[0] = BlockEvent{250, MakePlan(PolicyKind::kCgnGateway).base,
                             0, 63};
    p.events[1] = BlockEvent{300, MakePlan(PolicyKind::kCrawlerBots).base,
                             200, 255};
    cases.push_back({"two_partial_events", p});
  }
  {
    BlockPlan p = MakePlan(PolicyKind::kServerFarm);
    p.events[0] = BlockEvent{240, dense, 10, 20};
    p.events[1] = BlockEvent{270, MakePlan(PolicyKind::kDynamicLong).base,
                             30, 240};
    cases.push_back({"nested_partial_events", p});
  }
  for (const Case& c : cases) {
    ExpectBlockMatchesSteps(c.plan, DailySpec(), std::string{c.name});
    ExpectBlockMatchesSteps(c.plan, WeeklySpec(),
                            std::string{c.name} + "/weekly");
  }
}

TEST(GenerateBlock, MatchesPerStepOverIcmpScanWindow) {
  // IcmpScanner generates a 7-day window centred on the scan day; day 276
  // (Sun 2015-10-04) puts Sat and Sun inside it, so weekend gating runs.
  StepSpec spec;
  spec.start_day = 276 - 3;
  spec.step_days = 1;
  spec.steps = 7;
  for (PolicyKind kind : {PolicyKind::kStatic, PolicyKind::kDynamicShort,
                          PolicyKind::kDynamicLong, PolicyKind::kCgnGateway,
                          PolicyKind::kCrawlerBots}) {
    for (bool rotating : {false, true}) {
      if (rotating && kind != PolicyKind::kDynamicShort) continue;
      BlockPlan plan = MakePlan(kind);
      Shuffle(plan);
      plan.base.weekend_factor = 0.3f;
      plan.base.rotating = rotating;
      ExpectBlockMatchesSteps(plan, spec,
                              std::string{PolicyKindName(kind)} + "/icmp" +
                                  (rotating ? "/rotating" : ""));
    }
  }
}

TEST(ArenaStore, BuildStoreMatchesNaivePerStepConstruction) {
  // The arena handoff (observatory BuildStore -> ActivityStore::AdoptArena)
  // must produce exactly the store the naive one-matrix-per-block
  // construction yields: same keys in the same order, same rows byte for
  // byte — and the matrices must survive a store move (the arena vector's
  // heap buffer is stable, view rows keep pointing into it).
  sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 200;
    return config;
  }()};
  cdn::Observatory daily = cdn::Observatory::Daily(world);
  activity::ActivityStore built = daily.BuildStore();

  activity::ActivityStore naive{daily.steps()};
  for (const BlockPlan& plan : world.blocks()) {
    activity::ActivityMatrix m{daily.steps()};
    bool any = false;
    for (int s = 0; s < daily.steps(); ++s) {
      activity::DayBits bits;
      GenerateStep(plan, daily.spec(), s, bits, nullptr);
      m.Row(s) = bits;
      any = any || (bits[0] | bits[1] | bits[2] | bits[3]) != 0;
    }
    if (any) naive.GetOrCreate(net::BlockKeyOf(plan.block)) = std::move(m);
  }

  activity::ActivityStore moved = std::move(built);
  ASSERT_EQ(moved.BlockCount(), naive.BlockCount());
  for (std::size_t i = 0; i < moved.BlockCount(); ++i) {
    ASSERT_EQ(moved.KeyAt(i), naive.KeyAt(i)) << "block " << i;
  }
  moved.ForEachShard(
      0, moved.BlockCount(),
      [&](net::BlockKey key, const activity::ActivityMatrix& m) {
        const activity::ActivityMatrix* ref = naive.Find(key);
        ASSERT_NE(ref, nullptr);
        for (int d = 0; d < moved.days(); ++d) {
          ASSERT_EQ(m.Row(d), ref->Row(d)) << "day " << d;
        }
      });
}

TEST(ArenaStore, CopiedViewMatrixOwnsItsRows) {
  // Copying a view matrix out of an arena store must deep-copy: the copy
  // stays valid after the store (and its arena) dies.
  sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 50;
    return config;
  }()};
  cdn::Observatory daily = cdn::Observatory::Daily(world);
  activity::ActivityMatrix copy{1};
  activity::DayBits first_row{};
  {
    activity::ActivityStore store = daily.BuildStore();
    ASSERT_GT(store.BlockCount(), 0u);
    const activity::ActivityMatrix* m = store.Find(store.KeyAt(0));
    ASSERT_NE(m, nullptr);
    copy = *m;
    first_row = m->Row(0);
  }
  ASSERT_EQ(copy.Row(0), first_row);
}

TEST(ArenaStore, CopiedStoreOwnsItsRows) {
  // Copy-constructing or copy-assigning an arena store deep-copies every
  // matrix, so both copies stay equal to a fresh build after the original
  // store and its arena die.
  sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 50;
    return config;
  }()};
  cdn::Observatory daily = cdn::Observatory::Daily(world);
  const activity::ActivityStore fresh = daily.BuildStore();
  std::optional<activity::ActivityStore> constructed;
  activity::ActivityStore assigned{1};
  {
    const activity::ActivityStore store = daily.BuildStore();
    constructed.emplace(store);
    assigned = store;
  }
  for (const activity::ActivityStore* copy : {&*constructed, &assigned}) {
    ASSERT_EQ(copy->BlockCount(), fresh.BlockCount());
    ASSERT_EQ(copy->days(), fresh.days());
    for (std::size_t i = 0; i < fresh.BlockCount(); ++i) {
      ASSERT_EQ(copy->KeyAt(i), fresh.KeyAt(i)) << "block " << i;
      for (int d = 0; d < fresh.days(); ++d) {
        ASSERT_EQ(copy->MatrixAt(i).Row(d), fresh.MatrixAt(i).Row(d))
            << "block " << i << " day " << d;
      }
    }
  }
}

// An identity whose SubscriberPropensity draws u = n * 2^-53.
std::uint64_t IdentityWithU(std::uint64_t n, std::uint64_t low_bits) {
  return UnmixSplitMix64((n << 11) | (low_bits & 2047u)) -
         0x9e3779b97f4a7c15ULL;
}

// The hits pass's lane loop, target by target, against the scalar
// formula GenerateStep evaluates: bit for bit on 10,485,760 seeded
// identities, plus identities whose mixture draw u sits within a few
// ulps below and above the 0.20 and 0.70 component boundaries. On a CPU
// without AVX-512 that target is skipped.
class SubscriberHitsMuTarget
    : public ::testing::TestWithParam<rng::KernelTarget> {
 protected:
  void SetUp() override {
    if (GetParam() == rng::KernelTarget::kAvx512 &&
        !rng::FlooredLogNormalAvx512Available()) {
      GTEST_SKIP() << "this CPU lacks AVX-512 F+DQ; the AVX-512 lane loop "
                      "is not checked here";
    }
  }

  void Run(double hits_mu, const std::vector<std::uint64_t>& occ,
           double* mu) const {
    if (GetParam() == rng::KernelTarget::kAvx512) {
      return SubscriberHitsMuAvx512(hits_mu, occ.size(), occ.data(), mu);
    }
    SubscriberHitsMuPortable(hits_mu, occ.size(), occ.data(), mu);
  }

  // True while every lane equals the scalar formula.
  bool Matches(double hits_mu, const std::vector<std::uint64_t>& occ) {
    std::vector<double> mu(occ.size(), -1.0);
    Run(hits_mu, occ, mu.data());
    for (std::size_t i = 0; i < occ.size(); ++i) {
      const double want = DailyHitsMu(hits_mu, SubscriberPropensity(occ[i]));
      if (std::bit_cast<std::uint64_t>(mu[i]) !=
          std::bit_cast<std::uint64_t>(want)) {
        ADD_FAILURE() << "lane " << i << " occupant " << occ[i]
                      << " hits_mu " << hits_mu << ": " << mu[i]
                      << " != " << want;
        return false;
      }
    }
    return true;
  }
};

TEST_P(SubscriberHitsMuTarget, LanesMatchTheScalarFormula) {
  rng::Xoshiro256 g{20161114};
  std::vector<std::uint64_t> occ(1 << 16);
  for (int chunk = 0; chunk < 160; ++chunk) {  // 10,485,760 identities
    for (std::uint64_t& o : occ) o = g();
    // Chunk sizes that are not a multiple of any vector width, too.
    if (chunk % 2 == 1) occ.resize(occ.size() - 1 - g.NextBounded(15));
    ASSERT_TRUE(Matches(2.0 + 7.0 * g.NextDouble(), occ)) << chunk;
    occ.resize(1 << 16);
  }
}

TEST_P(SubscriberHitsMuTarget, LanesMatchAtTheMixtureBoundaries) {
  rng::Xoshiro256 g{7};
  std::vector<std::uint64_t> occ;
  int below = 0;
  int above = 0;
  for (double boundary : {0.20, 0.70}) {
    const auto n0 = static_cast<std::uint64_t>(boundary * 0x1.0p53);
    for (std::uint64_t n = n0 - 4; n <= n0 + 4; ++n) {
      for (int k = 0; k < 64; ++k) {
        const std::uint64_t id = IdentityWithU(n, g());
        std::uint64_t h = id;
        const double u =
            static_cast<double>(rng::SplitMix64Next(h) >> 11) * 0x1.0p-53;
        ASSERT_EQ(u, static_cast<double>(n) * 0x1.0p-53);
        (u < boundary ? below : above) += 1;
        occ.push_back(id);
      }
    }
  }
  EXPECT_GE(below, 2 * 64 * 3);
  EXPECT_GE(above, 2 * 64 * 3);
  for (double hits_mu : {2.0, 3.0, 8.7}) {
    EXPECT_TRUE(Matches(hits_mu, occ));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SubscriberHitsMu, SubscriberHitsMuTarget,
    ::testing::Values(rng::KernelTarget::kPortable,
                      rng::KernelTarget::kAvx512),
    [](const ::testing::TestParamInfo<rng::KernelTarget>& info) {
      return std::string(info.param == rng::KernelTarget::kAvx512
                             ? "avx512"
                             : "portable");
    });

TEST(SubscriberHitsMu, DispatchMatchesTheScalarFormula) {
  rng::Xoshiro256 g{3};
  std::vector<std::uint64_t> occ(1000);
  for (std::uint64_t& o : occ) o = g();
  std::vector<double> mu(occ.size());
  SubscriberHitsMu(4.5, occ.size(), occ.data(), mu.data());
  for (std::size_t i = 0; i < occ.size(); ++i) {
    ASSERT_EQ(mu[i], DailyHitsMu(4.5, SubscriberPropensity(occ[i]))) << i;
  }
}

}  // namespace
}  // namespace ipscope::sim
