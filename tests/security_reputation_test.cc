#include "security/reputation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "activity/change.h"
#include "par/pool.h"
#include "rng/rng.h"
#include "sim/policy.h"

namespace ipscope::security {
namespace {

TEST(BlockMarks, MarkAndExpire) {
  BlockMarks marks;
  EXPECT_FALSE(marks.IsBad(1, 100, 30, -1));
  marks.MarkBad(1, 100);
  EXPECT_TRUE(marks.IsBad(1, 100, 30, -1));
  // The TTL edge is inclusive.
  EXPECT_TRUE(marks.IsBad(1, 130, 30, -1));
  EXPECT_FALSE(marks.IsBad(1, 131, 30, -1));
  // Re-marking refreshes the clock.
  marks.MarkBad(1, 140);
  EXPECT_TRUE(marks.IsBad(1, 160, 30, -1));
  EXPECT_FALSE(marks.IsBad(2, 160, 30, -1));
}

TEST(BlockMarks, MarkBadKeepsLatestDay) {
  BlockMarks marks;
  marks.MarkBad(2, 100);
  marks.MarkBad(2, 50);  // older evidence must not rewind expiry
  EXPECT_TRUE(marks.IsBad(2, 120, 30, -1));
}

TEST(BlockMarks, ResetDropsOnlyEarlierMarks) {
  BlockMarks marks;
  marks.MarkBad(1, 10);
  marks.MarkBad(2, 40);
  // Before the reset step every mark counts.
  EXPECT_TRUE(marks.IsBad(1, 27, 1e9, 28));
  // From the reset step on, only marks made at or after it do.
  EXPECT_FALSE(marks.IsBad(1, 28, 1e9, 28));
  EXPECT_FALSE(marks.IsBad(1, 50, 1e9, 28));
  EXPECT_TRUE(marks.IsBad(2, 50, 1e9, 28));
  EXPECT_TRUE(marks.IsBad(2, 50, 1e9, 40));
  // Another block's reset step leaves these marks alone.
  EXPECT_TRUE(marks.IsBad(1, 50, 1e9, -1));
}

TEST(Reputation, PatternTtlOrdering) {
  using activity::BlockPattern;
  EXPECT_LT(PatternTtlDays(BlockPattern::kFullyUtilized),
            PatternTtlDays(BlockPattern::kDynamicShortLease));
  EXPECT_LT(PatternTtlDays(BlockPattern::kDynamicShortLease),
            PatternTtlDays(BlockPattern::kDynamicLongLease));
  EXPECT_LT(PatternTtlDays(BlockPattern::kDynamicLongLease),
            PatternTtlDays(BlockPattern::kStaticSparse));
}

class ReputationSim : public ::testing::Test {
 protected:
  static const cdn::Observatory& Daily() {
    static sim::WorldConfig config = [] {
      sim::WorldConfig c;
      c.target_client_blocks = 400;
      return c;
    }();
    static sim::World world{config};
    static cdn::Observatory daily = cdn::Observatory::Daily(world);
    return daily;
  }

  static const activity::ActivityStore& DailyStore() {
    static activity::ActivityStore store = Daily().BuildStore();
    return store;
  }

  static ReputationEvaluation Evaluate(TtlPolicy ttl,
                                       double fixed_ttl_days = 0) {
    const ReputationPolicy policy[] = {{ttl, fixed_ttl_days}};
    return EvaluateReputationPolicies(Daily(), DailyStore(), policy)[0];
  }
};

TEST_F(ReputationSim, NeverExpireMaximizesCollateralDamage) {
  auto never = Evaluate(TtlPolicy::kNever);
  auto one_day = Evaluate(TtlPolicy::kFixed, 1.0);
  ASSERT_GT(never.abuse_events, 100u);
  // Same abuse stream in both runs (determinism across policies).
  EXPECT_EQ(never.abuse_events, one_day.abuse_events);
  // Never-expiring reputations punish far more innocent interactions...
  EXPECT_GT(never.FalsePositiveRate(), one_day.FalsePositiveRate() * 3);
  // ...while catching at least as many abusers.
  EXPECT_GE(never.blocked_abuser, one_day.blocked_abuser);
}

TEST_F(ReputationSim, PatternTtlBeatsFixedTradeoff) {
  auto fixed30 = Evaluate(TtlPolicy::kFixed, 30.0);
  auto pattern = Evaluate(TtlPolicy::kPattern);
  // Pattern-aware TTLs cut collateral damage dramatically vs a 30-day TTL.
  EXPECT_LT(pattern.FalsePositiveRate(), fixed30.FalsePositiveRate() * 0.6);
  // Abuser coverage cannot collapse: the miss-rate penalty stays bounded.
  EXPECT_LT(pattern.MissRate(), fixed30.MissRate() + 0.35);
}

TEST_F(ReputationSim, ChangeTriggeredResetsReduceFalsePositives) {
  auto pattern = Evaluate(TtlPolicy::kPattern);
  auto with_reset = Evaluate(TtlPolicy::kPatternReset);
  EXPECT_LE(with_reset.blocked_innocent, pattern.blocked_innocent);
}

TEST_F(ReputationSim, RatesAreRates) {
  auto eval = Evaluate(TtlPolicy::kFixed, 7.0);
  EXPECT_GE(eval.FalsePositiveRate(), 0.0);
  EXPECT_LE(eval.FalsePositiveRate(), 1.0);
  EXPECT_GE(eval.MissRate(), 0.0);
  EXPECT_LE(eval.MissRate(), 1.0);
  EXPECT_GT(eval.innocent_queries, 1000u);
}

// --- The per-policy replay the one-pass scorer replaced --------------------
//
// One policy at a time: a global address -> last-mark-day blocklist whose
// ResetBlock erases the block's entries at the reset step, fed by a
// per-step GenerateStep replay of every eligible block.

double OracleHashUnit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

ReputationEvaluation OracleEvaluate(const cdn::Observatory& daily,
                                    const activity::ActivityStore& store,
                                    ReputationPolicy policy,
                                    const AbuseSimConfig& config) {
  constexpr std::uint64_t kTagAbuser = 0xAB05;
  constexpr std::uint64_t kTagAbuseAct = 0xAC07;
  ReputationEvaluation eval;
  const bool needs_training = policy.ttl == TtlPolicy::kPattern ||
                              policy.ttl == TtlPolicy::kPatternReset;
  std::unordered_map<std::uint32_t, std::int32_t> blocklist;
  for (const sim::BlockPlan& plan : daily.world().blocks()) {
    if (!sim::IsClientPolicy(plan.base.kind) &&
        plan.base.kind != sim::PolicyKind::kCrawlerBots) {
      continue;
    }
    const net::BlockKey key = net::BlockKeyOf(plan.block);
    double ttl = 1e9;
    int reset_step = -1;
    if (policy.ttl == TtlPolicy::kFixed) {
      ttl = policy.fixed_ttl_days;
    } else if (needs_training) {
      if (const activity::ActivityMatrix* m = store.Find(key)) {
        activity::ActivityMatrix train{config.train_last -
                                       config.train_first};
        for (int d = config.train_first; d < config.train_last; ++d) {
          train.Row(d - config.train_first) = m->Row(d);
        }
        ttl = PatternTtlDays(
            activity::ClassifyPattern(activity::ComputeFeatures(train)));
        if (policy.ttl == TtlPolicy::kPatternReset) {
          constexpr int kMonth = 28;
          double best = 0.0;
          double prev = m->Stu(0, kMonth);
          for (int mo = 1; mo < m->days() / kMonth; ++mo) {
            double cur = m->Stu(mo * kMonth, (mo + 1) * kMonth);
            if (std::abs(cur - prev) > std::abs(best)) {
              best = cur - prev;
              reset_step = mo * kMonth;
            }
            prev = cur;
          }
          if (std::abs(best) <= activity::kMajorChangeThreshold) {
            reset_step = -1;
          }
        }
      }
    }
    activity::DayBits bits;
    std::uint64_t occupants[256];
    for (int step = 0; step < config.eval_last; ++step) {
      if (step == reset_step) {
        std::erase_if(blocklist, [&](const auto& entry) {
          return net::BlockKeyOf(net::IPv4Addr{entry.first}) == key;
        });
      }
      sim::GenerateStep(plan, daily.spec(), step, bits, nullptr, occupants);
      for (int host = 0; host < 256; ++host) {
        if (!activity::TestBit(bits, host)) continue;
        const std::uint32_t addr = plan.block.network().value() +
                                   static_cast<std::uint32_t>(host);
        const std::uint64_t occ = occupants[host];
        const bool abuser =
            occ != 0 && OracleHashUnit(rng::Substream(occ, kTagAbuser)) <
                            config.abuser_rate;
        if (step >= config.eval_first) {
          auto it = blocklist.find(addr);
          const bool blocked =
              it != blocklist.end() &&
              static_cast<double>(step - it->second) <= ttl;
          if (abuser) {
            ++(blocked ? eval.blocked_abuser : eval.missed_abuser);
          } else {
            ++eval.innocent_queries;
            if (blocked) ++eval.blocked_innocent;
          }
        }
        if (abuser &&
            OracleHashUnit(rng::Substream(occ, kTagAbuseAct, step)) <
                config.abuse_probability) {
          auto [it, inserted] = blocklist.try_emplace(addr, step);
          if (!inserted && step > it->second) it->second = step;
          ++eval.abuse_events;
        }
      }
    }
  }
  return eval;
}

TEST_F(ReputationSim, OnePassEqualsPerPolicyReplayAtPoolSizes1And4) {
  sim::WorldConfig world_config;
  world_config.seed = 11;
  world_config.target_client_blocks = 250;
  const sim::World world{world_config};
  const cdn::Observatory daily = cdn::Observatory::Daily(world);
  const activity::ActivityStore store = daily.BuildStore();
  AbuseSimConfig config;
  config.abuser_rate = 0.05;
  config.abuse_probability = 0.3;
  config.train_first = 7;
  config.train_last = 63;
  config.eval_first = 40;
  config.eval_last = 100;
  const ReputationPolicy policies[] = {
      {TtlPolicy::kNever, 0},   {TtlPolicy::kFixed, 30},
      {TtlPolicy::kFixed, 7},   {TtlPolicy::kFixed, 1},
      {TtlPolicy::kPattern, 0}, {TtlPolicy::kPatternReset, 0}};

  std::vector<ReputationEvaluation> want;
  for (const ReputationPolicy& policy : policies) {
    want.push_back(OracleEvaluate(daily, store, policy, config));
  }
  // The reset policy must differ from the plain pattern TTL, or the oracle
  // would not exercise the reset at all.
  ASSERT_NE(want[4].blocked_innocent + want[4].blocked_abuser,
            want[5].blocked_innocent + want[5].blocked_abuser);
  for (int threads : {1, 4}) {
    par::GlobalPool().Resize(threads);
    const auto got =
        EvaluateReputationPolicies(daily, store, policies, config);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
      const std::string label = "policy #" + std::to_string(p) +
                                " threads " + std::to_string(threads);
      EXPECT_EQ(got[p].abuse_events, want[p].abuse_events) << label;
      EXPECT_EQ(got[p].blocked_abuser, want[p].blocked_abuser) << label;
      EXPECT_EQ(got[p].blocked_innocent, want[p].blocked_innocent) << label;
      EXPECT_EQ(got[p].missed_abuser, want[p].missed_abuser) << label;
      EXPECT_EQ(got[p].innocent_queries, want[p].innocent_queries) << label;
    }
  }
  par::GlobalPool().Resize(0);
}

}  // namespace
}  // namespace ipscope::security
