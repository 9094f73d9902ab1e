#include "security/reputation.h"

#include <algorithm>
#include <cmath>

#include "activity/change.h"
#include "par/pool.h"
#include "rng/rng.h"
#include "sim/policy.h"

namespace ipscope::security {

namespace {

constexpr std::uint64_t kTagAbuser = 0xAB05;
constexpr std::uint64_t kTagAbuseAct = 0xAC07;

double HashUnit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Activity matrix restricted to a step range (for training-window feature
// computation).
activity::ActivityMatrix SubMatrix(const activity::ActivityMatrix& m,
                                   int first, int last) {
  activity::ActivityMatrix out{last - first};
  for (int d = first; d < last; ++d) out.Row(d - first) = m.Row(d);
  return out;
}

}  // namespace

double PatternTtlDays(activity::BlockPattern pattern) {
  switch (pattern) {
    case activity::BlockPattern::kFullyUtilized:
      return 0.2;  // gateway: thousands share the address within hours
    case activity::BlockPattern::kDynamicShortLease:
      return 1.0;
    case activity::BlockPattern::kDynamicLongLease:
      return 14.0;
    case activity::BlockPattern::kStaticSparse:
      return 45.0;
    case activity::BlockPattern::kInactive:
    case activity::BlockPattern::kMixed:
      return 7.0;  // no lease evidence: a neutral one-week listing
  }
  return 7.0;
}

std::vector<ReputationEvaluation> EvaluateReputationPolicies(
    const cdn::Observatory& daily, const activity::ActivityStore& daily_store,
    std::span<const ReputationPolicy> policies, AbuseSimConfig config) {
  const sim::World& world = daily.world();
  sim::StepSpec spec = daily.spec();
  spec.steps = config.eval_last;  // same start_day, so the same rows
  auto replay_blocks = [&](std::vector<ReputationEvaluation>& evals,
                           std::size_t first, std::size_t last) {
    const auto steps = static_cast<std::size_t>(spec.steps);
    std::vector<activity::DayBits> rows(steps);
    std::vector<std::uint64_t> occupants(steps * 256);
    std::vector<double> ttl(policies.size());
    std::vector<int> reset(policies.size());
    for (std::size_t b = first; b < last; ++b) {
      const sim::BlockPlan& plan = world.blocks()[b];
      if (!sim::IsClientPolicy(plan.base.kind) &&
          plan.base.kind != sim::PolicyKind::kCrawlerBots) {
        continue;
      }

      // Per-block TTLs and reset steps are learned from the training window.
      double pattern_ttl = 1e9;  // no matrix: never expire
      int reset_step = -1;
      if (const activity::ActivityMatrix* m =
              daily_store.Find(net::BlockKeyOf(plan.block))) {
        pattern_ttl = PatternTtlDays(activity::ClassifyPattern(
            SubMatrix(*m, config.train_first, config.train_last)));
        // Locate the month boundary with the largest STU swing; if it is
        // major, reset the block's reputations at that boundary.
        constexpr int kMonth = 28;
        int months = m->days() / kMonth;
        double best = 0.0;
        double prev = m->Stu(0, kMonth);
        for (int mo = 1; mo < months; ++mo) {
          double cur = m->Stu(mo * kMonth, (mo + 1) * kMonth);
          if (std::abs(cur - prev) > std::abs(best)) {
            best = cur - prev;
            reset_step = mo * kMonth;
          }
          prev = cur;
        }
        if (std::abs(best) <= activity::kMajorChangeThreshold) reset_step = -1;
      }
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const TtlPolicy policy = policies[p].ttl;
        ttl[p] = policy == TtlPolicy::kNever   ? 1e9
                 : policy == TtlPolicy::kFixed ? policies[p].fixed_ttl_days
                                               : pattern_ttl;
        reset[p] = policy == TtlPolicy::kPatternReset ? reset_step : -1;
      }

      // Replay the block's activity; abusers act throughout, queries are
      // scored in the evaluation window under every policy.
      sim::GenerateBlock(plan, spec, rows.data(), nullptr, occupants.data());
      BlockMarks marks;
      for (int step = 0; step < spec.steps; ++step) {
        const auto si = static_cast<std::size_t>(step);
        activity::ForEachSetBit(rows[si], [&](int host) {
          const std::uint64_t occ =
              occupants[si * 256 + static_cast<std::size_t>(host)];
          const bool abuser =
              occ != 0 && HashUnit(rng::Substream(occ, kTagAbuser)) <
                              config.abuser_rate;
          if (step >= config.eval_first) {
            for (std::size_t p = 0; p < policies.size(); ++p) {
              ReputationEvaluation& eval = evals[p];
              const bool blocked = marks.IsBad(host, step, ttl[p], reset[p]);
              if (abuser) {
                ++(blocked ? eval.blocked_abuser : eval.missed_abuser);
              } else {
                ++eval.innocent_queries;
                if (blocked) ++eval.blocked_innocent;
              }
            }
          }
          if (abuser && HashUnit(rng::Substream(occ, kTagAbuseAct, step)) <
                            config.abuse_probability) {
            marks.MarkBad(host, step);
            for (ReputationEvaluation& eval : evals) ++eval.abuse_events;
          }
        });
      }
    }
  };
  auto merge = [](std::vector<ReputationEvaluation>& into,
                  std::vector<ReputationEvaluation>&& part) {
    for (std::size_t p = 0; p < into.size(); ++p) {
      into[p].abuse_events += part[p].abuse_events;
      into[p].blocked_abuser += part[p].blocked_abuser;
      into[p].blocked_innocent += part[p].blocked_innocent;
      into[p].missed_abuser += part[p].missed_abuser;
      into[p].innocent_queries += part[p].innocent_queries;
    }
  };
  return par::ParallelReduce(
      std::size_t{0}, world.blocks().size(),
      std::vector<ReputationEvaluation>(policies.size()), replay_blocks, merge);
}

}  // namespace ipscope::security
