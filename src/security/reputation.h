// IP-reputation maintenance under address churn (paper §8, "implications
// to network security").
//
// "A host's IP address is often associated with a reputation subsequently
// used for network abuse mitigation... addresses and network blocks become
// encumbered by their prior uses... when reputation information is stale."
//
// This module provides a per-/24 blocklist plus an evaluation harness that
// quantifies the paper's claim: an abuser population misbehaves through
// churning addresses, a blocklist records bad IPs under a given expiry
// policy, and every later client interaction is scored — was a blocked
// address still held by the abuser (correct), or already reassigned to an
// innocent subscriber (collateral damage)? Expiry policies range from
// "never expire" through fixed TTLs to the paper's proposal: TTLs derived
// from the block's observed assignment pattern, plus resets triggered by
// the §5.2 change detector. One pooled replay scores every policy.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "activity/pattern.h"
#include "activity/store.h"
#include "cdn/observatory.h"

namespace ipscope::security {

// One /24's blocklist during the replay: the step each host was last
// flagged bad. Marks arrive in step order, so the latest mark wins. A
// change-triggered reset at `reset_step` drops the block's earlier marks:
// from that step on, a mark counts only if it was made at or after it.
class BlockMarks {
 public:
  void MarkBad(int host, std::int32_t step) {
    std::int32_t& mark = marks_[static_cast<std::size_t>(host)];
    mark = std::max(mark, step + 1);
  }

  // Is the host considered bad on `step` under a TTL (in days, inclusive)
  // and the block's reset step (-1 = never reset)?
  bool IsBad(int host, std::int32_t step, double ttl_days,
             int reset_step) const {
    const std::int32_t last = marks_[static_cast<std::size_t>(host)] - 1;
    if (last < 0 || (reset_step >= 0 && step >= reset_step &&
                     last < reset_step)) {
      return false;
    }
    return static_cast<double>(step - last) <= ttl_days;
  }

 private:
  std::array<std::int32_t, 256> marks_{};  // last flagged step + 1; 0: never
};

enum class TtlPolicy {
  kNever,        // reputations never expire (the strawman)
  kFixed,        // one global TTL
  kPattern,      // per-block TTL from the activity-pattern classifier
  kPatternReset, // kPattern + change-detector-triggered block resets
};

// TTL (days) recommended for a block pattern: gateways share reputations
// across thousands of users (hours), 24h pools need ~a day, long leases a
// couple of weeks, static assignments a month-plus.
double PatternTtlDays(activity::BlockPattern pattern);

// An expiry policy to score: kFixed reads fixed_ttl_days.
struct ReputationPolicy {
  TtlPolicy ttl = TtlPolicy::kNever;
  double fixed_ttl_days = 0;
};

struct ReputationEvaluation {
  std::uint64_t abuse_events = 0;     // MarkBad calls
  std::uint64_t blocked_abuser = 0;   // queries blocked, holder is abuser
  std::uint64_t blocked_innocent = 0; // queries blocked, holder is innocent
  std::uint64_t missed_abuser = 0;    // abuser active but not blocked
  std::uint64_t innocent_queries = 0; // all innocent client interactions

  // Collateral damage: innocent interactions wrongly blocked.
  double FalsePositiveRate() const {
    return innocent_queries
               ? static_cast<double>(blocked_innocent) / innocent_queries
               : 0.0;
  }
  // Abuser interactions that slipped through.
  double MissRate() const {
    std::uint64_t abuser_total = blocked_abuser + missed_abuser;
    return abuser_total
               ? static_cast<double>(missed_abuser) / abuser_total
               : 0.0;
  }
};

struct AbuseSimConfig {
  double abuser_rate = 0.01;      // fraction of subscribers that abuse
  double abuse_probability = 0.5; // per active abuser-day
  // Training window (pattern classification / change detection) vs the
  // evaluation window, as step indices of the daily observatory.
  int train_first = 0;
  int train_last = 56;
  int eval_first = 56;
  int eval_last = 112;
};

// Runs the abuse simulation once and scores every policy, returning one
// evaluation per policy in order. `daily_store` must be `daily`'s store
// (BuildStore); the pattern policies train on it. Deterministic in the
// world seed and independent of the pool size; every policy sees the same
// abuse/activity stream, so results are directly comparable.
std::vector<ReputationEvaluation> EvaluateReputationPolicies(
    const cdn::Observatory& daily, const activity::ActivityStore& daily_store,
    std::span<const ReputationPolicy> policies, AbuseSimConfig config = {});

}  // namespace ipscope::security
