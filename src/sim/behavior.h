// Subscriber behaviour model.
//
// Every activity pattern in the paper is the product of an assignment policy
// *and* the behaviour of the humans (or bots) behind it. We model a
// subscriber as a daily activity propensity drawn from a three-component
// mixture (heavy / medium / light users) plus a per-day weekday/weekend
// adjustment; traffic volume is lognormal with a location that increases
// with propensity (heavier users request more), which is what produces the
// paper's Fig 9a correlation between days-active and daily hits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "rng/rng.h"

namespace ipscope::sim {

// Deterministic daily-activity propensity for a subscriber identity hash:
// 20% heavy users (p in [0.75, 0.95]), 50% medium ([0.30, 0.60]),
// 30% light ([0.03, 0.20]).
inline double SubscriberPropensity(std::uint64_t identity) {
  std::uint64_t h = identity;
  double u = static_cast<double>(rng::SplitMix64Next(h) >> 11) * 0x1.0p-53;
  double v = static_cast<double>(rng::SplitMix64Next(h) >> 11) * 0x1.0p-53;
  if (u < 0.20) return 0.75 + 0.20 * v;
  if (u < 0.70) return 0.30 + 0.30 * v;
  return 0.03 + 0.17 * v;
}

// Probability of at least one request in a step of `step_days` days, given
// a per-day probability.
inline double StepProbability(double daily_p, int step_days) {
  daily_p = std::clamp(daily_p, 0.0, 1.0);
  if (step_days == 1) return daily_p;
  return 1.0 - std::pow(1.0 - daily_p, step_days);
}

// Daily request count for an active subscriber: lognormal, location shifted
// by propensity so heavy users also produce more traffic, floored at 1 and
// capped at kDailyHitsCap — rng::FlooredLogNormal(u1, u2,
// DailyHitsMu(hits_mu, propensity), hits_sigma, 1.0, kDailyHitsCap).
inline double DailyHitsMu(double hits_mu, double propensity) {
  return hits_mu + 1.2 * propensity;
}
inline constexpr double kDailyHitsCap = 5.0e7;

}  // namespace ipscope::sim
