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
#include <cstddef>
#include <cstdint>

#include "rng/rng.h"

namespace ipscope::sim {

// Deterministic daily-activity propensity for a subscriber identity hash:
// 20% heavy users (p in [0.75, 0.95]), 50% medium ([0.30, 0.60]),
// 30% light ([0.03, 0.20]). Branch-free: u selects the component's
// (a, b) and every identity then costs the same a + b * v, so
// SubscriberHitsMu below can evaluate it in vector lanes. This is the one
// formula GenerateStep, the GenerateBlock bits kernels and that lane loop
// all evaluate.
inline double SubscriberPropensity(std::uint64_t identity) {
  std::uint64_t h = identity;
  const double u =
      static_cast<double>(rng::SplitMix64Next(h) >> 11) * 0x1.0p-53;
  const double v =
      static_cast<double>(rng::SplitMix64Next(h) >> 11) * 0x1.0p-53;
  const bool heavy = u < 0.20;
  const bool medium = u < 0.70;
  const double a = heavy ? 0.75 : medium ? 0.30 : 0.03;
  const double b = heavy ? 0.20 : medium ? 0.30 : 0.17;
  return a + b * v;
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

// The hits pass's lane loop: mu[i] = DailyHitsMu(hits_mu,
// SubscriberPropensity(occupants[i])) for i < n, bit for bit. Built like
// the lognormal kernel (sim/behavior.cc); runs the AVX-512 target below
// when the CPU has it (rng::KernelTarget::kAvx512) and the portable one
// otherwise.
void SubscriberHitsMu(double hits_mu, std::size_t n,
                      const std::uint64_t* occupants, double* mu);

// The targets behind SubscriberHitsMu, identical in result.
// SubscriberHitsMuAvx512 may only be called when
// rng::FlooredLogNormalAvx512Available() is true.
void SubscriberHitsMuPortable(double hits_mu, std::size_t n,
                              const std::uint64_t* occupants, double* mu);
void SubscriberHitsMuAvx512(double hits_mu, std::size_t n,
                            const std::uint64_t* occupants, double* mu);

}  // namespace ipscope::sim
