// Address-assignment policies and the per-block activity kernel.
//
// A BlockPlan describes how one /24 is administered: which policy assigns
// addresses to subscribers, with what parameters, and which scheduled
// events (reconfiguration, activation, deactivation) change that over the
// year. GenerateBlock turns a plan into its activity matrix — and optionally
// per-address hit counts and occupants — fully deterministically: the same
// (world seed, block, step) always yields the same bits, so observation
// layers can regenerate data on demand instead of storing it. GenerateStep
// computes one step the obvious way and is kept as GenerateBlock's oracle.
//
// Policy kinds and the figures they reproduce:
//   kStatic            Fig 6a  sparse scatter, stable set, weekday pattern
//   kDynamicShort      Fig 6b  rotating pool band (underutilized round-robin)
//                      Fig 6d  dense high-turnover fill (~24h leases)
//   kDynamicLong       Fig 6c  long leases: a few always-on + intermittent
//   kCgnGateway        §5.3/6  full, continuous utilization; huge traffic
//   kCrawlerBots       §6.3    few always-on addresses, huge traffic, 1 UA
//   kServerFarm        §3.3    (almost) CDN-invisible, ICMP/port-responsive
//   kRouterInfra       §3.3    CDN-invisible, ICMP + traceroute-visible
//   kMiddlebox         §3.3    ICMP-responsive "unknown" (tarpits, etc.)
//   kUnused            §8      allocated & routed but entirely inactive
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "activity/matrix.h"
#include "netbase/prefix.h"
#include "timeutil/date.h"

namespace ipscope::sim {

enum class PolicyKind : std::uint8_t {
  kUnused,
  kStatic,
  kDynamicShort,
  kDynamicLong,
  kCgnGateway,
  kCrawlerBots,
  kServerFarm,
  kRouterInfra,
  kMiddlebox,
};

const char* PolicyKindName(PolicyKind kind);

// True for policies that put end-user client devices behind the addresses
// (the CDN's client population).
constexpr bool IsClientPolicy(PolicyKind kind) {
  return kind == PolicyKind::kStatic || kind == PolicyKind::kDynamicShort ||
         kind == PolicyKind::kDynamicLong || kind == PolicyKind::kCgnGateway;
}

// True for infrastructure policies that never (or almost never) appear in
// CDN logs but respond to active measurement.
constexpr bool IsInfraPolicy(PolicyKind kind) {
  return kind == PolicyKind::kServerFarm || kind == PolicyKind::kRouterInfra ||
         kind == PolicyKind::kMiddlebox;
}

struct PolicyParams {
  PolicyKind kind = PolicyKind::kUnused;
  std::uint16_t pool_size = 0;    // addresses under management (1..256)
  std::uint16_t subscribers = 0;  // subscriber population served
  float daily_p = 0.0f;           // mean per-day activity probability
  float weekend_factor = 1.0f;    // multiplier applied on Sat/Sun
  std::uint16_t lease_days = 0;   // kDynamicLong: lease duration
  float occupancy = 1.0f;         // fraction of slots with a live customer
  bool rotating = false;          // kDynamicShort: rotate a contiguous band
  float hits_mu = 3.0f;           // lognormal location of daily hits
  float hits_sigma = 1.0f;
};

// A scheduled change of assignment practice. day is the absolute day of
// year (0 = Jan 1); day < 0 marks an unused slot. The host range allows
// *partial* reconfigurations (the paper's Fig 7b: spatially inconsistent
// patterns where only part of the /24 is repurposed); the default range
// covers the whole block.
struct BlockEvent {
  std::int32_t day = -1;
  PolicyParams params;
  std::uint8_t host_first = 0;
  std::uint8_t host_last = 255;
};

struct BlockPlan {
  net::Prefix block;
  std::uint32_t asn = 0;
  std::int16_t country = -1;
  PolicyParams base;
  std::array<BlockEvent, 2> events{};
  // The block produces no activity before active_from / from active_until on.
  std::int32_t active_from = 0;
  std::int32_t active_until = std::numeric_limits<std::int32_t>::max();
  std::uint64_t block_seed = 0;
  // Seeded permutation scattering static assignments across the /24.
  std::array<std::uint8_t, 256> host_perm{};

  // The parameters in effect on an absolute day (last event <= day wins).
  const PolicyParams& ParamsOn(std::int32_t abs_day) const;

  bool HasReconfiguration() const { return events[0].day >= 0; }
};

// Time base shared by all generation calls of one dataset.
struct StepSpec {
  std::int32_t start_day = 0;  // absolute day of step 0 (0 = Jan 1, 2015)
  int step_days = 1;           // 1 for the daily dataset, 7 for weekly
  int steps = 0;
  std::uint64_t world_seed = 0;
  double gateway_growth = 0.0;  // ln-units of gateway traffic growth / year
};

// The integer form of every coin flip: a uniform hash h passes with
// probability p when HashUnit(h) = (h >> 11) · 2^-53 is below p, and
// (h >> 11) < UnitThreshold(p) holds for exactly the same h. ldexp(p, 53)
// is exact and h >> 11 is an integer, so m · 2^-53 < p ⇔ m < ceil(p · 2^53);
// p ≤ 0 or NaN gives 0 (no h passes), p ≥ 1 gives 2^53 (every h passes).
std::uint64_t UnitThreshold(double p);

// Generates the activity bits for one (block, step). If `hits256` is
// non-null it receives per-address request counts for the step (zero for
// inactive addresses). If `occupants256` is non-null it receives the
// subscriber identity hash currently holding each active address (0 for
// inactive addresses and for aggregating gateways, which have no single
// subscriber). Bits are independent of whether hits/occupants are requested.
// This is the per-step reference that tests and bench oracles compare
// GenerateBlock against; code under src/ calls GenerateBlock (lint rule
// design.one-kernel).
void GenerateStep(const BlockPlan& plan, const StepSpec& spec, int step,
                  activity::DayBits& bits, std::uint32_t* hits256,
                  std::uint64_t* occupants256);

inline void GenerateStep(const BlockPlan& plan, const StepSpec& spec,
                         int step, activity::DayBits& bits,
                         std::uint32_t* hits256) {
  GenerateStep(plan, spec, step, bits, hits256, nullptr);
}

// Fills rows[0 .. spec.steps) with the block's whole activity matrix in one
// call — bit-identical to calling GenerateStep per step, but slot-major:
// every Substream draw is a pure function of (seed, tags), so the per-step
// × per-slot loop nest can be transposed and the per-slot state (tenure
// epochs, occupants, propensities, activity-run decisions) hoisted out of
// the step sweep. This is the one production generation kernel: the store
// build, the ICMP scans, the hits stream and the occupant producers
// (reputation replay, login traces, raw logs) all call it; GenerateStep
// stays as its reference.
//
// No per-step coin flip is a branch: each compares h >> 11 against
// UnitThreshold(p) and its outcome is stored as data. The coin-flip
// policies (dense kDynamicShort, kCgnGateway, kCrawlerBots, kServerFarm)
// get each row word, 64 slots at a time, from one rng::FlipWord call
// (eight slots per instruction on AVX-512); the epoch
// policies (kStatic, kDynamicLong) make one draw per activity run and AND
// in the weekend draw of each weekend step. A bits-only call does not
// build the hits pass's ~16 KB lane queue.
//
// If `hits` is non-null it receives spec.steps × 256 per-address request
// counts (hits[step * 256 + host], zero where inactive), bit-identical to
// GenerateStep's hits256 for every step. They come from a second,
// step-major pass over the finished rows, so the bits-only call pays
// nothing for them. That pass draws each emission's uniforms in
// GenerateStep's order but evaluates a whole step's lognormals at once
// with rng::FlooredLogNormalBatch, whose certified polynomial kernel falls
// back to GenerateStep's own scalar formula wherever it cannot prove the
// integer; it counts `sim.hits.draws` and `sim.hits.exact_fallbacks`
// (one Add each per call). A kDynamicShort emission queues only its
// occupant's identity hash: just before the kernel, one vectorized lane
// loop (SubscriberHitsMu, sim/behavior.h) turns each run of them into
// DailyHitsMu(hits_mu, SubscriberPropensity(occupant)), the same value
// GenerateStep computes.
//
// If `occupants` is non-null it receives spec.steps × 256 subscriber
// identities (occupants[step * 256 + host]), equal to GenerateStep's
// occupants256 for every step: 0 where inactive and for the policies with
// no single subscriber behind an address. They come from their own pass
// over the finished rows, which makes no hit draws.
void GenerateBlock(const BlockPlan& plan, const StepSpec& spec,
                   activity::DayBits* rows, std::uint32_t* hits = nullptr,
                   std::uint64_t* occupants = nullptr);

}  // namespace ipscope::sim
