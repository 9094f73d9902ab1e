#include "sim/policy.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "obs/registry.h"
#include "rng/flip_words.h"
#include "rng/lognormal_batch.h"
#include "rng/rng.h"
#include "sim/behavior.h"

namespace ipscope::sim {

namespace {

// Substream tags (arbitrary distinct constants).
constexpr std::uint64_t kTagTenure = 0x7e01;
constexpr std::uint64_t kTagOccupant = 0x7e02;
constexpr std::uint64_t kTagActive = 0x7e03;
constexpr std::uint64_t kTagPoolCount = 0x7e04;
constexpr std::uint64_t kTagDense = 0x7e05;
constexpr std::uint64_t kTagLease = 0x7e06;
constexpr std::uint64_t kTagAlwaysOn = 0x7e07;
constexpr std::uint64_t kTagServer = 0x7e08;
constexpr std::uint64_t kTagHits = 0x7e09;
constexpr std::uint64_t kTagShortOccupant = 0x7e0a;
constexpr std::uint64_t kTagWeekend = 0x7e0b;

double HashUnit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Subscriber activity comes in multi-day runs (people browse for a few
// days, pause for a few days), not as independent daily coin flips. At
// daily granularity the activity decision is therefore made once per run
// of R days (R in 1..4, a persistent per-subscriber trait); this halves
// spurious day-to-day churn for statically-held addresses, matching the
// paper's ~8% daily up/down rate. Coarser steps subsume runs entirely.
bool SubscriberActive(std::uint64_t block_seed, std::uint64_t occupant,
                      int slot, int step, int step_days, double p_day) {
  int run = 1;
  int index = step;
  if (step_days == 1) {
    run = 1 + static_cast<int>((occupant >> 33) & 3u);
    int phase = static_cast<int>((occupant >> 40) %
                                 static_cast<unsigned>(run));
    index = (step + phase) / run;
  }
  double p_step = StepProbability(std::min(0.98, p_day), step_days);
  std::uint64_t h = rng::Substream(block_seed, kTagActive, slot, index);
  return HashUnit(h) < p_step;
}

// Weekend suppression applied on top of run-level activity, so weekday
// marginals stay p and weekend marginals p * weekend_factor.
bool WeekendPass(std::uint64_t block_seed, int slot, int step,
                 double weekend_adj) {
  if (weekend_adj >= 1.0) return true;
  std::uint64_t h = rng::Substream(block_seed, kTagWeekend, slot, step);
  return HashUnit(h) < weekend_adj;
}

bool IsWeekendDay(std::int32_t abs_day) {
  return (timeutil::kWeeklyPeriodStart + abs_day).IsWeekend();
}

// Expected active days within the step for a subscriber with step
// probability p_step and daily probability p_day — used to scale hit counts
// at coarse granularities.
int ActiveDaysInStep(double p_day, int step_days) {
  if (step_days == 1) return 1;
  int d = static_cast<int>(std::lround(p_day * step_days));
  return std::clamp(d, 1, step_days);
}

// One emission's hit count for one step is rng::FlooredLogNormal(u1, u2,
// mu, sigma, scale, cap) × days, capped at 2^30. HitShape is the (sigma,
// scale, cap) of that draw. A subscriber draws a daily count scaled by its
// expected active days in the step (ActiveDaysInStep); an always-on
// gateway or crawler address scales the lognormal itself by the step
// length, is clamped to [1, 1e9] and has days = 1.
struct HitShape {
  double sigma = 0.0;
  double scale = 1.0;
  double cap = 1.0;
};

HitShape SubscriberShape(const PolicyParams& pp) {
  return {pp.hits_sigma, 1.0, kDailyHitsCap};
}

HitShape AlwaysOnShape(double sigma, int step_days) {
  return {sigma, static_cast<double>(step_days), 1.0e9};
}

std::uint32_t ScaledHits(std::uint32_t value, int days) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::uint64_t{value} * days, 1u << 30));
}

// GenerateStep's hit count: draws u1, then u2, from hit_gen and evaluates
// the scalar formula at once. The GenerateBlock hits pass draws the same
// uniforms in the same order but evaluates them in batches (HitQueue).
std::uint32_t DrawHits(rng::Xoshiro256& hit_gen, double mu,
                       const HitShape& d, int days) {
  const double u1 = hit_gen.NextDouble();
  const double u2 = hit_gen.NextDouble();
  return ScaledHits(rng::FlooredLogNormal(u1, u2, mu, d.sigma, d.scale, d.cap),
                    days);
}

}  // namespace

std::uint64_t UnitThreshold(double p) {
  if (!(p > 0.0)) return 0;  // also NaN: HashUnit(h) < NaN never holds
  if (p >= 1.0) return std::uint64_t{1} << 53;  // every h >> 11 is below
  // ceil(ldexp(p, 53)) without the libm calls: scaling by 2^53 is exact,
  // and x < 2^53 converts to its floor exactly.
  const double x = p * 0x1.0p53;
  const auto floor = static_cast<std::uint64_t>(x);
  return floor + (static_cast<double>(floor) < x ? 1u : 0u);
}

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kUnused:
      return "unused";
    case PolicyKind::kStatic:
      return "static";
    case PolicyKind::kDynamicShort:
      return "dynamic-short";
    case PolicyKind::kDynamicLong:
      return "dynamic-long";
    case PolicyKind::kCgnGateway:
      return "cgn-gateway";
    case PolicyKind::kCrawlerBots:
      return "crawler-bots";
    case PolicyKind::kServerFarm:
      return "server-farm";
    case PolicyKind::kRouterInfra:
      return "router-infra";
    case PolicyKind::kMiddlebox:
      return "middlebox";
  }
  return "?";
}

const PolicyParams& BlockPlan::ParamsOn(std::int32_t abs_day) const {
  const PolicyParams* current = &base;
  for (const BlockEvent& ev : events) {
    if (ev.day >= 0 && ev.day <= abs_day) current = &ev.params;
  }
  return *current;
}

void GenerateStep(const BlockPlan& plan, const StepSpec& spec, int step,
                  activity::DayBits& bits, std::uint32_t* hits256,
                  std::uint64_t* occupants256) {
  bits = activity::DayBits{};
  if (hits256 != nullptr) std::fill_n(hits256, 256, 0u);
  if (occupants256 != nullptr) std::fill_n(occupants256, 256, std::uint64_t{0});

  const std::int32_t abs_day = spec.start_day + step * spec.step_days;
  const std::int32_t mid_day = abs_day + spec.step_days / 2;
  if (mid_day < plan.active_from || mid_day >= plan.active_until) return;

  // Per-host policy ownership: the base policy, overridden by every active
  // event over its host range. Full-range events (the common case) replace
  // the whole block; partial events create the paper's Fig 7b spatially
  // split patterns.
  std::array<const PolicyParams*, 256> owner;
  owner.fill(&plan.base);
  for (const BlockEvent& ev : plan.events) {
    if (ev.day < 0 || ev.day > mid_day) continue;
    for (int h = ev.host_first; h <= static_cast<int>(ev.host_last); ++h) {
      owner[static_cast<std::size_t>(h)] = &ev.params;
    }
  }

  // Lazily-seeded generator for hit magnitudes. Consumed only when hits are
  // requested, so activity bits never depend on it.
  rng::Xoshiro256 hit_gen{
      rng::Substream(plan.block_seed, kTagHits, step)};

  // Emits one policy's activity, materializing only hosts within
  // [seg_lo, seg_hi] — the segment this policy currently governs.
  auto emit_segment = [&](const PolicyParams& pp, int seg_lo, int seg_hi) {
  const int pool = std::min<int>(pp.pool_size, 256);
  if (pool == 0) return;

  // Weekend adjustment applies only at daily granularity; a 7-day step
  // always contains the same weekday mix.
  const double weekend_adj =
      (spec.step_days == 1 && IsWeekendDay(abs_day)) ? pp.weekend_factor : 1.0;

  auto emit = [&](int host, double propensity, double p_day,
                  std::uint64_t occupant) {
    if (host < seg_lo || host > seg_hi) return;
    activity::SetBit(bits, host);
    if (occupants256 != nullptr) occupants256[host] = occupant;
    if (hits256 == nullptr) return;
    hits256[host] = DrawHits(hit_gen, DailyHitsMu(pp.hits_mu, propensity),
                             SubscriberShape(pp),
                             ActiveDaysInStep(p_day, spec.step_days));
  };

  switch (pp.kind) {
    case PolicyKind::kUnused:
    case PolicyKind::kRouterInfra:
    case PolicyKind::kMiddlebox:
      // No successful WWW transactions, ever (paper §3.3).
      return;

    case PolicyKind::kStatic: {
      // One slot per subscriber, scattered across the /24 by host_perm.
      // Customer turnover ("tenure epochs") makes individual addresses
      // appear/disappear over the year without any network event.
      for (int slot = 0; slot < pool; ++slot) {
        std::uint64_t tenure_h =
            rng::Substream(plan.block_seed, kTagTenure, slot);
        int tenure_days = 150 + static_cast<int>(tenure_h & 511u);
        int phase = static_cast<int>((tenure_h >> 16) %
                                     static_cast<unsigned>(tenure_days));
        int epoch = (mid_day + phase) / tenure_days;
        std::uint64_t occ =
            rng::Substream(plan.block_seed, kTagOccupant, slot, epoch);
        if (HashUnit(occ) >= pp.occupancy) continue;  // slot has no customer
        double p_day = SubscriberPropensity(occ);
        if (SubscriberActive(plan.block_seed, occ, slot, step,
                             spec.step_days, p_day) &&
            WeekendPass(plan.block_seed, slot, step, weekend_adj)) {
          emit(plan.host_perm[static_cast<std::size_t>(slot)],
               SubscriberPropensity(occ), std::min(0.98, p_day * weekend_adj),
               occ);
        }
      }
      return;
    }

    case PolicyKind::kDynamicShort: {
      const double p_day = std::min(0.98, double{pp.daily_p} * weekend_adj);
      const double p_step = StepProbability(p_day, spec.step_days);
      if (pp.rotating) {
        // Round-robin band assignment (Fig 6b): today's active subscribers
        // occupy a contiguous address band that advances every step.
        rng::Xoshiro256 g{
            rng::Substream(plan.block_seed, kTagPoolCount, step)};
        auto n = static_cast<int>(
            rng::NextBinomial(g, pp.subscribers, p_step));
        n = std::min(n, pool);
        int stride = std::max<int>(
            1, static_cast<int>(pp.subscribers * double{pp.daily_p}));
        int start = static_cast<int>(
            (plan.block_seed + static_cast<std::uint64_t>(step) *
                                   static_cast<std::uint64_t>(stride)) %
            static_cast<std::uint64_t>(pool));
        for (int j = 0; j < n; ++j) {
          int slot = (start + j) % pool;
          std::uint64_t occ = rng::Substream(plan.block_seed,
                                             kTagShortOccupant, step, j);
          emit(slot, SubscriberPropensity(occ), p_day, occ);
        }
      } else {
        // Dense ~24h-lease pool (Fig 6d): every step re-deals addresses, so
        // each slot is occupied independently with the pool's fill rate.
        // The cap below 1.0 reflects DHCP reality: even saturated pools
        // always have a few addresses between leases, so only gateways
        // (kCgnGateway) reach ~100% spatio-temporal utilization.
        double fill = std::min(
            0.95, static_cast<double>(pp.subscribers) * p_step / pool);
        for (int slot = 0; slot < pool; ++slot) {
          std::uint64_t h =
              rng::Substream(plan.block_seed, kTagDense, slot, step);
          if (HashUnit(h) < fill) {
            std::uint64_t occ = rng::Substream(plan.block_seed,
                                               kTagShortOccupant, slot, step);
            emit(slot, SubscriberPropensity(occ), p_day, occ);
          }
        }
      }
      return;
    }

    case PolicyKind::kDynamicLong: {
      // Long leases (Fig 6c): an address keeps its subscriber for
      // lease_days; heavy subscribers produce near-continuous runs.
      const int lease = std::max<int>(1, pp.lease_days);
      for (int slot = 0; slot < pool; ++slot) {
        std::uint64_t slot_h =
            rng::Substream(plan.block_seed, kTagLease, slot);
        int phase = static_cast<int>(slot_h % static_cast<unsigned>(lease));
        int epoch = (mid_day + phase) / lease;
        std::uint64_t occ =
            rng::Substream(plan.block_seed, kTagOccupant, slot, epoch);
        if (HashUnit(occ) >= pp.occupancy) continue;
        double p_day = SubscriberPropensity(occ);
        if (SubscriberActive(plan.block_seed, occ, slot, step,
                             spec.step_days, p_day) &&
            WeekendPass(plan.block_seed, slot, step, weekend_adj)) {
          emit(slot, SubscriberPropensity(occ),
               std::min(0.98, p_day * weekend_adj), occ);
        }
      }
      return;
    }

    case PolicyKind::kCgnGateway: {
      // Gateways aggregate thousands of users: active essentially always,
      // with traffic that grows across the year (Fig 9c's consolidation).
      const double p_on = StepProbability(0.999, spec.step_days);
      const double growth =
          spec.gateway_growth * (static_cast<double>(mid_day) / 364.0);
      for (int slot = 0; slot < pool; ++slot) {
        std::uint64_t h =
            rng::Substream(plan.block_seed, kTagAlwaysOn, slot, step);
        if (HashUnit(h) >= p_on) continue;
        if (slot < seg_lo || slot > seg_hi) continue;
        activity::SetBit(bits, slot);
        if (hits256 != nullptr) {
          hits256[slot] =
              DrawHits(hit_gen, double{pp.hits_mu} + growth,
                       AlwaysOnShape(pp.hits_sigma, spec.step_days), 1);
        }
      }
      return;
    }

    case PolicyKind::kCrawlerBots: {
      const double p_on = StepProbability(0.98, spec.step_days);
      for (int slot = 0; slot < pool; ++slot) {
        std::uint64_t h =
            rng::Substream(plan.block_seed, kTagAlwaysOn, slot, step);
        if (HashUnit(h) >= p_on) continue;
        if (slot < seg_lo || slot > seg_hi) continue;
        activity::SetBit(bits, slot);
        if (hits256 != nullptr) {
          hits256[slot] =
              DrawHits(hit_gen, pp.hits_mu,
                       AlwaysOnShape(pp.hits_sigma, spec.step_days), 1);
        }
      }
      return;
    }

    case PolicyKind::kServerFarm: {
      // Servers occasionally fetch WWW content (software updates, origin
      // pulls) — a trickle of CDN visibility, far below client levels.
      const double p_step = StepProbability(double{pp.daily_p}, spec.step_days);
      for (int slot = 0; slot < pool; ++slot) {
        std::uint64_t h =
            rng::Substream(plan.block_seed, kTagServer, slot, step);
        if (HashUnit(h) < p_step) {
          emit(slot, 0.1, pp.daily_p,
               rng::Substream(plan.block_seed, kTagOccupant, slot));
        }
      }
      return;
    }
  }
  };  // emit_segment

  // Walk the per-host ownership array as maximal runs and render each
  // governing policy over its segment.
  int seg_lo = 0;
  while (seg_lo < 256) {
    int seg_hi = seg_lo;
    while (seg_hi + 1 < 256 &&
           owner[static_cast<std::size_t>(seg_hi + 1)] ==
               owner[static_cast<std::size_t>(seg_lo)]) {
      ++seg_hi;
    }
    emit_segment(*owner[static_cast<std::size_t>(seg_lo)], seg_lo, seg_hi);
    seg_lo = seg_hi + 1;
  }
}

// --- Slot-major batch kernels (GenerateBlock) ----------------------------
//
// GenerateStep above is the per-step reference: step-major, one hash chain
// per (slot, step) decision, per-bit emission. The kernels below produce
// bit-identical activity by transposing the loop nest to slot-major — legal
// because every rng::Substream draw is a pure function of (seed, tags...),
// so evaluating the same draws in a different order, drawing one whose
// result never influences a bit, or skipping one, cannot change any result.
// Per-slot quantities (tenure epoch schedule, occupant identity, propensity,
// the multi-day activity-run decision) are then hoisted out of the step
// sweep and the per-step hash collapses to one SplitMix64 round via
// rng::SubstreamTail. No per-step coin flip is a branch: each compares
// h >> 11 against UnitThreshold(p), and its outcome is ORed in as data.
// The coin-flip policies evaluate a whole row word of such compares per
// rng::FlipWord call, so this file holds no ISA intrinsics.

namespace {

constexpr std::int32_t MidOf(const StepSpec& spec, int step) {
  return spec.start_day + step * spec.step_days + spec.step_days / 2;
}

// Buffers reused by every RenderPolicy call of one GenerateBlock.
struct KernelScratch {
  std::vector<std::uint64_t> below;  // per-step coin-flip thresholds
  std::vector<int> weekend_steps;    // the interval's weekend steps
  std::vector<std::uint8_t> active;  // one slot's per-step activity
};

// Shared kernel for the two epoch-occupant policies. kStatic derives the
// per-slot epoch period from the tenure hash and scatters slots through
// host_perm; kDynamicLong uses the fixed lease length and identity mapping.
// Each slot's steps split into occupant epochs, visited in order, and an
// occupied epoch into activity runs of `run` steps: one draw per run, its
// index advanced by one per run (only the occupant's first step divides).
// Each draw's outcome is stored as a byte per step, the weekend draw of
// each weekend step ANDed in, and the bytes ORed into the rows as the
// host's bit. The only branch on a draw left is the occupancy, once per
// epoch.
void EpochKernel(const BlockPlan& plan, const StepSpec& spec,
                 const PolicyParams& pp, bool is_static,
                 const activity::DayBits& mask, int s0, int s1,
                 const std::uint8_t* weekend, KernelScratch& scratch,
                 activity::DayBits* rows) {
  const int pool = std::min<int>(pp.pool_size, 256);
  const bool daily = spec.step_days == 1;
  const std::uint64_t occupied_below = UnitThreshold(double{pp.occupancy});
  const std::uint64_t weekend_below = UnitThreshold(double{pp.weekend_factor});
  std::vector<int>& weekend_steps = scratch.weekend_steps;
  scratch.active.resize(static_cast<std::size_t>(s1) + 3);
  std::uint8_t* active = scratch.active.data();
  weekend_steps.clear();
  if (pp.weekend_factor < 1.0f) {
    for (int s = s0; s < s1; ++s) {
      if (weekend[s] != 0) weekend_steps.push_back(s);
    }
  }
  for (int slot = 0; slot < pool; ++slot) {
    const int host =
        is_static ? plan.host_perm[static_cast<std::size_t>(slot)] : slot;
    if (!activity::TestBit(mask, host)) continue;
    int period;
    int phase;
    if (is_static) {
      std::uint64_t tenure_h =
          rng::Substream(plan.block_seed, kTagTenure, slot);
      period = 150 + static_cast<int>(tenure_h & 511u);
      phase = static_cast<int>((tenure_h >> 16) %
                               static_cast<unsigned>(period));
    } else {
      period = std::max<int>(1, pp.lease_days);
      std::uint64_t slot_h = rng::Substream(plan.block_seed, kTagLease, slot);
      phase = static_cast<int>(slot_h % static_cast<unsigned>(period));
    }
    const rng::SubstreamTail occ_tail{plan.block_seed, kTagOccupant, slot};
    const rng::SubstreamTail act_tail{plan.block_seed, kTagActive, slot};
    // Epochs are visited in order: one division finds the first, and each
    // later one starts at the first step whose mid-day reaches its start.
    int epoch = (MidOf(spec, s0) + phase) / period;
    for (int s = s0; s < s1; ++epoch) {
      const std::int32_t mid = MidOf(spec, s);
      const std::int32_t epoch_end = (epoch + 1) * period - phase;
      if (mid >= epoch_end) continue;  // a step longer than the epoch
      const int e = std::min(
          s1, s + (daily ? epoch_end - mid
                         : (epoch_end - mid + spec.step_days - 1) /
                               spec.step_days));
      const std::uint64_t occ = occ_tail.At(static_cast<std::uint64_t>(epoch));
      if ((occ >> 11) < occupied_below) {
        const double p_day = SubscriberPropensity(occ);
        const std::uint64_t active_below = UnitThreshold(
            StepProbability(std::min(0.98, p_day), spec.step_days));
        int run = 1;
        int run_phase = 0;
        if (daily) {
          run = 1 + static_cast<int>((occ >> 33) & 3u);
          run_phase = static_cast<int>(
              static_cast<std::uint32_t>(occ >> 40) %
              static_cast<std::uint32_t>(run));
        }
        int index = (s + run_phase) / run;
        int run_end = (index + 1) * run - run_phase;  // first step of next run
        // A run is at most 4 steps: each draw fills 4 bytes, and the next
        // run (or epoch) overwrites whatever lies past this run's end.
        for (int t = s; t < e; t = run_end, run_end += run, ++index) {
          const std::uint32_t fill =
              ((act_tail.At(static_cast<std::uint64_t>(index)) >> 11) <
                       active_below
                   ? 0x01010101u
                   : 0u);
          std::memcpy(active + t, &fill, sizeof fill);
        }
      } else {
        std::fill(active + s, active + e, std::uint8_t{0});
      }
      s = e;
    }
    if (!weekend_steps.empty()) {
      const rng::SubstreamTail wk_tail{plan.block_seed, kTagWeekend, slot};
      for (const int s : weekend_steps) {
        active[s] &= static_cast<std::uint8_t>(
            (wk_tail.At(static_cast<std::uint64_t>(s)) >> 11) < weekend_below);
      }
    }
    const auto w = static_cast<std::size_t>(host >> 6);
    const std::uint64_t host_bit = std::uint64_t{1} << (host & 63);
    for (int s = s0; s < s1; ++s) {
      rows[s][w] |= host_bit & (std::uint64_t{0} - active[s]);
    }
  }
}

// kDynamicShort, rotating variant: per-step work by nature (the band
// advances every step), but the band is a contiguous range mod pool, so it
// is built with word-level range masks instead of per-bit emission.
void RotatingShortKernel(const BlockPlan& plan, const StepSpec& spec,
                         const PolicyParams& pp,
                         const activity::DayBits& mask, int s0, int s1,
                         const std::uint8_t* weekend,
                         activity::DayBits* rows) {
  const int pool = std::min<int>(pp.pool_size, 256);
  const int stride = std::max<int>(
      1, static_cast<int>(pp.subscribers * double{pp.daily_p}));
  const rng::SubstreamTail count_tail{plan.block_seed, kTagPoolCount};
  for (int s = s0; s < s1; ++s) {
    const double weekend_adj = weekend[s] != 0 ? double{pp.weekend_factor}
                                               : 1.0;
    const double p_day = std::min(0.98, double{pp.daily_p} * weekend_adj);
    const double p_step = StepProbability(p_day, spec.step_days);
    rng::Xoshiro256 g{count_tail.At(static_cast<std::uint64_t>(s))};
    int n = static_cast<int>(rng::NextBinomial(g, pp.subscribers, p_step));
    n = std::min(n, pool);
    if (n <= 0) continue;
    const int start = static_cast<int>(
        (plan.block_seed + static_cast<std::uint64_t>(s) *
                               static_cast<std::uint64_t>(stride)) %
        static_cast<std::uint64_t>(pool));
    activity::DayBits band{};
    if (start + n <= pool) {
      activity::SetBitRange(band, start, start + n);
    } else {
      activity::SetBitRange(band, start, pool);
      activity::SetBitRange(band, 0, start + n - pool);
    }
    rows[s] = activity::OrBits(rows[s], activity::AndBits(band, mask));
  }
}

// Dense kDynamicShort, kCgnGateway, kCrawlerBots, kServerFarm: independent
// per-(slot, step) coin flips, slot active at step s iff
// (Substream(block_seed, tag, slot, s) >> 11) < below[s]. Each row word
// comes from one rng::FlipWord call over the folded SubstreamTail keys of
// its live slots' span (the pool under the policy mask), eight slots per
// instruction on AVX-512, and is ORed in under that mask.
void CoinFlipKernel(std::uint64_t block_seed, std::uint64_t tag, int pool,
                    const activity::DayBits& mask, int s0, int s1,
                    const std::uint64_t* below, activity::DayBits* rows) {
  std::array<std::uint64_t, 64> keys{};
  for (int w = 0; w < 4 && 64 * w < pool; ++w) {
    std::uint64_t live = mask[static_cast<std::size_t>(w)];
    if (pool - 64 * w < 64) live &= (std::uint64_t{1} << (pool - 64 * w)) - 1;
    if (live == 0) continue;
    const int lo = std::countr_zero(live);
    const int hi = 64 - std::countl_zero(live);
    for (int b = lo; b < hi; ++b) {
      keys[static_cast<std::size_t>(b - lo)] =
          rng::SubstreamTail{block_seed, tag, 64 * w + b}.key();
    }
    for (int s = s0; s < s1; ++s) {
      const std::uint64_t word = rng::FlipWord(
          keys.data(), hi - lo, static_cast<std::uint64_t>(s), below[s]);
      rows[s][static_cast<std::size_t>(w)] |= (word << lo) & live;
    }
  }
}

// Renders one policy's activity over steps [s0, s1) into the hosts selected
// by `mask` — the slot-major counterpart of emit_segment in GenerateStep.
void RenderPolicy(const BlockPlan& plan, const StepSpec& spec,
                  const PolicyParams& pp, const activity::DayBits& mask,
                  int s0, int s1, const std::uint8_t* weekend,
                  KernelScratch& scratch, activity::DayBits* rows) {
  const int pool = std::min<int>(pp.pool_size, 256);
  if (pool == 0) return;
  // A coin-flip policy with one threshold for every step.
  auto flat = [&](std::uint64_t tag, double p_on) {
    scratch.below.assign(static_cast<std::size_t>(s1), UnitThreshold(p_on));
    CoinFlipKernel(plan.block_seed, tag, pool, mask, s0, s1,
                   scratch.below.data(), rows);
  };
  switch (pp.kind) {
    case PolicyKind::kUnused:
    case PolicyKind::kRouterInfra:
    case PolicyKind::kMiddlebox:
      return;
    case PolicyKind::kStatic:
      EpochKernel(plan, spec, pp, /*is_static=*/true, mask, s0, s1, weekend,
                  scratch, rows);
      return;
    case PolicyKind::kDynamicLong:
      EpochKernel(plan, spec, pp, /*is_static=*/false, mask, s0, s1, weekend,
                  scratch, rows);
      return;
    case PolicyKind::kDynamicShort:
      if (pp.rotating) {
        RotatingShortKernel(plan, spec, pp, mask, s0, s1, weekend, rows);
        return;
      }
      // The fill rate depends on the step only through the weekend factor.
      scratch.below.resize(static_cast<std::size_t>(s1));
      for (int s = s0; s < s1; ++s) {
        const double weekend_adj =
            weekend[s] != 0 ? double{pp.weekend_factor} : 1.0;
        const double p_day = std::min(0.98, double{pp.daily_p} * weekend_adj);
        const double p_step = StepProbability(p_day, spec.step_days);
        scratch.below[static_cast<std::size_t>(s)] = UnitThreshold(std::min(
            0.95, static_cast<double>(pp.subscribers) * p_step / pool));
      }
      CoinFlipKernel(plan.block_seed, kTagDense, pool, mask, s0, s1,
                     scratch.below.data(), rows);
      return;
    case PolicyKind::kCgnGateway:
      flat(kTagAlwaysOn, StepProbability(0.999, spec.step_days));
      return;
    case PolicyKind::kCrawlerBots:
      flat(kTagAlwaysOn, StepProbability(0.98, spec.step_days));
      return;
    case PolicyKind::kServerFarm:
      flat(kTagServer, StepProbability(double{pp.daily_p}, spec.step_days));
      return;
  }
}

// --- Hits pass ------------------------------------------------------------
//
// Hit magnitudes come from one generator per (block, step), hit_gen, whose
// draws GenerateStep consumes in emission order. That order is not
// slot-major, so hits are produced in a second, step-major pass over the
// rows the bits kernels above already wrote: a set bit is exactly an
// emission, so only the draw order and each emission's propensity need
// reconstructing, never the activity decisions.
//
// The pass draws each emission's two uniforms from hit_gen in that order
// but does not evaluate them on the spot: they are queued, and at the end
// of the step the whole queue goes through rng::FlooredLogNormalBatch — a
// vectorized polynomial kernel that certifies each lane's integer against
// an error bound and recomputes the few it cannot certify with the same
// scalar formula GenerateStep uses. The result is GenerateStep's, bit for
// bit, at a fraction of the scalar log/cos/exp cost. The dynamic-short
// policies (two thirds of all daily draws) queue only their occupant's
// identity hash: SubscriberHitsMu turns a whole run of them into mu in
// lanes just before the kernel runs.

// One step's queued hit draws, in hit_gen's draw order, as runs of lanes:
// a run is one ownership segment's emissions, whose HitShape is one
// per-step constant, so per lane only the uniforms, the host and either
// mu or the occupant (and, for the epoch policies, the days) are written.
// How a run's lanes are pushed is fixed when it begins.
// A step emits each host at most once (ownership segments partition the
// hosts), so 256 lanes always suffice.
class HitQueue {
 public:
  // Starts a run of lanes that each carry their own mu and share `days`
  // (Push without days).
  void BeginRun(const HitShape& shape, int days) {
    runs_.push_back({n_, shape, days, 0.0, /*lane_days=*/false});
  }

  // Starts a run of lanes that each carry their own mu and days (Push
  // with days).
  void BeginLaneDaysRun(const HitShape& shape) {
    runs_.push_back({n_, shape, 0, 0.0, /*lane_days=*/true});
  }

  // Starts a run of lanes that carry a subscriber identity (PushOccupant)
  // and share `days`: Flush sets their mu to DailyHitsMu(hits_mu,
  // SubscriberPropensity(occ)).
  void BeginSubscriberRun(double hits_mu, const HitShape& shape, int days) {
    runs_.push_back(
        {n_, shape, days, hits_mu, /*lane_days=*/false, /*derive_mu=*/true});
  }

  // A lane of the current run, in the form its Begin call named.
  void Push(rng::Xoshiro256& hit_gen, int host, double mu) {
    mu_[Draw(hit_gen, host)] = mu;
  }
  void Push(rng::Xoshiro256& hit_gen, int host, double mu, int days) {
    days_[n_] = days;
    Push(hit_gen, host, mu);
  }
  void PushOccupant(rng::Xoshiro256& hit_gen, int host,
                    std::uint64_t occupant) {
    occupant_[Draw(hit_gen, host)] = occupant;
  }

  // Evaluates every queued draw into out[host] and empties the queue.
  void Flush(std::uint32_t* out) {
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      const Run& run = runs_[r];
      const std::size_t b = run.begin;
      const std::size_t e = r + 1 < runs_.size() ? runs_[r + 1].begin : n_;
      std::fill(sigma_.begin() + b, sigma_.begin() + e, run.shape.sigma);
      std::fill(scale_.begin() + b, scale_.begin() + e, run.shape.scale);
      std::fill(cap_.begin() + b, cap_.begin() + e, run.shape.cap);
      if (!run.lane_days) {
        std::fill(days_.begin() + b, days_.begin() + e, run.days);
      }
      if (run.derive_mu) {
        SubscriberHitsMu(run.hits_mu, e - b, occupant_.data() + b,
                         mu_.data() + b);
      }
    }
    const rng::FlooredLogNormalLanes lanes{u1_.data(),    u2_.data(),
                                           mu_.data(),    sigma_.data(),
                                           scale_.data(), cap_.data()};
    fallbacks_ += rng::FlooredLogNormalBatch(n_, lanes, value_.data());
    for (std::size_t i = 0; i < n_; ++i) {
      out[host_[i]] = ScaledHits(value_[i], days_[i]);
    }
    draws_ += n_;
    n_ = 0;
    runs_.clear();
  }

  std::uint64_t draws() const { return draws_; }
  std::uint64_t fallbacks() const { return fallbacks_; }

 private:
  struct Run {
    std::size_t begin;  // first lane; the run ends where the next begins
    HitShape shape;
    int days;  // unused when lane_days
    double hits_mu;
    bool lane_days;
    bool derive_mu = false;
  };

  // Draws the next lane's uniforms in hit_gen's order; returns its index.
  std::size_t Draw(rng::Xoshiro256& hit_gen, int host) {
    u1_[n_] = hit_gen.NextDouble();
    u2_[n_] = hit_gen.NextDouble();
    host_[n_] = static_cast<std::uint8_t>(host);
    return n_++;
  }

  std::size_t n_ = 0;
  std::vector<Run> runs_;
  std::array<double, 256> u1_{}, u2_{}, mu_{}, sigma_{}, scale_{}, cap_{};
  std::array<std::uint64_t, 256> occupant_{};
  std::array<std::uint32_t, 256> value_{};
  std::array<std::uint8_t, 256> host_{};
  std::array<int, 256> days_{};
  std::uint64_t draws_ = 0;
  std::uint64_t fallbacks_ = 0;
};

// The tenure (kStatic) or lease (kDynamicLong) schedule of one slot: at
// mid-day `mid` the slot is held by Substream(block_seed, kTagOccupant,
// slot, (mid + phase) / period).
struct EpochSchedule {
  int period = 0;
  int phase = 0;
};

EpochSchedule SlotEpochs(const BlockPlan& plan, const PolicyParams& pp,
                         int slot) {
  if (pp.kind == PolicyKind::kStatic) {
    const std::uint64_t tenure_h =
        rng::Substream(plan.block_seed, kTagTenure, slot);
    const int period = 150 + static_cast<int>(tenure_h & 511u);
    return {period, static_cast<int>((tenure_h >> 16) %
                                     static_cast<unsigned>(period))};
  }
  const int period = std::max<int>(1, pp.lease_days);
  return {period, static_cast<int>(
                      rng::Substream(plan.block_seed, kTagLease, slot) %
                      static_cast<unsigned>(period))};
}

// First slot of a rotating kDynamicShort band at step s; the band's j-th
// address is slot (start + j) % pool.
int BandStart(const BlockPlan& plan, const PolicyParams& pp, int pool,
              int s) {
  const int stride = std::max<int>(
      1, static_cast<int>(pp.subscribers * double{pp.daily_p}));
  return static_cast<int>((plan.block_seed +
                           static_cast<std::uint64_t>(s) *
                               static_cast<std::uint64_t>(stride)) %
                          static_cast<std::uint64_t>(pool));
}

// An epoch-occupant policy's current subscriber at one host: its
// propensity changes only when the tenure / lease epoch does.
struct EpochOccupant {
  EpochSchedule schedule;  // period 0 = not yet derived on this interval
  int epoch = 0;
  double propensity = 0.0;
};

// Queues the draws of the hosts policy `pp` emitted at step s within one
// ownership segment (`emitted` = the step's row restricted to the
// segment), in GenerateStep's per-policy emission order. `short_tails`
// holds the per-slot SubstreamTail(block_seed, kTagShortOccupant, slot)
// for every slot when a dense kDynamicShort policy owns a segment.
void SegmentHits(const BlockPlan& plan, const StepSpec& spec,
                 const PolicyParams& pp, int s, bool weekend,
                 const activity::DayBits& emitted, rng::Xoshiro256& hit_gen,
                 std::array<EpochOccupant, 256>& occupants,
                 std::span<const rng::SubstreamTail> short_tails,
                 HitQueue& queue) {
  const int pool = std::min<int>(pp.pool_size, 256);
  if (pool == 0 || emitted == activity::DayBits{}) return;
  const double weekend_adj = weekend ? double{pp.weekend_factor} : 1.0;
  const std::int32_t mid = MidOf(spec, s);
  // kStatic / kDynamicLong: slot order, host_perm-scattered for static.
  auto epoch_hits = [&](int slot, int host) {
    EpochOccupant& o = occupants[static_cast<std::size_t>(host)];
    if (o.schedule.period == 0) {
      o.schedule = SlotEpochs(plan, pp, slot);
      o.epoch = std::numeric_limits<int>::min();
    }
    const int epoch = (mid + o.schedule.phase) / o.schedule.period;
    if (epoch != o.epoch) {
      o.epoch = epoch;
      o.propensity = SubscriberPropensity(
          rng::Substream(plan.block_seed, kTagOccupant, slot, epoch));
    }
    queue.Push(hit_gen, host, DailyHitsMu(pp.hits_mu, o.propensity),
               ActiveDaysInStep(std::min(0.98, o.propensity * weekend_adj),
                                spec.step_days));
  };
  switch (pp.kind) {
    case PolicyKind::kUnused:
    case PolicyKind::kRouterInfra:
    case PolicyKind::kMiddlebox:
      return;
    case PolicyKind::kStatic:
      queue.BeginLaneDaysRun(SubscriberShape(pp));
      for (int slot = 0; slot < pool; ++slot) {
        const int host = plan.host_perm[static_cast<std::size_t>(slot)];
        if (activity::TestBit(emitted, host)) epoch_hits(slot, host);
      }
      return;
    case PolicyKind::kDynamicLong:
      queue.BeginLaneDaysRun(SubscriberShape(pp));
      activity::ForEachSetBit(emitted,
                              [&](int slot) { epoch_hits(slot, slot); });
      return;
    case PolicyKind::kDynamicShort: {
      const double p_day = std::min(0.98, double{pp.daily_p} * weekend_adj);
      queue.BeginSubscriberRun(pp.hits_mu, SubscriberShape(pp),
                               ActiveDaysInStep(p_day, spec.step_days));
      if (pp.rotating) {
        // Band order: j counts from the band's start, wrapping mod pool.
        const int start = BandStart(plan, pp, pool, s);
        const rng::SubstreamTail band_tail{plan.block_seed,
                                           kTagShortOccupant, s};
        for (int j = 0; j < pool; ++j) {
          const int slot = (start + j) % pool;
          if (!activity::TestBit(emitted, slot)) continue;
          queue.PushOccupant(hit_gen, slot,
                             band_tail.At(static_cast<std::uint64_t>(j)));
        }
      } else {
        activity::ForEachSetBit(emitted, [&](int slot) {
          queue.PushOccupant(hit_gen, slot,
                             short_tails[static_cast<std::size_t>(slot)].At(
                                 static_cast<std::uint64_t>(s)));
        });
      }
      return;
    }
    case PolicyKind::kCgnGateway: {
      const double growth =
          spec.gateway_growth * (static_cast<double>(mid) / 364.0);
      const double mu = double{pp.hits_mu} + growth;
      queue.BeginRun(AlwaysOnShape(pp.hits_sigma, spec.step_days), 1);
      activity::ForEachSetBit(
          emitted, [&](int slot) { queue.Push(hit_gen, slot, mu); });
      return;
    }
    case PolicyKind::kCrawlerBots:
      queue.BeginRun(AlwaysOnShape(pp.hits_sigma, spec.step_days), 1);
      activity::ForEachSetBit(
          emitted, [&](int slot) { queue.Push(hit_gen, slot, pp.hits_mu); });
      return;
    case PolicyKind::kServerFarm: {
      const double mu = DailyHitsMu(pp.hits_mu, 0.1);
      queue.BeginRun(SubscriberShape(pp),
                     ActiveDaysInStep(pp.daily_p, spec.step_days));
      activity::ForEachSetBit(
          emitted, [&](int slot) { queue.Push(hit_gen, slot, mu); });
      return;
    }
  }
}

// A maximal run of hosts governed by one policy, as a host mask.
struct Segment {
  activity::DayBits hosts;
  const PolicyParams* pp;
};

// The per-host `owner` table as ownership segments in ascending host order.
std::vector<Segment> OwnershipSegments(
    const std::array<const PolicyParams*, 256>& owner) {
  std::vector<Segment> segments;
  for (int lo = 0; lo < 256;) {
    int hi = lo + 1;
    while (hi < 256 && owner[static_cast<std::size_t>(hi)] ==
                           owner[static_cast<std::size_t>(lo)]) {
      ++hi;
    }
    Segment seg{{}, owner[static_cast<std::size_t>(lo)]};
    activity::SetBitRange(seg.hosts, lo, hi);
    segments.push_back(seg);
    lo = hi;
  }
  return segments;
}

// Fills hits[s * 256 + host] for steps [s0, s1), over which `owner` is the
// per-host policy: ownership segments in ascending host order, each in its
// policy's emission order, all from the step's one hit_gen.
void HitsPass(const BlockPlan& plan, const StepSpec& spec,
              const std::array<const PolicyParams*, 256>& owner, int s0,
              int s1, const std::uint8_t* weekend,
              const activity::DayBits* rows, HitQueue& queue,
              std::uint32_t* hits) {
  const std::vector<Segment> segments = OwnershipSegments(owner);
  std::vector<rng::SubstreamTail> short_tails;
  if (std::any_of(segments.begin(), segments.end(), [](const Segment& seg) {
        return seg.pp->kind == PolicyKind::kDynamicShort && !seg.pp->rotating;
      })) {
    short_tails.reserve(256);
    for (int slot = 0; slot < 256; ++slot) {
      short_tails.emplace_back(plan.block_seed, kTagShortOccupant, slot);
    }
  }
  std::array<EpochOccupant, 256> occupants{};
  for (int s = s0; s < s1; ++s) {
    const activity::DayBits& row = rows[s];
    if (row == activity::DayBits{}) continue;  // no emissions, no draws
    rng::Xoshiro256 hit_gen{rng::Substream(plan.block_seed, kTagHits, s)};
    for (const Segment& seg : segments) {
      SegmentHits(plan, spec, *seg.pp, s, weekend[s] != 0,
                  activity::AndBits(row, seg.hosts), hit_gen, occupants,
                  short_tails, queue);
    }
    queue.Flush(hits + static_cast<std::size_t>(s) * 256);
  }
}

// --- Occupants pass --------------------------------------------------------
//
// Who holds each active address is a pure function of (slot, step) and the
// policy, so occupants, unlike hits, need no draw order: each ownership
// segment is filled slot-major (a rotating band step-major) from the
// finished rows, with GenerateStep's occupants256 values — 0 for the
// policies whose addresses have no single subscriber.

// Fills occupants[s * 256 + host] for steps [s0, s1) over which `owner` is
// the per-host policy; the caller has zeroed the array.
void OccupantsPass(const BlockPlan& plan, const StepSpec& spec,
                   const std::array<const PolicyParams*, 256>& owner, int s0,
                   int s1, const activity::DayBits* rows,
                   std::uint64_t* occupants) {
  auto at = [&](int s, int host) -> std::uint64_t& {
    return occupants[static_cast<std::size_t>(s) * 256 +
                     static_cast<std::size_t>(host)];
  };
  // Writes occupant(s) at every step of [s0, s1) where `host` is active.
  auto fill_host = [&](int host, auto&& occupant) {
    for (int s = s0; s < s1; ++s) {
      if (activity::TestBit(rows[s], host)) at(s, host) = occupant(s);
    }
  };
  for (const Segment& seg : OwnershipSegments(owner)) {
    const PolicyParams& pp = *seg.pp;
    const int pool = std::min<int>(pp.pool_size, 256);
    if (pool == 0) continue;
    switch (pp.kind) {
      case PolicyKind::kUnused:
      case PolicyKind::kRouterInfra:
      case PolicyKind::kMiddlebox:
      case PolicyKind::kCgnGateway:
      case PolicyKind::kCrawlerBots:
        break;
      case PolicyKind::kStatic:
      case PolicyKind::kDynamicLong:
        for (int slot = 0; slot < pool; ++slot) {
          const int host = pp.kind == PolicyKind::kStatic
                               ? plan.host_perm[static_cast<std::size_t>(slot)]
                               : slot;
          if (!activity::TestBit(seg.hosts, host)) continue;
          const EpochSchedule e = SlotEpochs(plan, pp, slot);
          const rng::SubstreamTail occ_tail{plan.block_seed, kTagOccupant,
                                            slot};
          fill_host(host, [&](int s) {
            return occ_tail.At(static_cast<std::uint64_t>(
                (MidOf(spec, s) + e.phase) / e.period));
          });
        }
        break;
      case PolicyKind::kDynamicShort:
        if (pp.rotating) {
          for (int s = s0; s < s1; ++s) {
            const int start = BandStart(plan, pp, pool, s);
            const rng::SubstreamTail band_tail{plan.block_seed,
                                               kTagShortOccupant, s};
            activity::ForEachSetBit(
                activity::AndBits(rows[s], seg.hosts), [&](int slot) {
                  at(s, slot) = band_tail.At(
                      static_cast<std::uint64_t>((slot - start + pool) % pool));
                });
          }
        } else {
          activity::ForEachSetBit(seg.hosts, [&](int slot) {
            const rng::SubstreamTail short_tail{plan.block_seed,
                                                kTagShortOccupant, slot};
            fill_host(slot, [&](int s) {
              return short_tail.At(static_cast<std::uint64_t>(s));
            });
          });
        }
        break;
      case PolicyKind::kServerFarm:
        activity::ForEachSetBit(seg.hosts, [&](int slot) {
          const std::uint64_t occ =
              rng::Substream(plan.block_seed, kTagOccupant, slot);
          fill_host(slot, [&](int) { return occ; });
        });
        break;
    }
  }
}

}  // namespace

void GenerateBlock(const BlockPlan& plan, const StepSpec& spec,
                   activity::DayBits* rows, std::uint32_t* hits,
                   std::uint64_t* occupants) {
  const int steps = spec.steps;
  std::fill_n(rows, steps, activity::DayBits{});
  if (steps <= 0) return;
  if (hits != nullptr) {
    std::fill_n(hits, static_cast<std::size_t>(steps) * 256, 0u);
  }
  if (occupants != nullptr) {
    std::fill_n(occupants, static_cast<std::size_t>(steps) * 256,
                std::uint64_t{0});
  }

  // Mid-days increase strictly with the step index, so the activation
  // window maps to one contiguous step interval [s_lo, s_hi).
  int s_lo = 0;
  while (s_lo < steps && MidOf(spec, s_lo) < plan.active_from) ++s_lo;
  int s_hi = s_lo;
  while (s_hi < steps && MidOf(spec, s_hi) < plan.active_until) ++s_hi;
  if (s_lo >= s_hi) return;

  // Weekend flags per step, shared by every policy below. Weekend
  // suppression only exists at daily granularity (a 7-day step always
  // contains the same weekday mix), so weekday arithmetic replaces a
  // calendar lookup per (slot, step).
  std::vector<std::uint8_t> weekend(static_cast<std::size_t>(steps), 0);
  if (spec.step_days == 1) {
    const int wd0 = (timeutil::kWeeklyPeriodStart + spec.start_day).Weekday();
    for (int s = 0; s < steps; ++s) {
      weekend[static_cast<std::size_t>(s)] =
          static_cast<std::uint8_t>((wd0 + s) % 7 >= 5);
    }
  }

  // Step-interval boundaries where the per-host ownership map can change:
  // each event's first effective step. Within an interval ownership is
  // constant, so the owner table is built once per interval instead of once
  // per step.
  int bounds[3];
  int nb = 0;
  bounds[nb++] = s_lo;
  for (const BlockEvent& ev : plan.events) {
    if (ev.day < 0) continue;
    int s = s_lo;
    while (s < s_hi && MidOf(spec, s) < ev.day) ++s;
    if (s > s_lo && s < s_hi) bounds[nb++] = s;
  }
  // bounds[0] == s_lo is minimal by construction; order the event entries.
  if (nb == 3 && bounds[1] > bounds[2]) std::swap(bounds[1], bounds[2]);

  KernelScratch scratch;
  std::optional<HitQueue> queue;  // ~16 KB of lanes, built only for hits
  if (hits != nullptr) queue.emplace();
  for (int b = 0; b < nb; ++b) {
    const int i0 = bounds[b];
    const int i1 = b + 1 < nb ? bounds[b + 1] : s_hi;
    if (i0 >= i1) continue;  // duplicate boundary (two events, same step)
    // Ownership on this interval, then grouped into per-policy host masks
    // (full-range events collapse to a single mask; partial events produce
    // the paper's Fig 7b spatial splits).
    const std::int32_t mid0 = MidOf(spec, i0);
    std::array<const PolicyParams*, 256> owner;
    owner.fill(&plan.base);
    for (const BlockEvent& ev : plan.events) {
      if (ev.day < 0 || ev.day > mid0) continue;
      for (int h = ev.host_first; h <= static_cast<int>(ev.host_last); ++h) {
        owner[static_cast<std::size_t>(h)] = &ev.params;
      }
    }
    const PolicyParams* params[3];
    activity::DayBits masks[3];
    int np = 0;
    for (int h = 0; h < 256; ++h) {
      const PolicyParams* pp = owner[static_cast<std::size_t>(h)];
      int k = 0;
      while (k < np && params[k] != pp) ++k;
      if (k == np) {
        params[np] = pp;
        masks[np] = activity::DayBits{};
        ++np;
      }
      activity::SetBit(masks[k], h);
    }
    for (int k = 0; k < np; ++k) {
      RenderPolicy(plan, spec, *params[k], masks[k], i0, i1, weekend.data(),
                   scratch, rows);
    }
    if (hits != nullptr) {
      HitsPass(plan, spec, owner, i0, i1, weekend.data(), rows, *queue, hits);
    }
    if (occupants != nullptr) {
      OccupantsPass(plan, spec, owner, i0, i1, rows, occupants);
    }
  }
  if (hits != nullptr) {
    // One Add per call: the counters cost nothing per draw.
    static obs::Counter& draws =
        obs::GlobalRegistry().GetCounter("sim.hits.draws");
    static obs::Counter& fallbacks =
        obs::GlobalRegistry().GetCounter("sim.hits.exact_fallbacks");
    draws.Add(queue->draws());
    fallbacks.Add(queue->fallbacks());
  }
}

}  // namespace ipscope::sim
