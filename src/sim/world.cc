#include "sim/world.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "obs/timer.h"
#include "rng/rng.h"
#include "timeutil/date.h"

namespace ipscope::sim {

namespace {

constexpr int kPolicyKinds = 9;
constexpr std::int32_t kYearDays = 364;
// The daily observation period within the year (Aug 17 = day 228).
constexpr std::int32_t kDailyStart = 228;

const char* const kAsTypeNames[] = {"residential-isp", "cellular",
                                    "university",      "enterprise",
                                    "hosting",         "transit"};

AsType SampleAsType(rng::Xoshiro256& g) {
  double u = g.NextDouble();
  if (u < 0.44) return AsType::kResidentialIsp;
  if (u < 0.51) return AsType::kCellular;
  if (u < 0.58) return AsType::kUniversity;
  if (u < 0.79) return AsType::kEnterprise;
  if (u < 0.93) return AsType::kHosting;
  return AsType::kTransit;
}

// Country weight for an AS. Cellular operators concentrate where CGN is
// prevalent (paper §6.3: the gateway-heavy blocks are mostly Asian cellular),
// so cellular ASes bias toward high-CGN countries.
int SampleCountry(rng::Xoshiro256& g, bool cgn_biased) {
  auto countries = geo::Countries();
  auto weight = [&](const geo::CountryInfo& c) {
    return c.address_share * (cgn_biased ? 0.15 + 4.0 * c.cgn_share : 1.0);
  };
  double total = 0;
  for (const auto& c : countries) total += weight(c);
  double u = g.NextDouble() * total;
  double acc = 0;
  for (std::size_t i = 0; i < countries.size(); ++i) {
    acc += weight(countries[i]);
    if (u < acc) return static_cast<int>(i);
  }
  return static_cast<int>(countries.size()) - 1;
}

// Log-normal (mu, sigma) of an AS type's /24 count. The switch covers
// every AsType; falling out of it means a corrupt enum value.
std::pair<double, double> BlockCountShape(AsType type) {
  switch (type) {
    case AsType::kResidentialIsp:
      return {3.0, 0.8};
    case AsType::kCellular:
      // Many mid-sized operators rather than a few giants: keeps CGN
      // deployment geographically mixed at small world scales.
      return {2.2, 0.6};
    case AsType::kUniversity:
      return {1.8, 0.6};
    case AsType::kEnterprise:
      return {1.2, 0.7};
    case AsType::kHosting:
      return {1.8, 0.8};
    case AsType::kTransit:
      return {1.4, 0.6};
  }
  std::abort();
}

int BlocksForAs(AsType type, rng::Xoshiro256& g) {
  auto [mu, sigma] = BlockCountShape(type);
  double n = rng::NextLogNormal(g, mu, sigma);
  return std::clamp(static_cast<int>(n), 1, 150);
}

// Policy mixture per AS type, adjusted for the country's CGN prevalence and
// the config's infrastructure share. Indexed by PolicyKind.
std::array<double, kPolicyKinds> PolicyWeights(AsType type,
                                               const geo::CountryInfo& country,
                                               double infra_scale) {
  std::array<double, kPolicyKinds> w{};
  auto set = [&](PolicyKind k, double v) {
    w[static_cast<std::size_t>(k)] = v;
  };
  switch (type) {
    case AsType::kResidentialIsp: {
      double cgn = 0.015 + 0.06 * country.cgn_share;
      set(PolicyKind::kStatic, 0.32);
      set(PolicyKind::kDynamicShort, 0.42 - cgn);  // split below via rotating
      set(PolicyKind::kDynamicLong, 0.14);
      set(PolicyKind::kCgnGateway, cgn);
      set(PolicyKind::kRouterInfra, 0.04);
      set(PolicyKind::kUnused, 0.05);
      break;
    }
    case AsType::kCellular: {
      double cgn = 0.50 + 0.30 * country.cgn_share;
      set(PolicyKind::kCgnGateway, cgn);
      set(PolicyKind::kDynamicShort, std::max(0.05, 0.30 - 0.3 * country.cgn_share));
      set(PolicyKind::kStatic, 0.05);
      set(PolicyKind::kDynamicLong, 0.05);
      set(PolicyKind::kRouterInfra, 0.05);
      set(PolicyKind::kUnused, 0.05);
      break;
    }
    case AsType::kUniversity:
      set(PolicyKind::kStatic, 0.45);
      set(PolicyKind::kDynamicShort, 0.18);
      set(PolicyKind::kDynamicLong, 0.12);
      set(PolicyKind::kServerFarm, 0.15);
      set(PolicyKind::kRouterInfra, 0.05);
      set(PolicyKind::kUnused, 0.05);
      break;
    case AsType::kEnterprise:
      set(PolicyKind::kStatic, 0.62);
      set(PolicyKind::kDynamicLong, 0.08);
      set(PolicyKind::kServerFarm, 0.10);
      set(PolicyKind::kUnused, 0.15);
      set(PolicyKind::kRouterInfra, 0.03);
      set(PolicyKind::kMiddlebox, 0.02);
      break;
    case AsType::kHosting:
      set(PolicyKind::kServerFarm, 0.55);
      set(PolicyKind::kCrawlerBots, 0.12);
      set(PolicyKind::kStatic, 0.10);
      set(PolicyKind::kMiddlebox, 0.08);
      set(PolicyKind::kUnused, 0.10);
      set(PolicyKind::kRouterInfra, 0.05);
      break;
    case AsType::kTransit:
      set(PolicyKind::kRouterInfra, 0.55);
      set(PolicyKind::kMiddlebox, 0.20);
      set(PolicyKind::kUnused, 0.20);
      set(PolicyKind::kServerFarm, 0.05);
      break;
  }
  for (PolicyKind k : {PolicyKind::kServerFarm, PolicyKind::kRouterInfra,
                       PolicyKind::kMiddlebox}) {
    w[static_cast<std::size_t>(k)] *= infra_scale;
  }
  return w;
}

PolicyKind SampleKind(const std::array<double, kPolicyKinds>& w,
                      rng::Xoshiro256& g) {
  double total = std::accumulate(w.begin(), w.end(), 0.0);
  double u = g.NextDouble() * total;
  double acc = 0;
  for (int k = 0; k < kPolicyKinds; ++k) {
    acc += w[static_cast<std::size_t>(k)];
    if (u < acc) return static_cast<PolicyKind>(k);
  }
  return PolicyKind::kUnused;
}

PolicyParams MakeParams(PolicyKind kind, AsType as_type,
                        rng::Xoshiro256& g) {
  PolicyParams p;
  p.kind = kind;
  double u = g.NextDouble();
  switch (kind) {
    case PolicyKind::kUnused:
      break;
    case PolicyKind::kStatic: {
      // 75% small assignments, 25% larger — yields the paper's Fig 8b
      // static curve (three quarters of static /24s below FD 64).
      double u2 = g.NextDouble();
      p.pool_size = static_cast<std::uint16_t>(
          u < 0.78 ? 6 + u2 * 54 : 64 + u2 * 192);
      p.subscribers = p.pool_size;
      p.occupancy = static_cast<float>(0.55 + 0.40 * g.NextDouble());
      bool business = as_type == AsType::kUniversity ||
                      as_type == AsType::kEnterprise;
      p.weekend_factor = static_cast<float>(
          business ? 0.20 + 0.30 * g.NextDouble()
                   : 0.85 + 0.15 * g.NextDouble());
      p.hits_mu = static_cast<float>(2.6 + g.NextDouble());
      p.hits_sigma = static_cast<float>(0.9 + 0.4 * g.NextDouble());
      break;
    }
    case PolicyKind::kDynamicShort: {
      // Residential short-lease pools: 80% dense (Fig 6d), 20% rotating
      // round-robin (Fig 6b). Universities skew toward rotating pools.
      bool rotating = as_type == AsType::kUniversity ? u < 0.7 : u < 0.2;
      p.rotating = rotating;
      if (rotating) {
        p.pool_size = 256;
        p.subscribers =
            static_cast<std::uint16_t>(30 + 90 * g.NextDouble());
        p.daily_p = static_cast<float>(0.30 + 0.30 * g.NextDouble());
      } else {
        // ISPs size 24h-lease pools close to demand: the daily fill rate
        // (subscribers x daily_p / pool) sits near 0.75-1.0, which keeps
        // the day-to-day active set stable (the paper's ~8% daily churn)
        // while still cycling every address through the pool.
        double u2 = g.NextDouble();
        p.pool_size = static_cast<std::uint16_t>(
            u2 < 0.95 ? 256 : 192 + 63 * g.NextDouble());
        p.subscribers = static_cast<std::uint16_t>(
            p.pool_size * (1.10 + 0.35 * g.NextDouble()));
        p.daily_p = static_cast<float>(0.72 + 0.24 * g.NextDouble());
      }
      p.weekend_factor = static_cast<float>(0.85 + 0.13 * g.NextDouble());
      p.hits_mu = static_cast<float>(2.6 + g.NextDouble());
      p.hits_sigma = static_cast<float>(0.9 + 0.4 * g.NextDouble());
      break;
    }
    case PolicyKind::kDynamicLong: {
      p.pool_size =
          static_cast<std::uint16_t>(192 + 64 * g.NextDouble());
      p.subscribers = p.pool_size;
      p.lease_days = static_cast<std::uint16_t>(20 + 70 * g.NextDouble());
      p.occupancy = static_cast<float>(0.50 + 0.45 * g.NextDouble());
      p.weekend_factor = static_cast<float>(0.90 + 0.10 * g.NextDouble());
      p.hits_mu = static_cast<float>(2.6 + g.NextDouble());
      p.hits_sigma = static_cast<float>(0.9 + 0.4 * g.NextDouble());
      break;
    }
    case PolicyKind::kCgnGateway: {
      double u2 = g.NextDouble();
      p.pool_size = static_cast<std::uint16_t>(
          u < 0.90 ? 256 : 96 + 160 * u2);
      p.subscribers = 0xFFFF;  // aggregates thousands of users
      p.hits_mu = static_cast<float>(6.2 + 0.8 * (g.NextDouble() - 0.5));
      p.hits_sigma = 0.5f;
      break;
    }
    case PolicyKind::kCrawlerBots: {
      p.pool_size = static_cast<std::uint16_t>(2 + 22 * u);
      p.hits_mu = static_cast<float>(7.5 + g.NextDouble());
      p.hits_sigma = 0.5f;
      break;
    }
    case PolicyKind::kServerFarm: {
      p.pool_size = static_cast<std::uint16_t>(16 + 112 * u);
      p.daily_p = 0.02f;
      p.hits_mu = 2.0f;
      p.hits_sigma = 1.0f;
      break;
    }
    case PolicyKind::kRouterInfra: {
      p.pool_size = static_cast<std::uint16_t>(8 + 56 * u);
      break;
    }
    case PolicyKind::kMiddlebox: {
      p.pool_size = 256;  // tarpit-style: the whole block answers probes
      break;
    }
  }
  return p;
}

// A reconfiguration flips the block to a contrasting practice so that the
// STU shift is visible (these are the paper's "major change" blocks).
PolicyParams Reconfigure(const PolicyParams& old, AsType as_type,
                         rng::Xoshiro256& g) {
  switch (old.kind) {
    case PolicyKind::kStatic: {
      PolicyParams p = MakeParams(PolicyKind::kDynamicShort, as_type, g);
      p.rotating = false;
      p.pool_size = 256;
      p.subscribers = static_cast<std::uint16_t>(256 * 1.1);
      p.daily_p = 0.55f;
      return p;
    }
    case PolicyKind::kDynamicShort:
    case PolicyKind::kDynamicLong: {
      PolicyParams p = MakeParams(PolicyKind::kStatic, as_type, g);
      p.pool_size = static_cast<std::uint16_t>(8 + 40 * g.NextDouble());
      return p;
    }
    default: {
      PolicyParams p = MakeParams(PolicyKind::kDynamicShort, as_type, g);
      p.rotating = false;
      return p;
    }
  }
}

}  // namespace

const char* AsTypeName(AsType type) {
  return kAsTypeNames[static_cast<std::size_t>(type)];
}

World::World(const WorldConfig& config)
    : config_(config), registry_(config.seed) {
  obs::Span build_span{"sim.world.build_seconds"};
  obs::Span synthesis_span{"sim.world.as_synthesis_seconds"};
  // Policy-assignment time is accumulated per block (it is interleaved with
  // AS synthesis; the RNG draw order must not change) and recorded once.
  double policy_seconds = 0;

  rng::Xoshiro256 g{rng::Substream(config_.seed, 0x3017)};
  const double infra_scale = config_.infra_block_fraction / 0.12;
  auto countries = geo::Countries();

  std::uint32_t next_asn = 1000;
  std::size_t client_blocks = 0;
  while (client_blocks <
         static_cast<std::size_t>(config_.target_client_blocks)) {
    AsPlan as;
    as.asn = next_asn++;
    as.type = SampleAsType(g);
    as.country = static_cast<std::int16_t>(
        SampleCountry(g, as.type == AsType::kCellular));
    int want = BlocksForAs(as.type, g);
    auto weights =
        PolicyWeights(as.type, countries[static_cast<std::size_t>(as.country)],
                      infra_scale);

    // Allocate in contiguous runs of 2..16 blocks (routing aggregates).
    int remaining = want;
    while (remaining > 0) {
      int run = std::min<int>(remaining,
                              2 + static_cast<int>(g.NextBounded(15)));
      auto prefixes = registry_.AllocateContiguous(as.country, run);
      if (prefixes.empty()) {
        auto single = registry_.AllocateBlock(as.country);
        if (!single) break;  // country region exhausted; move on
        prefixes.push_back(*single);
      }
      for (const net::Prefix& prefix : prefixes) {
        BlockPlan plan;
        plan.block = prefix;
        plan.asn = as.asn;
        plan.country = as.country;
        plan.block_seed =
            rng::Substream(config_.seed, 0xB10C, net::BlockKeyOf(prefix));
        obs::Stopwatch policy_watch;
        PolicyKind kind = SampleKind(weights, g);
        plan.base = MakeParams(kind, as.type, g);
        for (std::size_t i = 0; i < plan.host_perm.size(); ++i) {
          plan.host_perm[i] = static_cast<std::uint8_t>(i);
        }
        if (kind == PolicyKind::kStatic) {
          rng::Xoshiro256 pg{rng::Substream(plan.block_seed, 0x9e47)};
          std::shuffle(plan.host_perm.begin(), plan.host_perm.end(), pg);
        }
        policy_seconds += policy_watch.Seconds();
        if (IsClientPolicy(kind) || kind == PolicyKind::kCrawlerBots) {
          ++client_blocks;
        }
        as.block_indices.push_back(
            static_cast<std::uint32_t>(blocks_.size()));
        blocks_.push_back(std::move(plan));
      }
      remaining -= static_cast<int>(prefixes.size());
    }
    if (!as.block_indices.empty()) ases_.push_back(std::move(as));
  }
  client_block_count_ = client_blocks;
  synthesis_span.Stop();
  obs::GlobalRegistry()
      .GetHistogram("sim.world.policy_seconds")
      .Record(policy_seconds);
  obs::Span events_span{"sim.world.events_seconds"};

  // ---- Year-scale events over disjoint slices of the client blocks ------
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
    if (IsClientPolicy(blocks_[i].base.kind)) candidates.push_back(i);
  }
  std::shuffle(candidates.begin(), candidates.end(), g);

  std::size_t pos = 0;
  auto take = [&](double fraction) {
    std::size_t n = static_cast<std::size_t>(
        fraction * static_cast<double>(candidates.size()));
    std::size_t first = pos;
    pos = std::min(pos + n, candidates.size());
    return std::span<const std::uint32_t>{candidates.data() + first,
                                          pos - first};
  };

  // AS type lookup for reconfiguration parameter draws.
  std::vector<AsType> as_type_of_block(blocks_.size(),
                                       AsType::kResidentialIsp);
  for (const AsPlan& as : ases_) {
    for (std::uint32_t bi : as.block_indices) {
      as_type_of_block[bi] = as.type;
    }
  }

  for (std::uint32_t bi : take(config_.reconfig_fraction)) {
    BlockPlan& plan = blocks_[bi];
    // Inside the daily observation window so Fig 7/8a can see the change.
    std::int32_t day =
        kDailyStart + 12 + static_cast<std::int32_t>(g.NextBounded(88));
    BlockEvent event{day, Reconfigure(plan.base, as_type_of_block[bi], g)};
    // A quarter of reconfigurations are spatial (the paper's Fig 7b):
    // only the upper part of the /24 is repurposed, the rest keeps its
    // original practice.
    if (g.NextBool(0.25)) {
      event.host_first = static_cast<std::uint8_t>(128 + g.NextBounded(64));
    }
    plan.events[0] = event;
  }

  for (std::uint32_t bi : take(config_.activate_rate_per_year)) {
    BlockPlan& plan = blocks_[bi];
    plan.active_from = 30 + static_cast<std::int32_t>(g.NextBounded(300));
    double u = g.NextDouble();
    if (u < 0.10) {
      bgp_events_.push_back({plan.active_from, net::BlockKeyOf(plan.block),
                             BgpEventType::kAnnounce, plan.asn});
    } else if (u < 0.13) {
      bgp_events_.push_back({plan.active_from, net::BlockKeyOf(plan.block),
                             BgpEventType::kOriginChange,
                             1000 + g.NextBounded(static_cast<std::uint32_t>(
                                        ases_.size()))});
    }
  }

  for (std::uint32_t bi : take(config_.deactivate_rate_per_year)) {
    BlockPlan& plan = blocks_[bi];
    plan.active_until = 30 + static_cast<std::int32_t>(g.NextBounded(300));
    double u = g.NextDouble();
    if (u < 0.03) {
      bgp_events_.push_back({plan.active_until, net::BlockKeyOf(plan.block),
                             BgpEventType::kWithdraw, 0});
    } else if (u < 0.10) {
      bgp_events_.push_back(
          {plan.active_until + static_cast<std::int32_t>(g.NextBounded(30)),
           net::BlockKeyOf(plan.block), BgpEventType::kOriginChange,
           1000 + g.NextBounded(static_cast<std::uint32_t>(ases_.size()))});
    }
  }

  for (std::uint32_t bi : take(config_.reallocation_rate_per_year)) {
    BlockPlan& plan = blocks_[bi];
    std::int32_t day = 30 + static_cast<std::int32_t>(g.NextBounded(300));
    std::uint32_t new_asn =
        1000 + g.NextBounded(static_cast<std::uint32_t>(ases_.size()));
    bgp_events_.push_back({day, net::BlockKeyOf(plan.block),
                           BgpEventType::kOriginChange, new_asn});
  }

  // Background flaps, independent of activity.
  for (const BlockPlan& plan : blocks_) {
    rng::Xoshiro256 fg{rng::Substream(plan.block_seed, 0xF1A9)};
    auto flaps = rng::NextPoisson(
        fg, config_.bgp_daily_flap_rate * kYearDays);
    for (std::uint64_t f = 0; f < flaps; ++f) {
      bgp_events_.push_back(
          {static_cast<std::int32_t>(fg.NextBounded(kYearDays)),
           net::BlockKeyOf(plan.block), BgpEventType::kFlap, 0});
    }
  }

  std::sort(bgp_events_.begin(), bgp_events_.end());
  events_span.Stop();

  asn_index_.reserve(blocks_.size());
  for (const BlockPlan& plan : blocks_) {
    asn_index_.emplace_back(net::BlockKeyOf(plan.block), plan.asn);
  }
  std::sort(asn_index_.begin(), asn_index_.end());

  auto& registry = obs::GlobalRegistry();
  registry.GetCounter("sim.world.builds").Add(1);
  registry.GetCounter("sim.world.blocks").Add(blocks_.size());
  registry.GetCounter("sim.world.ases").Add(ases_.size());
  registry.GetCounter("sim.world.bgp_events").Add(bgp_events_.size());
}

std::optional<std::uint32_t> World::PlannedAsnOf(net::BlockKey key) const {
  // Binary search on the key-sorted index built at construction. The old
  // linear scan over blocks_ made per-block lookups O(n) and turned callers
  // that resolve every block (per-AS churn grouping) quadratic.
  auto it = std::lower_bound(
      asn_index_.begin(), asn_index_.end(), key,
      [](const std::pair<net::BlockKey, std::uint32_t>& entry,
         net::BlockKey k) { return entry.first < k; });
  if (it == asn_index_.end() || it->first != key) return std::nullopt;
  return it->second;
}

}  // namespace ipscope::sim
