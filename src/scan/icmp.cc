#include "scan/icmp.h"

#include <algorithm>
#include <array>
#include <vector>

#include "activity/matrix.h"
#include "geo/country.h"
#include "par/pool.h"
#include "rng/rng.h"
#include "sim/policy.h"

namespace ipscope::scan {

namespace {

constexpr std::uint64_t kTagBlockOpen = 0x1c01;
constexpr std::uint64_t kTagHostResponder = 0x1c02;
constexpr std::uint64_t kTagOnline = 0x1c03;

double HashUnit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Deactivated client blocks stop answering; infrastructure blocks are not
// subject to the client activity window.
bool SilentOn(const sim::BlockPlan& plan, std::int32_t day) {
  return (day < plan.active_from || day >= plan.active_until) &&
         !sim::IsInfraPolicy(plan.base.kind);
}

}  // namespace

IcmpScanner::IcmpScanner(const sim::World& world) : world_(world) {
  index_.resize(world.blocks().size());
  for (std::uint32_t i = 0; i < index_.size(); ++i) index_[i] = i;
  std::sort(index_.begin(), index_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return net::BlockKeyOf(world.blocks()[a].block) <
                     net::BlockKeyOf(world.blocks()[b].block);
            });
}

const sim::BlockPlan* IcmpScanner::FindPlan(net::BlockKey key) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [&](std::uint32_t i, net::BlockKey k) {
        return net::BlockKeyOf(world_.blocks()[i].block) < k;
      });
  if (it == index_.end() ||
      net::BlockKeyOf(world_.blocks()[*it].block) != key) {
    return nullptr;
  }
  return &world_.blocks()[*it];
}

bool IcmpScanner::Probe(net::IPv4Addr addr, std::int32_t day) const {
  const sim::BlockPlan* plan = FindPlan(net::BlockKeyOf(addr));
  if (plan == nullptr) return false;
  if (SilentOn(*plan, day)) return false;
  std::vector<std::uint32_t> responders;
  ScanBlockInto(*plan, day, responders);
  return std::find(responders.begin(), responders.end(), addr.value()) !=
         responders.end();
}

void IcmpScanner::ScanBlockInto(const sim::BlockPlan& plan, std::int32_t day,
                                std::vector<std::uint32_t>& out) const {
  const sim::PolicyParams& pp = plan.ParamsOn(day);
  const std::uint32_t base = plan.block.network().value();
  const auto countries = geo::Countries();
  const double country_rate =
      plan.country >= 0
          ? countries[static_cast<std::size_t>(plan.country)].icmp_response_rate
          : 0.5;

  if (sim::IsInfraPolicy(pp.kind)) {
    double host_p;
    switch (pp.kind) {
      case sim::PolicyKind::kServerFarm:
        host_p = 0.90;
        break;
      case sim::PolicyKind::kRouterInfra:
        host_p = 0.85;
        break;
      default:  // middlebox / tarpit: the whole range answers
        host_p = 0.95;
        break;
    }
    for (int host = 0; host < std::min<int>(pp.pool_size, 256); ++host) {
      std::uint64_t h =
          rng::Substream(plan.block_seed, kTagHostResponder, host);
      if (HashUnit(h) < host_p) {
        out.push_back(base + static_cast<std::uint32_t>(host));
      }
    }
    return;
  }

  if (!sim::IsClientPolicy(pp.kind) &&
      pp.kind != sim::PolicyKind::kCrawlerBots) {
    return;  // unused space is silent
  }

  // Block-level ICMP permissiveness: one persistent draw per block.
  double open_rate = std::min(1.0, country_rate * 1.1);
  if (HashUnit(rng::Substream(plan.block_seed, kTagBlockOpen)) >= open_rate) {
    return;
  }

  // Client activity around the scan: the +-3-day neighbourhood, as one
  // slot-major GenerateBlock call over a 7-step daily window. Each scan
  // day needs its own window starting at day - 3: GenerateBlock keys its
  // activity draws by the step index relative to spec.start_day, not by
  // the absolute day, so a day's row depends on where the window starts,
  // and one wider window shared by several scan days (ScanMonth) would
  // change the responders.
  sim::StepSpec spec;
  spec.start_day = day - 3;
  spec.step_days = 1;
  spec.steps = 7;
  std::array<activity::DayBits, 7> window;
  sim::GenerateBlock(plan, spec, window.data());
  const activity::DayBits today = window[3];
  activity::DayBits nearby{};
  for (const activity::DayBits& bits : window) {
    nearby = activity::OrBits(nearby, bits);
  }

  for (int host = 0; host < 256; ++host) {
    bool active_today = activity::TestBit(today, host);
    bool active_nearby = activity::TestBit(nearby, host);
    if (!active_nearby) continue;
    std::uint64_t responder =
        rng::Substream(plan.block_seed, kTagHostResponder, host);
    if (HashUnit(responder) >= 0.92) continue;  // CPE drops ICMP
    double online_p = active_today ? 0.95 : 0.5;
    std::uint64_t online =
        rng::Substream(plan.block_seed, kTagOnline, host, day);
    if (HashUnit(online) < online_p) {
      out.push_back(base + static_cast<std::uint32_t>(host));
    }
  }
}

// Blocks fan out over the shared pool; per-chunk responder lists
// concatenate in block order, so the result is independent of the pool
// size.
net::Ipv4Set IcmpScanner::Scan(std::int32_t day) const {
  std::vector<std::uint32_t> values = par::ParallelReduce(
      std::size_t{0}, world_.blocks().size(), std::vector<std::uint32_t>{},
      [&](std::vector<std::uint32_t>& out, std::size_t first,
          std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          const sim::BlockPlan& plan = world_.blocks()[i];
          if (!SilentOn(plan, day)) ScanBlockInto(plan, day, out);
        }
      },
      [](std::vector<std::uint32_t>& acc, std::vector<std::uint32_t>&& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      },
      /*grain=*/16);
  return net::Ipv4Set::FromValues(std::move(values));
}

// Chunks cover ascending key ranges and each block emits its hosts
// ascending, so the concatenated chunk lists are already the sorted member
// list and FromValues does not sort.
net::Ipv4Set IcmpScanner::ScanMonth(std::int32_t month_start_day,
                                    int month_days, int num_scans) const {
  std::vector<std::int32_t> days;
  for (int i = 0; i < num_scans; ++i) {
    days.push_back(month_start_day +
                   (i * month_days) / std::max(1, num_scans));
  }
  std::vector<std::uint32_t> values = par::ParallelReduce(
      std::size_t{0}, index_.size(), std::vector<std::uint32_t>{},
      [&](std::vector<std::uint32_t>& out, std::size_t first,
          std::size_t last) {
        std::vector<std::uint32_t> responders;
        for (std::size_t i = first; i < last; ++i) {
          const sim::BlockPlan& plan = world_.blocks()[index_[i]];
          responders.clear();
          for (std::int32_t day : days) {
            if (!SilentOn(plan, day)) ScanBlockInto(plan, day, responders);
          }
          activity::DayBits hosts{};
          for (std::uint32_t v : responders) {
            activity::SetBit(hosts, static_cast<int>(v & 255u));
          }
          const std::uint32_t base = plan.block.network().value();
          activity::ForEachSetBit(hosts, [&](int host) {
            out.push_back(base + static_cast<std::uint32_t>(host));
          });
        }
      },
      [](std::vector<std::uint32_t>& acc, std::vector<std::uint32_t>&& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      },
      /*grain=*/16);
  return net::Ipv4Set::FromValues(std::move(values));
}

}  // namespace ipscope::scan
