#include "baseline/udmap.h"

#include <algorithm>
#include <bitset>
#include <utility>

#include "par/pool.h"
#include "sim/policy.h"
#include "stats/quantile.h"

namespace ipscope::baseline {

namespace {
// At least this many distinct users per address on average mark a dynamic
// block, at most this many a static one.
constexpr double kDynamicUsersPerIp = 3.0;
constexpr double kStaticUsersPerIp = 1.5;

// One key per (user, ip) pairing; pairings whose keys collide count as one.
std::uint64_t PairingKey(const cdn::LoginEvent& ev) {
  return ev.user * 0x9e3779b97f4a7c15ULL ^ ev.ip.value();
}
}  // namespace

BlockUdmapStats AnalyzeBlock(net::BlockKey key,
                             std::span<cdn::LoginEvent> events) {
  BlockUdmapStats stats{.key = key, .events = events.size()};
  // Runs by (user, address) count the users and the (user, address) pairs,
  // which number the sum over addresses of their distinct users.
  std::ranges::sort(events, {}, [](const cdn::LoginEvent& ev) {
    return std::pair{ev.user, ev.ip.value()};
  });
  std::bitset<256> hosts;
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    hosts.set(events[i].ip.value() & 0xff);
    const bool new_user = i == 0 || events[i].user != events[i - 1].user;
    stats.users += new_user;
    pairs += new_user || events[i].ip != events[i - 1].ip;
  }
  stats.addresses = static_cast<std::uint32_t>(hosts.count());
  stats.users_per_ip =
      stats.addresses ? static_cast<double>(pairs) / stats.addresses : 0.0;
  // Runs by (pairing key, step) are the pairings, first step to last.
  std::ranges::sort(events, {}, [](const cdn::LoginEvent& ev) {
    return std::pair{PairingKey(ev), ev.step};
  });
  std::vector<double> spans;
  for (std::size_t first = 0, last = 0; first < events.size(); first = last) {
    while (last < events.size() &&
           PairingKey(events[last]) == PairingKey(events[first])) {
      ++last;
    }
    spans.push_back(
        static_cast<double>(events[last - 1].step - events[first].step + 1));
  }
  stats.median_holding_steps = stats::Median(std::move(spans));
  return stats;
}

UdmapResult Classify(std::vector<BlockUdmapStats> blocks) {
  UdmapResult out;
  for (const BlockUdmapStats& stats : blocks) {
    out.events += stats.events;
    if (stats.events < kMinEvents) continue;
    if (stats.users_per_ip >= kDynamicUsersPerIp) {
      out.dynamic_blocks.push_back(stats.key);
    } else if (stats.users_per_ip <= kStaticUsersPerIp) {
      out.static_blocks.push_back(stats.key);
    }
  }
  out.blocks = std::move(blocks);
  return out;
}

UdmapResult AnalyzeWorld(const sim::World& world, sim::StepSpec spec) {
  const cdn::LoginTraceGenerator logins{world, spec};
  std::vector<const sim::BlockPlan*> order;
  for (const sim::BlockPlan& plan : world.blocks()) {
    if (sim::IsClientPolicy(plan.base.kind) ||
        plan.base.kind == sim::PolicyKind::kCrawlerBots) {
      order.push_back(&plan);
    }
  }
  std::ranges::sort(order, {}, [](const sim::BlockPlan* plan) {
    return net::BlockKeyOf(plan->block);
  });
  // A block's trace is made, analysed and freed on one worker: memory freed
  // by another thread would stay resident in the worker's malloc arena.
  std::vector<BlockUdmapStats> stats(order.size());
  par::ParallelFor(par::GlobalPool(), 0, order.size(), [&](std::size_t first,
                                                           std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      std::vector<cdn::LoginEvent> events = logins.BlockTrace(*order[i]);
      stats[i] = AnalyzeBlock(net::BlockKeyOf(order[i]->block), events);
    }
  });
  std::erase_if(stats, [](const BlockUdmapStats& s) { return s.events == 0; });
  return Classify(std::move(stats));
}

}  // namespace ipscope::baseline
