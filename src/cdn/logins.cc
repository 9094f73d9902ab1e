#include "cdn/logins.h"

#include <algorithm>
#include <numeric>

#include "par/pool.h"
#include "rng/rng.h"

namespace ipscope::cdn {

namespace {
constexpr std::uint64_t kTagLogin = 0x106e;

double HashUnit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}
}  // namespace

LoginTraceGenerator::LoginTraceGenerator(const sim::World& world,
                                         sim::StepSpec spec,
                                         double login_rate)
    : world_(world), spec_(spec), login_rate_(login_rate) {
  spec_.world_seed = world.config().seed;
  spec_.gateway_growth = world.config().gateway_traffic_growth;
}

std::vector<LoginEvent> LoginTraceGenerator::BlockTrace(
    const sim::BlockPlan& plan) const {
  const auto steps = static_cast<std::size_t>(spec_.steps);
  std::vector<activity::DayBits> rows(steps);
  std::vector<std::uint64_t> occupants(steps * 256);
  sim::GenerateBlock(plan, spec_, rows.data(), nullptr, occupants.data());
  std::vector<LoginEvent> out;
  for (int step = 0; step < spec_.steps; ++step) {
    for (int host = 0; host < 256; ++host) {
      std::uint64_t occ = occupants[static_cast<std::size_t>(step) * 256 +
                                    static_cast<std::size_t>(host)];
      if (occ == 0) continue;  // inactive, or aggregated gateway traffic
      // Whether this subscriber logged in today is a property of the
      // (subscriber, step) pair, not of the address.
      if (HashUnit(rng::Substream(occ, kTagLogin, step)) >= login_rate_) {
        continue;
      }
      out.push_back(LoginEvent{
          occ,
          net::IPv4Addr{plan.block.network().value() +
                        static_cast<std::uint32_t>(host)},
          step});
    }
  }
  return out;
}

std::vector<LoginEvent> LoginTraceGenerator::Trace() const {
  std::vector<const sim::BlockPlan*> order;
  for (const sim::BlockPlan& plan : world_.blocks()) {
    if (sim::IsClientPolicy(plan.base.kind) ||
        plan.base.kind == sim::PolicyKind::kCrawlerBots) {
      order.push_back(&plan);
    }
  }
  std::sort(order.begin(), order.end(),
            [](const sim::BlockPlan* a, const sim::BlockPlan* b) {
              return net::BlockKeyOf(a->block) < net::BlockKeyOf(b->block);
            });
  // Two passes on the pool: size each block's trace, then copy it into its
  // slice of one exact allocation. Concatenating traces kept from one pass
  // left their freed worker memory resident (+150 MB peak at 4000 blocks).
  std::vector<std::size_t> offsets(order.size() + 1, 0);
  par::ParallelFor(par::GlobalPool(), 0, order.size(), [&](std::size_t first,
                                                           std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      offsets[i + 1] = BlockTrace(*order[i]).size();
    }
  });
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<LoginEvent> out(offsets.back());
  par::ParallelFor(par::GlobalPool(), 0, order.size(), [&](std::size_t first,
                                                           std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      const std::vector<LoginEvent> events = BlockTrace(*order[i]);
      std::copy(events.begin(), events.end(),
                out.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
    }
  });
  return out;
}

}  // namespace ipscope::cdn
