#include "cdn/logins.h"

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
    : spec_(spec), login_rate_(login_rate) {
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

}  // namespace ipscope::cdn
