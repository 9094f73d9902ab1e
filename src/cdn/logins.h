// Application-level login traces.
//
// Xie et al.'s UDmap (SIGCOMM 2007, cited in paper §3.1) infers dynamic
// addresses from user-login traces: the same user identity appearing on
// many addresses (and many users on one address over time) marks dynamic
// assignment. A large web platform legitimately observes (user, IP, time)
// tuples; this generator produces them one block at a time for the
// simulated world, consistent with the activity kernel's occupant
// identities. They feed the UDmap baseline (src/baseline/udmap.h), which we
// compare against the paper's rDNS tagging and our pattern classifier.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/ipv4.h"
#include "sim/policy.h"
#include "sim/world.h"

namespace ipscope::cdn {

struct LoginEvent {
  std::uint64_t user = 0;   // stable subscriber identity
  net::IPv4Addr ip;
  std::int32_t step = 0;    // snapshot index within the observation period

  friend bool operator==(const LoginEvent&, const LoginEvent&) = default;
};

class LoginTraceGenerator {
 public:
  // `login_rate`: probability that an active subscriber logs into the
  // observed service on a given step. Gateways (no single subscriber
  // behind an address) produce no login events.
  LoginTraceGenerator(const sim::World& world, sim::StepSpec spec,
                      double login_rate = 0.5);

  // Login events of one block across the whole period, ordered by step.
  std::vector<LoginEvent> BlockTrace(const sim::BlockPlan& plan) const;

 private:
  sim::StepSpec spec_;
  double login_rate_;
};

}  // namespace ipscope::cdn
