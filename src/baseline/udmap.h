// UDmap-style dynamic-address inference (the Xie et al. baseline, §3.1).
//
// Input: (user, IP, time) login tuples. Core signals, per /24 block:
//   * users-per-IP: distinct subscriber identities seen on each address —
//     near 1 for static assignment, growing with reassignment frequency;
//   * holding time: the span of steps over which one (user, IP) pairing
//     persists — an estimate of the DHCP lease / reassignment interval
//     (compare Moura et al.'s DHCP churn estimation, §3.1).
// A block is inferred dynamic when addresses are shared across many users,
// static when pairings are stable. We validate the inference against the
// simulator's ground-truth policies and against the paper's rDNS tagging.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdn/logins.h"
#include "netbase/prefix.h"
#include "sim/world.h"

namespace ipscope::baseline {

// Blocks with fewer login events are left unclassified.
inline constexpr std::uint64_t kMinEvents = 50;

struct BlockUdmapStats {
  net::BlockKey key = 0;
  std::uint64_t events = 0;
  std::uint32_t addresses = 0;     // distinct addresses with logins
  std::uint64_t users = 0;         // distinct users seen in the block
  double users_per_ip = 0.0;       // mean distinct users per address
  double median_holding_steps = 0; // median (user, ip) pairing span

  friend bool operator==(const BlockUdmapStats&,
                         const BlockUdmapStats&) = default;
};

struct UdmapResult {
  std::vector<BlockUdmapStats> blocks;            // ascending key
  std::vector<net::BlockKey> dynamic_blocks;      // inferred dynamic
  std::vector<net::BlockKey> static_blocks;       // inferred static
  std::uint64_t events = 0;                       // login events analysed
};

// Stats of block `key` from its login events, in any order; sorts them.
BlockUdmapStats AnalyzeBlock(net::BlockKey key,
                             std::span<cdn::LoginEvent> events);

// Splits analysed blocks (ascending key) into inferred dynamic and static.
UdmapResult Classify(std::vector<BlockUdmapStats> blocks);

// Classify(AnalyzeBlock) over the login trace (cdn::LoginTraceGenerator at
// its default rate) of every client and crawler block with logins, one
// block at a time on par::GlobalPool().
UdmapResult AnalyzeWorld(const sim::World& world, sim::StepSpec spec);

}  // namespace ipscope::baseline
