// ICMP scan campaigns (the ZMap substitute, paper §3.2–3.4).
//
// Response model, mirroring the paper's observations about what answers
// ICMP echo:
//  * A client address answers only if (a) its block's gateway/firewall
//    policy permits ICMP at all — a per-block Bernoulli draw with the
//    country's ICMP response rate (CN ~0.8, JP ~0.25, Fig 3b) — and (b) the
//    individual CPE answers (persistent per-host property, ~0.92), and (c)
//    a device is online around scan time: certainly if the address was
//    CDN-active that day, with reduced probability if active within +-3
//    days, never otherwise. NAT'd hosts that never answer are exactly the
//    paper's ">40% of addresses CDN-only" population.
//  * Infrastructure (servers, routers, middleboxes/tarpits) answers with
//    high, activity-independent probability — the "ICMP only" population.
#pragma once

#include <cstdint>

#include "netbase/ip_set.h"
#include "sim/world.h"

namespace ipscope::scan {

class IcmpScanner {
 public:
  explicit IcmpScanner(const sim::World& world);

  // One full-address-space scan on an absolute day of year.
  net::Ipv4Set Scan(std::int32_t day) const;

  // Union of `num_scans` scans spread evenly over
  // [month_start_day, month_start_day + month_days) — the paper compares
  // one month of CDN logs against 8 ZMap snapshots (October 2015).
  // Equal to folding Union over Scan(day) for those days, but computed in
  // one pass over the blocks in key order on the shared pool: per block,
  // the responders of every scan day (each day gated by the block's
  // activity window as in Scan) are ORed into one host mask, so no per-day
  // set is built and no union or sort runs.
  net::Ipv4Set ScanMonth(std::int32_t month_start_day, int month_days = 28,
                         int num_scans = 8) const;

  // Single targeted probe: does `addr` answer an ICMP echo on `day`?
  // Consistent with Scan(day): Probe(a, d) is true iff a is in Scan(d).
  // Used by adaptive probers (scan/trinocular.h).
  bool Probe(net::IPv4Addr addr, std::int32_t day) const;

 private:
  void ScanBlockInto(const sim::BlockPlan& plan, std::int32_t day,
                     std::vector<std::uint32_t>& out) const;
  const sim::BlockPlan* FindPlan(net::BlockKey key) const;

  const sim::World& world_;
  std::vector<std::uint32_t> index_;  // block indices sorted by key
};

}  // namespace ipscope::scan
