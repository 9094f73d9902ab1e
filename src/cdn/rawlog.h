// Raw edge-server log records and the aggregation pipeline.
//
// The real platform (paper §3.2) creates a log entry for every Web object
// served (~3 trillion/day) and funnels them through a distributed collection
// framework into per-IP hit aggregates. This module provides that bottom
// layer at simulation scale: a deterministic stream of individual request
// records per (block, day) whose per-address counts match the observatory's
// aggregate hit counts *exactly*, plus the aggregator that turns a record
// stream back into the dataset — so the whole pipeline is testable
// end-to-end (records -> aggregates -> activity matrices).
//
// Request timestamps follow a diurnal curve (evening-peaked local time),
// giving the records realistic within-day structure.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netbase/ipv4.h"
#include "rng/rng.h"
#include "sim/policy.h"
#include "sim/world.h"

namespace ipscope::cdn {

struct LogRecord {
  std::uint32_t unix_time = 0;   // seconds since epoch
  net::IPv4Addr client;
  std::uint16_t edge_server = 0; // serving edge node id
  std::uint32_t bytes = 0;       // response size
  std::uint16_t status = 200;    // HTTP status
  std::uint64_t ua_id = 0;       // User-Agent string id (see UaString)
};

// Renders a UA id as a synthetic-but-plausible User-Agent string.
std::string UaString(std::uint64_t ua_id);

// Serializes a record in a common log-ish line format; ParseLogLine is the
// exact inverse (round-trip tested).
std::string FormatLogLine(const LogRecord& record);
bool ParseLogLine(const std::string& line, LogRecord& record);

// Hour-of-day weights of the diurnal request curve in *local* time (sums
// to 1). Evening-peaked, matching the residential curves in the literature
// the paper cites ([7,30]). Raw-log timestamps are UTC: each block's curve
// is phase-shifted by its country's UTC offset.
const std::array<double, 24>& DiurnalCurve();

// UTC offset (hours) of the block's country; 0 when unknown.
int CountryUtcOffset(const sim::BlockPlan& plan);

// Deterministic raw-record generation for a block over a step range of an
// observatory's StepSpec. Record counts per address equal the kernel's hit
// counts for the same (block, step). Intended for block-scale use (one
// block-day can be tens of thousands of records at full hit counts), so a
// per-address record cap is available for demos; 0 means uncapped.
class RawLogGenerator {
 public:
  RawLogGenerator(const sim::World& world, sim::StepSpec spec);

  // Visits every record of (plan, step) for the steps in [first, last), in
  // step order: fn(const LogRecord&). Hits and occupants come from one
  // sim::GenerateBlock call over steps [0, last) of the spec.
  template <typename Fn>
  void ForBlockSteps(const sim::BlockPlan& plan, int first, int last, Fn&& fn,
                     std::uint32_t per_address_cap = 0) const {
    sim::StepSpec spec = spec_;
    spec.steps = last;
    std::vector<activity::DayBits> rows(static_cast<std::size_t>(last));
    std::vector<std::uint32_t> hits(rows.size() * 256);
    std::vector<std::uint64_t> occupants(hits.size());
    sim::GenerateBlock(plan, spec, rows.data(), hits.data(), occupants.data());
    for (auto cell = static_cast<std::size_t>(first) * 256; cell < hits.size();
         ++cell) {
      std::uint32_t n = hits[cell];
      if (n == 0) continue;
      if (per_address_cap != 0 && n > per_address_cap) n = per_address_cap;
      EmitRecords(plan, static_cast<int>(cell / 256),
                  static_cast<int>(cell % 256), n, occupants[cell], fn);
    }
  }

  // Visits the first `count` records of (plan, step, host) held by
  // `occupant`; ForBlockSteps passes the (capped) hit count.
  template <typename Fn>
  void EmitRecords(const sim::BlockPlan& plan, int step, int host,
                   std::uint32_t count, std::uint64_t occupant,
                   Fn& fn) const;

  const sim::StepSpec& spec() const { return spec_; }

 private:
  std::uint32_t DayStartUnixTime(int step) const;

  const sim::World& world_;
  sim::StepSpec spec_;
};

// Streaming aggregation: consumes records, produces per-address counts and
// 1-in-N User-Agent samples — the collection framework of paper §3.2.
class LogAggregator {
 public:
  explicit LogAggregator(std::uint32_t ua_sample_interval = 4096)
      : ua_sample_interval_(ua_sample_interval) {}

  void Consume(const LogRecord& record);

  std::uint64_t total_records() const { return total_records_; }
  const std::unordered_map<std::uint32_t, std::uint32_t>& hits_per_ip() const {
    return hits_per_ip_;
  }
  const std::vector<std::uint64_t>& sampled_uas() const {
    return sampled_uas_;
  }
  // Distinct UA ids among the samples.
  std::size_t unique_sampled_uas() const;

 private:
  std::uint32_t ua_sample_interval_;
  std::uint64_t total_records_ = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> hits_per_ip_;
  std::vector<std::uint64_t> sampled_uas_;
};

// --- implementation of the generator template ---------------------------

template <typename Fn>
void RawLogGenerator::EmitRecords(const sim::BlockPlan& plan, int step,
                                  int host, std::uint32_t count,
                                  std::uint64_t occupant, Fn& fn) const {
  rng::Xoshiro256 g{rng::Substream(plan.block_seed, 0x10609, step, host)};
  const auto& curve = DiurnalCurve();
  const int utc_offset = CountryUtcOffset(plan);
  std::uint32_t day_start = DayStartUnixTime(step);
  // Devices behind the address: gateways mix many UA ids; a single
  // subscriber cycles a handful; bots use one.
  const bool gateway = plan.base.kind == sim::PolicyKind::kCgnGateway;
  const bool bot = plan.base.kind == sim::PolicyKind::kCrawlerBots;
  for (std::uint32_t i = 0; i < count; ++i) {
    LogRecord record;
    // Local hour from the diurnal curve, converted to UTC by the block's
    // country offset, then uniform seconds within the hour.
    double u = g.NextDouble();
    int local_hour = 0;
    double acc = 0;
    for (int h = 0; h < 24; ++h) {
      acc += curve[static_cast<std::size_t>(h)];
      if (u < acc) {
        local_hour = h;
        break;
      }
    }
    int utc_hour = ((local_hour - utc_offset) % 24 + 24) % 24;
    record.unix_time = day_start +
                       static_cast<std::uint32_t>(utc_hour) * 3600 +
                       g.NextBounded(3600);
    record.client = net::IPv4Addr{plan.block.network().value() +
                                  static_cast<std::uint32_t>(host)};
    record.edge_server = static_cast<std::uint16_t>(g.NextBounded(200));
    record.bytes = 200 + g.NextBounded(1u << 16);
    record.status = g.NextBool(0.02) ? 404 : 200;
    if (bot) {
      record.ua_id = rng::Substream(plan.block_seed, 0xb07);
    } else if (gateway) {
      record.ua_id = rng::Substream(plan.block_seed, 0x6a7e, g());
    } else {
      // A subscriber's device pool: ~4 UA strings per occupant.
      record.ua_id = rng::Substream(occupant, 0xde7, g.NextBounded(4));
    }
    fn(static_cast<const LogRecord&>(record));
  }
}

}  // namespace ipscope::cdn
