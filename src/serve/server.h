// The serve request router: JSON request in, JSON response out.
//
// A Server owns a SnapshotManager (reloadable store) and an optional
// block→(AS, country) attribution table. The transport (serve/tcp.h,
// tests, ipscope_bench) hands it one frame or one JSON body at a time;
// everything here is thread-safe and deterministic: the same request
// against the same snapshot renders byte-identical output, which is what
// the oracle tests diff against direct ActivityStore/analysis calls.
//
// There is no response cache. point/prefix/as/country are computed on
// every request (microseconds, under one wire round trip); the
// whole-snapshot aggregates behind summary/churn/patterns are memoized on
// the pinned Snapshot itself (serve/snapshot.h), filled once on first use
// and freed with it.
//
// Endpoints (request: {"endpoint": "<name>", ...}):
//   summary   — whole-store totals and the daily active series
//   point     — one /24 block: FD/STU/pattern, or one host's active days
//   prefix    — active addresses/blocks under a prefix (length <= 24)
//   as        — activity attributed to one origin AS
//   country   — activity attributed to one ISO country code
//   churn     — windowed up/down churn series (paper Fig 4b)
//   patterns  — Fig-6 pattern-class histogram, optional prefix restriction
//
// Every response carries "snapshot": the id it was computed against. The
// snapshot-isolation contract (DESIGN.md §4.14): a request pins exactly
// one snapshot for its whole lifetime, and a request that starts after
// Reload() returns sees the new snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/prefix.h"
#include "obs/timer.h"
#include "serve/snapshot.h"

namespace ipscope::sim {
class World;
}  // namespace ipscope::sim

namespace ipscope::serve {

// Maps one /24 block to its origin AS and country (index into
// geo::Countries()). The table is fixed at server setup: attribution is a
// property of the simulated world, not of a particular store snapshot.
struct BlockAttribution {
  net::BlockKey key = 0;
  std::uint32_t asn = 0;
  std::int16_t country = -1;
};

struct ServerOptions {
  std::size_t max_frame_bytes = 1 << 20;
};

class Server {
 public:
  explicit Server(activity::ActivityStore store, ServerOptions options = {});

  // Installs the block attribution table (sorted internally). Must be
  // called before serving starts; the table is immutable afterwards.
  void SetAttribution(std::vector<BlockAttribution> attribution);

  // Extracts attribution from a simulated world's block plans.
  static std::vector<BlockAttribution> AttributionFromWorld(
      const sim::World& world);

  // Swaps in a new snapshot; in-flight requests keep answering from the
  // snapshot they pinned. Returns the new snapshot id.
  std::uint64_t Reload(activity::ActivityStore store);

  std::uint64_t snapshot_id() const { return snapshots_.current_id(); }
  std::size_t max_frame_bytes() const { return options_.max_frame_bytes; }

  // Full wire round trip: decode one request frame, answer, encode the
  // response frame. Malformed frames produce an error-response frame,
  // never a throw.
  std::string HandleFrame(std::string_view frame_bytes);

  // One JSON request body -> one JSON response body: DirectAnswer on the
  // pinned snapshot, with its whole-snapshot aggregates memoized.
  std::string HandleRequest(std::string_view body);

  // The oracle path: parse + route + render against an explicit store, no
  // memo, no snapshot pinning, no request metrics. Tests, ipscope_bench and
  // the TCP smoke diff HandleRequest against it byte-for-byte.
  static std::string DirectAnswer(const activity::ActivityStore& store,
                                  std::uint64_t snapshot_id,
                                  std::span<const BlockAttribution> attribution,
                                  std::string_view body);

 private:
  ServerOptions options_;
  SnapshotManager snapshots_;
  std::vector<BlockAttribution> attribution_;
  obs::Stopwatch uptime_;
  std::atomic<std::uint64_t> requests_{0};
};

// The one sweep that fills a snapshot's aggregates (serve/snapshot.h):
// the summary, every churn window and the running pattern-class counts.
// Its per-block body is built twice, counting bits with the portable
// activity::PopCount and with the popcnt instruction; the popcnt clone
// runs when the CPU has the instruction (activity::PopCountHwAvailable(),
// read once at static initialization), the portable body otherwise.
Aggregates ComputeAggregates(const activity::ActivityStore& store);

// The targets behind ComputeAggregates, identical in result.
// ComputeAggregatesPopcnt may only be called when
// activity::PopCountHwAvailable() is true.
Aggregates ComputeAggregatesPortable(const activity::ActivityStore& store);
Aggregates ComputeAggregatesPopcnt(const activity::ActivityStore& store);

// Renders a double exactly as the serve responses do (%.17g — enough
// digits to round-trip). Exposed so oracle tests can construct expected
// response text from direct analysis results.
std::string JsonNumber(double value);

}  // namespace ipscope::serve
