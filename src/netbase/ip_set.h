// Ipv4Set: an ordered set of IPv4 addresses stored as disjoint closed
// intervals. Designed for the census-style workloads in this project, where
// sets of hundreds of thousands to millions of addresses are built once and
// then queried (membership, counting, set algebra, block aggregation).
//
// Intervals are closed [first, last] on the 32-bit address line. The class
// invariant: intervals_ is sorted by first, intervals are disjoint, and
// adjacent intervals are coalesced (no interval's first == previous last + 1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/prefix.h"

namespace ipscope::net {

class Ipv4Set {
 public:
  struct Interval {
    std::uint32_t first;
    std::uint32_t last;  // inclusive
    friend constexpr auto operator<=>(const Interval&,
                                      const Interval&) = default;
  };

  Ipv4Set() = default;

  // Builds a set from an arbitrary (unsorted, possibly duplicated) list of
  // addresses in O(n log n), or O(n) when the list is already ascending.
  static Ipv4Set FromAddresses(std::span<const IPv4Addr> addrs);
  static Ipv4Set FromValues(std::vector<std::uint32_t> values);

  // Adds a single address or an entire prefix / closed range.
  // Amortized O(log n) when insertions are mostly appends or merges; worst
  // case O(n) per call due to vector displacement.
  void Add(IPv4Addr addr) { AddRange(addr.value(), addr.value()); }
  void Add(Prefix prefix) {
    AddRange(prefix.first().value(), prefix.last().value());
  }
  void AddRange(std::uint32_t first, std::uint32_t last);

  bool Contains(IPv4Addr addr) const;

  // True if any member falls within [first, last] (inclusive). O(log n).
  bool IntersectsRange(std::uint32_t first, std::uint32_t last) const;
  bool Intersects(Prefix prefix) const {
    return IntersectsRange(prefix.first().value(), prefix.last().value());
  }

  // Largest member <= addr / smallest member >= addr, if any. O(log n).
  // These power the event-size aggregation (DESIGN.md §4.4).
  std::optional<IPv4Addr> Floor(IPv4Addr addr) const;
  std::optional<IPv4Addr> Ceiling(IPv4Addr addr) const;

  // Number of addresses (not intervals) in the set.
  std::uint64_t Count() const;

  // Number of distinct /24 blocks with at least one member address.
  std::uint64_t CountBlocks() const;

  // Set algebra. All O(n + m).
  Ipv4Set Union(const Ipv4Set& other) const;
  Ipv4Set Intersect(const Ipv4Set& other) const;
  Ipv4Set Subtract(const Ipv4Set& other) const;

  // Number of addresses in the intersection without materializing it.
  std::uint64_t CountIntersect(const Ipv4Set& other) const;

  bool Empty() const { return intervals_.empty(); }
  std::size_t IntervalCount() const { return intervals_.size(); }
  std::span<const Interval> Intervals() const { return intervals_; }

  // Visits each member address in increasing order. O(count).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Interval& iv : intervals_) {
      for (std::uint64_t v = iv.first; v <= iv.last; ++v) {
        fn(IPv4Addr{static_cast<std::uint32_t>(v)});
      }
    }
  }

  // Visits each member /24 block key once, in increasing order.
  template <typename Fn>
  void ForEachBlock(Fn&& fn) const {
    std::uint64_t prev = ~std::uint64_t{0};
    for (const Interval& iv : intervals_) {
      for (std::uint64_t key = iv.first >> 8; key <= (iv.last >> 8); ++key) {
        if (key != prev) fn(static_cast<BlockKey>(key));
        prev = key;
      }
    }
  }

  friend bool operator==(const Ipv4Set&, const Ipv4Set&) = default;

 private:
  std::vector<Interval> intervals_;
};

}  // namespace ipscope::net
