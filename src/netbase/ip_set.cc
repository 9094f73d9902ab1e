#include "netbase/ip_set.h"

#include <algorithm>
#include <cassert>

namespace ipscope::net {

namespace {

// Appends `iv` to a canonical list whose intervals all start at or before
// iv.first, coalescing it into the last interval when they overlap or
// touch; the +1 adjacency check must not overflow when back.last ==
// 0xFFFFFFFF.
void AppendCoalesced(std::vector<Ipv4Set::Interval>& out,
                     const Ipv4Set::Interval& iv) {
  if (!out.empty()) {
    Ipv4Set::Interval& back = out.back();
    if (iv.first <= back.last ||
        (back.last != 0xFFFFFFFFu && iv.first == back.last + 1)) {
      back.last = std::max(back.last, iv.last);
      return;
    }
  }
  out.push_back(iv);
}

}  // namespace

Ipv4Set Ipv4Set::FromAddresses(std::span<const IPv4Addr> addrs) {
  std::vector<std::uint32_t> values;
  values.reserve(addrs.size());
  for (IPv4Addr a : addrs) values.push_back(a.value());
  return FromValues(std::move(values));
}

Ipv4Set Ipv4Set::FromValues(std::vector<std::uint32_t> values) {
  if (!std::is_sorted(values.begin(), values.end())) {
    std::sort(values.begin(), values.end());
  }
  Ipv4Set set;
  for (std::uint32_t v : values) AppendCoalesced(set.intervals_, {v, v});
  return set;
}

void Ipv4Set::AddRange(std::uint32_t first, std::uint32_t last) {
  assert(first <= last);
  // Find the first interval that could interact with [first, last].
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), first,
      [](const Interval& iv, std::uint32_t v) { return iv.last < v; });
  // Step back if the previous interval is adjacent (ends at first - 1).
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (first != 0 && prev->last == first - 1) it = prev;
  }
  Interval merged{first, last};
  auto erase_begin = it;
  while (it != intervals_.end() &&
         (it->first <= merged.last ||
          (merged.last != 0xFFFFFFFFu && it->first == merged.last + 1))) {
    merged.first = std::min(merged.first, it->first);
    merged.last = std::max(merged.last, it->last);
    ++it;
  }
  auto pos = intervals_.erase(erase_begin, it);
  intervals_.insert(pos, merged);
}

bool Ipv4Set::Contains(IPv4Addr addr) const {
  std::uint32_t v = addr.value();
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), v,
      [](const Interval& iv, std::uint32_t value) { return iv.last < value; });
  return it != intervals_.end() && it->first <= v;
}

bool Ipv4Set::IntersectsRange(std::uint32_t first, std::uint32_t last) const {
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), first,
      [](const Interval& iv, std::uint32_t v) { return iv.last < v; });
  return it != intervals_.end() && it->first <= last;
}

std::optional<IPv4Addr> Ipv4Set::Floor(IPv4Addr addr) const {
  std::uint32_t v = addr.value();
  // First interval with last >= v; the floor is either v itself (if covered)
  // or the previous interval's last.
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), v,
      [](const Interval& iv, std::uint32_t value) { return iv.last < value; });
  if (it != intervals_.end() && it->first <= v) return IPv4Addr{v};
  if (it == intervals_.begin()) return std::nullopt;
  return IPv4Addr{std::prev(it)->last};
}

std::optional<IPv4Addr> Ipv4Set::Ceiling(IPv4Addr addr) const {
  std::uint32_t v = addr.value();
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), v,
      [](const Interval& iv, std::uint32_t value) { return iv.last < value; });
  if (it == intervals_.end()) return std::nullopt;
  return IPv4Addr{std::max(it->first, v)};
}

std::uint64_t Ipv4Set::Count() const {
  std::uint64_t n = 0;
  for (const Interval& iv : intervals_) n += std::uint64_t{iv.last} - iv.first + 1;
  return n;
}

std::uint64_t Ipv4Set::CountBlocks() const {
  std::uint64_t n = 0;
  std::uint64_t prev = ~std::uint64_t{0};
  for (const Interval& iv : intervals_) {
    std::uint64_t lo = iv.first >> 8;
    std::uint64_t hi = iv.last >> 8;
    if (lo == prev) ++lo;
    if (lo <= hi) {
      n += hi - lo + 1;
      prev = hi;
    }
  }
  return n;
}

// A two-pointer merge of the two canonical lists by interval start.
Ipv4Set Ipv4Set::Union(const Ipv4Set& other) const {
  const std::vector<Interval>& a = intervals_;
  const std::vector<Interval>& b = other.intervals_;
  Ipv4Set out;
  out.intervals_.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].first <= b[j].first)) {
      AppendCoalesced(out.intervals_, a[i++]);
    } else {
      AppendCoalesced(out.intervals_, b[j++]);
    }
  }
  return out;
}

Ipv4Set Ipv4Set::Intersect(const Ipv4Set& other) const {
  Ipv4Set out;
  std::size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const Interval& a = intervals_[i];
    const Interval& b = other.intervals_[j];
    std::uint32_t lo = std::max(a.first, b.first);
    std::uint32_t hi = std::min(a.last, b.last);
    if (lo <= hi) out.intervals_.push_back({lo, hi});
    if (a.last < b.last) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

std::uint64_t Ipv4Set::CountIntersect(const Ipv4Set& other) const {
  std::uint64_t n = 0;
  std::size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const Interval& a = intervals_[i];
    const Interval& b = other.intervals_[j];
    std::uint32_t lo = std::max(a.first, b.first);
    std::uint32_t hi = std::min(a.last, b.last);
    if (lo <= hi) n += std::uint64_t{hi} - lo + 1;
    if (a.last < b.last) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

Ipv4Set Ipv4Set::Subtract(const Ipv4Set& other) const {
  Ipv4Set out;
  std::size_t j = 0;
  for (const Interval& a : intervals_) {
    std::uint64_t cur = a.first;  // 64-bit to survive last == 0xFFFFFFFF
    while (j < other.intervals_.size() && other.intervals_[j].last < a.first) {
      ++j;
    }
    std::size_t k = j;
    while (cur <= a.last) {
      if (k >= other.intervals_.size() || other.intervals_[k].first > a.last) {
        out.intervals_.push_back(
            {static_cast<std::uint32_t>(cur), a.last});
        break;
      }
      const Interval& b = other.intervals_[k];
      if (b.first > cur) {
        out.intervals_.push_back(
            {static_cast<std::uint32_t>(cur), b.first - 1});
      }
      cur = std::uint64_t{b.last} + 1;
      ++k;
    }
  }
  return out;
}

}  // namespace ipscope::net
