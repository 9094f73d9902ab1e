#include "activity/store.h"

#include <algorithm>
#include <cassert>

#include "par/pool.h"

namespace ipscope::activity {

namespace {

// Blocks per parallel shard for whole-store reductions. Small enough for
// the pool's stealing to balance skewed blocks, big enough to amortize the
// per-chunk accumulator.
constexpr std::size_t kBlockGrain = 16;

}  // namespace

ActivityMatrix& ActivityStore::GetOrCreate(net::BlockKey key) {
  auto cursor = static_cast<std::size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  return GetOrCreateFrom(&cursor, key);
}

ActivityMatrix& ActivityStore::GetOrCreateFrom(std::size_t* cursor,
                                               net::BlockKey key) {
  std::size_t idx = std::min(*cursor, keys_.size());
  assert(idx == 0 || keys_[idx - 1] < key);  // the sweep ascends
  while (idx < keys_.size() && keys_[idx] < key) ++idx;
  *cursor = idx + 1;
  if (idx < keys_.size() && keys_[idx] == key) return matrices_[idx];
  keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(idx), key);
  matrices_.insert(matrices_.begin() + static_cast<std::ptrdiff_t>(idx),
                   ActivityMatrix{days_});
  return matrices_[idx];
}

ActivityStore::ActivityStore(const ActivityStore& other)
    : days_(other.days_),
      covered_(other.covered_),
      keys_(other.keys_),
      matrices_(other.matrices_) {}

ActivityStore& ActivityStore::operator=(const ActivityStore& other) {
  if (this != &other) *this = ActivityStore(other);
  return *this;
}

void ActivityStore::AdoptArena(std::vector<net::BlockKey> keys,
                               std::unique_ptr<DayBits[]> arena,
                               [[maybe_unused]] std::size_t arena_rows,
                               const std::vector<std::size_t>& offsets) {
  assert(keys_.empty() && matrices_.empty());
  assert(keys.size() == offsets.size());
  assert(std::is_sorted(keys.begin(), keys.end()));
  arena_ = std::move(arena);
  keys_ = std::move(keys);
  matrices_.reserve(keys_.size());
  for (std::size_t off : offsets) {
    assert(off + static_cast<std::size_t>(days_) <= arena_rows);
    matrices_.emplace_back(days_, arena_.get() + off);
  }
}

void ActivityStore::SetDayCovered(int day, bool covered) {
  covered_[static_cast<std::size_t>(day)] = covered;
  if (!covered) {
    for (ActivityMatrix& m : matrices_) m.Row(day) = DayBits{};
  }
}

bool ActivityStore::FullyCovered() const {
  for (bool c : covered_) {
    if (!c) return false;
  }
  return true;
}

int ActivityStore::CoveredDaysIn(int day_first, int day_last) const {
  int n = 0;
  for (int d = day_first; d < day_last; ++d) {
    if (covered_[static_cast<std::size_t>(d)]) ++n;
  }
  return n;
}

std::vector<int> ActivityStore::MissingDayList() const {
  std::vector<int> out;
  for (int d = 0; d < days_; ++d) {
    if (!covered_[static_cast<std::size_t>(d)]) out.push_back(d);
  }
  return out;
}

const ActivityMatrix* ActivityStore::Find(net::BlockKey key) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &matrices_[static_cast<std::size_t>(it - keys_.begin())];
}

std::vector<std::int64_t> ActivityStore::DailyActiveCounts() const {
  return par::ParallelReduce(
      std::size_t{0}, matrices_.size(),
      std::vector<std::int64_t>(static_cast<std::size_t>(days_), 0),
      [&](std::vector<std::int64_t>& totals, std::size_t first,
          std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          for (int d = 0; d < days_; ++d) {
            totals[static_cast<std::size_t>(d)] +=
                matrices_[i].ActiveOnDay(d);
          }
        }
      },
      [](std::vector<std::int64_t>& acc, std::vector<std::int64_t>&& part) {
        for (std::size_t d = 0; d < acc.size(); ++d) acc[d] += part[d];
      },
      kBlockGrain);
}

net::Ipv4Set ActivityStore::ActiveSet(int day_first, int day_last) const {
  // Per-shard value vectors are each ascending (blocks are key-sorted and
  // hosts enumerate low-to-high), and shards cover ascending key ranges, so
  // ordered concatenation of the partials reproduces the serial output
  // exactly — FromValues still sees a sorted stream.
  std::vector<std::uint32_t> values = par::ParallelReduce(
      std::size_t{0}, keys_.size(), std::vector<std::uint32_t>{},
      [&](std::vector<std::uint32_t>& vals, std::size_t first,
          std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          std::uint32_t base = keys_[i] << 8;
          ForEachSetBit(matrices_[i].UnionOver(day_first, day_last),
                        [&](int host) {
                          vals.push_back(base +
                                         static_cast<std::uint32_t>(host));
                        });
        }
      },
      [](std::vector<std::uint32_t>& acc, std::vector<std::uint32_t>&& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      },
      kBlockGrain);
  return net::Ipv4Set::FromValues(std::move(values));
}

std::uint64_t ActivityStore::CountActive(int day_first, int day_last) const {
  return par::ParallelReduce(
      std::size_t{0}, matrices_.size(), std::uint64_t{0},
      [&](std::uint64_t& n, std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          n += static_cast<std::uint64_t>(
              PopCount(matrices_[i].UnionOver(day_first, day_last)));
        }
      },
      [](std::uint64_t& acc, std::uint64_t part) { acc += part; },
      kBlockGrain);
}

std::uint64_t ActivityStore::CountActiveBlocks(int day_first,
                                               int day_last) const {
  return par::ParallelReduce(
      std::size_t{0}, matrices_.size(), std::uint64_t{0},
      [&](std::uint64_t& n, std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          DayBits u = matrices_[i].UnionOver(day_first, day_last);
          if ((u[0] | u[1] | u[2] | u[3]) != 0) ++n;
        }
      },
      [](std::uint64_t& acc, std::uint64_t part) { acc += part; },
      kBlockGrain);
}

}  // namespace ipscope::activity
