// ActivityStore: activity matrices for every observed /24 block.
//
// The store is the materialized "log dataset": a sorted, dense-by-block
// collection of ActivityMatrix objects sharing one observation period.
// It supports the whole-dataset reductions the paper's analyses need:
// per-day totals, windowed active sets, and per-block iteration.
//
// Coverage mask: real measurement substrates lose whole days (collector
// outages, failed snapshot transfers — paper §3.2), and "no data for day
// d" must not be conflated with "every address was down on day d". The
// store therefore carries a per-day coverage bit: uncovered days have
// all-zero rows by construction and the analyses (churn, change
// detection, STU metrics) exclude them from event computation and
// denominators instead of reading them as mass deactivation. Freshly
// built stores are fully covered; fault::Injector and IPSCOPE2 loading
// are what introduce gaps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "activity/matrix.h"
#include "netbase/ip_set.h"
#include "netbase/ipv4.h"
#include "netbase/prefix.h"

namespace ipscope::activity {

class ActivityStore {
 public:
  // `days` is the shared observation-period length of all matrices.
  explicit ActivityStore(int days)
      : days_(days), covered_(static_cast<std::size_t>(days), true) {}

  // A copy owns its rows: every matrix, arena view or not, deep-copies
  // (see ActivityMatrix), so the copy carries no arena. Moves keep the
  // arena and the views into it.
  ActivityStore(const ActivityStore& other);
  ActivityStore& operator=(const ActivityStore& other);
  ActivityStore(ActivityStore&&) noexcept = default;
  ActivityStore& operator=(ActivityStore&&) noexcept = default;

  int days() const { return days_; }
  std::size_t BlockCount() const { return keys_.size(); }

  // --- Per-day coverage --------------------------------------------------
  // A day is covered when the collection platform actually observed it.
  // Marking a day uncovered also clears its row in every matrix: an
  // unobserved day cannot carry activity, and keeping the invariant here
  // means union-based reductions need no special casing.
  bool DayCovered(int day) const {
    return covered_[static_cast<std::size_t>(day)];
  }
  void SetDayCovered(int day, bool covered);
  bool FullyCovered() const;
  // Covered days in [day_first, day_last).
  int CoveredDaysIn(int day_first, int day_last) const;
  int MissingDays() const { return days_ - CoveredDaysIn(0, days_); }
  std::vector<int> MissingDayList() const;

  // Returns the matrix for `key`, creating an empty one if absent.
  // Insertions may arrive in any order; the store keeps blocks sorted.
  ActivityMatrix& GetOrCreate(net::BlockKey key);

  // GetOrCreate for a sweep of ascending keys: `*cursor` (0 before the
  // first key) is where the search starts, and is left just past `key`.
  // A sweep over m keys costs O(BlockCount() + m) comparisons — a merge
  // walk — instead of m binary searches. Insertions are as in
  // GetOrCreate.
  ActivityMatrix& GetOrCreateFrom(std::size_t* cursor, net::BlockKey key);

  // One-shot bulk adoption for builders that generate every block's rows
  // into a single contiguous arena of `arena_rows` rows (day-major per
  // block): the store takes ownership of `arena` and installs each keys[i]
  // as a view over days() rows starting at arena[offsets[i]] — O(blocks)
  // pointer work, no row copies. Rows no view covers are never read, so
  // they may be uninitialized. Requires an empty, fully covered store and
  // strictly ascending keys. Later GetOrCreate insertions still work; they
  // simply own their rows (mixed storage modes are fine, see DESIGN.md
  // §4.13).
  void AdoptArena(std::vector<net::BlockKey> keys,
                  std::unique_ptr<DayBits[]> arena, std::size_t arena_rows,
                  const std::vector<std::size_t>& offsets);

  // Returns nullptr if the block was never observed.
  const ActivityMatrix* Find(net::BlockKey key) const;

  // Visits blocks in increasing BlockKey order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) fn(keys_[i], matrices_[i]);
  }

  // --- Sharded iteration -------------------------------------------------
  // Blocks are index-addressable in key order, so a whole-store scan
  // decomposes into disjoint [first, last) shards — the unit the parallel
  // analyses hand to par::ParallelReduce. ForEach is exactly
  // ForEachShard(0, BlockCount()).
  net::BlockKey KeyAt(std::size_t i) const { return keys_[i]; }
  const ActivityMatrix& MatrixAt(std::size_t i) const { return matrices_[i]; }

  // Visits blocks with indices in [first, last) in increasing key order.
  template <typename Fn>
  void ForEachShard(std::size_t first, std::size_t last, Fn&& fn) const {
    for (std::size_t i = first; i < last; ++i) fn(keys_[i], matrices_[i]);
  }

  std::span<const net::BlockKey> keys() const { return keys_; }

  // Total active addresses per day across all blocks (Fig 4a's red series).
  std::vector<std::int64_t> DailyActiveCounts() const;

  // The set of addresses active at least once in [day_first, day_last).
  net::Ipv4Set ActiveSet(int day_first, int day_last) const;

  // Number of distinct addresses active in the window (cheaper than
  // materializing the set).
  std::uint64_t CountActive(int day_first, int day_last) const;

  // Number of blocks with at least one active address in the window.
  std::uint64_t CountActiveBlocks(int day_first, int day_last) const;

 private:
  int days_;
  std::vector<bool> covered_;             // per day; see DayCovered
  std::vector<net::BlockKey> keys_;       // ascending
  std::vector<ActivityMatrix> matrices_;  // parallel to keys_
  // Backing rows for arena-adopted matrices (null unless AdoptArena ran).
  // A move hands over the same buffer, so the views stay valid; a view
  // does not touch its rows when destroyed.
  std::unique_ptr<DayBits[]> arena_;
};

}  // namespace ipscope::activity
