// The CDN log observatory.
//
// Stands in for the paper's server-log collection platform (§3.2): it turns
// the world plan into the two observation datasets —
//   * Daily(world):  112 daily snapshots, 2015-08-17 .. 2015-12-06
//   * Weekly(world): 52 weekly snapshots covering 2015
// — exposing exactly what the real platform exposed: per-IP activity and
// per-IP request ("hit") counts per snapshot. Everything is regenerated
// deterministically from the world seed, so the full per-IP hit matrix
// never needs to be stored (DESIGN.md §4.3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "activity/store.h"
#include "par/pool.h"
#include "sim/policy.h"
#include "sim/world.h"
#include "timeutil/date.h"

namespace ipscope::cdn {

class Observatory {
 public:
  Observatory(const sim::World& world, sim::StepSpec spec);

  // The paper's daily dataset: steps of 1 day starting Aug 17 (day 228).
  static Observatory Daily(const sim::World& world);
  // The paper's weekly dataset: 52 steps of 7 days starting Jan 1.
  static Observatory Weekly(const sim::World& world);

  const sim::World& world() const { return world_; }
  const sim::StepSpec& spec() const { return spec_; }
  int steps() const { return spec_.steps; }

  // Materializes the activity bitmaps of every observed block. Blocks with
  // zero activity over the whole period are omitted (the CDN never saw
  // them, so the dataset cannot contain them). Generation runs on the
  // shared par::GlobalPool() (parallel by default); `threads` >= 1 caps
  // the worker count for this build (1 = serial). The result is
  // bit-identical regardless of thread count (blocks are independent by
  // construction and merged in key order).
  activity::ActivityStore BuildStore(int threads = 0) const;

  // Blocks generated per ForEachBlockHits batch. A constant, so the batch
  // boundaries never depend on the pool size; 64 daily blocks keep the
  // in-flight hit arrays at 64 × 112 × 256 × 4 B ≈ 7.3 MB.
  static constexpr std::size_t kHitsBatchBlocks = 64;

  // Streams every CDN-visible block with its activity matrix and per-step
  // per-host hit counts (row-major: hits[step * 256 + host], zero where
  // inactive), in BlockKey order. Blocks with no activity are skipped.
  //
  // Blocks are generated kHitsBatchBlocks at a time on par::GlobalPool()
  // by sim::GenerateBlock. Inside a batch, `map` also runs on the pool,
  // once per visible block; then `consume` runs serially on the calling
  // thread, in key order, with that block's map result:
  //
  //   map(const sim::BlockPlan& plan, const activity::ActivityMatrix& m,
  //       std::span<const std::uint32_t> hits) -> R
  //   consume(const sim::BlockPlan& plan, const activity::ActivityMatrix& m,
  //           std::span<const std::uint32_t> hits, R& mapped)
  //
  // map runs concurrently, so it may only read shared state; consume sees
  // exactly the call sequence of a serial per-block loop, for any pool
  // size. An exception from generation or map reaches the caller before
  // any block of its batch is consumed.
  template <typename Map, typename Consume>
  void ForEachBlockHits(Map&& map, Consume&& consume) const {
    using Mapped = std::invoke_result_t<Map&, const sim::BlockPlan&,
                                        const activity::ActivityMatrix&,
                                        std::span<const std::uint32_t>>;
    const auto steps = static_cast<std::size_t>(spec_.steps);
    const std::size_t cells = steps * 256;
    const std::size_t batch = std::min(kHitsBatchBlocks, order_.size());
    std::vector<activity::DayBits> rows(batch * steps);
    std::vector<std::uint32_t> hits(batch * cells);
    std::vector<std::optional<Mapped>> mapped(batch);
    auto matrix = [&](std::size_t i) {
      return activity::ActivityMatrix{spec_.steps, rows.data() + i * steps};
    };
    auto block_hits = [&](std::size_t i) {
      return std::span<const std::uint32_t>{hits.data() + i * cells, cells};
    };
    for (std::size_t first = 0; first < order_.size(); first += batch) {
      const std::size_t n = std::min(batch, order_.size() - first);
      par::ParallelFor(
          par::GlobalPool(), 0, n, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              const sim::BlockPlan& plan = world_.blocks()[order_[first + i]];
              activity::DayBits* block_rows = rows.data() + i * steps;
              sim::GenerateBlock(plan, spec_, block_rows,
                                 hits.data() + i * cells);
              mapped[i].reset();
              if (std::all_of(block_rows, block_rows + steps,
                              [](const activity::DayBits& r) {
                                return r == activity::DayBits{};
                              })) {
                continue;
              }
              mapped[i].emplace(map(plan, matrix(i), block_hits(i)));
            }
          });
      for (std::size_t i = 0; i < n; ++i) {
        if (!mapped[i]) continue;
        consume(world_.blocks()[order_[first + i]], matrix(i), block_hits(i),
                *mapped[i]);
      }
    }
  }

  // The map-less form: fn(plan, m, hits) serially, in key order.
  template <typename Fn>
  void ForEachBlockHits(Fn&& fn) const {
    ForEachBlockHits(
        [](const sim::BlockPlan&, const activity::ActivityMatrix&,
           std::span<const std::uint32_t>) { return true; },
        [&fn](const sim::BlockPlan& plan, const activity::ActivityMatrix& m,
              std::span<const std::uint32_t> hits,
              bool&) { fn(plan, m, hits); });
  }

  // Total hits per step across all blocks (one streaming pass).
  std::vector<std::uint64_t> TotalHitsPerStep() const;

 private:
  const sim::World& world_;
  sim::StepSpec spec_;
  std::vector<std::uint32_t> order_;  // block indices sorted by BlockKey
};

}  // namespace ipscope::cdn
