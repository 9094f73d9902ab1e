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
#include <array>
#include <cstdint>
#include <exception>
#include <mutex>
#include <numeric>
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

// The per-step hit totals (256 hosts summed) of every CDN-visible block of
// one observatory, in BlockKey order: the blocks, and the order, of its
// BuildStore. Built by Observatory::BuildHitTable; read-only afterwards.
struct BlockHitTable {
  int steps = 0;
  std::vector<const sim::BlockPlan*> plans;  // one per row
  std::vector<std::uint64_t> hits;           // hits[row * steps + step]

  // Hits of `row` over steps [first_step, last_step), clamped to the
  // period [0, steps).
  std::uint64_t Sum(std::size_t row, int first_step, int last_step) const {
    const std::uint64_t* r =
        hits.data() + row * static_cast<std::size_t>(steps);
    const int first = std::clamp(first_step, 0, steps);
    return std::accumulate(r + first, r + std::clamp(last_step, first, steps),
                           std::uint64_t{0});
  }
};

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
  // once per visible block; `consume` then receives that block's map
  // result:
  //
  //   map(const sim::BlockPlan& plan, const activity::ActivityMatrix& m,
  //       std::span<const std::uint32_t> hits) -> R
  //   consume(const sim::BlockPlan& plan, const activity::ActivityMatrix& m,
  //           std::span<const std::uint32_t> hits, R& mapped)
  //
  // The batch buffers are double-buffered: consuming batch k is chunk 0 of
  // the pool region that generates and maps batch k + 1, so the pool keeps
  // generating while consume runs. consume may therefore run on any pool
  // thread, but it is called once per visible block, strictly in key order,
  // one call at a time, so it sees exactly the call sequence of a serial
  // per-block loop for any pool size. map runs concurrently with other maps
  // and with consume, so it may only read shared state. An exception from
  // generation or map reaches the caller after every earlier batch was
  // consumed and before any block of its own batch is; an exception from
  // consume reaches the caller before any later block is consumed.
  template <typename Map, typename Consume>
  void ForEachBlockHits(Map&& map, Consume&& consume) const {
    using Mapped = std::invoke_result_t<Map&, const sim::BlockPlan&,
                                        const activity::ActivityMatrix&,
                                        std::span<const std::uint32_t>>;
    const auto steps = static_cast<std::size_t>(spec_.steps);
    const std::size_t cells = steps * 256;
    const std::size_t batch = std::min(kHitsBatchBlocks, order_.size());
    if (batch == 0) return;
    const std::size_t batches = (order_.size() + batch - 1) / batch;
    struct Buffer {
      std::size_t first = 0;  // position in order_ of the batch's block 0
      std::size_t n = 0;      // blocks in the batch
      std::vector<activity::DayBits> rows;
      std::vector<std::uint32_t> hits;
      std::vector<std::optional<Mapped>> mapped;
    };
    std::array<Buffer, 2> buffers;
    auto matrix = [&](Buffer& b, std::size_t i) {
      return activity::ActivityMatrix{spec_.steps, b.rows.data() + i * steps};
    };
    auto block_hits = [&](const Buffer& b, std::size_t i) {
      return std::span<const std::uint32_t>{b.hits.data() + i * cells, cells};
    };
    // Region k generates batch k (k < batches) and consumes batch k - 1
    // (k > 0). Chunk bodies catch their own exceptions, so a failing
    // generation chunk cannot cancel the consume chunk; both are rethrown
    // after the region, consume's first since its blocks come earlier.
    for (std::size_t k = 0; k <= batches; ++k) {
      Buffer* gen = k < batches ? &buffers[k % 2] : nullptr;
      Buffer* eat = k > 0 ? &buffers[(k - 1) % 2] : nullptr;
      if (gen != nullptr) {
        gen->first = k * batch;
        gen->n = std::min(batch, order_.size() - gen->first);
        gen->rows.resize(batch * steps);
        gen->hits.resize(batch * cells);
        gen->mapped.resize(batch);
      }
      std::exception_ptr consume_error;
      std::mutex gen_mu;             // held by chunks setting gen_error
      std::exception_ptr gen_error;  // first generation or map failure
      par::GlobalPool().RunChunks(
          1 + (gen != nullptr ? gen->n : 0), [&](std::size_t c) {
            if (c == 0) {
              if (eat == nullptr) return;
              try {
                for (std::size_t i = 0; i < eat->n; ++i) {
                  if (!eat->mapped[i]) continue;
                  consume(world_.blocks()[order_[eat->first + i]],
                          matrix(*eat, i), block_hits(*eat, i),
                          *eat->mapped[i]);
                }
              } catch (...) {
                consume_error = std::current_exception();
              }
              return;
            }
            const std::size_t i = c - 1;
            try {
              const sim::BlockPlan& plan =
                  world_.blocks()[order_[gen->first + i]];
              activity::DayBits* block_rows = gen->rows.data() + i * steps;
              sim::GenerateBlock(plan, spec_, block_rows,
                                 gen->hits.data() + i * cells);
              gen->mapped[i].reset();
              if (std::any_of(block_rows, block_rows + steps,
                              [](const activity::DayBits& r) {
                                return r != activity::DayBits{};
                              })) {
                gen->mapped[i].emplace(
                    map(plan, matrix(*gen, i), block_hits(*gen, i)));
              }
            } catch (...) {
              std::lock_guard lock(gen_mu);
              if (!gen_error) gen_error = std::current_exception();
            }
          });
      if (consume_error) std::rethrow_exception(consume_error);
      if (gen_error) std::rethrow_exception(gen_error);
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

  // The per-step hit totals of every visible block, from one
  // ForEachBlockHits pass (the host sums run in its pool-side map).
  BlockHitTable BuildHitTable() const;

 private:
  const sim::World& world_;
  sim::StepSpec spec_;
  std::vector<std::uint32_t> order_;  // block indices sorted by BlockKey
};

}  // namespace ipscope::cdn
