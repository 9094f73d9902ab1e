#include "cdn/observatory.h"

#include <algorithm>
#include <memory>

#include "obs/timer.h"
#include "par/pool.h"

namespace ipscope::cdn {

namespace {
constexpr std::int32_t kDailyStartDay = 228;  // Aug 17 within 2015
}

Observatory::Observatory(const sim::World& world, sim::StepSpec spec)
    : world_(world), spec_(spec) {
  spec_.world_seed = world.config().seed;
  spec_.gateway_growth = world.config().gateway_traffic_growth;
  order_.resize(world.blocks().size());
  for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return net::BlockKeyOf(world.blocks()[a].block) <
                     net::BlockKeyOf(world.blocks()[b].block);
            });
}

Observatory Observatory::Daily(const sim::World& world) {
  sim::StepSpec spec;
  spec.start_day = kDailyStartDay;
  spec.step_days = 1;
  spec.steps = timeutil::kDailyPeriodDays;
  return Observatory{world, spec};
}

Observatory Observatory::Weekly(const sim::World& world) {
  sim::StepSpec spec;
  spec.start_day = 0;
  spec.step_days = 7;
  spec.steps = timeutil::kWeeklyPeriodWeeks;
  return Observatory{world, spec};
}

activity::ActivityStore Observatory::BuildStore(int threads) const {
  obs::Span span{"cdn.observatory.build_seconds"};
  // Generate each block's matrix independently (concurrently on the shared
  // pool) straight into one contiguous day-major-per-block arena — a single
  // allocation for the whole build instead of one per block, left
  // uninitialized because GenerateBlock writes every row of its block,
  // empty blocks included, so no thread zero-fills it first. Results are
  // bit-identical for any thread count: blocks never share generator state
  // and each writes only its own arena slice. Block cost varies wildly by
  // policy kind (a CGN block fills 256 hosts daily, a sparse static block a
  // few), so the pool's dynamic chunk stealing does the load balancing.
  const auto steps = static_cast<std::size_t>(spec_.steps);
  const std::size_t arena_rows = order_.size() * steps;
  auto arena = std::make_unique_for_overwrite<activity::DayBits[]>(arena_rows);
  std::vector<char> non_empty(order_.size(), 0);

  // Non-empty row counts fold through the reduce's per-chunk accumulators —
  // summed after the join, so the count is exact for any decomposition.
  obs::Span generate_span{"cdn.observatory.build.generate_seconds"};
  std::uint64_t rows_emitted = par::ParallelReduce(
      std::size_t{0}, order_.size(), std::uint64_t{0},
      [&](std::uint64_t& rows, std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          const sim::BlockPlan& plan = world_.blocks()[order_[i]];
          activity::DayBits* block_rows = arena.get() + i * steps;
          sim::GenerateBlock(plan, spec_, block_rows);
          bool any = false;
          for (std::size_t s = 0; s < steps; ++s) {
            const activity::DayBits& bits = block_rows[s];
            if ((bits[0] | bits[1] | bits[2] | bits[3]) == 0) continue;
            any = true;
            ++rows;
          }
          non_empty[i] = any ? 1 : 0;
        }
      },
      [](std::uint64_t& acc, std::uint64_t part) { acc += part; },
      /*grain=*/4, /*max_threads=*/threads);
  generate_span.Stop();

  // Insert = arena handoff: collect the non-empty keys (already in
  // ascending order) with their arena offsets and adopt the buffer —
  // O(blocks) pointer work, no row copies. Empty blocks leave their slice
  // unreferenced; see DESIGN.md §4.13 for the memory accounting.
  obs::Span insert_span{"cdn.observatory.build.insert_seconds"};
  activity::ActivityStore store{spec_.steps};
  std::uint64_t blocks_emitted = 0;
  for (char flag : non_empty) blocks_emitted += flag != 0 ? 1u : 0u;
  std::vector<net::BlockKey> keys;
  std::vector<std::size_t> offsets;
  keys.reserve(blocks_emitted);
  offsets.reserve(blocks_emitted);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (!non_empty[i]) continue;
    keys.push_back(net::BlockKeyOf(world_.blocks()[order_[i]].block));
    offsets.push_back(i * steps);
  }
  store.AdoptArena(std::move(keys), std::move(arena), arena_rows, offsets);
  insert_span.Stop();

  std::uint64_t bytes_emitted = rows_emitted * sizeof(activity::DayBits);
  auto& registry = obs::GlobalRegistry();
  registry.GetCounter("cdn.observatory.builds").Add(1);
  registry.GetCounter("cdn.observatory.blocks_emitted").Add(blocks_emitted);
  registry.GetCounter("cdn.observatory.rows_emitted").Add(rows_emitted);
  registry.GetCounter("cdn.observatory.bytes_emitted").Add(bytes_emitted);
  // Throughput of this build (not cumulative): rows and payload bytes per
  // wall second, the number ROADMAP tracks for the store_build bottleneck.
  double elapsed = span.ElapsedSeconds();
  if (elapsed > 0) {
    registry.GetGauge("cdn.observatory.build.rows_per_s")
        .Set(static_cast<double>(rows_emitted) / elapsed);
    registry.GetGauge("cdn.observatory.build.bytes_per_s")
        .Set(static_cast<double>(bytes_emitted) / elapsed);
  }
  return store;
}

BlockHitTable Observatory::BuildHitTable() const {
  BlockHitTable table{spec_.steps, {}, {}};
  ForEachBlockHits(
      [](const sim::BlockPlan&, const activity::ActivityMatrix& m,
         std::span<const std::uint32_t> hits) {
        std::vector<std::uint64_t> sums(static_cast<std::size_t>(m.days()));
        for (std::size_t i = 0; i < hits.size(); ++i) sums[i / 256] += hits[i];
        return sums;
      },
      [&table](const sim::BlockPlan& plan, const activity::ActivityMatrix&,
               std::span<const std::uint32_t>,
               std::vector<std::uint64_t>& sums) {
        table.plans.push_back(&plan);
        table.hits.insert(table.hits.end(), sums.begin(), sums.end());
      });
  return table;
}

}  // namespace ipscope::cdn
