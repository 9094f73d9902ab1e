#include "activity/churn.h"

#include <algorithm>
#include <unordered_map>

#include "obs/timer.h"
#include "par/pool.h"
#include "stats/quantile.h"

namespace ipscope::activity {

namespace {

// Blocks per parallel shard (see store.cc rationale).
constexpr std::size_t kBlockGrain = 16;

// One window's union for a given window size; the trailing partial window
// is discarded (see timeutil::PartitionWindows rationale). Consumers
// stream consecutive windows through this instead of materializing a
// per-block union vector — the churn reductions only ever compare a window
// against its predecessor (or window 0), so no allocation is needed in the
// per-block hot loop.
DayBits WindowUnion(const ActivityMatrix& m, int window_days, int w) {
  return m.UnionOver(w * window_days, (w + 1) * window_days);
}

}  // namespace

MinMedianMax Summarize(std::vector<double> values) {
  MinMedianMax out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.min = values.front();
  out.max = values.back();
  out.median = stats::QuantileSorted(values, 0.5);
  return out;
}

namespace {

// Windows with at least one covered day; an uncovered window contributes
// no evidence and must not read as "everything deactivated".
std::vector<bool> CoveredWindows(const ActivityStore& store, int window_days,
                                 int num_windows) {
  std::vector<bool> covered(static_cast<std::size_t>(num_windows));
  for (int w = 0; w < num_windows; ++w) {
    covered[static_cast<std::size_t>(w)] =
        store.CoveredDaysIn(w * window_days, (w + 1) * window_days) > 0;
  }
  return covered;
}

// Per-shard accumulator for window-pair churn sums. All fields are integer
// event counts, merged elementwise in shard order — bit-identical for any
// thread count.
struct PairCountsAcc {
  WindowPairCounts sums;
  std::uint64_t blocks = 0;

  explicit PairCountsAcc(std::size_t pairs = 0) : sums(pairs) {}

  void Merge(PairCountsAcc&& other) {
    for (std::size_t p = 0; p < sums.up.size(); ++p) {
      sums.up[p] += other.sums.up[p];
      sums.down[p] += other.sums.down[p];
      sums.size_prev[p] += other.sums.size_prev[p];
      sums.size_next[p] += other.sums.size_next[p];
    }
    blocks += other.blocks;
  }

  void Consume(const ActivityMatrix& m, int window_days, int num_windows) {
    ++blocks;
    DayBits w0 = WindowUnion(m, window_days, 0);
    for (int w = 1; w < num_windows; ++w) {
      const DayBits w1 = WindowUnion(m, window_days, w);
      const auto p = static_cast<std::size_t>(w - 1);
      sums.up[p] += static_cast<std::uint64_t>(PopCount(AndNotBits(w1, w0)));
      sums.down[p] +=
          static_cast<std::uint64_t>(PopCount(AndNotBits(w0, w1)));
      sums.size_prev[p] += static_cast<std::uint64_t>(PopCount(w0));
      sums.size_next[p] += static_cast<std::uint64_t>(PopCount(w1));
      w0 = w1;
    }
  }
};

}  // namespace

WindowChurnSeries ChurnSeriesFromCounts(const ActivityStore& store,
                                        int window_days,
                                        const WindowPairCounts& counts) {
  WindowChurnSeries series;
  series.window_days = window_days;
  const std::size_t pairs = counts.up.size();
  if (pairs == 0) return series;
  std::vector<bool> window_ok =
      CoveredWindows(store, window_days, static_cast<int>(pairs) + 1);
  series.pairs.reserve(pairs);
  series.up_pct.reserve(pairs);
  series.down_pct.reserve(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    if (!window_ok[p] || !window_ok[p + 1]) continue;  // data gap
    series.pairs.push_back(static_cast<int>(p));
    series.up_pct.push_back(
        counts.size_next[p]
            ? 100.0 * static_cast<double>(counts.up[p]) /
                  static_cast<double>(counts.size_next[p])
            : 0.0);
    series.down_pct.push_back(
        counts.size_prev[p]
            ? 100.0 * static_cast<double>(counts.down[p]) /
                  static_cast<double>(counts.size_prev[p])
            : 0.0);
  }
  series.up = Summarize(series.up_pct);
  series.down = Summarize(series.down_pct);
  return series;
}

WindowChurnSeries ChurnAnalyzer::Churn(int window_days) const {
  obs::Span span{"activity.churn.compute_seconds"};
  int num_windows = store_.days() / window_days;
  if (num_windows < 2) {
    return ChurnSeriesFromCounts(store_, window_days, WindowPairCounts{});
  }
  PairCountsAcc acc = par::ParallelReduce(
      std::size_t{0}, store_.BlockCount(),
      PairCountsAcc{static_cast<std::size_t>(num_windows - 1)},
      [&](PairCountsAcc& acc, std::size_t first, std::size_t last) {
        store_.ForEachShard(first, last,
                            [&](net::BlockKey, const ActivityMatrix& m) {
                              acc.Consume(m, window_days, num_windows);
                            });
      },
      [](PairCountsAcc& acc, PairCountsAcc&& part) {
        acc.Merge(std::move(part));
      },
      kBlockGrain);
  WindowChurnSeries series =
      ChurnSeriesFromCounts(store_, window_days, acc.sums);

  auto& registry = obs::GlobalRegistry();
  registry.GetCounter("activity.churn.runs").Add(1);
  registry.GetCounter("activity.churn.windows_processed")
      .Add(static_cast<std::uint64_t>(num_windows));
  registry.GetCounter("activity.churn.blocks_processed").Add(acc.blocks);
  return series;
}

namespace {

// Per-shard accumulator for the daily event series (all integer sums).
struct DailyAcc {
  std::vector<std::int64_t> active, up, down;

  explicit DailyAcc(std::size_t days = 0)
      : active(days, 0), up(days > 0 ? days - 1 : 0, 0),
        down(days > 0 ? days - 1 : 0, 0) {}

  void Merge(DailyAcc&& other) {
    for (std::size_t d = 0; d < active.size(); ++d) active[d] += other.active[d];
    for (std::size_t d = 0; d < up.size(); ++d) {
      up[d] += other.up[d];
      down[d] += other.down[d];
    }
  }
};

}  // namespace

DailyEventSeries ChurnAnalyzer::DailyEvents() const {
  DailyEventSeries series;
  int days = store_.days();
  DailyAcc sums = par::ParallelReduce(
      std::size_t{0}, store_.BlockCount(),
      DailyAcc{static_cast<std::size_t>(days)},
      [&](DailyAcc& acc, std::size_t first, std::size_t last) {
        store_.ForEachShard(
            first, last, [&](net::BlockKey, const ActivityMatrix& m) {
              for (int d = 0; d < days; ++d) {
                acc.active[static_cast<std::size_t>(d)] += m.ActiveOnDay(d);
              }
              for (int d = 0; d + 1 < days; ++d) {
                const DayBits& a = m.Row(d);
                const DayBits& b = m.Row(d + 1);
                acc.up[static_cast<std::size_t>(d)] +=
                    PopCount(AndNotBits(b, a));
                acc.down[static_cast<std::size_t>(d)] +=
                    PopCount(AndNotBits(a, b));
              }
            });
      },
      [](DailyAcc& acc, DailyAcc&& part) { acc.Merge(std::move(part)); },
      kBlockGrain);
  series.active = std::move(sums.active);
  series.up = std::move(sums.up);
  series.down = std::move(sums.down);
  // Overwrite, rather than skip, so the block loop above stays branch-free:
  // gaps are rare, days are few. The -1 "no data" sentinel contract is
  // enforced here, after the merge, so it holds for any thread count.
  for (int d = 0; d < days; ++d) {
    if (!store_.DayCovered(d)) {
      series.active[static_cast<std::size_t>(d)] = -1;
      if (d > 0) series.up[static_cast<std::size_t>(d - 1)] = -1;
      if (d + 1 < days) series.up[static_cast<std::size_t>(d)] = -1;
      if (d > 0) series.down[static_cast<std::size_t>(d - 1)] = -1;
      if (d + 1 < days) series.down[static_cast<std::size_t>(d)] = -1;
    }
  }
  return series;
}

namespace {

// Per-shard accumulator for appear/disappear-vs-first sums.
struct VersusAcc {
  std::vector<std::uint64_t> appear, disappear, active;

  explicit VersusAcc(std::size_t windows = 0)
      : appear(windows, 0), disappear(windows, 0), active(windows, 0) {}

  void Merge(VersusAcc&& other) {
    for (std::size_t w = 0; w < appear.size(); ++w) {
      appear[w] += other.appear[w];
      disappear[w] += other.disappear[w];
      active[w] += other.active[w];
    }
  }
};

}  // namespace

VersusFirstSeries ChurnAnalyzer::VersusFirst(int window_days) const {
  VersusFirstSeries series;
  series.window_days = window_days;
  int num_windows = store_.days() / window_days;
  if (num_windows < 1) return series;
  series.window_covered = CoveredWindows(store_, window_days, num_windows);
  const std::vector<bool>& covered = series.window_covered;

  VersusAcc sums = par::ParallelReduce(
      std::size_t{0}, store_.BlockCount(),
      VersusAcc{static_cast<std::size_t>(num_windows)},
      [&](VersusAcc& acc, std::size_t first, std::size_t last) {
        store_.ForEachShard(
            first, last, [&](net::BlockKey, const ActivityMatrix& m) {
              const DayBits w0 = WindowUnion(m, window_days, 0);
              for (int w = 0; w < num_windows; ++w) {
                auto wiu = static_cast<std::size_t>(w);
                if (!covered[wiu]) continue;  // no data, not "empty"
                const DayBits wi = WindowUnion(m, window_days, w);
                acc.appear[wiu] +=
                    static_cast<std::uint64_t>(PopCount(AndNotBits(wi, w0)));
                acc.disappear[wiu] +=
                    static_cast<std::uint64_t>(PopCount(AndNotBits(w0, wi)));
                acc.active[wiu] +=
                    static_cast<std::uint64_t>(PopCount(wi));
              }
            });
      },
      [](VersusAcc& acc, VersusAcc&& part) { acc.Merge(std::move(part)); },
      kBlockGrain);
  series.appear = std::move(sums.appear);
  series.disappear = std::move(sums.disappear);
  series.active = std::move(sums.active);
  return series;
}

std::vector<GroupChurn> ChurnAnalyzer::PerGroupChurn(
    int window_days,
    const std::function<std::uint32_t(net::BlockKey)>& group_of,
    std::uint64_t min_active_ips) const {
  int num_windows = store_.days() / window_days;
  if (num_windows < 2) return {};
  int pairs = num_windows - 1;
  std::vector<bool> window_ok =
      CoveredWindows(store_, window_days, num_windows);

  struct Acc {
    std::vector<std::uint64_t> up, down, size_prev, size_next;
    std::uint64_t total_active = 0;
  };
  // Per-shard group maps merged in shard order. Merging is elementwise
  // integer addition, so the final map contents (and the key-sorted output
  // below) are independent of sharding and thread count.
  using GroupMap = std::unordered_map<std::uint32_t, Acc>;
  GroupMap groups = par::ParallelReduce(
      std::size_t{0}, store_.BlockCount(), GroupMap{},
      [&](GroupMap& local, std::size_t first, std::size_t last) {
        store_.ForEachShard(
            first, last, [&](net::BlockKey key, const ActivityMatrix& m) {
              Acc& acc = local[group_of(key)];
              if (acc.up.empty()) {
                acc.up.assign(static_cast<std::size_t>(pairs), 0);
                acc.down.assign(static_cast<std::size_t>(pairs), 0);
                acc.size_prev.assign(static_cast<std::size_t>(pairs), 0);
                acc.size_next.assign(static_cast<std::size_t>(pairs), 0);
              }
              acc.total_active += static_cast<std::uint64_t>(
                  PopCount(m.UnionOver(0, store_.days())));
              DayBits prev = WindowUnion(m, window_days, 0);
              for (int p = 0; p < pairs; ++p) {
                auto pi = static_cast<std::size_t>(p);
                const DayBits w0 = prev;
                const DayBits w1 = WindowUnion(m, window_days, p + 1);
                prev = w1;
                acc.up[pi] +=
                    static_cast<std::uint64_t>(PopCount(AndNotBits(w1, w0)));
                acc.down[pi] +=
                    static_cast<std::uint64_t>(PopCount(AndNotBits(w0, w1)));
                acc.size_prev[pi] +=
                    static_cast<std::uint64_t>(PopCount(w0));
                acc.size_next[pi] +=
                    static_cast<std::uint64_t>(PopCount(w1));
              }
            });
      },
      [](GroupMap& acc, GroupMap&& part) {
        // lint: ordered(merge is elementwise integer addition keyed by
        // group, so the final map contents are identical for any visit
        // order; only the key-sorted vector below is observable)
        for (auto& [group, src] : part) {
          auto [it, inserted] = acc.try_emplace(group, std::move(src));
          if (inserted) continue;
          // try_emplace left `src` untouched when the key already existed.
          Acc& dst = it->second;
          for (std::size_t p = 0; p < dst.up.size(); ++p) {
            dst.up[p] += src.up[p];
            dst.down[p] += src.down[p];
            dst.size_prev[p] += src.size_prev[p];
            dst.size_next[p] += src.size_next[p];
          }
          dst.total_active += src.total_active;
        }
      },
      kBlockGrain);

  std::vector<GroupChurn> out;
  // lint: ordered(each group row is computed independently and out is
  // sorted by group key before returning, so visit order cannot leak)
  for (auto& [group, acc] : groups) {
    if (acc.total_active < min_active_ips) continue;
    std::vector<double> up_pcts, down_pcts;
    for (int p = 0; p < pairs; ++p) {
      auto pi = static_cast<std::size_t>(p);
      if (!window_ok[pi] || !window_ok[pi + 1]) continue;  // data gap
      if (acc.size_next[pi] > 0) {
        up_pcts.push_back(100.0 * static_cast<double>(acc.up[pi]) /
                          static_cast<double>(acc.size_next[pi]));
      }
      if (acc.size_prev[pi] > 0) {
        down_pcts.push_back(100.0 * static_cast<double>(acc.down[pi]) /
                            static_cast<double>(acc.size_prev[pi]));
      }
    }
    // Coverage gaps can invalidate every window pair: such a group carries
    // no churn evidence at all and is omitted rather than reported with
    // made-up medians (stats::Median of an empty sample is NaN by
    // contract). A group with evidence on only one side had zero observable
    // events on the other — that side's window sets were empty, so 0% is
    // the factual value, chosen explicitly here rather than inherited from
    // a sentinel.
    if (up_pcts.empty() && down_pcts.empty()) continue;
    GroupChurn gc;
    gc.group = group;
    gc.total_active_ips = acc.total_active;
    gc.median_up_pct = up_pcts.empty() ? 0.0 : stats::Median(std::move(up_pcts));
    gc.median_down_pct =
        down_pcts.empty() ? 0.0 : stats::Median(std::move(down_pcts));
    out.push_back(gc);
  }
  std::sort(out.begin(), out.end(),
            [](const GroupChurn& a, const GroupChurn& b) {
              return a.group < b.group;
            });
  return out;
}

}  // namespace ipscope::activity
