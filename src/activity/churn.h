// Address churn: up/down events across aggregation windows (Section 4).
//
// Definitions from the paper:
//  * The observation period is partitioned into non-overlapping windows of a
//    given size; each window's active set is the union of its days.
//  * An address has an "up" event between windows i and i+1 if it is absent
//    from window i and present in window i+1; a "down" event if present in
//    i and absent from i+1.
//  * Up-event percentage for the pair = 100 * |W_{i+1} \ W_i| / |W_{i+1}|;
//    down-event percentage = 100 * |W_i \ W_{i+1}| / |W_i|.
//
// Data gaps (ActivityStore coverage mask): a day the platform never
// observed carries no evidence of deactivation, so — mirroring the paper's
// exclusion of unreliable collection periods — windows without a single
// covered day are excluded from event computation entirely. A window pair
// is reported only when both windows contain at least one covered day;
// WindowChurnSeries::pairs records which pairs survived. On fully covered
// datasets the output is identical to the pre-coverage behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "activity/store.h"

namespace ipscope::activity {

struct MinMedianMax {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

// Churn between every consecutive pair of windows of one size (Fig 4b).
struct WindowChurnSeries {
  int window_days = 0;
  // pairs[i] is the window index w of the i-th reported pair (w -> w+1).
  // Equal to 0..n-2 on fully covered datasets; pairs touching a window
  // with no covered day are omitted.
  std::vector<int> pairs;
  std::vector<double> up_pct;    // one per reported pair
  std::vector<double> down_pct;  // one per reported pair
  MinMedianMax up;
  MinMedianMax down;
};

// Address totals over all blocks for the window pairs of one window size;
// entry p compares window p with window p + 1.
struct WindowPairCounts {
  std::vector<std::uint64_t> up, down, size_prev, size_next;

  explicit WindowPairCounts(std::size_t pairs = 0)
      : up(pairs, 0), down(pairs, 0), size_prev(pairs, 0),
        size_next(pairs, 0) {}
};

// The churn series of `store` for one window size from its pair totals:
// pairs touching a window with no covered day are dropped, the rest become
// up/down percentages. ChurnAnalyzer::Churn is this over its own sums.
WindowChurnSeries ChurnSeriesFromCounts(const ActivityStore& store,
                                        int window_days,
                                        const WindowPairCounts& counts);

// Absolute daily event counts (Fig 4a): up[d] / down[d] are the number of
// addresses with an up/down event between day d and day d+1. Entries
// touching an uncovered day are -1 ("no data"), never 0.
struct DailyEventSeries {
  std::vector<std::int64_t> active;  // per day; -1 where the day is uncovered
  std::vector<std::int64_t> up;      // per day pair (size days-1); -1 where
                                     // either endpoint day is uncovered
  std::vector<std::int64_t> down;    // per day pair; -1 as above
};

// Long-term appear/disappear vs the first window (Fig 4c): appear[i] is the
// number of addresses active in window i but not in window 0; disappear[i]
// the number active in window 0 but not in window i.
struct VersusFirstSeries {
  int window_days = 0;
  std::vector<std::uint64_t> appear;
  std::vector<std::uint64_t> disappear;
  std::vector<std::uint64_t> active;  // |W_i|
  // False where the window has no covered day; such windows report
  // appear/disappear/active as 0 (meaning "no data", not "empty").
  std::vector<bool> window_covered;
};

// Per-group churn (Fig 5a; groups are ASes in the paper). Only groups with
// at least `min_active_ips` distinct active addresses over the whole period
// are reported, mirroring the paper's >1000-IP filter. On gapped stores a
// group whose every window pair was excluded is omitted entirely (no
// churn evidence at all); a group observable on only one side reports 0%
// for the other (its windows there were empty — zero observable events).
struct GroupChurn {
  std::uint32_t group = 0;
  std::uint64_t total_active_ips = 0;
  double median_up_pct = 0.0;
  double median_down_pct = 0.0;
};

class ChurnAnalyzer {
 public:
  explicit ChurnAnalyzer(const ActivityStore& store) : store_(store) {}

  WindowChurnSeries Churn(int window_days) const;
  DailyEventSeries DailyEvents() const;
  VersusFirstSeries VersusFirst(int window_days) const;

  // `group_of` maps a /24 block to a group id (e.g. its origin AS). Blocks
  // are the paper's assignment granularity proxy: every address in a /24
  // belongs to one AS in both the real and the simulated routing system.
  std::vector<GroupChurn> PerGroupChurn(
      int window_days,
      const std::function<std::uint32_t(net::BlockKey)>& group_of,
      std::uint64_t min_active_ips = 1000) const;

 private:
  const ActivityStore& store_;
};

MinMedianMax Summarize(std::vector<double> values);

}  // namespace ipscope::activity
