#include "activity/change.h"

#include <cmath>

#include "par/pool.h"

namespace ipscope::activity {

namespace {

// Blocks per parallel shard (see store.cc rationale). Per-block change
// detection is pure in the block's own matrix, and partial output vectors
// concatenate in shard order, so results are bit-identical to the serial
// scan for any thread count.
constexpr std::size_t kBlockGrain = 16;

// Covered-day STU of one month window: active (address, day) pairs over
// 256 x covered days. Uncovered days have all-zero rows, so the numerator
// needs no masking; only the denominator must shrink, otherwise a
// collector outage reads as an activity drop.
double MonthStu(const ActivityStore& store, const ActivityMatrix& m,
                int day_first, int day_last, double hosts) {
  int covered = store.CoveredDaysIn(day_first, day_last);
  if (covered == 0) return 0.0;
  return static_cast<double>(m.SpatioTemporalActivity(day_first, day_last)) /
         (hosts * covered);
}

}  // namespace

std::vector<BlockStuChange> MaxMonthlyStuChange(const ActivityStore& store,
                                                int month_days) {
  std::vector<BlockStuChange> out;
  int months = store.days() / month_days;
  if (months < 2) return out;
  // Months without a single covered day carry no signal: deltas are taken
  // between consecutive *observed* months, bridging the gap.
  std::vector<int> observed;
  for (int mo = 0; mo < months; ++mo) {
    if (store.CoveredDaysIn(mo * month_days, (mo + 1) * month_days) > 0) {
      observed.push_back(mo);
    }
  }
  if (observed.size() < 2) return out;
  return par::ParallelReduce(
      std::size_t{0}, store.BlockCount(), std::vector<BlockStuChange>{},
      [&](std::vector<BlockStuChange>& acc, std::size_t first,
          std::size_t last) {
        store.ForEachShard(
            first, last, [&](net::BlockKey key, const ActivityMatrix& m) {
              if (m.FillingDegree(0, store.days()) == 0) return;
              double prev = MonthStu(store, m, observed[0] * month_days,
                                     (observed[0] + 1) * month_days, 256.0);
              double best = 0.0;
              for (std::size_t i = 1; i < observed.size(); ++i) {
                double cur = MonthStu(store, m, observed[i] * month_days,
                                      (observed[i] + 1) * month_days, 256.0);
                double delta = cur - prev;
                if (std::abs(delta) > std::abs(best)) best = delta;
                prev = cur;
              }
              acc.push_back(BlockStuChange{key, best});
            });
      },
      [](std::vector<BlockStuChange>& acc, std::vector<BlockStuChange>&& p) {
        acc.insert(acc.end(), p.begin(), p.end());
      },
      kBlockGrain);
}

namespace {

// Max-magnitude signed month-to-month change of the mean activity of each
// host half (computed from 128-host day slices), both halves in one sweep
// over the month's rows. Follows the same covered-day denominator and
// observed-month bridging as MaxMonthlyStuChange.
struct HalfDeltas {
  double lower = 0.0;
  double upper = 0.0;
};

HalfDeltas HalfMaxDeltas(const ActivityStore& store, const ActivityMatrix& m,
                         const std::vector<int>& observed, int month_days) {
  auto half_stus = [&](int first, int last) {
    HalfDeltas stu;
    int covered = store.CoveredDaysIn(first, last);
    if (covered == 0) return stu;
    std::int64_t lower = 0;
    std::int64_t upper = 0;
    for (int d = first; d < last; ++d) {
      const DayBits& row = m.Row(d);
      lower += PopCount(DayBits{row[0], row[1], 0, 0});
      upper += PopCount(DayBits{0, 0, row[2], row[3]});
    }
    stu.lower = static_cast<double>(lower) / (128.0 * covered);
    stu.upper = static_cast<double>(upper) / (128.0 * covered);
    return stu;
  };
  HalfDeltas prev = half_stus(observed[0] * month_days,
                              (observed[0] + 1) * month_days);
  HalfDeltas best;
  for (std::size_t i = 1; i < observed.size(); ++i) {
    HalfDeltas cur = half_stus(observed[i] * month_days,
                               (observed[i] + 1) * month_days);
    if (std::abs(cur.lower - prev.lower) > std::abs(best.lower)) {
      best.lower = cur.lower - prev.lower;
    }
    if (std::abs(cur.upper - prev.upper) > std::abs(best.upper)) {
      best.upper = cur.upper - prev.upper;
    }
    prev = cur;
  }
  return best;
}

}  // namespace

std::vector<BlockSpatialChange> SpatialStuChanges(const ActivityStore& store,
                                                  int month_days) {
  std::vector<BlockSpatialChange> out;
  int months = store.days() / month_days;
  if (months < 2) return out;
  std::vector<int> observed;
  for (int mo = 0; mo < months; ++mo) {
    if (store.CoveredDaysIn(mo * month_days, (mo + 1) * month_days) > 0) {
      observed.push_back(mo);
    }
  }
  if (observed.size() < 2) return out;
  return par::ParallelReduce(
      std::size_t{0}, store.BlockCount(), std::vector<BlockSpatialChange>{},
      [&](std::vector<BlockSpatialChange>& acc, std::size_t first,
          std::size_t last) {
        store.ForEachShard(
            first, last, [&](net::BlockKey key, const ActivityMatrix& m) {
              if (m.FillingDegree(0, store.days()) == 0) return;
              HalfDeltas deltas = HalfMaxDeltas(store, m, observed, month_days);
              acc.push_back(
                  BlockSpatialChange{key, deltas.lower, deltas.upper});
            });
      },
      [](std::vector<BlockSpatialChange>& acc,
         std::vector<BlockSpatialChange>&& p) {
        acc.insert(acc.end(), p.begin(), p.end());
      },
      kBlockGrain);
}

double MajorChangeFraction(const std::vector<BlockStuChange>& changes,
                           double threshold) {
  if (changes.empty()) return 0.0;
  std::uint64_t major = 0;
  for (const BlockStuChange& c : changes) {
    if (c.IsMajor(threshold)) ++major;
  }
  return static_cast<double>(major) / static_cast<double>(changes.size());
}

}  // namespace ipscope::activity
