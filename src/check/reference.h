// check::reference — independent oracle implementations of the core metrics.
//
// Every function here is a deliberately naive, serial, O(n·d) re-derivation
// of a paper metric, written directly from the formulas in PAPER.md /
// DESIGN.md and sharing *no computation code* with src/activity/ or
// src/analysis/: no DayBits popcount helpers, no UnionOver, no par::Pool,
// no stats:: quantiles. The only shared surface is the data itself —
// ActivityStore/ActivityMatrix accessors (`Get`, `days`, `DayCovered`,
// `ForEach`) — because both sides must read the same observations.
//
// The point is differential testing ("Lost in Space"-style cross-
// validation): the optimized pipeline (bit-manipulating, parallel,
// merge-order-sensitive) and these oracles must agree exactly on every
// world, seed, fault schedule, and thread count. check::Diff performs the
// comparison; `ipscope_cli check` drives the sweep.
//
// Keep these slow and obvious. Any optimization applied here defeats the
// purpose — the reference must stay near-transcriptions of the formulas:
//   * daily active count:   |{(h) : active(d, h)}| per day d
//   * window active set:    W_i = union of day sets over the window
//   * up events (i→i+1):    |W_{i+1} \ W_i|, up% = 100·|W_{i+1}\W_i|/|W_{i+1}|
//   * down events:          |W_i \ W_{i+1}|, down% over |W_i|
//   * filling degree:       |union over window| per /24
//   * STU:                  active (addr, day) pairs / (256 · covered days)
//   * event-size mask:      smallest L s.t. the aligned /L around the event
//                           address holds no member of the reference window
//   * change detection:     max-magnitude consecutive monthly STU delta
//   * Fig 6 classification: feature thresholds re-derived from raw bits
//   * capture–recapture:    Chapman N* = (n1+1)(n2+1)/(m+1) − 1
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "activity/store.h"

namespace ipscope::check {

// --- Window active sets ---------------------------------------------------

// Every address active at least once in [day_first, day_last), as a sorted
// vector of 32-bit address values — the naive union underlying churn,
// event-size, and capture–recapture ground truth.
std::vector<std::uint32_t> RefActiveAddresses(
    const activity::ActivityStore& store, int day_first, int day_last);

// --- Daily series (Fig 4a) ------------------------------------------------

// Total active addresses per day (plain sums; uncovered days read 0 because
// their rows are cleared by construction).
std::vector<std::int64_t> RefDailyActiveCounts(
    const activity::ActivityStore& store);

// Daily up/down event counts with the -1 "no data" sentinel on pairs
// touching an uncovered day, mirroring activity::DailyEventSeries.
struct RefDailyEvents {
  std::vector<std::int64_t> active;  // per day; -1 where uncovered
  std::vector<std::int64_t> up;      // per day pair; -1 where either end
  std::vector<std::int64_t> down;    //   day is uncovered
};
RefDailyEvents RefDailyEventSeries(const activity::ActivityStore& store);

// --- Window churn (Fig 4b) ------------------------------------------------

struct RefChurn {
  std::vector<int> pairs;        // reported window-pair indices
  std::vector<double> up_pct;    // one per reported pair
  std::vector<double> down_pct;  // one per reported pair
};
RefChurn RefWindowChurn(const activity::ActivityStore& store,
                        int window_days);

// --- Appear/disappear vs the first window (Fig 4c) ------------------------

struct RefVersusFirst {
  std::vector<std::uint64_t> appear;
  std::vector<std::uint64_t> disappear;
  std::vector<std::uint64_t> active;
  std::vector<bool> window_covered;
};
RefVersusFirst RefVersusFirstSeries(const activity::ActivityStore& store,
                                    int window_days);

// --- Per-group churn medians (Fig 5a) -------------------------------------

struct RefGroupChurn {
  std::uint32_t group = 0;
  std::uint64_t total_active_ips = 0;
  double median_up_pct = 0.0;
  double median_down_pct = 0.0;
};
// `group_of` must match the mapping given to ChurnAnalyzer::PerGroupChurn.
RefGroupChurn const* FindRefGroup(const std::vector<RefGroupChurn>& groups,
                                  std::uint32_t group);
std::vector<RefGroupChurn> RefPerGroupChurn(
    const activity::ActivityStore& store, int window_days,
    const std::function<std::uint32_t(net::BlockKey)>& group_of,
    std::uint64_t min_active_ips);

// --- Per-block metrics (Fig 8b) -------------------------------------------

struct RefBlockMetric {
  net::BlockKey key = 0;
  int filling_degree = 0;
  double stu = 0.0;
};
std::vector<RefBlockMetric> RefBlockMetrics(
    const activity::ActivityStore& store);

// --- Event sizes (Fig 5b) -------------------------------------------------

struct RefEventSizeHistogram {
  std::array<std::uint64_t, 33> by_mask{};
  std::uint64_t total = 0;
};
// Tags every up (or down) event between the two windows with the smallest
// isolating mask length, by scanning mask lengths 0..32 per event against a
// sorted list of the reference window's active addresses.
RefEventSizeHistogram RefEventSizes(const activity::ActivityStore& store,
                                    int w0_first, int w0_last, int w1_first,
                                    int w1_last, bool up);

// --- Change detection (Fig 8a) --------------------------------------------

struct RefStuChange {
  net::BlockKey key = 0;
  double max_delta = 0.0;
};
std::vector<RefStuChange> RefMaxMonthlyStuChange(
    const activity::ActivityStore& store, int month_days);

// --- Fig 6 pattern classification -----------------------------------------

// One block's Fig 6 features (filling degree, STU, mean active days per
// active address, and the coefficient of variation of the per-address
// active-day counts), each transcribed from its definition with a per-bit
// walk over the matrix. All zero for a block with no activity.
struct RefPatternFeatures {
  int filling_degree = 0;
  double stu = 0.0;
  double mean_host_days = 0.0;
  double host_days_cv = 0.0;
};
RefPatternFeatures RefBlockPatternFeatures(const activity::ActivityMatrix& m);

// The activity::PatternName label the documented thresholds give `f`.
const char* RefPatternName(const RefPatternFeatures& f);

// Per-pattern block counts keyed by activity::PatternName strings, computed
// from an independent transcription of the feature formulas and the
// documented thresholds. A threshold change on either side is a divergence.
std::vector<std::pair<std::string, std::uint64_t>> RefPatternCounts(
    const activity::ActivityStore& store);

// --- Capture–recapture (§3.1 / §8 baseline) -------------------------------

// Chapman's bias-corrected two-sample estimator, transcribed directly:
// N* = (n1+1)(n2+1)/(m+1) − 1.
double RefChapman(std::uint64_t n1, std::uint64_t n2, std::uint64_t m);

}  // namespace ipscope::check
