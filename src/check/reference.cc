#include "check/reference.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace ipscope::check {

namespace {

// The set of addresses active at least once in [day_first, day_last), as a
// sorted vector of full 32-bit address values. Naive by design: every
// (block, host, day) cell is probed through ActivityMatrix::Get. The store
// visits blocks in ascending key order and hosts ascend within a block, so
// the result is sorted without an explicit sort.
std::vector<std::uint32_t> WindowActiveSet(const activity::ActivityStore& s,
                                           int day_first, int day_last) {
  std::vector<std::uint32_t> out;
  s.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    for (int h = 0; h < 256; ++h) {
      bool active = false;
      for (int d = day_first; d < day_last && !active; ++d) {
        active = m.Get(d, h);
      }
      if (active) {
        out.push_back((key << 8) | static_cast<std::uint32_t>(h));
      }
    }
  });
  return out;
}

int CoveredDaysIn(const activity::ActivityStore& s, int day_first,
                  int day_last) {
  int covered = 0;
  for (int d = day_first; d < day_last; ++d) {
    if (s.DayCovered(d)) ++covered;
  }
  return covered;
}

bool WindowCovered(const activity::ActivityStore& s, int w, int window_days) {
  return CoveredDaysIn(s, w * window_days, (w + 1) * window_days) > 0;
}

bool SortedContains(const std::vector<std::uint32_t>& sorted,
                    std::uint32_t value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

// |a \ b| for sorted vectors.
std::uint64_t CountNotIn(const std::vector<std::uint32_t>& a,
                         const std::vector<std::uint32_t>& b) {
  std::uint64_t n = 0;
  for (std::uint32_t v : a) {
    if (!SortedContains(b, v)) ++n;
  }
  return n;
}

// Median with the linear-interpolation (type 7) definition, transcribed so
// the oracle does not lean on stats::Median: sort, then for even sizes
// average the two middle elements.
double NaiveMedian(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Active (address, day) pairs of one block over a window.
std::int64_t BlockActivePairs(const activity::ActivityMatrix& m,
                              int day_first, int day_last) {
  std::int64_t pairs = 0;
  for (int d = day_first; d < day_last; ++d) {
    for (int h = 0; h < 256; ++h) {
      if (m.Get(d, h)) ++pairs;
    }
  }
  return pairs;
}

// Distinct active addresses of one block over a window.
int BlockFillingDegree(const activity::ActivityMatrix& m, int day_first,
                       int day_last) {
  int fd = 0;
  for (int h = 0; h < 256; ++h) {
    for (int d = day_first; d < day_last; ++d) {
      if (m.Get(d, h)) {
        ++fd;
        break;
      }
    }
  }
  return fd;
}

// Canonical label order; must list every activity::BlockPattern name.
constexpr const char* kPatternNames[] = {
    "inactive",           "static-sparse", "dynamic-short-lease",
    "dynamic-long-lease", "fully-utilized", "mixed"};

}  // namespace

std::vector<std::uint32_t> RefActiveAddresses(
    const activity::ActivityStore& store, int day_first, int day_last) {
  return WindowActiveSet(store, day_first, day_last);
}

std::vector<std::int64_t> RefDailyActiveCounts(
    const activity::ActivityStore& store) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(store.days()), 0);
  store.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
    for (int d = 0; d < store.days(); ++d) {
      for (int h = 0; h < 256; ++h) {
        if (m.Get(d, h)) ++counts[static_cast<std::size_t>(d)];
      }
    }
  });
  return counts;
}

RefDailyEvents RefDailyEventSeries(const activity::ActivityStore& store) {
  RefDailyEvents out;
  int days = store.days();
  out.active = RefDailyActiveCounts(store);
  if (days > 0) {
    out.up.assign(static_cast<std::size_t>(days - 1), 0);
    out.down.assign(static_cast<std::size_t>(days - 1), 0);
  }
  store.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
    for (int d = 0; d + 1 < days; ++d) {
      for (int h = 0; h < 256; ++h) {
        bool today = m.Get(d, h);
        bool tomorrow = m.Get(d + 1, h);
        if (!today && tomorrow) ++out.up[static_cast<std::size_t>(d)];
        if (today && !tomorrow) ++out.down[static_cast<std::size_t>(d)];
      }
    }
  });
  // An uncovered day carries no evidence: its own count and both adjacent
  // event pairs are "no data" (-1), never 0.
  for (int d = 0; d < days; ++d) {
    if (store.DayCovered(d)) continue;
    out.active[static_cast<std::size_t>(d)] = -1;
    if (d > 0) {
      out.up[static_cast<std::size_t>(d - 1)] = -1;
      out.down[static_cast<std::size_t>(d - 1)] = -1;
    }
    if (d + 1 < days) {
      out.up[static_cast<std::size_t>(d)] = -1;
      out.down[static_cast<std::size_t>(d)] = -1;
    }
  }
  return out;
}

RefChurn RefWindowChurn(const activity::ActivityStore& store,
                        int window_days) {
  RefChurn out;
  int num_windows = store.days() / window_days;
  if (num_windows < 2) return out;
  std::vector<std::vector<std::uint32_t>> windows;
  for (int w = 0; w < num_windows; ++w) {
    windows.push_back(
        WindowActiveSet(store, w * window_days, (w + 1) * window_days));
  }
  for (int p = 0; p + 1 < num_windows; ++p) {
    // A pair is reported only when both windows hold at least one covered
    // day — an unobserved window must not read as mass deactivation.
    if (!WindowCovered(store, p, window_days) ||
        !WindowCovered(store, p + 1, window_days)) {
      continue;
    }
    const auto& w0 = windows[static_cast<std::size_t>(p)];
    const auto& w1 = windows[static_cast<std::size_t>(p + 1)];
    std::uint64_t up = CountNotIn(w1, w0);    // |W1 \ W0|
    std::uint64_t down = CountNotIn(w0, w1);  // |W0 \ W1|
    out.pairs.push_back(p);
    out.up_pct.push_back(w1.empty() ? 0.0
                                    : 100.0 * static_cast<double>(up) /
                                          static_cast<double>(w1.size()));
    out.down_pct.push_back(w0.empty() ? 0.0
                                      : 100.0 * static_cast<double>(down) /
                                            static_cast<double>(w0.size()));
  }
  return out;
}

RefVersusFirst RefVersusFirstSeries(const activity::ActivityStore& store,
                                    int window_days) {
  RefVersusFirst out;
  int num_windows = store.days() / window_days;
  if (num_windows < 1) return out;
  out.appear.assign(static_cast<std::size_t>(num_windows), 0);
  out.disappear.assign(static_cast<std::size_t>(num_windows), 0);
  out.active.assign(static_cast<std::size_t>(num_windows), 0);
  out.window_covered.resize(static_cast<std::size_t>(num_windows));
  std::vector<std::uint32_t> w0 =
      WindowActiveSet(store, 0, window_days);
  for (int w = 0; w < num_windows; ++w) {
    auto wi = static_cast<std::size_t>(w);
    out.window_covered[wi] = WindowCovered(store, w, window_days);
    if (!out.window_covered[wi]) continue;  // no data, not "empty"
    std::vector<std::uint32_t> ws =
        WindowActiveSet(store, w * window_days, (w + 1) * window_days);
    out.appear[wi] = CountNotIn(ws, w0);
    out.disappear[wi] = CountNotIn(w0, ws);
    out.active[wi] = ws.size();
  }
  return out;
}

RefGroupChurn const* FindRefGroup(const std::vector<RefGroupChurn>& groups,
                                  std::uint32_t group) {
  for (const RefGroupChurn& g : groups) {
    if (g.group == group) return &g;
  }
  return nullptr;
}

std::vector<RefGroupChurn> RefPerGroupChurn(
    const activity::ActivityStore& store, int window_days,
    const std::function<std::uint32_t(net::BlockKey)>& group_of,
    std::uint64_t min_active_ips) {
  std::vector<RefGroupChurn> out;
  int num_windows = store.days() / window_days;
  if (num_windows < 2) return out;

  // Group the store's blocks by the supplied mapping, keys ascending.
  std::map<std::uint32_t, std::vector<net::BlockKey>> members;
  store.ForEach([&](net::BlockKey key, const activity::ActivityMatrix&) {
    members[group_of(key)].push_back(key);
  });

  for (const auto& [group, keys] : members) {
    // Window active sets restricted to this group's blocks.
    std::vector<std::vector<std::uint32_t>> windows(
        static_cast<std::size_t>(num_windows));
    std::uint64_t total_active = 0;
    for (net::BlockKey key : keys) {
      const activity::ActivityMatrix* m = store.Find(key);
      for (int h = 0; h < 256; ++h) {
        bool ever = false;
        for (int w = 0; w < num_windows; ++w) {
          bool active = false;
          for (int d = w * window_days; d < (w + 1) * window_days; ++d) {
            if (m->Get(d, h)) {
              active = true;
              break;
            }
          }
          if (active) {
            windows[static_cast<std::size_t>(w)].push_back(
                (key << 8) | static_cast<std::uint32_t>(h));
            ever = true;
          }
        }
        // The >1000-IP filter counts distinct addresses over the *whole*
        // period, including any trailing partial window the churn windows
        // discard.
        if (!ever) {
          for (int d = num_windows * window_days; d < store.days(); ++d) {
            if (m->Get(d, h)) {
              ever = true;
              break;
            }
          }
        }
        if (ever) ++total_active;
      }
    }
    if (total_active < min_active_ips) continue;
    for (auto& w : windows) std::sort(w.begin(), w.end());

    std::vector<double> up_pcts, down_pcts;
    for (int p = 0; p + 1 < num_windows; ++p) {
      if (!WindowCovered(store, p, window_days) ||
          !WindowCovered(store, p + 1, window_days)) {
        continue;
      }
      const auto& w0 = windows[static_cast<std::size_t>(p)];
      const auto& w1 = windows[static_cast<std::size_t>(p + 1)];
      if (!w1.empty()) {
        up_pcts.push_back(100.0 *
                          static_cast<double>(CountNotIn(w1, w0)) /
                          static_cast<double>(w1.size()));
      }
      if (!w0.empty()) {
        down_pcts.push_back(100.0 *
                            static_cast<double>(CountNotIn(w0, w1)) /
                            static_cast<double>(w0.size()));
      }
    }
    if (up_pcts.empty() && down_pcts.empty()) continue;
    RefGroupChurn gc;
    gc.group = group;
    gc.total_active_ips = total_active;
    gc.median_up_pct = up_pcts.empty() ? 0.0 : NaiveMedian(up_pcts);
    gc.median_down_pct = down_pcts.empty() ? 0.0 : NaiveMedian(down_pcts);
    out.push_back(gc);
  }
  return out;  // std::map iteration is already group-ascending
}

std::vector<RefBlockMetric> RefBlockMetrics(
    const activity::ActivityStore& store) {
  std::vector<RefBlockMetric> out;
  const int covered = CoveredDaysIn(store, 0, store.days());
  if (covered == 0) return out;
  store.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    int fd = BlockFillingDegree(m, 0, store.days());
    if (fd == 0) return;
    double stu = static_cast<double>(BlockActivePairs(m, 0, store.days())) /
                 (256.0 * covered);
    out.push_back(RefBlockMetric{key, fd, stu});
  });
  return out;
}

RefEventSizeHistogram RefEventSizes(const activity::ActivityStore& store,
                                    int w0_first, int w0_last, int w1_first,
                                    int w1_last, bool up) {
  std::vector<std::uint32_t> active0 = WindowActiveSet(store, w0_first, w0_last);
  std::vector<std::uint32_t> active1 = WindowActiveSet(store, w1_first, w1_last);
  // Up events: absent in W0, present in W1. The disqualifying reference is
  // the window whose activity an isolating prefix must avoid (W0 for up
  // events). Down events swap the roles.
  const std::vector<std::uint32_t>& present = up ? active1 : active0;
  const std::vector<std::uint32_t>& reference = up ? active0 : active1;

  RefEventSizeHistogram hist;
  for (std::uint32_t addr : present) {
    if (SortedContains(reference, addr)) continue;  // not an event
    // Smallest mask length whose aligned prefix around `addr` contains no
    // reference member — checked mask by mask, largest prefix first. The
    // /32 case always succeeds (addr itself is never in the reference), so
    // the loop always assigns.
    int mask = 32;
    for (int len = 0; len <= 32; ++len) {
      std::uint32_t net_mask =
          len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
      std::uint32_t lo = addr & net_mask;
      std::uint32_t hi = addr | ~net_mask;
      auto it = std::lower_bound(reference.begin(), reference.end(), lo);
      bool occupied = it != reference.end() && *it <= hi;
      if (!occupied) {
        mask = len;
        break;
      }
    }
    ++hist.by_mask[static_cast<std::size_t>(mask)];
    ++hist.total;
  }
  return hist;
}

std::vector<RefStuChange> RefMaxMonthlyStuChange(
    const activity::ActivityStore& store, int month_days) {
  std::vector<RefStuChange> out;
  int months = store.days() / month_days;
  if (months < 2) return out;
  // Months without a single covered day carry no signal: deltas bridge
  // between consecutive *observed* months.
  std::vector<int> observed;
  for (int mo = 0; mo < months; ++mo) {
    if (CoveredDaysIn(store, mo * month_days, (mo + 1) * month_days) > 0) {
      observed.push_back(mo);
    }
  }
  if (observed.size() < 2) return out;

  auto month_stu = [&](const activity::ActivityMatrix& m, int mo) {
    int first = mo * month_days, last = (mo + 1) * month_days;
    int covered = CoveredDaysIn(store, first, last);
    if (covered == 0) return 0.0;
    return static_cast<double>(BlockActivePairs(m, first, last)) /
           (256.0 * covered);
  };
  store.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    if (BlockFillingDegree(m, 0, store.days()) == 0) return;
    double prev = month_stu(m, observed[0]);
    double best = 0.0;
    for (std::size_t i = 1; i < observed.size(); ++i) {
      double cur = month_stu(m, observed[i]);
      double delta = cur - prev;
      if (std::abs(delta) > std::abs(best)) best = delta;
      prev = cur;
    }
    out.push_back(RefStuChange{key, best});
  });
  return out;
}

RefPatternFeatures RefBlockPatternFeatures(const activity::ActivityMatrix& m) {
  // Features, transcribed from the definitions in activity/pattern.h.
  RefPatternFeatures f;
  int days = m.days();
  f.filling_degree = BlockFillingDegree(m, 0, days);
  if (f.filling_degree == 0) return f;
  f.stu = static_cast<double>(BlockActivePairs(m, 0, days)) / (256.0 * days);
  std::int64_t total_active_days = 0;
  int host_days[256] = {};
  for (int h = 0; h < 256; ++h) {
    for (int d = 0; d < days; ++d) {
      if (m.Get(d, h)) {
        ++host_days[h];
        ++total_active_days;
      }
    }
  }
  f.mean_host_days = static_cast<double>(total_active_days) /
                     static_cast<double>(f.filling_degree);
  double sq_sum = 0.0;
  for (int h = 0; h < 256; ++h) {
    if (host_days[h] == 0) continue;
    double delta = static_cast<double>(host_days[h]) - f.mean_host_days;
    sq_sum += delta * delta;
  }
  f.host_days_cv =
      f.mean_host_days > 0
          ? std::sqrt(sq_sum / static_cast<double>(f.filling_degree)) /
                f.mean_host_days
          : 0.0;
  return f;
}

const char* RefPatternName(const RefPatternFeatures& f) {
  // Thresholds as documented for Fig 6 / Fig 8b classification.
  if (f.filling_degree == 0) return kPatternNames[0];  // inactive
  if (f.stu > 0.97 && f.filling_degree > 250) {
    return kPatternNames[4];  // fully-utilized
  }
  if (f.filling_degree < 100) return kPatternNames[1];  // static-sparse
  if (f.host_days_cv < 0.25 && f.filling_degree >= 200) {
    return kPatternNames[2];  // dynamic-short-lease
  }
  if (f.host_days_cv >= 0.25) return kPatternNames[3];  // dynamic-long-lease
  return kPatternNames[5];                              // mixed
}

std::vector<std::pair<std::string, std::uint64_t>> RefPatternCounts(
    const activity::ActivityStore& store) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const char* name : kPatternNames) out.emplace_back(name, 0);
  store.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
    const char* name = RefPatternName(RefBlockPatternFeatures(m));
    for (auto& [label, count] : out) count += label == name ? 1 : 0;
  });
  return out;
}

double RefChapman(std::uint64_t n1, std::uint64_t n2, std::uint64_t m) {
  return (static_cast<double>(n1) + 1.0) * (static_cast<double>(n2) + 1.0) /
             (static_cast<double>(m) + 1.0) -
         1.0;
}

}  // namespace ipscope::check
