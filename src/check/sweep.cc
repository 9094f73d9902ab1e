#include "check/sweep.h"

#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "activity/change.h"
#include "activity/churn.h"
#include "activity/eventsize.h"
#include "activity/metrics.h"
#include "activity/pattern.h"
#include "cdn/observatory.h"
#include "check/golden.h"
#include "check/reference.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "obs/registry.h"
#include "par/pool.h"
#include "report/table.h"
#include "rng/rng.h"
#include "sim/world.h"
#include "stats/capture_recapture.h"

namespace ipscope::check {

namespace {

// Sampling probability of each capture occasion and the tolerance band of
// the estimate-vs-truth check. At sweep world sizes (tens of thousands of
// active addresses) the Chapman standard error is far below 5%, so the
// band is deterministic-safe while still meaning something.
constexpr double kCaptureP = 0.35;
constexpr double kCaptureTol = 0.05;

std::string Coord(const char* label, std::size_t i) {
  return std::string(label) + "=" + std::to_string(i);
}

template <typename T, typename U>
void CompareSeries(Diff& diff, const std::string& series,
                   const std::vector<T>& expected,
                   const std::vector<U>& actual, const char* coord_label) {
  if (expected.size() != actual.size()) {
    diff.ExpectEq(series, "size", std::uint64_t{expected.size()},
                  std::uint64_t{actual.size()});
    return;  // elementwise coordinates would be meaningless
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if constexpr (std::is_floating_point_v<T>) {
      diff.ExpectEq(series, Coord(coord_label, i), double{expected[i]},
                    double{actual[i]});
    } else if constexpr (std::is_signed_v<T>) {
      diff.ExpectEq(series, Coord(coord_label, i),
                    static_cast<std::int64_t>(expected[i]),
                    static_cast<std::int64_t>(actual[i]));
    } else {
      diff.ExpectEq(series, Coord(coord_label, i),
                    static_cast<std::uint64_t>(expected[i]),
                    static_cast<std::uint64_t>(actual[i]));
    }
  }
}

// Flips one (covered-day, host) activity bit — the seeded mutation used to
// prove the harness detects a real single-bit analysis input difference.
void FlipOneBit(activity::ActivityStore& store) {
  if (store.BlockCount() == 0) return;
  int day = -1;
  for (int d = store.days() / 2; d < store.days(); ++d) {
    if (store.DayCovered(d)) {
      day = d;
      break;
    }
  }
  if (day < 0) return;
  activity::ActivityMatrix& m = store.GetOrCreate(store.KeyAt(0));
  constexpr int kHost = 7;
  m.Row(day)[kHost >> 6] ^= std::uint64_t{1} << (kHost & 63);
}

}  // namespace

std::string CaseSpec::Name() const {
  std::string name = "seed=" + std::to_string(seed) +
                     " blocks=" + std::to_string(blocks) +
                     " threads=" + std::to_string(threads) + " fault=" +
                     (fault.empty() ? std::string("none") : fault);
  if (perturb) name += " perturb=flip-bit";
  return name;
}

Diff RunCase(const CaseSpec& spec) {
  Diff diff{spec.Name()};
  obs::GlobalRegistry().GetCounter("check.cases_run").Add(1);

  sim::WorldConfig config;
  config.target_client_blocks = spec.blocks;
  config.seed = spec.seed;
  sim::World world{config};
  activity::ActivityStore store =
      cdn::Observatory::Daily(world).BuildStore(spec.threads);

  if (!spec.fault.empty()) {
    fault::Schedule schedule;
    schedule.seed = spec.seed;
    std::string parse_error;
    if (!fault::ParseSchedule(spec.fault, &schedule, &parse_error)) {
      throw std::invalid_argument("check: bad fault spec: " + parse_error);
    }
    fault::Injector{schedule}.ApplyToStore(store);
  }

  // The oracle reads `store`; the optimized pipeline reads `opt`. They are
  // identical copies unless this case injects the deliberate mutation.
  activity::ActivityStore opt = store;
  if (spec.perturb) FlipOneBit(opt);
  par::GlobalPool().Resize(spec.threads);

  const int days = store.days();

  // Fig 4a: daily totals and daily up/down events.
  CompareSeries(diff, "daily.active", RefDailyActiveCounts(store),
                opt.DailyActiveCounts(), "day");
  {
    RefDailyEvents ref = RefDailyEventSeries(store);
    activity::DailyEventSeries got = activity::ChurnAnalyzer{opt}.DailyEvents();
    CompareSeries(diff, "daily.events.active", ref.active, got.active, "day");
    CompareSeries(diff, "daily.events.up", ref.up, got.up, "pair");
    CompareSeries(diff, "daily.events.down", ref.down, got.down, "pair");
  }

  // Fig 4b: window churn percentages.
  {
    RefChurn ref = RefWindowChurn(store, spec.window_days);
    activity::WindowChurnSeries got =
        activity::ChurnAnalyzer{opt}.Churn(spec.window_days);
    CompareSeries(diff, "churn.pairs", ref.pairs, got.pairs, "index");
    CompareSeries(diff, "churn.up_pct", ref.up_pct, got.up_pct, "pair");
    CompareSeries(diff, "churn.down_pct", ref.down_pct, got.down_pct, "pair");
  }

  // Fig 4c: appear/disappear vs the first window.
  {
    RefVersusFirst ref = RefVersusFirstSeries(store, spec.window_days);
    activity::VersusFirstSeries got =
        activity::ChurnAnalyzer{opt}.VersusFirst(spec.window_days);
    CompareSeries(diff, "vsfirst.appear", ref.appear, got.appear, "window");
    CompareSeries(diff, "vsfirst.disappear", ref.disappear, got.disappear,
                  "window");
    CompareSeries(diff, "vsfirst.active", ref.active, got.active, "window");
    CompareSeries(diff, "vsfirst.covered", ref.window_covered,
                  got.window_covered, "window");
  }

  // Fig 5a: per-AS churn medians. Both sides get the same mapping.
  {
    auto group_of = [&world](net::BlockKey key) {
      return world.PlannedAsnOf(key).value_or(0);
    };
    std::vector<RefGroupChurn> ref = RefPerGroupChurn(
        store, spec.window_days, group_of, spec.group_min_ips);
    std::vector<activity::GroupChurn> got =
        activity::ChurnAnalyzer{opt}.PerGroupChurn(spec.window_days, group_of,
                                                   spec.group_min_ips);
    if (ref.size() != got.size()) {
      diff.ExpectEq("group_churn", "size", std::uint64_t{ref.size()},
                    std::uint64_t{got.size()});
    } else {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        std::string at = "group=" + std::to_string(ref[i].group);
        diff.ExpectEq("group_churn.group", at, std::uint64_t{ref[i].group},
                      std::uint64_t{got[i].group});
        diff.ExpectEq("group_churn.total_active_ips", at,
                      ref[i].total_active_ips, got[i].total_active_ips);
        diff.ExpectEq("group_churn.median_up_pct", at, ref[i].median_up_pct,
                      got[i].median_up_pct);
        diff.ExpectEq("group_churn.median_down_pct", at,
                      ref[i].median_down_pct, got[i].median_down_pct);
      }
    }
  }

  // Fig 5b: event-size histograms between the first two windows.
  if (days >= 2 * spec.window_days) {
    for (bool up : {true, false}) {
      const char* dir = up ? "up" : "down";
      RefEventSizeHistogram ref =
          RefEventSizes(store, 0, spec.window_days, spec.window_days,
                        2 * spec.window_days, up);
      activity::EventSizeHistogram got =
          activity::EventSizes(opt, 0, spec.window_days, spec.window_days,
                               2 * spec.window_days, up);
      std::string series = std::string("eventsize.") + dir;
      diff.ExpectEq(series, "total", ref.total, got.total);
      for (std::size_t mask = 0; mask < ref.by_mask.size(); ++mask) {
        diff.ExpectEq(series, Coord("mask", mask), ref.by_mask[mask],
                      got.by_mask[mask]);
      }
    }
  }

  // Fig 8b: per-block FD / STU.
  {
    std::vector<RefBlockMetric> ref = RefBlockMetrics(store);
    std::vector<activity::BlockMetrics> got = activity::ComputeBlockMetrics(opt);
    if (ref.size() != got.size()) {
      diff.ExpectEq("block_metrics", "size", std::uint64_t{ref.size()},
                    std::uint64_t{got.size()});
    } else {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        std::string at = "block=" + std::to_string(ref[i].key);
        diff.ExpectEq("block_metrics.key", at, std::uint64_t{ref[i].key},
                      std::uint64_t{got[i].key});
        diff.ExpectEq("block_metrics.fd", at,
                      std::int64_t{ref[i].filling_degree},
                      std::int64_t{got[i].filling_degree});
        diff.ExpectEq("block_metrics.stu", at, ref[i].stu, got[i].stu);
      }
    }
  }

  // Fig 8a: change detection.
  {
    std::vector<RefStuChange> ref =
        RefMaxMonthlyStuChange(store, spec.month_days);
    std::vector<activity::BlockStuChange> got =
        activity::MaxMonthlyStuChange(opt, spec.month_days);
    if (ref.size() != got.size()) {
      diff.ExpectEq("stu_change", "size", std::uint64_t{ref.size()},
                    std::uint64_t{got.size()});
    } else {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        std::string at = "block=" + std::to_string(ref[i].key);
        diff.ExpectEq("stu_change.key", at, std::uint64_t{ref[i].key},
                      std::uint64_t{got[i].key});
        diff.ExpectEq("stu_change.max_delta", at, ref[i].max_delta,
                      got[i].max_delta);
      }
    }
  }

  // Fig 6: pattern classification counts.
  {
    auto ref = RefPatternCounts(store);
    for (const auto& entry : ref) {
      std::uint64_t got = 0;
      opt.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
        if (entry.first == activity::PatternName(activity::ClassifyPattern(
                               activity::ComputeFeatures(m)))) {
          ++got;
        }
      });
      diff.ExpectEq("pattern.count", "pattern=" + entry.first, entry.second,
                    got);
    }
  }

  // Ground truth: distinct actives, active blocks, and capture–recapture.
  {
    std::vector<std::uint32_t> truth_set = RefActiveAddresses(store, 0, days);
    auto truth = static_cast<std::uint64_t>(truth_set.size());
    diff.ExpectEq("active.count", "period", truth, opt.CountActive(0, days));
    diff.ExpectEq("active.blocks", "period",
                  std::uint64_t{RefBlockMetrics(store).size()},
                  opt.CountActiveBlocks(0, days));

    // Two independent seeded capture occasions over the true population.
    rng::Xoshiro256 g1{rng::Substream(spec.seed, 0xCA97u, 1u)};
    rng::Xoshiro256 g2{rng::Substream(spec.seed, 0xCA97u, 2u)};
    std::uint64_t n1 = 0, n2 = 0, m = 0;
    for (std::size_t i = 0; i < truth_set.size(); ++i) {
      bool in1 = g1.NextBool(kCaptureP);
      bool in2 = g2.NextBool(kCaptureP);
      if (in1) ++n1;
      if (in2) ++n2;
      if (in1 && in2) ++m;
    }
    double est = stats::Chapman(n1, n2, m).population;
    diff.ExpectEq("capture.chapman", "formula", RefChapman(n1, n2, m), est);
    if (truth >= 1000) {
      diff.ExpectNear("capture.population", "vs-truth",
                      static_cast<double>(truth), est,
                      kCaptureTol * static_cast<double>(truth));
    }
  }

  return diff;
}

bool RunCheck(std::span<const CaseSpec> specs, const std::string& goldens_dir,
              std::ostream& out) {
  report::Table card({"case", "status", "diffs"});
  std::uint64_t total_mismatches = 0;
  std::vector<Divergence> divergences;
  for (const CaseSpec& spec : specs) {
    Diff diff = RunCase(spec);
    total_mismatches += diff.mismatches();
    for (const Divergence& d : diff.divergences()) divergences.push_back(d);
    card.AddRow({spec.Name(), diff.ok() ? "PASS" : "FAIL",
                 std::to_string(diff.mismatches())});
  }
  card.Print(out);

  if (!divergences.empty()) {
    out << "\nfirst divergences (optimized vs reference):\n";
    for (const Divergence& d : divergences) {
      out << "  " << d.series << " [" << d.coordinate
          << "]: reference=" << d.expected << " optimized=" << d.actual
          << "  (" << d.case_name << ")\n";
    }
  }

  std::vector<GoldenIssue> issues =
      VerifyGoldens(goldens_dir, RenderAllGoldens(GoldenConfig{}));
  out << "\ngolden snapshots (" << goldens_dir << "): "
      << (issues.empty() ? "clean" : "ISSUES") << "\n";
  for (const GoldenIssue& issue : issues) {
    out << "  " << GoldenIssueKindName(issue.kind) << ": " << issue.file
        << " — " << issue.detail << "\n";
  }

  auto& registry = obs::GlobalRegistry();
  out << "\ncheck: " << registry.GetCounter("check.cases_run").value()
      << " cases, " << registry.GetCounter("check.diffs_total").value()
      << " diffs, "
      << registry.GetCounter("check.golden_files_checked").value()
      << " golden files checked\n";

  bool ok = total_mismatches == 0 && issues.empty();
  out << "check: " << (ok ? "PASS" : "FAIL") << "\n";
  return ok;
}

std::vector<CaseSpec> DefaultSweep(std::span<const std::uint64_t> seeds,
                                   int blocks, int max_threads) {
  std::vector<int> threads_axis{1};
  if (max_threads > 1) threads_axis.push_back(max_threads);
  std::vector<CaseSpec> specs;
  for (std::uint64_t seed : seeds) {
    for (const char* fault : {"", "drop-days=2"}) {
      for (int threads : threads_axis) {
        CaseSpec spec;
        spec.seed = seed;
        spec.blocks = blocks;
        spec.threads = threads;
        spec.fault = fault;
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

}  // namespace ipscope::check
