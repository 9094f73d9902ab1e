#include "cli/commands.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "activity/change.h"
#include "activity/churn.h"
#include "activity/eventsize.h"
#include "activity/metrics.h"
#include "activity/pattern.h"
#include "analysis/experiments.h"
#include "cdn/observatory.h"
#include "check/chaos.h"
#include "check/golden.h"
#include "check/sweep.h"
#include "cli/signals.h"
#include "fault/crash.h"
#include "fault/schedule.h"
#include "ingest/crash_sweep.h"
#include "ingest/session.h"
#include "io/store_io.h"
#include "measurement/hitlist.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "report/csv.h"
#include "report/table.h"
#include "report/textplot.h"
#include "serve/server.h"
#include "serve/smoke.h"
#include "serve/tcp.h"
#include "sim/world.h"

namespace ipscope::cli {

namespace {

constexpr const char* kUsage = R"(usage: ipscope_cli <command> [args]

commands:
  generate --blocks N [--seed S] [--weekly] --out PATH
      Build a simulated world and save its daily (default) or weekly
      activity dataset.
  summary PATH
      Dataset overview: days, blocks, address totals, daily series.
  churn PATH [--window DAYS]
      Up/down event percentages between consecutive windows.
  blocks PATH [--top N] [--sort fd|stu]
      Per-/24 filling degree and spatio-temporal utilization.
  render PATH --block A.B.C.0/24
      Fig 6-style text rendering of one block's activity matrix.
  events PATH [--window DAYS]
      Size distribution of up events (isolating prefix masks).
  export PATH --outdir DIR
      Write analysis series as CSV files (daily_counts.csv,
      block_metrics.csv, churn.csv) for external plotting.
  hitlist PATH [--strategy most-active|most-recent|lowest-active|fixed]
      One representative (likely-responsive) address per active /24.
  describe [--blocks N] [--seed S]
      Inventory of the simulated world that the given parameters produce:
      AS types, assignment-policy mix, scheduled events.
  chaos [--blocks N] [--seed S] [--fault-seed S] [--schedule SPEC]
        [--window DAYS]
      Run the generate -> save -> corrupt -> salvage -> analyze pipeline
      under a deterministic fault schedule (see src/fault/schedule.h for
      the grammar; default "drop-days=2,truncate-store=0.6,
      drop-snapshots=1") and print a robustness scorecard. Exits 0 iff
      every scorecard check passes.
  chaos-crash [--blocks N] [--seed S] [--seeds N] [--dir ROOT]
      Crash-recovery gate for the sharded ingest store (src/ingest): for
      every registered crash point (see src/fault/crash.h) x seeds
      (default 3), fork a child that appends a delta with the point armed
      (schedule grammar crash-at:<point>), verify the child died exactly
      there, then prove recovery yields a store bit-identical to a clean
      build of the committed prefix and that replaying the interrupted
      delta converges on the full dataset with no double-apply. Exits 0
      iff every point x seed cell passes.
  serve PATH | serve --session DIR [--days N]
        [--port N] [--bind ADDR] [--world-blocks N] [--world-seed S]
      Long-running query daemon: loads an IPSCOPE store (or an ingest
      session's shard set) and answers JSON queries over a length-prefixed
      binary protocol (frame: "IPSQ" + u32 LE body length + JSON body; see
      the README's "Serving" section for the endpoint list). --port 0
      (default) binds an ephemeral port, printed on startup. --world-blocks
      rebuilds the simulated world so the as/country endpoints can
      attribute blocks. SIGINT/SIGTERM drain: in-flight queries finish,
      --metrics-out is flushed, exit code 0.
  serve-smoke [--blocks N] [--seed S] [--clients N] [--requests N]
      Self-contained client-swarm gate over real TCP: builds a world,
      serves its daily store, hammers it from --clients connections,
      byte-compares every response against a direct store/analysis
      oracle, reloads a modified snapshot and re-verifies (new queries
      must see the new snapshot id), then drains via SIGINT. Exits 0 iff
      every response was bit-identical and the drain exited cleanly.
  reproduce [--blocks N] [--seed S] [--only ID,ID...] [--out DIR]
      Reproduce the paper: build the world (default 4000 client blocks),
      its daily and weekly stores and the BGP feed once, then run every
      experiment (or only the listed ids) in registry order, printing each
      one's tables to stdout or to DIR/<id>.txt. An unknown id lists the
      known ones. stderr gets one "id wall_s peak_rss_mb peak_rise_mb"
      line per experiment, after an "inputs" line for the shared build
      and before a "total" line; peak_rss_mb is the process high-water
      mark so far, peak_rise_mb how far that row raised it.
  check [--goldens DIR] [--update-goldens] [--blocks N] [--threads-max N]
        [--perturb flip-bit]
      Differential correctness sweep: re-derives every figure series with
      the naive check::reference oracles and compares the optimized
      pipeline against them exactly, across seeds x thread counts x fault
      schedules, then verifies the committed golden snapshots in DIR
      (default tests/golden): the figure series and every experiment's
      output, naming each one that differs. --update-goldens rewrites the
      snapshots and manifest instead. --perturb flip-bit flips one
      activity bit on the optimized side of the first case to prove the
      harness detects it (the run then exits non-zero by design). Exits 0
      iff no divergence and no golden issue.
  help
      This message.

global flags (any command):
  --threads N          Size of the shared worker pool (default:
                       $IPSCOPE_THREADS, else hardware concurrency).
                       Results are bit-identical for any value.
  --metrics-out PATH   Dump the metrics registry on exit.
  --metrics-format F   Format for --metrics-out: json (default) or
                       prometheus (text exposition format 0.0.4).
  --trace-out PATH     Record pipeline stage spans as a Chrome
                       trace-event-format file (open in about://tracing
                       or https://ui.perfetto.dev).
)";

int CmdGenerate(const CommandLine& cmd, std::ostream& out,
                std::ostream& err) {
  auto out_path = cmd.Flag("out");
  if (!out_path) {
    err << "generate: --out PATH is required\n";
    return 2;
  }
  sim::WorldConfig config;
  config.target_client_blocks = cmd.IntFlag("blocks", 4000);
  config.seed = cmd.Uint64Flag("seed", config.seed);
  sim::World world{config};
  bool weekly = cmd.Flag("weekly").has_value();
  auto store = weekly ? cdn::Observatory::Weekly(world).BuildStore()
                      : cdn::Observatory::Daily(world).BuildStore();
  io::SaveStoreFile(store, *out_path);
  out << "wrote " << (weekly ? "weekly" : "daily") << " dataset: "
      << store.BlockCount() << " blocks x " << store.days()
      << " snapshots -> " << *out_path << "\n";
  return 0;
}

int CmdSummary(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional.empty()) {
    err << "summary: dataset path required\n";
    return 2;
  }
  auto store = io::LoadStoreFile(cmd.positional[0]);
  auto daily = store.DailyActiveCounts();
  std::vector<double> series(daily.begin(), daily.end());
  out << "dataset: " << store.BlockCount() << " /24 blocks, " << store.days()
      << " snapshots\n";
  if (!store.FullyCovered()) {
    out << "coverage: " << store.CoveredDaysIn(0, store.days()) << "/"
        << store.days() << " snapshots observed (" << store.MissingDays()
        << " missing; zero rows on missing days mean \"no data\", not "
        << "\"all down\")\n";
  }
  out << "unique addresses over period: "
      << report::FormatCount(store.CountActive(0, store.days())) << "\n";
  double mean = 0;
  for (double v : series) mean += v;
  mean /= static_cast<double>(series.size());
  out << "mean active per snapshot:     "
      << report::FormatCount(static_cast<std::uint64_t>(mean)) << "\n";
  out << "per-snapshot actives: " << report::RenderSparkline(series) << "\n";
  return 0;
}

int CmdChurn(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional.empty()) {
    err << "churn: dataset path required\n";
    return 2;
  }
  auto store = io::LoadStoreFile(cmd.positional[0]);
  int window = cmd.IntFlag("window", 1);
  activity::ChurnAnalyzer churn{store};
  auto series = churn.Churn(window);
  if (series.up_pct.empty()) {
    err << "churn: window of " << window
        << " snapshots leaves fewer than two windows\n";
    return 2;
  }
  report::Table t({"pair", "up %", "down %"});
  for (std::size_t p = 0; p < series.up_pct.size(); ++p) {
    t.AddRow({std::to_string(p) + "->" + std::to_string(p + 1),
              report::FormatDouble(series.up_pct[p]),
              report::FormatDouble(series.down_pct[p])});
  }
  t.Print(out);
  out << "up   min/median/max: " << report::FormatDouble(series.up.min)
      << " / " << report::FormatDouble(series.up.median) << " / "
      << report::FormatDouble(series.up.max) << "\n";
  out << "down min/median/max: " << report::FormatDouble(series.down.min)
      << " / " << report::FormatDouble(series.down.median) << " / "
      << report::FormatDouble(series.down.max) << "\n";
  return 0;
}

int CmdBlocks(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional.empty()) {
    err << "blocks: dataset path required\n";
    return 2;
  }
  auto store = io::LoadStoreFile(cmd.positional[0]);
  auto metrics = activity::ComputeBlockMetrics(store);
  std::string sort = cmd.Flag("sort").value_or("stu");
  if (sort == "fd") {
    std::sort(metrics.begin(), metrics.end(),
              [](const auto& a, const auto& b) {
                return a.filling_degree > b.filling_degree;
              });
  } else if (sort == "stu") {
    std::sort(metrics.begin(), metrics.end(),
              [](const auto& a, const auto& b) { return a.stu > b.stu; });
  } else {
    err << "blocks: unknown sort key '" << sort << "' (use fd|stu)\n";
    return 2;
  }
  int top = cmd.IntFlag("top", 20);
  report::Table t({"block", "FD", "STU", "pattern"});
  for (int i = 0; i < top && i < static_cast<int>(metrics.size()); ++i) {
    const auto& m = metrics[static_cast<std::size_t>(i)];
    const activity::ActivityMatrix* matrix = store.Find(m.key);
    t.AddRow({net::BlockFromKey(m.key).ToString(),
              std::to_string(m.filling_degree), report::FormatDouble(m.stu),
              activity::PatternName(activity::ClassifyPattern(*matrix))});
  }
  t.Print(out);
  return 0;
}

int CmdRender(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional.empty()) {
    err << "render: dataset path required\n";
    return 2;
  }
  auto flag = cmd.Flag("block");
  if (!flag) {
    err << "render: --block A.B.C.0/24 is required\n";
    return 2;
  }
  auto prefix = net::Prefix::Parse(*flag);
  if (!prefix || prefix->length() != 24) {
    err << "render: '" << *flag << "' is not a /24 prefix\n";
    return 2;
  }
  auto store = io::LoadStoreFile(cmd.positional[0]);
  const activity::ActivityMatrix* matrix =
      store.Find(net::BlockKeyOf(*prefix));
  if (matrix == nullptr) {
    err << "render: " << *flag << " has no activity in this dataset\n";
    return 1;
  }
  auto features = activity::ComputeFeatures(*matrix);
  out << *prefix << ": FD=" << features.filling_degree
      << " STU=" << report::FormatDouble(features.stu) << " pattern="
      << activity::PatternName(activity::ClassifyPattern(features)) << "\n";
  for (const auto& line : report::RenderActivityMatrix(*matrix)) {
    out << line << "\n";
  }
  return 0;
}

int CmdEvents(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional.empty()) {
    err << "events: dataset path required\n";
    return 2;
  }
  auto store = io::LoadStoreFile(cmd.positional[0]);
  int window = cmd.IntFlag("window", 7);
  int num_windows = store.days() / window;
  if (num_windows < 2) {
    err << "events: window too large for this dataset\n";
    return 2;
  }
  activity::EventSizeHistogram hist;
  for (int p = 0; p + 1 < num_windows; ++p) {
    auto h = activity::EventSizes(store, p * window, (p + 1) * window,
                                  (p + 1) * window, (p + 2) * window, true);
    for (std::size_t m = 0; m < h.by_mask.size(); ++m) {
      hist.by_mask[m] += h.by_mask[m];
    }
    hist.total += h.total;
  }
  report::Table t({"mask range", "events", "fraction"});
  auto row = [&](const char* label, int lo, int hi) {
    std::uint64_t n = 0;
    for (int m = lo; m <= hi; ++m) n += hist.by_mask[static_cast<std::size_t>(m)];
    t.AddRow({label, report::FormatCount(n),
              report::FormatPercent(hist.FractionInMaskRange(lo, hi))});
  };
  row("<=/16", 0, 16);
  row("/17-/20", 17, 20);
  row("/21-/24", 21, 24);
  row("/25-/28", 25, 28);
  row("/29-/32", 29, 32);
  t.Print(out);
  out << "total up events: " << report::FormatCount(hist.total) << "\n";
  return 0;
}

int CmdExport(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional.empty()) {
    err << "export: dataset path required\n";
    return 2;
  }
  auto outdir = cmd.Flag("outdir");
  if (!outdir) {
    err << "export: --outdir DIR is required\n";
    return 2;
  }
  auto store = io::LoadStoreFile(cmd.positional[0]);

  {
    std::ofstream os{*outdir + "/daily_counts.csv"};
    if (!os) {
      err << "export: cannot write to " << *outdir << "\n";
      return 1;
    }
    report::CsvWriter csv(os, {"snapshot", "active_addresses"});
    auto counts = store.DailyActiveCounts();
    for (std::size_t d = 0; d < counts.size(); ++d) {
      csv.AddRow({std::to_string(d), std::to_string(counts[d])});
    }
  }
  {
    std::ofstream os{*outdir + "/block_metrics.csv"};
    report::CsvWriter csv(os, {"block", "filling_degree", "stu", "pattern"});
    for (const auto& m : activity::ComputeBlockMetrics(store)) {
      const activity::ActivityMatrix* matrix = store.Find(m.key);
      csv.AddRow({net::BlockFromKey(m.key).ToString(),
                  std::to_string(m.filling_degree),
                  report::FormatDouble(m.stu, 4),
                  activity::PatternName(activity::ClassifyPattern(*matrix))});
    }
  }
  {
    std::ofstream os{*outdir + "/churn.csv"};
    report::CsvWriter csv(os, {"window", "pair", "up_pct", "down_pct"});
    activity::ChurnAnalyzer churn{store};
    for (int w : {1, 2, 4, 7, 14, 28}) {
      if (store.days() / w < 2) continue;
      auto series = churn.Churn(w);
      for (std::size_t p = 0; p < series.up_pct.size(); ++p) {
        csv.AddRow({std::to_string(w), std::to_string(p),
                    report::FormatDouble(series.up_pct[p], 3),
                    report::FormatDouble(series.down_pct[p], 3)});
      }
    }
  }
  out << "wrote daily_counts.csv, block_metrics.csv, churn.csv to "
      << *outdir << "\n";
  return 0;
}

int CmdHitlist(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional.empty()) {
    err << "hitlist: dataset path required\n";
    return 2;
  }
  std::string name = cmd.Flag("strategy").value_or("most-active");
  measurement::HitlistStrategy strategy;
  if (name == "most-active") {
    strategy = measurement::HitlistStrategy::kMostActive;
  } else if (name == "most-recent") {
    strategy = measurement::HitlistStrategy::kMostRecent;
  } else if (name == "lowest-active") {
    strategy = measurement::HitlistStrategy::kLowestActive;
  } else if (name == "fixed") {
    strategy = measurement::HitlistStrategy::kFixedOffset;
  } else {
    err << "hitlist: unknown strategy '" << name << "'\n";
    return 2;
  }
  auto store = io::LoadStoreFile(cmd.positional[0]);
  auto hitlist =
      measurement::BuildHitlist(store, 0, store.days(), strategy);
  for (const auto& entry : hitlist) {
    out << entry.address << "\n";
  }
  err << hitlist.size() << " representatives (" << name << ")\n";
  return 0;
}

int CmdDescribe(const CommandLine& cmd, std::ostream& out, std::ostream&) {
  sim::WorldConfig config;
  config.target_client_blocks = cmd.IntFlag("blocks", 4000);
  config.seed = cmd.Uint64Flag("seed", config.seed);
  sim::World world{config};

  out << "world: seed " << config.seed << ", " << world.blocks().size()
      << " /24 blocks (" << world.client_block_count() << " client), "
      << world.ases().size() << " ASes\n\n";

  std::map<std::string, int> as_types;
  for (const sim::AsPlan& as : world.ases()) {
    ++as_types[sim::AsTypeName(as.type)];
  }
  report::Table ast({"AS type", "count"});
  for (const auto& [name, count] : as_types) {
    ast.AddRow({name, std::to_string(count)});
  }
  ast.Print(out);

  std::map<std::string, int> kinds;
  int reconfigs = 0, splits = 0, activations = 0, deactivations = 0;
  for (const sim::BlockPlan& plan : world.blocks()) {
    ++kinds[sim::PolicyKindName(plan.base.kind)];
    if (plan.HasReconfiguration()) {
      ++reconfigs;
      if (plan.events[0].host_first > 0) ++splits;
    }
    if (plan.active_from > 0) ++activations;
    if (plan.active_until < 365) ++deactivations;
  }
  out << "\n";
  report::Table pt({"assignment policy", "blocks", "share"});
  for (const auto& [name, count] : kinds) {
    pt.AddRow({name, std::to_string(count),
               report::FormatPercent(static_cast<double>(count) /
                                     static_cast<double>(
                                         world.blocks().size()))});
  }
  pt.Print(out);

  out << "\nscheduled events: " << reconfigs << " reconfigurations ("
      << splits << " partial/Fig-7b), " << activations
      << " mid-year activations, " << deactivations
      << " deactivations, " << world.bgp_events().size()
      << " BGP events\n";
  return 0;
}

int CmdChaos(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  sim::WorldConfig config;
  config.target_client_blocks = cmd.IntFlag("blocks", 800);
  config.seed = cmd.Uint64Flag("seed", config.seed);

  fault::Schedule schedule;
  schedule.seed = cmd.Uint64Flag("fault-seed", config.seed);
  std::string spec_text = cmd.Flag("schedule").value_or(
      "drop-days=2,truncate-store=0.6,drop-snapshots=1");
  std::string parse_error;
  if (!fault::ParseSchedule(spec_text, &schedule, &parse_error)) {
    err << "chaos: " << parse_error << "\n";
    return 2;
  }
  return check::RunChaos(config, schedule, cmd.IntFlag("window", 7), out) ? 0
                                                                          : 1;
}

int CmdChaosCrash(const CommandLine& cmd, std::ostream& out,
                  std::ostream& err) {
  int blocks = cmd.IntFlag("blocks", 120);
  std::uint64_t base_seed = cmd.Uint64Flag("seed", 11);
  int num_seeds = cmd.IntFlag("seeds", 3);
  if (num_seeds < 1) {
    err << "chaos-crash: --seeds must be >= 1\n";
    return 2;
  }
  std::filesystem::path root =
      cmd.Flag("dir").value_or((std::filesystem::temp_directory_path() /
                                ("ipscope_chaos_crash_" +
                                 std::to_string(::getpid())))
                                   .string());

  const std::vector<std::string>& points = fault::CrashPoints();
  out << "chaos-crash: " << points.size() << " crash points x " << num_seeds
      << " seeds, " << blocks << " client blocks, base seed " << base_seed
      << "\nchaos-crash: store root " << root.string() << "\n\n";

  // Build every world up front: the observatory uses the shared pool, and
  // the sweep forks, which is only safe once the pool is down to its
  // inline (single-thread) strategy.
  std::vector<ingest::CrashCase> cases;
  for (int s = 0; s < num_seeds; ++s) {
    sim::WorldConfig config;
    config.target_client_blocks = blocks;
    config.seed = base_seed + 12 * static_cast<std::uint64_t>(s);
    auto full = cdn::Observatory::Daily(sim::World{config}).BuildStore();
    int split = full.days() / 2;
    ingest::CrashCase c{config.seed, ingest::SliceDays(full, 0, split - 1),
                        ingest::SliceDays(full, split, full.days() - 1), "",
                        ingest::StoreBytes(full)};
    c.prefix_bytes = ingest::StoreBytes(c.delta0);
    cases.push_back(std::move(c));
  }
  int pool_threads = par::GlobalPool().threads();
  par::GlobalPool().Resize(1);
  std::vector<ingest::CrashCell> cells = ingest::SweepCrashPoints(
      cases, root, ingest::Session::Open, [] { return DrainRequested(); });
  par::GlobalPool().Resize(pool_threads);
  if (cells.size() < points.size() * cases.size()) {
    out << "chaos-crash: drain requested, stopping before point "
        << points[cells.size() / cases.size()] << "\n";
  }

  // One scorecard row per point: its seeds are consecutive cells.
  report::Table card({"crash point", "status", "detail"});
  bool all_ok = true;
  for (std::size_t at = 0; at < cells.size(); at += cases.size()) {
    std::size_t passed = 0;
    std::string failure;
    for (std::size_t i = at; i < at + cases.size(); ++i) {
      if (cells[i].ok()) {
        ++passed;
      } else if (failure.empty()) {
        failure =
            "seed " + std::to_string(cells[i].seed) + ": " + cells[i].failure;
      }
    }
    bool ok = passed == cases.size();
    if (!ok) all_ok = false;
    card.AddRow({cells[at].point, ok ? "PASS" : "FAIL",
                 std::to_string(passed) + "/" +
                     std::to_string(cases.size()) + " seeds recovered" +
                     (ok ? " bit-exact" : ": " + failure)});
  }

  card.Print(out);
  auto& registry = obs::GlobalRegistry();
  report::Table metrics({"ingest metric", "value"});
  for (const char* name :
       {"ingest.recoveries", "ingest.quarantined_files", "ingest.appends",
        "ingest.append_duplicates", "io.manifest.commits",
        "io.manifest.errors"}) {
    metrics.AddRow({name,
                    report::FormatCount(registry.GetCounter(name).value())});
  }
  out << "\n";
  metrics.Print(out);

  if (all_ok && !cmd.Flag("dir")) {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  } else if (!all_ok) {
    out << "\nchaos-crash: store directories kept for inspection under "
        << root.string() << "\n";
  }
  out << "\nchaos-crash: " << (all_ok ? "PASS" : "FAIL") << " ("
      << points.size() * cases.size() << " crash cells)\n";
  return all_ok ? 0 : 1;
}

int CmdCheck(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  std::string goldens_dir = cmd.Flag("goldens").value_or("tests/golden");
  check::GoldenConfig gconfig;

  if (cmd.Flag("update-goldens")) {
    check::WriteGoldens(goldens_dir, check::RenderAllGoldens(gconfig));
    out << "check: wrote golden snapshots (seed " << gconfig.seed << ", "
        << gconfig.blocks << " client blocks) to " << goldens_dir << "\n";
    return 0;
  }

  std::string perturb = cmd.Flag("perturb").value_or("");
  if (!perturb.empty() && perturb != "flip-bit") {
    err << "check: unknown --perturb mode '" << perturb
        << "' (supported: flip-bit)\n";
    return 2;
  }

  const std::uint64_t seeds[] = {11, 23, 47};
  std::vector<check::CaseSpec> specs = check::DefaultSweep(
      seeds, cmd.IntFlag("blocks", 300), cmd.IntFlag("threads-max", 4));
  if (perturb == "flip-bit") specs.front().perturb = true;

  return check::RunCheck(specs, goldens_dir, out) ? 0 : 1;
}

// --- reproduce ------------------------------------------------------------

// The process's peak resident set so far, in MB (getrusage reports KiB).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int CmdReproduce(const CommandLine& cmd, std::ostream& out,
                 std::ostream& err) {
  sim::WorldConfig config;
  config.target_client_blocks = cmd.IntFlag("blocks", 4000);
  if (config.target_client_blocks <= 0) {
    throw FlagError("--blocks must be a positive number of client blocks");
  }
  config.seed = cmd.Uint64Flag("seed", config.seed);

  std::span<const analysis::Experiment> all = analysis::Experiments();
  std::vector<bool> selected(all.size(), !cmd.Flag("only"));
  if (auto only = cmd.Flag("only")) {
    std::istringstream ids{*only};
    std::string id;
    while (std::getline(ids, id, ',')) {
      auto it = std::find_if(all.begin(), all.end(),
                             [&](const analysis::Experiment& e) {
                               return e.id == id;
                             });
      if (it == all.end()) {
        err << "reproduce: unknown experiment '" << id << "'; known:";
        for (const analysis::Experiment& e : all) err << " " << e.id;
        err << "\n";
        return 2;
      }
      selected[static_cast<std::size_t>(it - all.begin())] = true;
    }
  }
  auto out_dir = cmd.Flag("out");
  if (out_dir) std::filesystem::create_directories(*out_dir);

  // The high-water mark only rises, so each row also prints how far it
  // raised it: the row that sets the peak names itself.
  auto print_row = [&err](std::string_view id, const obs::Stopwatch& watch,
                          double peak_before) {
    const double peak = PeakRssMb();
    err << id << " " << report::FormatDouble(watch.Seconds(), 3) << " "
        << report::FormatDouble(peak, 1) << " "
        << report::FormatDouble(peak - peak_before, 1) << "\n";
  };
  const double peak_start = PeakRssMb();
  obs::Stopwatch total;
  obs::Stopwatch watch;
  const analysis::Inputs inputs{config};
  print_row("inputs", watch, peak_start);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!selected[i]) continue;
    const analysis::Experiment& e = all[i];
    const double peak_before = PeakRssMb();
    watch.Restart();
    if (out_dir) {
      std::filesystem::path path =
          std::filesystem::path(*out_dir) / (std::string(e.id) + ".txt");
      std::ofstream file{path, std::ios::binary};
      e.run(inputs, file);
      if (!file.flush()) {
        err << "reproduce: cannot write " << path.string() << "\n";
        return 1;
      }
    } else {
      e.run(inputs, out);
    }
    print_row(e.id, watch, peak_before);
  }
  print_row("total", total, peak_start);
  return 0;
}

}  // namespace

std::optional<std::string> CommandLine::Flag(const std::string& name) const {
  auto it = flags.find(name);
  if (it == flags.end()) return std::nullopt;
  return it->second;
}

namespace {

// Whole-string checked parse; from_chars accepts no leading whitespace,
// no trailing junk, and no "0x" prefixes — exactly what flag values need.
template <typename T>
T ParseNumberOrThrow(const std::string& flag_name, const std::string& text) {
  T value{};
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) {
    throw FlagError("--" + flag_name + ": expected a number, got '" + text +
                    "'");
  }
  return value;
}

}  // namespace

int CommandLine::IntFlag(const std::string& name, int fallback) const {
  auto value = Flag(name);
  if (!value) return fallback;
  return ParseNumberOrThrow<int>(name, *value);
}

std::uint64_t CommandLine::Uint64Flag(const std::string& name,
                                      std::uint64_t fallback) const {
  auto value = Flag(name);
  if (!value) return fallback;
  return ParseNumberOrThrow<std::uint64_t>(name, *value);
}

std::optional<CommandLine> Parse(const std::vector<std::string>& args,
                                 std::ostream& err) {
  CommandLine cmd;
  if (args.empty()) {
    err << kUsage;
    return std::nullopt;
  }
  cmd.command = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        cmd.flags[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
        cmd.flags[body] = args[++i];
      } else {
        cmd.flags[body] = "";
      }
    } else {
      cmd.positional.push_back(arg);
    }
  }
  return cmd;
}

namespace {

// --- serve ----------------------------------------------------------------

int CmdServeSmoke(const CommandLine& cmd, std::ostream& out,
                  std::ostream& err) {
  sim::WorldConfig config;
  config.target_client_blocks = cmd.IntFlag("blocks", 400);
  config.seed = cmd.Uint64Flag("seed", config.seed);
  serve::SmokeOptions smoke;
  smoke.clients = cmd.IntFlag("clients", 4);
  smoke.repeat = std::max(1, cmd.IntFlag("requests", 120) /
                                 std::max(1, smoke.clients) / 20);
  // Drain through the real signal path: the installed handler sets the
  // flag, the accept loop and the connection threads wind down, in-flight
  // requests included.
  smoke.should_stop = [] { return DrainRequested(); };
  smoke.drain = [] {
    if (::kill(::getpid(), SIGINT) != 0) RequestDrain();
  };
  sim::World world{config};
  auto attribution = serve::Server::AttributionFromWorld(world);
  auto store = cdn::Observatory::Daily(world).BuildStore();

  InstallSignalHandlers();
  ResetDrainForTests();
  int rc = serve::RunServeSmoke(std::move(store), std::move(attribution),
                                smoke, out, err);
  ResetDrainForTests();
  return rc;
}

int CmdServe(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  activity::ActivityStore store{1};
  if (auto session_dir = cmd.Flag("session")) {
    auto session =
        ingest::Session::Open(*session_dir, cmd.IntFlag("days", 0));
    if (!session.ok()) {
      err << "serve: " << session.error().ToString() << "\n";
      return 1;
    }
    auto loaded = session.value().Load();
    if (!loaded.ok()) {
      err << "serve: " << loaded.error().ToString() << "\n";
      return 1;
    }
    store = std::move(loaded).value();
  } else if (!cmd.positional.empty()) {
    store = io::LoadStoreFile(cmd.positional[0]);
  } else {
    err << "serve: dataset path or --session DIR required\n";
    return 2;
  }

  serve::Server server{std::move(store)};
  int world_blocks = cmd.IntFlag("world-blocks", 0);
  if (world_blocks > 0) {
    sim::WorldConfig config;
    config.target_client_blocks = world_blocks;
    config.seed = cmd.Uint64Flag("world-seed", config.seed);
    server.SetAttribution(
        serve::Server::AttributionFromWorld(sim::World{config}));
  }

  serve::TcpOptions tcp;
  tcp.bind_address = cmd.Flag("bind").value_or(tcp.bind_address);
  tcp.port = cmd.IntFlag("port", 0);
  auto result = serve::RunTcpServer(
      server, tcp, [] { return DrainRequested(); },
      [&](int port) {
        out << "serve: listening on " << tcp.bind_address << ":" << port
            << " (snapshot " << server.snapshot_id() << ", "
            << (world_blocks > 0 ? "with" : "no") << " attribution)\n"
            << "serve: SIGINT/SIGTERM drains and exits 0\n";
        out.flush();
      });
  if (!result.ok()) {
    err << "serve: " << result.error().message << "\n";
    return 1;
  }
  out << "serve: drained after " << result.value() << " connections\n";
  return 0;
}

int CmdHelp(const CommandLine&, std::ostream& out, std::ostream&) {
  out << kUsage;
  return 0;
}

// Every command with the flags it reads; the global flags below are
// accepted everywhere. Run() rejects any other flag before the command
// starts, so a misspelled flag never runs a command on its defaults.
struct CommandSpec {
  std::string_view name;
  int (*run)(const CommandLine&, std::ostream&, std::ostream&);
  std::vector<std::string_view> flags;
};

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"generate", CmdGenerate, {"blocks", "seed", "weekly", "out"}},
      {"summary", CmdSummary, {}},
      {"churn", CmdChurn, {"window"}},
      {"blocks", CmdBlocks, {"top", "sort"}},
      {"render", CmdRender, {"block"}},
      {"events", CmdEvents, {"window"}},
      {"export", CmdExport, {"outdir"}},
      {"hitlist", CmdHitlist, {"strategy"}},
      {"describe", CmdDescribe, {"blocks", "seed"}},
      {"chaos",
       CmdChaos,
       {"blocks", "seed", "fault-seed", "schedule", "window"}},
      {"chaos-crash", CmdChaosCrash, {"blocks", "seed", "seeds", "dir"}},
      {"reproduce", CmdReproduce, {"blocks", "seed", "only", "out"}},
      {"check",
       CmdCheck,
       {"goldens", "update-goldens", "blocks", "threads-max", "perturb"}},
      {"serve",
       CmdServe,
       {"session", "days", "port", "bind", "world-blocks", "world-seed"}},
      {"serve-smoke", CmdServeSmoke, {"blocks", "seed", "clients", "requests"}},
      {"help", CmdHelp, {}},
      {"--help", CmdHelp, {}},
  };
  return kCommands;
}

constexpr std::string_view kGlobalFlags[] = {"threads", "metrics-out",
                                             "metrics-format", "trace-out"};

const CommandSpec* FindCommand(const std::string& name) {
  for (const CommandSpec& spec : Commands()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int Dispatch(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (const CommandSpec* spec = FindCommand(cmd.command)) {
    return spec->run(cmd, out, err);
  }
  err << "unknown command '" << cmd.command << "'\n" << kUsage;
  return 2;
}

}  // namespace

void ValidateFlags(const CommandLine& cmd) {
  const CommandSpec* spec = FindCommand(cmd.command);
  if (spec == nullptr) return;  // Dispatch reports the unknown command
  for (const auto& [name, value] : cmd.flags) {
    auto accepts = [&name](std::span<const std::string_view> flags) {
      return std::find(flags.begin(), flags.end(), name) != flags.end();
    };
    if (!accepts(spec->flags) && !accepts(kGlobalFlags)) {
      throw FlagError("--" + name + ": not a flag of '" + cmd.command +
                      "' (see ipscope_cli help)");
    }
  }
}

int Run(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  auto metrics_out = cmd.Flag("metrics-out");
  auto trace_out = cmd.Flag("trace-out");
  std::string metrics_format = cmd.Flag("metrics-format").value_or("json");
  if (trace_out && !trace_out->empty()) obs::GlobalTrace().Enable();

  int rc;
  try {
    // Validate global flags inside the try block: a malformed --threads or
    // --metrics-format value reports like any other flag error — and
    // before the command runs, not after it did the work.
    ValidateFlags(cmd);
    if (metrics_format != "json" && metrics_format != "prometheus") {
      throw FlagError("--metrics-format must be json or prometheus, got '" +
                      metrics_format + "'");
    }
    int threads = cmd.IntFlag("threads", 0);
    if (threads < 0) throw FlagError("--threads must be positive");
    if (threads > 0) par::GlobalPool().Resize(threads);
    rc = Dispatch(cmd, out, err);
  } catch (const FlagError& e) {
    err << "error: " << e.what() << "\n";
    rc = 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    rc = 1;
  }

  // Dump even when the command failed: partial metrics still tell the
  // operator how far the pipeline got.
  try {
    if (metrics_out && !metrics_out->empty()) {
      if (metrics_format == "prometheus") {
        obs::GlobalRegistry().WritePrometheusFile(*metrics_out);
      } else {
        obs::GlobalRegistry().WriteJsonFile(*metrics_out);
      }
    }
    if (trace_out && !trace_out->empty()) {
      obs::GlobalTrace().WriteFile(*trace_out);
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    if (rc == 0) rc = 1;
  }
  return rc;
}

int Main(const std::vector<std::string>& args, std::ostream& out,
         std::ostream& err) {
  auto cmd = Parse(args, err);
  if (!cmd) return 2;
  return Run(*cmd, out, err);
}

}  // namespace ipscope::cli
