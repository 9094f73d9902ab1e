#include "check/golden.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "activity/change.h"
#include "activity/churn.h"
#include "activity/eventsize.h"
#include "activity/metrics.h"
#include "activity/pattern.h"
#include "analysis/fig10_useragents.h"
#include "analysis/fig9_traffic.h"
#include "analysis/visibility.h"
#include "io/crc32c.h"
#include "obs/registry.h"
#include "report/csv.h"
#include "report/table.h"
#include "rng/rng.h"
#include "sim/world.h"
#include "stats/capture_recapture.h"

namespace ipscope::check {

namespace {

constexpr const char* kManifestName = "MANIFEST.csv";
// Fixed decimal places for every double in a golden file. The underlying
// values are bit-deterministic (ordered-merge contract), so fixed-point
// text is stable too; 6 places keeps diffs readable while far exceeding
// the figures' plotting resolution.
constexpr int kPrecision = 6;

std::string Fmt(double v) { return report::FormatDouble(v, kPrecision); }
std::string Fmt(std::int64_t v) { return std::to_string(v); }
std::string Fmt(std::uint64_t v) { return std::to_string(v); }
std::string Fmt(int v) { return std::to_string(v); }

std::string CrcHex(const std::string& contents) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x",
                io::Crc32c(contents.data(), contents.size()));
  return buf;
}

// First line where the two texts differ, for regression reports.
std::string FirstLineDiff(const std::string& expected,
                          const std::string& actual) {
  std::istringstream e{expected}, a{actual};
  std::string el, al;
  for (int line = 1;; ++line) {
    bool eok = static_cast<bool>(std::getline(e, el));
    bool aok = static_cast<bool>(std::getline(a, al));
    if (!eok && !aok) return "identical";  // caller compared unequal strings
    if (el != al || eok != aok) {
      return "line " + std::to_string(line) + ": golden '" +
             (eok ? el : std::string("<eof>")) + "' vs rendered '" +
             (aok ? al : std::string("<eof>")) + "'";
    }
  }
}

void SortByName(std::vector<GoldenFile>& files) {
  std::sort(files.begin(), files.end(),
            [](const GoldenFile& a, const GoldenFile& b) {
              return a.name < b.name;
            });
}

}  // namespace

std::vector<GoldenFile> RenderGoldens(const GoldenConfig& config,
                                      const analysis::Inputs& inputs) {
  const sim::World& world = inputs.world;
  const activity::ActivityStore& store = inputs.daily_store;
  activity::ChurnAnalyzer churn{store};
  const int days = store.days();

  std::vector<GoldenFile> files;
  auto render = [&files](const char* name,
                         const std::vector<std::string>& headers,
                         auto&& fill) {
    std::ostringstream os;
    report::CsvWriter csv{os, headers};
    fill(csv);
    files.push_back(GoldenFile{name, os.str()});
  };

  render("daily_counts.csv", {"day", "active", "up", "down"},
         [&](report::CsvWriter& csv) {
           activity::DailyEventSeries s = churn.DailyEvents();
           for (int d = 0; d < days; ++d) {
             auto di = static_cast<std::size_t>(d);
             csv.AddRow({Fmt(d), Fmt(s.active[di]),
                         d + 1 < days ? Fmt(s.up[di]) : std::string(),
                         d + 1 < days ? Fmt(s.down[di]) : std::string()});
           }
         });

  render("churn.csv", {"window", "up_pct", "down_pct"},
         [&](report::CsvWriter& csv) {
           activity::WindowChurnSeries s = churn.Churn(config.window_days);
           for (std::size_t i = 0; i < s.pairs.size(); ++i) {
             csv.AddRow(
                 {Fmt(s.pairs[i]), Fmt(s.up_pct[i]), Fmt(s.down_pct[i])});
           }
         });

  render("vsfirst.csv", {"window", "appear", "disappear", "active"},
         [&](report::CsvWriter& csv) {
           activity::VersusFirstSeries s =
               churn.VersusFirst(config.window_days);
           for (std::size_t w = 0; w < s.appear.size(); ++w) {
             csv.AddRow({Fmt(static_cast<std::uint64_t>(w)), Fmt(s.appear[w]),
                         Fmt(s.disappear[w]), Fmt(s.active[w])});
           }
         });

  render("group_churn.csv",
         {"asn", "total_active_ips", "median_up_pct", "median_down_pct"},
         [&](report::CsvWriter& csv) {
           auto groups = churn.PerGroupChurn(
               config.window_days,
               [&world](net::BlockKey key) {
                 return world.PlannedAsnOf(key).value_or(0);
               },
               config.group_min_ips);
           for (const activity::GroupChurn& g : groups) {
             csv.AddRow({Fmt(std::uint64_t{g.group}),
                         Fmt(g.total_active_ips), Fmt(g.median_up_pct),
                         Fmt(g.median_down_pct)});
           }
         });

  render("eventsize.csv", {"mask", "up_count", "down_count"},
         [&](report::CsvWriter& csv) {
           activity::EventSizeHistogram up = activity::EventSizes(
               store, 0, config.window_days, config.window_days,
               2 * config.window_days, true);
           activity::EventSizeHistogram down = activity::EventSizes(
               store, 0, config.window_days, config.window_days,
               2 * config.window_days, false);
           for (std::size_t mask = 0; mask < up.by_mask.size(); ++mask) {
             csv.AddRow({Fmt(static_cast<std::uint64_t>(mask)),
                         Fmt(up.by_mask[mask]), Fmt(down.by_mask[mask])});
           }
         });

  render("patterns.csv", {"pattern", "blocks"}, [&](report::CsvWriter& csv) {
    // Count in declaration order of BlockPattern (PatternName order).
    std::vector<std::pair<std::string, std::uint64_t>> counts;
    store.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
      std::string name = activity::PatternName(
          activity::ClassifyPattern(activity::ComputeFeatures(m)));
      for (auto& entry : counts) {
        if (entry.first == name) {
          ++entry.second;
          return;
        }
      }
      counts.emplace_back(std::move(name), 1);
    });
    std::sort(counts.begin(), counts.end());
    for (const auto& entry : counts) {
      csv.AddRow({entry.first, Fmt(entry.second)});
    }
  });

  render("stu_change.csv", {"block", "max_delta"},
         [&](report::CsvWriter& csv) {
           for (const activity::BlockStuChange& c :
                activity::MaxMonthlyStuChange(store, config.month_days)) {
             csv.AddRow({Fmt(std::uint64_t{c.key}), Fmt(c.max_delta)});
           }
         });

  render("block_metrics.csv", {"block", "filling_degree", "stu"},
         [&](report::CsvWriter& csv) {
           for (const activity::BlockMetrics& m :
                activity::ComputeBlockMetrics(store)) {
             csv.AddRow({Fmt(std::uint64_t{m.key}), Fmt(m.filling_degree),
                         Fmt(m.stu)});
           }
         });

  render("summary.csv", {"metric", "value"}, [&](report::CsvWriter& csv) {
    std::uint64_t active = store.CountActive(0, days);
    csv.AddRow({"seed", Fmt(config.seed)});
    csv.AddRow({"blocks", Fmt(std::uint64_t{store.BlockCount()})});
    csv.AddRow({"days", Fmt(days)});
    csv.AddRow({"active_addresses", Fmt(active)});
    csv.AddRow(
        {"active_blocks", Fmt(store.CountActiveBlocks(0, days))});
    // Seeded two-occasion Chapman estimate over the observed population —
    // same derivation as the sweep's ground-truth check.
    rng::Xoshiro256 g1{rng::Substream(config.seed, 0xCA97u, 1u)};
    rng::Xoshiro256 g2{rng::Substream(config.seed, 0xCA97u, 2u)};
    std::uint64_t n1 = 0, n2 = 0, m = 0;
    for (std::uint64_t i = 0; i < active; ++i) {
      bool in1 = g1.NextBool(0.35);
      bool in2 = g2.NextBool(0.35);
      if (in1) ++n1;
      if (in2) ++n2;
      if (in1 && in2) ++m;
    }
    csv.AddRow({"chapman_estimate", Fmt(stats::Chapman(n1, n2, m).population)});
  });

  // The hit-count figures: Fig 2 (CDN vs ICMP, the ICMP scan generator),
  // Fig 9 (the ForEachBlockHits stream) and Fig 10 (the daily hit table).
  render("fig2.csv", {"granularity", "cdn_only", "both", "icmp_only"},
         [&](report::CsvWriter& csv) {
           analysis::VisibilityResult r =
               analysis::RunVisibility(world, store, inputs.feed);
           auto add = [&csv](const char* name,
                             const analysis::VisibilitySplit& s) {
             csv.AddRow({name, Fmt(s.cdn_only), Fmt(s.both), Fmt(s.icmp_only)});
           };
           add("ases", r.ases);
           add("prefixes", r.prefixes);
           add("blocks", r.blocks);
           add("ips", r.ips);
           const analysis::IcmpOnlyClassification& c = r.icmp_only_class;
           csv.AddRow({"icmp_only_server_router", Fmt(c.server),
                       Fmt(c.server_router), Fmt(c.router)});
           csv.AddRow({"icmp_only_unknown", Fmt(c.unknown), "", ""});
         });

  // Fig 9a/9b per days-active bin, then 9c per week (share in `ips`'s
  // column), then the scalar summaries (value in `ips`'s column).
  render("fig9.csv",
         {"series", "index", "ips", "total_hits", "p5", "p25", "median", "p75",
          "p95"},
         [&](report::CsvWriter& csv) {
           analysis::Fig9Result r =
               analysis::RunFig9(inputs.daily, inputs.weekly);
           for (std::size_t d = 0; d < r.bins.size(); ++d) {
             const auto& b = r.bins[d];
             csv.AddRow({"days_active", Fmt(std::uint64_t{d + 1}), Fmt(b.ips),
                         Fmt(b.total_hits), Fmt(b.p5), Fmt(b.p25),
                         Fmt(b.median), Fmt(b.p75), Fmt(b.p95)});
           }
           auto scalar = [&csv](const char* name, std::uint64_t index,
                                double v) {
             csv.AddRow({name, Fmt(index), Fmt(v), "", "", "", "", "", ""});
           };
           for (std::size_t w = 0; w < r.weekly_top10_share.size(); ++w) {
             scalar("weekly_top10_share", w, r.weekly_top10_share[w]);
           }
           scalar("all_days_ip_frac", 0, r.all_days_ip_frac);
           scalar("all_days_traffic_frac", 0, r.all_days_traffic_frac);
           scalar("traffic_gini", 0, r.traffic_gini);
           scalar("first_month_share", 0, r.first_month_share);
           scalar("last_month_share", 0, r.last_month_share);
         });

  // Per-block UA samples in key order, then the region tallies and the
  // WHOIS attribution (value in `samples`'s column).
  render("fig10.csv", {"block", "samples", "unique_uas"},
         [&](report::CsvWriter& csv) {
           analysis::Fig10Result r =
               analysis::RunFig10(world, inputs.daily_hits);
           for (const cdn::BlockUaSample& s : r.samples) {
             csv.AddRow({Fmt(std::uint64_t{s.key}), Fmt(s.samples),
                         Fmt(s.unique_uas)});
           }
           csv.AddRow({"region_residential", Fmt(r.region_residential), ""});
           csv.AddRow({"region_bots", Fmt(r.region_bots), ""});
           csv.AddRow({"region_gateways", Fmt(r.region_gateways), ""});
           csv.AddRow({"gateway_whois_cellular",
                       Fmt(r.gateway_whois_cellular), ""});
           csv.AddRow({"gateway_whois_apnic", Fmt(r.gateway_whois_apnic), ""});
         });

  SortByName(files);
  return files;
}

std::vector<GoldenFile> RenderAllGoldens(const GoldenConfig& config) {
  sim::WorldConfig wc;
  wc.target_client_blocks = config.blocks;
  wc.seed = config.seed;
  const analysis::Inputs inputs{wc};
  std::vector<GoldenFile> files = RenderGoldens(config, inputs);
  for (const analysis::Experiment& e : analysis::Experiments()) {
    std::ostringstream os;
    e.run(inputs, os);
    files.push_back(
        GoldenFile{"experiments/" + std::string(e.id) + ".txt", os.str()});
  }
  SortByName(files);
  return files;
}

std::string RenderManifest(const std::vector<GoldenFile>& files) {
  std::ostringstream os;
  report::CsvWriter csv{os, {"file", "crc32c"}};
  for (const GoldenFile& f : files) {
    csv.AddRow({f.name, CrcHex(f.contents)});
  }
  return os.str();
}

void WriteGoldens(const std::string& dir,
                  const std::vector<GoldenFile>& files) {
  std::filesystem::create_directories(dir);
  for (const GoldenFile& f : files) {
    std::filesystem::path path = std::filesystem::path(dir) / f.name;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream os{path, std::ios::binary};
    os << f.contents;
  }
  std::ofstream manifest{std::filesystem::path(dir) / kManifestName,
                         std::ios::binary};
  manifest << RenderManifest(files);
}

const char* GoldenIssueKindName(GoldenIssue::Kind kind) {
  switch (kind) {
    case GoldenIssue::Kind::kMissing:
      return "missing";
    case GoldenIssue::Kind::kStale:
      return "stale-golden";
    case GoldenIssue::Kind::kRegression:
      return "regression";
    case GoldenIssue::Kind::kUnexpected:
      return "unexpected";
  }
  return "?";
}

namespace {

bool ReadFile(const std::filesystem::path& path, std::string* out) {
  std::ifstream is{path, std::ios::binary};
  if (!is) return false;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  *out = buffer.str();
  return true;
}

// MANIFEST.csv rows -> (file, crc hex), header skipped. The manifest is
// machine-written; unparseable rows surface as kStale on their files.
std::vector<std::pair<std::string, std::string>> ParseManifest(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> rows;
  std::istringstream is{text};
  std::string line;
  bool first = true;
  while (std::getline(is, line)) {
    if (first) {
      first = false;
      continue;
    }
    auto comma = line.find(',');
    if (comma == std::string::npos) continue;
    rows.emplace_back(line.substr(0, comma), line.substr(comma + 1));
  }
  return rows;
}

}  // namespace

std::vector<GoldenIssue> VerifyGoldens(
    const std::string& dir, const std::vector<GoldenFile>& rendered) {
  std::vector<GoldenIssue> issues;
  obs::GlobalRegistry()
      .GetCounter("check.golden_files_checked")
      .Add(rendered.size());

  std::string manifest_text;
  std::vector<std::pair<std::string, std::string>> manifest;
  if (!ReadFile(std::filesystem::path(dir) / kManifestName, &manifest_text)) {
    issues.push_back(GoldenIssue{GoldenIssue::Kind::kMissing, kManifestName,
                                 "run with --update-goldens to create"});
  } else {
    manifest = ParseManifest(manifest_text);
  }
  auto manifest_crc = [&](const std::string& name) -> const std::string* {
    for (const auto& row : manifest) {
      if (row.first == name) return &row.second;
    }
    return nullptr;
  };

  for (const GoldenFile& f : rendered) {
    std::string on_disk;
    if (!ReadFile(std::filesystem::path(dir) / f.name, &on_disk)) {
      issues.push_back(GoldenIssue{GoldenIssue::Kind::kMissing, f.name,
                                   "snapshot not on disk"});
      continue;
    }
    const std::string* committed = manifest_crc(f.name);
    std::string disk_crc = CrcHex(on_disk);
    if (committed != nullptr && *committed != disk_crc) {
      // The checkout itself disagrees with its manifest: the golden file
      // was edited or corrupted, independent of any code change.
      issues.push_back(GoldenIssue{
          GoldenIssue::Kind::kStale, f.name,
          "disk crc " + disk_crc + " != manifest crc " + *committed});
      continue;
    }
    if (committed == nullptr && !manifest.empty()) {
      issues.push_back(GoldenIssue{GoldenIssue::Kind::kUnexpected, f.name,
                                   "not listed in " +
                                       std::string(kManifestName)});
    }
    if (on_disk != f.contents) {
      issues.push_back(GoldenIssue{GoldenIssue::Kind::kRegression, f.name,
                                   FirstLineDiff(on_disk, f.contents)});
    }
  }

  // Manifest entries whose snapshot the code no longer renders.
  for (const auto& row : manifest) {
    bool known = false;
    for (const GoldenFile& f : rendered) {
      if (f.name == row.first) known = true;
    }
    if (!known) {
      issues.push_back(GoldenIssue{GoldenIssue::Kind::kUnexpected, row.first,
                                   "in manifest but no longer rendered"});
    }
  }
  return issues;
}

}  // namespace ipscope::check
