// check golden store — committed canonical-seed snapshots of every figure
// and table series, plus a CRC manifest.
//
// The golden files are the regression net the differential sweep cannot
// provide: the sweep proves optimized == reference *today*, the goldens
// prove today's output == the output reviewed and committed yesterday. A
// legitimate behavior change therefore shows up as a golden diff that must
// be refreshed deliberately (`ipscope_cli check --update-goldens`) and
// reviewed in the PR, never silently.
//
// Layout under the golden directory (tests/golden/ in the repo):
//   MANIFEST.csv           file,crc32c of every snapshot (sorted by name)
//   daily_counts.csv       Fig 4a series (active/up/down; -1 = no data)
//   churn.csv              Fig 4b window churn percentages
//   vsfirst.csv            Fig 4c appear/disappear vs first window
//   group_churn.csv        Fig 5a per-AS churn medians
//   eventsize.csv          Fig 5b isolating-mask histograms (up and down)
//   patterns.csv           Fig 6 pattern classification counts
//   stu_change.csv         Fig 8a per-block max monthly STU delta
//   block_metrics.csv      Fig 8b per-block FD / STU
//   summary.csv            scalar table: store shape, totals, Chapman
//   fig2.csv               Fig 2 CDN vs ICMP splits + ICMP-only classes
//   fig9.csv               Fig 9a/b days-active bins, 9c weekly shares
//   fig10.csv              Fig 10 per-block UA samples + region tallies
//   experiments/<id>.txt   the text every registered experiment prints
//                          (analysis/experiments.h), e.g. fig4_churn.txt
//
// Renderings are bit-deterministic: every analysis obeys the
// par::ParallelReduce ordered-merge contract (thread-count independent)
// and doubles are printed through report::FormatDouble with fixed
// precision, so a golden diff is a real behavior change, not run-to-run
// noise. The manifest CRC separates the two failure modes: disk == manifest
// but != rendered means the code changed (regression); disk != manifest
// means the checkout itself is stale or corrupt.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.h"

namespace ipscope::check {

struct GoldenConfig {
  std::uint64_t seed = 1;  // the canonical golden world
  int blocks = 400;
  int window_days = 7;
  int month_days = 28;
  std::uint64_t group_min_ips = 64;
};

struct GoldenFile {
  std::string name;      // e.g. "churn.csv"
  std::string contents;  // full file text
};

// Renders the figure-series CSVs (manifest excluded), sorted by name, from
// `inputs`, built at `config`'s seed and scale.
std::vector<GoldenFile> RenderGoldens(const GoldenConfig& config,
                                      const analysis::Inputs& inputs);

// Everything the golden directory holds, sorted by name: the series CSVs
// plus experiments/<id>.txt for every registered experiment, all rendered
// from one shared analysis::Inputs built at the config's seed and scale.
std::vector<GoldenFile> RenderAllGoldens(const GoldenConfig& config);

// "file,crc32c" manifest over the rendered files, one row per file.
std::string RenderManifest(const std::vector<GoldenFile>& files);

// Writes `files` plus their MANIFEST.csv into `dir` (created if absent).
void WriteGoldens(const std::string& dir,
                  const std::vector<GoldenFile>& files);

struct GoldenIssue {
  enum class Kind {
    kMissing,     // snapshot or manifest absent on disk
    kStale,       // disk contents disagree with the committed manifest CRC
    kRegression,  // disk matches manifest but code renders something else
    kUnexpected,  // file on disk / in manifest that is not rendered anymore
  };
  Kind kind;
  std::string file;
  std::string detail;  // first differing line, CRCs, ...
};

const char* GoldenIssueKindName(GoldenIssue::Kind kind);

// Compares freshly `rendered` files against `dir` and its manifest; an
// issue's `file` names the series or experiment that differs. Empty result
// = clean. Increments check.golden_files_checked.
std::vector<GoldenIssue> VerifyGoldens(const std::string& dir,
                                       const std::vector<GoldenFile>& rendered);

}  // namespace ipscope::check
