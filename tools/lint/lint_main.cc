// ipscope_lint — the project-contract static analyzer.
//
//   ipscope_lint [--root DIR] [--format text|sarif] [--out FILE]
//                [--metrics-out FILE] [--list-rules] [paths...]
//   ipscope_lint --self-test [--corpus DIR]
//
// With no paths, scans root/{src,tools,bench,tests,examples} (skipping the
// committed violation corpus).
// Exit codes: 0 clean, 1 findings or self-test failure, 2 usage error.
// See tools/lint/rules.h for the rule catalogue and DESIGN.md §4.10/§4.15
// for the contracts the rules encode.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "obs/timer.h"
#include "rules.h"
#include "sarif.h"
#include "scan.h"

namespace lint = ipscope::lint;

namespace {

int Usage(std::ostream& os) {
  os << "usage: ipscope_lint [--root DIR] [--format text|sarif] [--out FILE]\n"
        "                    [--metrics-out FILE] [--list-rules] "
        "[paths...]\n"
        "       ipscope_lint --self-test [--corpus DIR]\n";
  return 2;
}

// `--flag value` or `--flag=value`.
bool TakeValueFlag(const std::vector<std::string>& args, std::size_t& i,
                   const std::string& name, std::string& out) {
  const std::string& a = args[i];
  if (a == name) {
    if (i + 1 >= args.size()) return false;
    out = args[++i];
    return true;
  }
  if (a.rfind(name + "=", 0) == 0) {
    out = a.substr(name.size() + 1);
    return true;
  }
  return false;
}

void WriteText(const lint::ScanResult& result, double scan_seconds,
               std::ostream& os) {
  for (const lint::Finding& f : result.findings) {
    os << f.path << ":" << f.line << ":" << f.col << ": [" << f.rule << "] "
       << f.message << "\n";
    for (const lint::RelatedLocation& rl : f.related) {
      os << "    via " << rl.path << ":" << rl.line << ": " << rl.message
         << "\n";
    }
  }
  os << "ipscope_lint: " << result.files_scanned << " files, "
     << result.findings.size() << " findings, " << result.suppressions_used
     << " justified suppressions\n";
  char stats[64];
  std::snprintf(stats, sizeof(stats), "ipscope_lint: scan %.0f ms",
                scan_seconds * 1e3);
  os << stats << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string root = ".";
  std::string format = "text";
  std::string out_path;
  std::string metrics_out;
  std::string corpus;
  bool self_test = false;
  bool list_rules = false;
  std::vector<std::string> paths;

  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    if (TakeValueFlag(args, i, "--root", root)) continue;
    if (TakeValueFlag(args, i, "--format", format)) continue;
    if (TakeValueFlag(args, i, "--out", out_path)) continue;
    if (TakeValueFlag(args, i, "--metrics-out", metrics_out)) continue;
    if (TakeValueFlag(args, i, "--corpus", corpus)) continue;
    if (args[i] == "--self-test") {
      self_test = true;
      continue;
    }
    if (args[i] == "--list-rules") {
      list_rules = true;
      continue;
    }
    if (args[i] == "--help" || args[i] == "-h") return Usage(std::cout);
    if (args[i].rfind("--", 0) == 0) {
      std::cerr << "ipscope_lint: unknown flag '" << args[i] << "'\n";
      return Usage(std::cerr);
    }
    paths.push_back(args[i]);
  }
  if (format != "text" && format != "sarif") {
    std::cerr << "ipscope_lint: --format must be text or sarif\n";
    return Usage(std::cerr);
  }

  if (list_rules) {
    for (const lint::RuleMeta& r : lint::RuleCatalogue()) {
      std::cout << r.id << "  (suppress: "
                << (r.tag ? std::string("lint: ") + r.tag + "(<why>)"
                          : std::string("not suppressible"))
                << ")\n    " << r.summary << "\n";
    }
    return 0;
  }

  try {
    if (self_test) {
      if (corpus.empty()) corpus = root + "/tests/lint_corpus";
      return lint::RunSelfTest(corpus, std::cout);
    }

    ipscope::obs::Stopwatch watch;
    lint::ScanResult result = paths.empty() ? lint::ScanTree(root)
                                            : lint::ScanFiles(root, paths);
    double scan_seconds = watch.Seconds();

    auto& registry = ipscope::obs::GlobalRegistry();
    registry.GetCounter("lint.files_scanned")
        .Add(static_cast<std::uint64_t>(result.files_scanned));
    registry.GetCounter("lint.findings_total")
        .Add(result.findings.size());
    registry.GetCounter("lint.suppressions_used")
        .Add(static_cast<std::uint64_t>(result.suppressions_used));
    registry.GetGauge("lint.scan_seconds").Set(scan_seconds);
    if (!metrics_out.empty()) registry.WriteJsonFile(metrics_out);

    std::ofstream out_file;
    std::ostream* os = &std::cout;
    if (!out_path.empty()) {
      out_file.open(out_path);
      if (!out_file) {
        std::cerr << "ipscope_lint: cannot write " << out_path << "\n";
        return 2;
      }
      os = &out_file;
    }
    if (format == "sarif") {
      lint::WriteSarif(result.findings, *os);
    } else {
      WriteText(result, scan_seconds, *os);
    }
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ipscope_lint: fatal: " << e.what() << "\n";
    return 2;
  }
}
