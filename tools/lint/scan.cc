#include "scan.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "graph.h"

namespace ipscope::lint {
namespace {

namespace fs = std::filesystem;

bool LintableExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".h" || ext == ".hpp";
}

std::string ReadFileOrThrow(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + p.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// First-line corpus marker: `// lint-corpus-as: <pseudo-path>`.
std::string CorpusPseudoPath(const std::string& source) {
  const std::string kKey = "lint-corpus-as:";
  std::size_t eol = source.find('\n');
  std::string first = source.substr(0, eol);
  std::size_t at = first.find(kKey);
  if (at == std::string::npos) return {};
  std::size_t p = at + kKey.size();
  while (p < first.size() && first[p] == ' ') ++p;
  std::size_t end = first.find_last_not_of(" \t\r");
  if (end == std::string::npos || end < p) return {};
  return first.substr(p, end - p + 1);
}

std::string RuleSlug(std::string id) {
  std::replace(id.begin(), id.end(), '.', '_');
  std::replace(id.begin(), id.end(), '-', '_');
  return id;
}

void SortFindings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule < b.rule;
            });
}

}  // namespace

ScanResult ScanTree(const std::string& root) {
  static const char* kRoots[] = {"src", "tools", "bench", "tests", "examples"};
  std::vector<std::string> rels;
  for (const char* top : kRoots) {
    fs::path dir = fs::path(root) / top;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !LintableExtension(entry.path())) {
        continue;
      }
      std::string rel =
          fs::relative(entry.path(), root).generic_string();
      if (rel.rfind("tests/lint_corpus/", 0) == 0) continue;
      rels.push_back(std::move(rel));
    }
  }
  std::sort(rels.begin(), rels.end());
  return ScanFiles(root, rels);
}

ScanResult ScanFiles(const std::string& root,
                     const std::vector<std::string>& paths) {
  ScanResult out;
  std::vector<ProjectFile> project;
  for (const std::string& p : paths) {
    fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : fs::path(root) / p;
    std::string rel = fs::path(p).is_absolute()
                          ? fs::relative(abs, root).generic_string()
                          : fs::path(p).generic_string();
    FileAnalysis fa = AnalyzeFile(ClassifyPath(rel), ReadFileOrThrow(abs));
    ++out.files_scanned;
    out.suppressions_used += fa.suppressions_used;
    for (Finding& f : fa.findings) out.findings.push_back(std::move(f));
    project.push_back(ProjectFile{rel, rel, std::move(fa.facts),
                                  std::move(fa.suppressions)});
  }

  ProjectAnalysis pa = AnalyzeProject(project);
  out.suppressions_used += pa.suppressions_used;
  for (Finding& f : pa.findings) out.findings.push_back(std::move(f));
  SortFindings(out.findings);
  return out;
}

int RunSelfTest(const std::string& corpus_dir, std::ostream& os) {
  fs::path dir(corpus_dir);
  if (!fs::is_directory(dir)) {
    os << "lint self-test: corpus directory not found: " << corpus_dir
       << "\n";
    return 1;
  }

  // Expected findings: `<file>:<line>:<rule>` per manifest line.
  std::set<std::string> expected;
  {
    std::ifstream mf(dir / "MANIFEST.txt");
    if (!mf) {
      os << "lint self-test: missing " << (dir / "MANIFEST.txt").string()
         << "\n";
      return 1;
    }
    std::string line;
    while (std::getline(mf, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
        line.pop_back();
      }
      if (line.empty() || line[0] == '#') continue;
      expected.insert(line);
    }
  }

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && LintableExtension(entry.path())) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  int failures = 0;
  std::set<std::string> actual;
  std::set<std::string> fired_rules;
  std::vector<ProjectFile> project;
  for (const fs::path& f : files) {
    std::string source = ReadFileOrThrow(f);
    std::string pseudo = CorpusPseudoPath(source);
    std::string name = f.filename().string();
    if (pseudo.empty()) {
      os << "lint self-test: " << name
         << " lacks a `// lint-corpus-as: <path>` marker on line 1\n";
      ++failures;
      continue;
    }
    FileInfo info = ClassifyPath(pseudo);
    info.rel_path = name;  // report findings under the corpus file name
    FileAnalysis fa = AnalyzeFile(info, source);
    for (const Finding& finding : fa.findings) {
      actual.insert(name + ":" + std::to_string(finding.line) + ":" +
                    finding.rule);
      fired_rules.insert(finding.rule);
    }
    project.push_back(ProjectFile{name, pseudo, std::move(fa.facts),
                                  std::move(fa.suppressions)});
  }

  // Phase 2: the whole corpus is one project under its pseudo-paths, so
  // the cross-file rules (layering, fork-safety, discarded-Result,
  // guarded-by) fire across corpus files exactly as they would across the
  // tree.
  ProjectAnalysis pa = AnalyzeProject(project);
  for (const Finding& finding : pa.findings) {
    actual.insert(finding.path + ":" + std::to_string(finding.line) + ":" +
                  finding.rule);
    fired_rules.insert(finding.rule);
  }

  for (const std::string& e : expected) {
    if (!actual.count(e)) {
      os << "lint self-test: MISSED expected finding: " << e << "\n";
      ++failures;
    }
  }
  for (const std::string& a : actual) {
    if (!expected.count(a)) {
      os << "lint self-test: SPURIOUS finding: " << a << "\n";
      ++failures;
    }
  }

  // Every rule must fire on its .bad corpus file and have a committed
  // clean twin (whose cleanliness the spurious check above already
  // enforced).
  for (const RuleMeta& rule : RuleCatalogue()) {
    std::string slug = RuleSlug(rule.id);
    if (!fired_rules.count(rule.id)) {
      os << "lint self-test: rule " << rule.id
         << " fired on no corpus file\n";
      ++failures;
    }
    bool has_bad = false, has_good = false;
    for (const fs::path& f : files) {
      std::string name = f.filename().string();
      if (name.rfind(slug + ".bad.", 0) == 0) has_bad = true;
      if (name.rfind(slug + ".good.", 0) == 0) has_good = true;
    }
    if (!has_bad || !has_good) {
      os << "lint self-test: rule " << rule.id << " is missing its "
         << (!has_bad ? "violation file" : "clean twin") << " (" << slug
         << (!has_bad ? ".bad.*" : ".good.*") << ")\n";
      ++failures;
    }
  }

  if (failures == 0) {
    os << "lint self-test: OK (" << files.size() << " corpus files, "
       << expected.size() << " expected findings, "
       << RuleCatalogue().size() << " rules verified)\n";
    return 0;
  }
  os << "lint self-test: FAILED (" << failures << " problems)\n";
  return 1;
}

}  // namespace ipscope::lint
