// Tree walking, the two-phase scan driver, and the self-test harness for
// ipscope_lint.
//
// A scan is: phase 1 per file (rules.h findings + FileFacts), then phase 2
// once over all facts (graph.h). The project for phase 2 is exactly the
// scanned file set — the full tree for ScanTree, the explicit list for
// ScanFiles, the corpus for the self-test.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "rules.h"

namespace ipscope::lint {

struct ScanResult {
  std::vector<Finding> findings;  // unsuppressed, ordered by path then line
  int files_scanned = 0;
  int suppressions_used = 0;
};

// Scans every .cc/.cpp/.h/.hpp under root/{src,tools,bench,tests,examples},
// skipping tests/lint_corpus (the committed violation corpus must never
// fail the tree gate). Paths are reported relative to root, sorted.
ScanResult ScanTree(const std::string& root);

// Scans an explicit list of files; each path is classified by its path
// relative to root (or used verbatim when already relative).
ScanResult ScanFiles(const std::string& root,
                     const std::vector<std::string>& paths);

// Runs the analyzer against the committed violation corpus and its
// expected-findings manifest. Proves, for every rule in the catalogue:
//   * the rule FIRES: <slug>.bad.* produces exactly the manifest findings;
//   * the rule stays QUIET: <slug>.good.* (the clean twin) produces none.
// Any missed finding, spurious finding, or missing corpus file is printed
// to `os`. Returns 0 on success, 1 on any mismatch.
//
// Corpus files declare their pretended tree location on line 1
// (`// lint-corpus-as: src/analysis/x.cc`) so layer-scoped rules apply.
// The whole corpus then runs through the phase-2 passes as ONE project
// (under the pseudo-paths), which is how the cross-file rules fire;
// helper files beyond the bad/good twins may participate in a chain as
// long as they themselves stay finding-free.
int RunSelfTest(const std::string& corpus_dir, std::ostream& os);

}  // namespace ipscope::lint
