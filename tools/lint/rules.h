// Project-contract rules for ipscope_lint.
//
// Every rule encodes an invariant PRs 1-5 established by convention and
// review alone; the analyzer turns them into machine-checked contracts:
//
//  [determinism] — the ordered-merge contract (DESIGN §4.8) guarantees
//  bit-identical results for any --threads. Iterating a std::unordered_*
//  container (or calling std::reduce) in a result-producing layer reorders
//  output with the hash seed / libstdc++ version; wall-clock sources and
//  std::random_device make runs unreproducible.
//    determinism.unordered-iter   range-for / .begin() over an unordered
//                                 container in src/{activity,analysis,
//                                 check,report}. Suppress: lint: ordered(...)
//    determinism.reduce           std::reduce in the same layers.
//                                 Suppress: lint: ordered(...)
//    determinism.time             std::rand/srand, std::random_device,
//                                 time(nullptr), argless ::now() outside
//                                 src/obs and bench/. Suppress: lint: time(...)
//
//  [parsing] — PR 1 and PR 5 replaced every silent atoi-style fallback
//  with checked whole-string parses (par::ParseThreadsEnv, the cli
//  checked parsers, bench ParseNumber). Raw parses must not come back.
//    parsing.raw-parse            atoi/strtol/stoull/sscanf family.
//                                 Suppress: lint: parse(...)
//    parsing.getenv               raw getenv outside the blessed wrapper.
//                                 Suppress: lint: getenv(...)
//
//  [silent-fallback] — errors are typed (io::Result) or logged, never
//  swallowed.
//    silent-fallback.catch-all    catch (...) whose handler neither
//                                 rethrows (throw / current_exception) nor
//                                 reports (obs, stderr, exit/abort).
//                                 Suppress: lint: fallback(...)
//    silent-fallback.empty-default  `default: return <value>;` in library
//                                 switches — a new enum member silently
//                                 inherits the fallback instead of failing
//                                 -Wswitch. Suppress: lint: default(...)
//
//  [hygiene]
//    hygiene.pragma-once          every header opens with #pragma once
//                                 (comments may precede it).
//    hygiene.using-namespace      no `using namespace` in headers.
//                                 Suppress: lint: using(...)
//    hygiene.io                   no printf/fprintf/std::cout/std::cerr in
//                                 library code (src/ minus src/cli; CLI,
//                                 tests, bench, examples exempt).
//                                 Suppress: lint: io(...)
//
//  [perf] — PR 8 rebuilt the activity analysis layer on word-level row
//  kernels (Row(day) + popcount/XOR/ANDNOT, HostActiveDayCounts): one
//  per-host Get probe touches one bit where a row word op touches 64.
//    perf.row-loop                advisory: member call to Get(...) inside
//                                 a for-loop body in src/activity/*.cc.
//                                 Suppress: lint: rowloop(...)
//    perf.popcount                std::popcount / __builtin_popcount*
//                                 anywhere but src/activity/matrix.h: the
//                                 baseline build compiles each to a
//                                 libgcc call; activity::PopCount is
//                                 call-free, and activity::PopCountHw is
//                                 the instruction in a function compiled
//                                 for popcnt. Suppress: lint: popcount(...)
//    perf.isa-intrinsics          _mm_* / _mm256_* / _mm512_* intrinsics
//                                 and __builtin_ia32_* builtins anywhere
//                                 but src/io/crc32c.cc and
//                                 src/rng/flip_words.cc: an intrinsic
//                                 needs a target attribute and a CPU
//                                 check, and those two files hold the
//                                 dispatched kernels (io::Crc32cExtend,
//                                 rng::FlipWord). Suppress: lint: isa(...)
//
//  [design]
//    design.one-kernel            a GenerateStep call in src/ outside
//                                 src/sim/policy.{h,cc}: GenerateBlock is
//                                 the one production generation kernel,
//                                 GenerateStep its oracle for tests, bench
//                                 and examples. Suppress: lint: kernel(...)
//
//  lint.suppression — a `// lint: tag(...)` with empty justification. The
//  justification is the reviewable artifact; it is mandatory.
//
// Suppression syntax: `// lint: <tag>(<justification>)`, comma-separable
// (`// lint: ordered(a), io(b)`). A trailing comment suppresses its own
// line; a standalone comment line suppresses the next code line. The
// justification must be non-empty and must not contain ')'.
// Cross-file (phase-2) rules live in graph.h; their catalogue entries are
// registered here so SARIF metadata, --list-rules, and the self-test's
// every-rule-fires check see one unified rule set:
//
//  [layering]     layering.illegal-dep, layering.cycle — the declared
//                 module DAG. Suppress: lint: layer(...)
//  [concurrency]  concurrency.fork-unsafe — nothing reachable from
//                 src/ingest may touch pools/threads/mutexes (chaos-crash
//                 forks). Suppress: lint: fork(...)
//                 concurrency.guarded-by — `// guards: <mutex>` fields are
//                 only touched under that lock. Suppress: lint: guard(...)
//  [errors]       errors.discarded-result — ipscope::Result return values
//                 must be consumed. Suppress: lint: result(...)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "facts.h"

namespace ipscope::lint {

// Where a file sits in the tree, derived from its path relative to the
// repo root. Drives which rules apply.
struct FileInfo {
  std::string rel_path;      // normalized, '/'-separated
  bool header = false;       // .h / .hpp
  bool result_layer = false; // src/activity|analysis|check|report
  bool library = false;      // src/** minus src/cli (hygiene.io scope)
  bool time_exempt = false;  // src/obs/** or bench/** (determinism.time)
  bool default_scope = false;// src/** or tools/** (silent-fallback.empty-default)
  bool activity_impl = false;// src/activity/** non-header (perf.row-loop)
  bool popcount_home = false;// src/activity/matrix.h (perf.popcount)
  bool isa_home = false;     // src/io/crc32c.cc, src/rng/flip_words.cc
                             // (perf.isa-intrinsics)
  bool kernel_scope = false; // src/** minus src/sim/policy.{h,cc}
                             // (design.one-kernel)
};

// Classifies `rel_path` (path relative to the repo root, '/'-separated).
FileInfo ClassifyPath(std::string rel_path);

// A supporting location on a finding — the steps of an include chain, the
// declaration a call resolves to, the annotation a touch violates. Emitted
// as SARIF relatedLocations and as indented `via` lines in text output.
struct RelatedLocation {
  std::string path;
  int line = 0;
  std::string message;
};

struct Finding {
  std::string rule;     // e.g. "determinism.unordered-iter"
  std::string path;     // as reported (FileInfo::rel_path)
  int line = 0;
  int col = 0;
  std::string message;  // human sentence, includes the offending token span
  std::vector<RelatedLocation> related;  // phase-2 chains; empty in phase 1
};

// A justified suppression, exported so the phase-2 passes (graph.h) can
// honor `lint: layer(...)` etc. anchored in this file.
struct SuppressionRecord {
  std::string tag;
  int applies_line = 0;
};

struct FileAnalysis {
  std::vector<Finding> findings;    // unsuppressed findings only
  int suppressions_used = 0;        // findings silenced by a justified tag
  FileFacts facts;                  // phase-1 facts for the project passes
  std::vector<SuppressionRecord> suppressions;  // justified, incl. unused
};

// Runs every applicable rule over one file.
FileAnalysis AnalyzeFile(const FileInfo& info, std::string_view source);

// Rule catalogue, for SARIF metadata, --list-rules, and the self-test's
// every-rule-fires check.
struct RuleMeta {
  const char* id;
  const char* tag;   // suppression tag; nullptr = not suppressible
  const char* summary;
};
const std::vector<RuleMeta>& RuleCatalogue();

}  // namespace ipscope::lint
