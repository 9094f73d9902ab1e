// Phase-1 facts for the cross-file (phase-2) passes of ipscope_lint.
//
// AnalyzeFile extracts one FileFacts per translation unit alongside the
// per-file findings. Facts are the ONLY thing the whole-project passes in
// graph.h consume.
//
// Extracted facts:
//   * quoted #include edges (the layering DAG and fork-reachability input)
//   * declarations of ipscope::Result-returning functions (the cross-TU
//     symbol table for errors.discarded-result)
//   * statement-position call candidates whose value is discarded
//   * fork-unsafe primitive uses (par::, std::thread/jthread/async,
//     std::mutex family) for concurrency.fork-unsafe
//   * `// guards: <mutex>` field annotations and every member-field touch
//     together with the set of RAII-locked mutexes held at that token
//     (concurrency.guarded-by)
#pragma once

#include <string>
#include <vector>

#include "lexer.h"

namespace ipscope::lint {

struct FileFacts {
  // `#include "target"` — target is as written (rooted at src/ by project
  // convention, e.g. "obs/registry.h").
  struct Include {
    std::string target;
    int line = 0;
    int col = 0;
  };

  // `Result<...> Name(...)` declaration or definition (optionally
  // qualified: `Result<...> Session::Open(...)` records "Open").
  struct ResultFn {
    std::string name;
    int line = 0;
  };

  // A call `Name(...)` in statement position: nothing consumes its value.
  // Phase 2 intersects these with the project-wide ResultFn table. An
  // explicit `(void)Name(...)` cast does not count as discarded.
  struct DiscardedCall {
    std::string name;
    int line = 0;
    int col = 0;
  };

  // A fork-unsafe primitive use. kind is "pool" (anything from par::,
  // ParallelFor/ParallelReduce), "thread" (std::thread/jthread/async), or
  // "mutex" (std::mutex family, condition variables).
  struct Primitive {
    std::string kind;
    std::string token;  // the offending spelling, e.g. "std::mutex"
    int line = 0;
    int col = 0;
  };

  // `// guards: <mutex>` on (or immediately above) a field declaration:
  // the field may only be touched while <mutex> is locked.
  struct GuardAnnotation {
    std::string field;
    std::string mutex;
    int decl_line = 0;  // the code line the annotation applies to
    int ann_line = 0;   // where the comment itself sits
  };

  // A member-field-shaped identifier touch (trailing '_' or accessed via
  // `.`/`->`), with the mutexes RAII-locked in enclosing scopes.
  struct FieldTouch {
    std::string field;
    int line = 0;
    int col = 0;
    std::vector<std::string> held;  // sorted, deduplicated
  };

  std::vector<Include> includes;
  std::vector<ResultFn> result_fns;
  std::vector<DiscardedCall> discarded_calls;
  std::vector<Primitive> primitives;
  std::vector<GuardAnnotation> guards;
  std::vector<FieldTouch> touches;

};


// Extracts every fact from one lexed file. Pure function of the token
// streams; path-independent (classification happens in phase 2).
FileFacts ExtractFacts(const LexResult& lexed);

}  // namespace ipscope::lint
