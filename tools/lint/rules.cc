#include "rules.h"

#include <algorithm>
#include <map>
#include <set>

#include "lexer.h"
#include "token_util.h"

namespace ipscope::lint {
namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}
bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// ---------------------------------------------------------------------------
// Suppressions

struct Suppression {
  std::string tag;
  std::string justification;
  int comment_line = 0;  // where the comment starts (for diagnostics)
  int applies_line = 0;  // code line it silences
  bool used = false;
};

// Parses every `lint: tag(justification)[, tag(justification)...]` inside
// one comment's text. Malformed clauses are ignored (they simply do not
// suppress anything); an empty justification is reported by the caller.
void ParseSuppressionsInComment(const std::string& text, int comment_line,
                                std::vector<Suppression>& out) {
  std::size_t pos = 0;
  const std::string kKey = "lint:";
  while ((pos = text.find(kKey, pos)) != std::string::npos) {
    std::size_t p = pos + kKey.size();
    pos = p;
    for (;;) {
      while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
      std::size_t tag_first = p;
      while (p < text.size() &&
             (std::isalpha(static_cast<unsigned char>(text[p])) ||
              text[p] == '-')) {
        ++p;
      }
      if (p == tag_first || p >= text.size() || text[p] != '(') break;
      std::string tag = text.substr(tag_first, p - tag_first);
      ++p;  // '('
      std::size_t close = text.find(')', p);
      if (close == std::string::npos) break;
      Suppression s;
      s.tag = std::move(tag);
      s.justification = text.substr(p, close - p);
      // Trim the justification so "  " does not count as one.
      while (!s.justification.empty() && s.justification.back() == ' ') {
        s.justification.pop_back();
      }
      while (!s.justification.empty() && s.justification.front() == ' ') {
        s.justification.erase(s.justification.begin());
      }
      s.comment_line = comment_line;
      out.push_back(std::move(s));
      p = close + 1;
      while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
      if (p < text.size() && text[p] == ',') {
        ++p;
        continue;
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule engine (token-shape helpers shared with facts.cc live in
// token_util.h)

struct Engine {
  const FileInfo& info;
  const Tokens& toks;
  std::vector<Finding> raw;  // pre-suppression

  void Report(const char* rule, const Token& at, std::string message) {
    raw.push_back(Finding{rule, info.rel_path, at.line, at.col,
                          std::move(message), {}});
  }

  // --- [determinism] -------------------------------------------------------

  // Names declared with an unordered container type (including through
  // local `using X = std::unordered_map<...>` aliases).
  std::set<std::string> CollectUnorderedNames() const {
    static const std::set<std::string> kUnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    std::set<std::string> aliases;  // type aliases that are unordered
    std::set<std::string> names;    // variables/parameters of those types
    for (std::size_t i = 0; i < toks.size(); ++i) {
      bool direct = toks[i].kind == TokKind::kIdent &&
                    kUnorderedTypes.count(toks[i].text) > 0;
      bool via_alias =
          toks[i].kind == TokKind::kIdent && aliases.count(toks[i].text) > 0;
      if (!direct && !via_alias) continue;
      if (direct) {
        // Look back for `using ALIAS =` (allowing the std:: qualifier).
        std::size_t q = i;
        if (StdQualified(toks, q)) q -= 3;
        if (q >= 2 && IsPunct(toks[q - 1], "=") &&
            toks[q - 2].kind == TokKind::kIdent && q >= 3 &&
            IsIdent(toks[q - 3], "using")) {
          aliases.insert(toks[q - 2].text);
        }
      }
      std::size_t j = i + 1;
      if (direct) {
        if (j >= toks.size() || !IsPunct(toks[j], "<")) continue;
        j = SkipTemplateArgs(toks, j);
        if (j == i + 1) continue;  // imbalanced
      }
      // Declarators: skip cv/ref/ptr noise, then record identifier names
      // (`T a, b;` records both).
      for (;;) {
        while (j < toks.size() &&
               (IsPunct(toks[j], "&") || IsPunct(toks[j], "*") ||
                IsIdent(toks[j], "const"))) {
          ++j;
        }
        if (j >= toks.size() || toks[j].kind != TokKind::kIdent) break;
        // If the candidate is itself followed by an identifier, '<', or
        // '::' it is a type name (e.g. the next parameter's type after a
        // comma), not a declared variable — stop the declarator walk.
        if (j + 1 < toks.size() &&
            (toks[j + 1].kind == TokKind::kIdent ||
             IsPunct(toks[j + 1], "<") || IsPunct(toks[j + 1], ":"))) {
          break;
        }
        names.insert(toks[j].text);
        ++j;
        // Skip an initializer up to ',' or ';' at depth 0.
        int depth = 0;
        while (j < toks.size()) {
          const Token& t = toks[j];
          if (IsPunct(t, "(") || IsPunct(t, "{") || IsPunct(t, "[")) ++depth;
          if (IsPunct(t, ")") || IsPunct(t, "}") || IsPunct(t, "]")) --depth;
          if (depth < 0) break;
          if (depth == 0 && (IsPunct(t, ",") || IsPunct(t, ";"))) break;
          ++j;
        }
        if (j < toks.size() && IsPunct(toks[j], ",")) {
          ++j;
          continue;
        }
        break;
      }
    }
    return names;
  }

  void RuleUnorderedIter() {
    if (!info.result_layer) return;
    std::set<std::string> unordered = CollectUnorderedNames();
    if (unordered.empty()) return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      // Range-for whose range expression mentions an unordered name.
      if (IsIdent(toks[i], "for") && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(")) {
        int depth = 0;
        std::size_t colon = 0, close = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
          if (IsPunct(toks[j], "(")) ++depth;
          if (IsPunct(toks[j], ")")) {
            --depth;
            if (depth == 0) {
              close = j;
              break;
            }
          }
          if (depth == 1 && IsPunct(toks[j], ":") &&
              !IsPunct(toks[j - 1], ":") &&
              (j + 1 >= toks.size() || !IsPunct(toks[j + 1], ":"))) {
            colon = j;
          }
        }
        if (colon != 0 && close > colon) {
          for (std::size_t j = colon + 1; j < close; ++j) {
            if (toks[j].kind == TokKind::kIdent &&
                unordered.count(toks[j].text)) {
              Report("determinism.unordered-iter", toks[i],
                     "range-for over unordered container '" + toks[j].text +
                         "' in a result-producing layer; iteration order is "
                         "hash-dependent");
              break;
            }
          }
        }
      }
      // Explicit iterator walk: name.begin() / name.cbegin().
      if (toks[i].kind == TokKind::kIdent && unordered.count(toks[i].text) &&
          i + 2 < toks.size() && IsPunct(toks[i + 1], ".") &&
          (IsIdent(toks[i + 2], "begin") || IsIdent(toks[i + 2], "cbegin") ||
           IsIdent(toks[i + 2], "rbegin"))) {
        Report("determinism.unordered-iter", toks[i],
               "'" + toks[i].text + "." + toks[i + 2].text +
                   "()' iterates an unordered container in a "
                   "result-producing layer; iteration order is "
                   "hash-dependent");
      }
    }
  }

  void RuleReduce() {
    if (!info.result_layer) return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (IsIdent(toks[i], "reduce") && StdQualified(toks, i)) {
        Report("determinism.reduce", toks[i],
               "std::reduce reassociates the accumulation "
               "non-deterministically; use par::ParallelReduce "
               "(ordered merge) or std::accumulate");
      }
    }
  }

  void RuleTime() {
    if (info.time_exempt) return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      if ((t.text == "rand" || t.text == "srand") && StdQualified(toks, i)) {
        Report("determinism.time", t,
               "std::" + t.text + " is seeded process state; use rng::Rng "
               "with an explicit seed");
        continue;
      }
      if (t.text == "random_device") {
        Report("determinism.time", t,
               "std::random_device draws entropy the run cannot replay; "
               "use rng::Rng with an explicit seed");
        continue;
      }
      if (t.text == "time" && i + 2 < toks.size() &&
          IsPunct(toks[i + 1], "(") &&
          (IsIdent(toks[i + 2], "nullptr") || IsIdent(toks[i + 2], "NULL") ||
           (toks[i + 2].kind == TokKind::kNumber && toks[i + 2].text == "0"))) {
        Report("determinism.time", t,
               "time(" + toks[i + 2].text + ") injects wall-clock state; "
               "thread timestamps through configuration or obs");
        continue;
      }
      if (t.text == "now" && ScopeQualified(toks, i) && i + 2 < toks.size() &&
          IsPunct(toks[i + 1], "(") && IsPunct(toks[i + 2], ")")) {
        Report("determinism.time", t,
               "argless ::now() reads the wall clock; clocks belong in "
               "src/obs timers or bench harnesses");
      }
    }
  }

  // --- [parsing] -----------------------------------------------------------

  void RuleRawParse() {
    static const std::set<std::string> kRawParse = {
        "atoi",   "atol",    "atoll",   "atof",   "strtol",  "strtoul",
        "strtoll", "strtoull", "strtof", "strtod", "strtold", "stoi",
        "stol",   "stoll",   "stoul",   "stoull", "stof",    "stod",
        "stold",  "sscanf",  "vsscanf"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent || !kRawParse.count(toks[i].text)) {
        continue;
      }
      if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
      // Member calls (obj.stoi(...)) are not the std functions.
      if (i >= 1 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], ">"))) {
        continue;
      }
      Report("parsing.raw-parse", toks[i],
             "'" + toks[i].text + "' parses without whole-string/range "
             "checking; use the checked wrappers (cli parsers, "
             "par::ParseThreadsEnv, bench ParseNumber / std::from_chars)");
    }
  }

  void RuleGetenv() {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      if (toks[i].text != "getenv" && toks[i].text != "secure_getenv") {
        continue;
      }
      if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
      Report("parsing.getenv", toks[i],
             "raw " + toks[i].text + "() outside the blessed wrapper "
             "(par::DefaultThreads); environment reads must be centralized "
             "and validated");
    }
  }

  // --- [silent-fallback] ---------------------------------------------------

  void RuleCatchAll() {
    static const std::set<std::string> kReports = {
        "throw",      "current_exception", "rethrow_exception",
        "abort",      "exit",              "_Exit",
        "quick_exit", "terminate",         "obs",
        "cerr",       "cout",              "clog",
        "fprintf",    "printf",            "FAIL",
        "ADD_FAILURE"};
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (!IsIdent(toks[i], "catch") || !IsPunct(toks[i + 1], "(") ||
          !IsPunct(toks[i + 2], "...") || !IsPunct(toks[i + 3], ")")) {
        continue;
      }
      // Find the handler block and scan it for any rethrow/report marker.
      std::size_t open = i + 4;
      while (open < toks.size() && !IsPunct(toks[open], "{")) ++open;
      bool reports = false;
      int depth = 0;
      std::size_t j = open;
      for (; j < toks.size(); ++j) {
        if (IsPunct(toks[j], "{")) ++depth;
        if (IsPunct(toks[j], "}")) {
          --depth;
          if (depth == 0) break;
        }
        if (toks[j].kind == TokKind::kIdent && kReports.count(toks[j].text)) {
          reports = true;
        }
      }
      if (!reports) {
        Report("silent-fallback.catch-all", toks[i],
               "catch (...) swallows the exception without rethrowing "
               "(throw / std::current_exception) or reporting (obs, "
               "stderr, exit)");
      }
    }
  }

  void RuleEmptyDefault() {
    if (!info.default_scope) return;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (!IsIdent(toks[i], "default") || !IsPunct(toks[i + 1], ":")) continue;
      if (IsPunct(toks[i + 2], ":")) continue;  // `default ::` qualifier
      if (!IsIdent(toks[i + 2], "return")) continue;
      if (IsPunct(toks[i + 3], ";")) continue;  // bare `return;` is a no-op
      std::size_t semi = i + 3;
      while (semi < toks.size() && !IsPunct(toks[semi], ";")) ++semi;
      Report("silent-fallback.empty-default", toks[i],
             "'default: " + Snippet(toks, i + 2, std::min(semi + 1, i + 8)) +
                 "' silently maps future enum members to a fallback value; "
                 "enumerate the cases so -Wswitch catches additions");
    }
  }

  // --- [perf] --------------------------------------------------------------

  // Advisory: per-host `m.Get(day, host)` probing inside a loop in the
  // activity hot paths. One Get is one bit; the word-level kernels
  // (Row(day) + popcount/XOR/ANDNOT, HostActiveDayCounts) touch 64 hosts
  // per memory access. The naive reference implementations in src/check
  // are deliberately out of scope — they exist to be slow and obvious.
  void RuleRowLoop() {
    if (!info.activity_impl) return;
    std::set<std::size_t> reported;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!IsIdent(toks[i], "for") || !IsPunct(toks[i + 1], "(")) continue;
      // Skip the loop header to its matching ')'.
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        if (IsPunct(toks[j], "(")) ++depth;
        if (IsPunct(toks[j], ")")) {
          --depth;
          if (depth == 0) break;
        }
      }
      if (j >= toks.size()) continue;
      // Body: a brace-matched block, or a single statement up to ';'.
      std::size_t body = j + 1;
      std::size_t end = body;
      if (body < toks.size() && IsPunct(toks[body], "{")) {
        int braces = 0;
        for (end = body; end < toks.size(); ++end) {
          if (IsPunct(toks[end], "{")) ++braces;
          if (IsPunct(toks[end], "}")) {
            --braces;
            if (braces == 0) break;
          }
        }
      } else {
        while (end < toks.size() && !IsPunct(toks[end], ";")) ++end;
      }
      for (std::size_t k = body; k + 1 < end; ++k) {
        if (!IsIdent(toks[k], "Get") || !IsPunct(toks[k + 1], "(")) continue;
        // Member calls only: `m.Get(` / `m->Get(`.
        if (k < 1 ||
            !(IsPunct(toks[k - 1], ".") || IsPunct(toks[k - 1], ">"))) {
          continue;
        }
        // Nested loops see the same call; report it once.
        if (!reported.insert(k).second) continue;
        Report("perf.row-loop", toks[k],
               "per-host Get(day, host) inside a loop probes one bit per "
               "memory touch; hoist to Row(day) word kernels "
               "(popcount/XOR/ANDNOT) or HostActiveDayCounts");
      }
    }
  }

  // Direct popcounts outside src/activity/matrix.h. The baseline x86-64
  // target has no popcnt instruction, so std::popcount and the
  // __builtin_popcount family compile to a call into libgcc's
  // __popcountdi2 per word. PopCount is the call-free kernel for any
  // function, PopCountHw the instruction for a function compiled for
  // popcnt. (The _mm_popcnt intrinsics are perf.isa-intrinsics findings.)
  void RulePopcount() {
    if (info.popcount_home) return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      bool direct = (t.text == "popcount" && StdQualified(toks, i)) ||
                    StartsWith(t.text, "__builtin_popcount");
      if (!direct) continue;
      Report("perf.popcount", t,
             "'" + t.text + "' is a popcount outside activity/matrix.h; "
             "use activity::PopCount, which is call-free on every target, "
             "or activity::PopCountHw inside a function compiled for "
             "popcnt");
    }
  }

  // x86 intrinsics and machine builtins outside the two kernel files. An
  // intrinsic only compiles inside a function built for its instruction
  // set and only runs on a CPU that has it; src/io/crc32c.cc (SSE4.2
  // CRC32C) and src/rng/flip_words.cc (AVX-512 coin-flip words) hold the
  // target attributes and pick their target once from the CPU, so every
  // other file calls their entry points instead.
  void RuleIsaIntrinsics() {
    if (info.isa_home) return;
    for (const Token& t : toks) {
      if (t.kind != TokKind::kIdent) continue;
      if (!StartsWith(t.text, "_mm_") && !StartsWith(t.text, "_mm256_") &&
          !StartsWith(t.text, "_mm512_") &&
          !StartsWith(t.text, "__builtin_ia32_")) {
        continue;
      }
      Report("perf.isa-intrinsics", t,
             "'" + t.text + "' is an ISA intrinsic outside io/crc32c.cc and "
             "rng/flip_words.cc; call their dispatched kernels "
             "(io::Crc32cExtend, rng::FlipWord), which pick the target "
             "once from the CPU");
    }
  }

  // --- [design] ------------------------------------------------------------

  // GenerateStep calls in library code. GenerateBlock is the one production
  // generation kernel; GenerateStep stays only as its per-step oracle.
  void RuleOneKernel() {
    if (!info.kernel_scope) return;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!IsIdent(toks[i], "GenerateStep") || !IsPunct(toks[i + 1], "(")) {
        continue;
      }
      Report("design.one-kernel", toks[i],
             "'GenerateStep(' in src/: production code generates with "
             "sim::GenerateBlock (rows, hits, occupants); GenerateStep is "
             "the oracle for tests, bench and examples");
    }
  }

  // --- [hygiene] -----------------------------------------------------------

  void RulePragmaOnce() {
    if (!info.header) return;
    bool ok = toks.size() >= 3 && IsPunct(toks[0], "#") &&
              IsIdent(toks[1], "pragma") && IsIdent(toks[2], "once");
    if (!ok) {
      Token at;  // file-level finding anchored at 1:1
      at.line = 1;
      at.col = 1;
      Report("hygiene.pragma-once", at,
             "header does not open with #pragma once (comments may "
             "precede it, code may not)");
    }
  }

  void RuleUsingNamespace() {
    if (!info.header) return;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (IsIdent(toks[i], "using") && IsIdent(toks[i + 1], "namespace")) {
        Report("hygiene.using-namespace", toks[i],
               "'using namespace' in a header leaks into every includer");
      }
    }
  }

  void RuleIo() {
    if (!info.library) return;
    static const std::set<std::string> kWriteFns = {"printf", "fprintf",
                                                    "vprintf", "vfprintf",
                                                    "puts", "fputs"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      if (kWriteFns.count(t.text) && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(") &&
          !(i >= 1 && (IsPunct(toks[i - 1], ".") ||
                       IsPunct(toks[i - 1], ">")))) {
        Report("hygiene.io", t,
               "'" + t.text + "' writes to a stdio stream from library "
               "code; return data or report through obs (CLI and tests "
               "are exempt)");
        continue;
      }
      if ((t.text == "cout" || t.text == "cerr" || t.text == "clog") &&
          StdQualified(toks, i)) {
        Report("hygiene.io", t,
               "std::" + t.text + " in library code; take an std::ostream& "
               "or report through obs (CLI and tests are exempt)");
      }
    }
  }

  void RuleUncheckedClose() {
    if (!info.default_scope) return;
    static const std::set<std::string> kCloseFns = {
        "close", "fclose", "fflush", "fsync", "fdatasync"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || kCloseFns.count(t.text) == 0) continue;
      if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
      // Member calls (stream.close(), file->close()) go through objects
      // whose error state is queried separately; the rule targets the
      // POSIX/stdio calls whose only error report is the return value.
      if (i >= 1 &&
          (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], ">"))) {
        continue;
      }
      // Walk back over `std::` / leading `::` qualifiers to find what
      // precedes the whole call expression. A statement keyword before a
      // global `::` (as in `return ::close(fd)`) is not a qualifier.
      static const std::set<std::string> kStmtKeywords = {
          "return", "co_return", "co_yield", "throw", "case", "else", "do"};
      std::size_t j = i;
      while (j >= 2 && IsPunct(toks[j - 1], ":") &&
             IsPunct(toks[j - 2], ":")) {
        if (j >= 3 && toks[j - 3].kind == TokKind::kIdent &&
            kStmtKeywords.count(toks[j - 3].text) == 0) {
          j -= 3;
        } else {
          j -= 2;
        }
      }
      // The result is discarded iff the call sits in statement position:
      // at the start of the file or right after a statement/block
      // boundary. Anything else (`if (close...`, `rc = close...`,
      // `return close...`, declarations) consumes or names it.
      bool discarded = j == 0 || IsPunct(toks[j - 1], ";") ||
                       IsPunct(toks[j - 1], "{") || IsPunct(toks[j - 1], "}");
      if (!discarded) continue;
      Report("hygiene.unchecked-close", t,
             "'" + t.text + "' result discarded: a failed close/flush is "
             "the last chance to see a lost write (ENOSPC, quota, NFS "
             "errors surface here); check it or justify a suppression");
    }
  }
};

const char* TagOfRule(const std::string& rule) {
  for (const RuleMeta& m : RuleCatalogue()) {
    if (rule == m.id) return m.tag;
  }
  return nullptr;
}

}  // namespace

FileInfo ClassifyPath(std::string rel_path) {
  std::replace(rel_path.begin(), rel_path.end(), '\\', '/');
  FileInfo info;
  info.rel_path = rel_path;
  info.header = EndsWith(rel_path, ".h") || EndsWith(rel_path, ".hpp");
  info.result_layer = StartsWith(rel_path, "src/activity/") ||
                      StartsWith(rel_path, "src/analysis/") ||
                      StartsWith(rel_path, "src/check/") ||
                      StartsWith(rel_path, "src/report/");
  info.library =
      StartsWith(rel_path, "src/") && !StartsWith(rel_path, "src/cli/");
  info.time_exempt =
      StartsWith(rel_path, "src/obs/") || StartsWith(rel_path, "bench/");
  info.default_scope =
      StartsWith(rel_path, "src/") || StartsWith(rel_path, "tools/");
  info.activity_impl = StartsWith(rel_path, "src/activity/") && !info.header;
  info.popcount_home = rel_path == "src/activity/matrix.h";
  info.isa_home = rel_path == "src/io/crc32c.cc" ||
                  rel_path == "src/rng/flip_words.cc";
  info.kernel_scope = StartsWith(rel_path, "src/") &&
                      rel_path != "src/sim/policy.h" &&
                      rel_path != "src/sim/policy.cc";
  return info;
}

const std::vector<RuleMeta>& RuleCatalogue() {
  static const std::vector<RuleMeta> kRules = {
      {"determinism.unordered-iter", "ordered",
       "No iteration over std::unordered_* containers in result-producing "
       "layers (src/activity, src/analysis, src/check, src/report)."},
      {"determinism.reduce", "ordered",
       "No std::reduce in result-producing layers; use par::ParallelReduce "
       "or std::accumulate."},
      {"determinism.time", "time",
       "No std::rand/srand, std::random_device, time(nullptr), or argless "
       "::now() outside src/obs and bench/."},
      {"parsing.raw-parse", "parse",
       "No atoi/strtol/sto*/sscanf family; use the checked parsers."},
      {"parsing.getenv", "getenv",
       "No raw getenv outside the blessed wrapper (par::DefaultThreads)."},
      {"silent-fallback.catch-all", "fallback",
       "catch (...) must rethrow or report (obs/stderr/exit)."},
      {"silent-fallback.empty-default", "default",
       "No `default: return <value>;` in library enum switches."},
      {"hygiene.pragma-once", "pragma",
       "Every header opens with #pragma once."},
      {"hygiene.using-namespace", "using",
       "No `using namespace` in headers."},
      {"hygiene.io", "io",
       "No printf/std::cout/std::cerr in library code."},
      {"perf.row-loop", "rowloop",
       "No per-host Get(day, host) loops in src/activity implementation "
       "files; use the Row(day) word kernels."},
      {"perf.popcount", "popcount",
       "No std::popcount or __builtin_popcount* outside "
       "src/activity/matrix.h; the baseline build compiles them to libgcc "
       "calls. Use activity::PopCount, or activity::PopCountHw in a "
       "function compiled for popcnt."},
      {"perf.isa-intrinsics", "isa",
       "No _mm_*/_mm256_*/_mm512_* intrinsics or __builtin_ia32_* builtins "
       "outside src/io/crc32c.cc and src/rng/flip_words.cc, the homes of "
       "the CPU-dispatched kernels (io::Crc32cExtend, rng::FlipWord)."},
      {"design.one-kernel", "kernel",
       "No GenerateStep calls in src/ outside src/sim/policy.{h,cc}; "
       "production code generates with sim::GenerateBlock."},
      {"hygiene.unchecked-close", "close",
       "No discarded fclose/close/fflush/fsync results; a failed close is "
       "a lost write."},
      {"lint.suppression", nullptr,
       "Every lint suppression carries a non-empty justification."},
      // Phase-2 (whole-project) rules; the passes live in graph.cc.
      {"layering.illegal-dep", "layer",
       "Modules include same-or-lower layers only: foundation (netbase, "
       "rng, timeutil, stats, io.base) -> infra (obs, par) -> data (io, "
       "activity, sim, ...) -> analysis (report, analysis, check) -> "
       "services (ingest, serve, cli)."},
      {"layering.cycle", "layer",
       "The module include graph must stay acyclic."},
      {"concurrency.fork-unsafe", "fork",
       "Nothing reachable from src/ingest through quoted includes may use "
       "par::, std::thread/jthread/async, or the std::mutex family "
       "(chaos-crash forks ingest processes)."},
      {"errors.discarded-result", "result",
       "Statement-position calls to ipscope::Result-returning functions "
       "discard the error; consume the value or cast to (void)."},
      {"concurrency.guarded-by",  "guard",
       "Fields annotated `// guards: <mutex>` are only touched in scopes "
       "that RAII-lock that mutex."},
  };
  return kRules;
}

FileAnalysis AnalyzeFile(const FileInfo& info, std::string_view source) {
  LexResult lexed = Lex(source);

  Engine engine{info, lexed.code, {}};
  engine.RulePragmaOnce();
  engine.RuleUsingNamespace();
  engine.RuleUnorderedIter();
  engine.RuleReduce();
  engine.RuleTime();
  engine.RuleRawParse();
  engine.RuleGetenv();
  engine.RuleCatchAll();
  engine.RuleEmptyDefault();
  engine.RuleIo();
  engine.RuleUncheckedClose();
  engine.RuleRowLoop();
  engine.RulePopcount();
  engine.RuleIsaIntrinsics();
  engine.RuleOneKernel();

  // Resolve where each suppression applies: a comment sharing a line with
  // code suppresses that line; a standalone comment suppresses the first
  // code line after it.
  std::set<int> code_lines;
  for (const Token& t : lexed.code) {
    for (int l = t.line; l <= t.end_line; ++l) code_lines.insert(l);
  }

  // Merge runs of consecutive standalone `//` lines into one logical
  // comment, so a justification may wrap across lines. A comment sharing
  // its line with code always stands alone (it suppresses that line).
  struct CommentBlock {
    std::string text;
    int line = 0;
    int end_line = 0;
    bool trailing = false;  // shares its first line with code
  };
  std::vector<CommentBlock> blocks;
  for (const Token& c : lexed.comments) {
    bool trailing = code_lines.count(c.line) > 0;
    bool line_style = c.text.rfind("//", 0) == 0;
    if (!trailing && line_style && !blocks.empty() &&
        !blocks.back().trailing &&
        blocks.back().text.rfind("//", 0) == 0 &&
        c.line == blocks.back().end_line + 1) {
      blocks.back().text += "\n";
      blocks.back().text += c.text;
      blocks.back().end_line = c.end_line;
      continue;
    }
    blocks.push_back(CommentBlock{c.text, c.line, c.end_line, trailing});
  }

  std::vector<Suppression> sups;
  FileAnalysis out;
  out.facts = ExtractFacts(lexed);
  for (const CommentBlock& c : blocks) {
    std::vector<Suppression> in_comment;
    ParseSuppressionsInComment(c.text, c.line, in_comment);
    for (Suppression& s : in_comment) {
      if (c.trailing) {
        s.applies_line = c.line;
      } else {
        auto it = code_lines.upper_bound(c.end_line);
        s.applies_line = it == code_lines.end() ? 0 : *it;
      }
      if (s.justification.empty()) {
        out.findings.push_back(Finding{
            "lint.suppression", info.rel_path, s.comment_line, 1,
            "suppression 'lint: " + s.tag +
                "(...)' has an empty justification; say why the contract "
                "holds here",
            {}});
        continue;  // an unjustified suppression does not silence anything
      }
      sups.push_back(std::move(s));
    }
  }

  for (Finding& f : engine.raw) {
    const char* tag = TagOfRule(f.rule);
    bool suppressed = false;
    if (tag != nullptr) {
      for (Suppression& s : sups) {
        if (s.applies_line == f.line && s.tag == tag) {
          s.used = true;
          suppressed = true;
          break;
        }
      }
    }
    if (suppressed) {
      ++out.suppressions_used;
    } else {
      out.findings.push_back(std::move(f));
    }
  }
  std::sort(out.findings.begin(), out.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule < b.rule;
            });
  // Export every justified suppression (used or not): the phase-2 passes
  // match them by tag + anchor line for findings anchored in this file.
  for (const Suppression& s : sups) {
    out.suppressions.push_back(SuppressionRecord{s.tag, s.applies_line});
  }
  return out;
}

}  // namespace ipscope::lint
