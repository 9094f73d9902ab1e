// Tests for the ipscope_lint lexer and rule engine (tools/lint/).
//
// The lexer tests pin the C++ lexical edge cases a token-level analyzer
// must not trip over (raw strings, multi-line comments, digit separators);
// the rule tests drive AnalyzeFile directly over inline snippets, so the
// committed corpus (tests/lint_corpus/, exercised by the LintSelfTest
// ctest entry) stays the end-to-end check while these stay fast and
// pinpointed.
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph.h"
#include "gtest/gtest.h"
#include "lexer.h"
#include "rules.h"
#include "sarif.h"

namespace lint = ipscope::lint;

namespace {

std::vector<std::string> CodeTexts(const std::string& src) {
  std::vector<std::string> out;
  for (const lint::Token& t : lint::Lex(src).code) out.push_back(t.text);
  return out;
}

// --- Lexer -----------------------------------------------------------------

TEST(LintLexer, SplitsIdentifiersNumbersPunct) {
  auto toks = CodeTexts("int x = a1+2;");
  EXPECT_EQ(toks,
            (std::vector<std::string>{"int", "x", "=", "a1", "+", "2", ";"}));
}

TEST(LintLexer, BannedNameInsideStringIsNotAnIdentifier) {
  lint::LexResult r = lint::Lex("f(\"atoi(getenv)\");");
  for (const lint::Token& t : r.code) {
    EXPECT_NE(t.kind == lint::TokKind::kIdent ? t.text : "", "atoi");
    EXPECT_NE(t.kind == lint::TokKind::kIdent ? t.text : "", "getenv");
  }
}

TEST(LintLexer, RawStringSwallowsEverythingToDelimiter) {
  // The ")" inside the raw string must not close anything, and the banned
  // identifier inside must not leak into the code stream.
  std::string src = "auto s = R\"(atoi(\"7\") // not a comment)\"; g();";
  lint::LexResult r = lint::Lex(src);
  ASSERT_TRUE(r.comments.empty());
  bool saw_g = false;
  for (const lint::Token& t : r.code) {
    if (t.kind == lint::TokKind::kIdent) {
      EXPECT_NE(t.text, "atoi");
      if (t.text == "g") saw_g = true;
    }
  }
  EXPECT_TRUE(saw_g);
}

TEST(LintLexer, RawStringCustomDelimiter) {
  std::string src = "auto s = R\"ab()\" trap )ab\"; h();";
  lint::LexResult r = lint::Lex(src);
  bool saw_h = false, saw_trap = false;
  for (const lint::Token& t : r.code) {
    if (t.text == "h") saw_h = true;
    if (t.text == "trap") saw_trap = true;
  }
  EXPECT_TRUE(saw_h);
  EXPECT_FALSE(saw_trap);
}

TEST(LintLexer, MultiLineCommentTracksLines) {
  std::string src = "a;\n/* one\ntwo\nthree */ b;\n";
  lint::LexResult r = lint::Lex(src);
  ASSERT_EQ(r.comments.size(), 1u);
  EXPECT_EQ(r.comments[0].line, 2);
  EXPECT_EQ(r.comments[0].end_line, 4);
  ASSERT_EQ(r.code.size(), 4u);  // a ; b ;
  EXPECT_EQ(r.code[2].text, "b");
  EXPECT_EQ(r.code[2].line, 4);
}

TEST(LintLexer, DigitSeparatorsStayOneNumber) {
  auto toks = CodeTexts("x = 1'000'000 + 0x1p-3 + 1.5e+10;");
  EXPECT_EQ(toks[2], "1'000'000");
  EXPECT_EQ(toks[4], "0x1p-3");
  EXPECT_EQ(toks[6], "1.5e+10");
}

TEST(LintLexer, CharLiteralIsNotADigitSeparator) {
  auto toks = CodeTexts("c = ':'; d = 'x';");
  EXPECT_EQ(toks[2], "':'");
  EXPECT_EQ(toks[6], "'x'");
}

TEST(LintLexer, LineCommentDoesNotEatNewline) {
  lint::LexResult r = lint::Lex("a; // trailing note\nb;");
  ASSERT_EQ(r.comments.size(), 1u);
  EXPECT_EQ(r.comments[0].line, 1);
  EXPECT_EQ(r.code[2].text, "b");
  EXPECT_EQ(r.code[2].line, 2);
}

TEST(LintLexer, EllipsisIsOneToken) {
  auto toks = CodeTexts("catch (...) {}");
  EXPECT_EQ(toks, (std::vector<std::string>{"catch", "(", "...", ")", "{",
                                            "}"}));
}

// --- Rule engine -----------------------------------------------------------

lint::FileAnalysis Analyze(const std::string& pseudo_path,
                           const std::string& src) {
  return lint::AnalyzeFile(lint::ClassifyPath(pseudo_path), src);
}

bool HasRule(const lint::FileAnalysis& fa, const std::string& rule) {
  for (const lint::Finding& f : fa.findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

TEST(LintRules, UnorderedIterFiresOnlyInResultLayers) {
  std::string src =
      "#include <unordered_map>\n"
      "int f(const std::unordered_map<int,int>& m) {\n"
      "  int t = 0;\n"
      "  for (const auto& [k, v] : m) t += v;\n"
      "  return t;\n"
      "}\n";
  EXPECT_TRUE(
      HasRule(Analyze("src/analysis/x.cc", src), "determinism.unordered-iter"));
  // Non-result layers may iterate (the sim layer feeds the store builder,
  // which canonicalizes ordering).
  EXPECT_FALSE(
      HasRule(Analyze("src/sim/x.cc", src), "determinism.unordered-iter"));
}

TEST(LintRules, UnorderedIterSeesThroughAliases) {
  std::string src =
      "using M = std::unordered_map<int,int>;\n"
      "int f(M& m) {\n"
      "  int t = 0;\n"
      "  for (auto& [k, v] : m) t += v;\n"
      "  return t;\n"
      "}\n";
  lint::FileAnalysis fa = Analyze("src/check/x.cc", src);
  ASSERT_TRUE(HasRule(fa, "determinism.unordered-iter"));
  EXPECT_EQ(fa.findings[0].line, 4);
}

TEST(LintRules, SuppressionOnSameLineSilencesAndCounts) {
  std::string src =
      "int f(std::unordered_map<int,int>& m) {\n"
      "  int t = 0;\n"
      "  for (auto& [k, v] : m) t += v;  // lint: ordered(commutative sum)\n"
      "  return t;\n"
      "}\n";
  lint::FileAnalysis fa = Analyze("src/report/x.cc", src);
  EXPECT_TRUE(fa.findings.empty());
  EXPECT_EQ(fa.suppressions_used, 1);
}

TEST(LintRules, StandaloneSuppressionAppliesToNextCodeLine) {
  std::string src =
      "int f(std::unordered_map<int,int>& m) {\n"
      "  int t = 0;\n"
      "  // lint: ordered(commutative sum over independent buckets,\n"
      "  // continued across two comment lines)\n"
      "  for (auto& [k, v] : m) t += v;\n"
      "  return t;\n"
      "}\n";
  lint::FileAnalysis fa = Analyze("src/report/x.cc", src);
  EXPECT_TRUE(fa.findings.empty());
  EXPECT_EQ(fa.suppressions_used, 1);
}

TEST(LintRules, EmptyJustificationIsItselfAFinding) {
  std::string src =
      "int f(std::unordered_map<int,int>& m) {\n"
      "  int t = 0;\n"
      "  for (auto& [k, v] : m) t += v;  // lint: ordered( )\n"
      "  return t;\n"
      "}\n";
  lint::FileAnalysis fa = Analyze("src/report/x.cc", src);
  EXPECT_TRUE(HasRule(fa, "lint.suppression"));
  EXPECT_TRUE(HasRule(fa, "determinism.unordered-iter"));  // not silenced
  EXPECT_EQ(fa.suppressions_used, 0);
}

TEST(LintRules, WrongTagDoesNotSuppress) {
  std::string src =
      "int f(std::unordered_map<int,int>& m) {\n"
      "  for (auto& [k, v] : m) {}  // lint: io(wrong tag for this rule)\n"
      "  return 0;\n"
      "}\n";
  lint::FileAnalysis fa = Analyze("src/report/x.cc", src);
  EXPECT_TRUE(HasRule(fa, "determinism.unordered-iter"));
}

TEST(LintRules, TimeRuleExemptsObsAndBench) {
  std::string src = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(HasRule(Analyze("src/scan/x.cc", src), "determinism.time"));
  EXPECT_FALSE(HasRule(Analyze("src/obs/x.cc", src), "determinism.time"));
  EXPECT_FALSE(HasRule(Analyze("bench/x.cc", src), "determinism.time"));
}

TEST(LintRules, TimeRuleStillCoversInstrumentedHotPaths) {
  // The scheduler, observatory, and store IO carry telemetry now, but they
  // are NOT time-exempt: their instrumentation must route through the
  // obs::Stopwatch/Span wrappers, never read clocks directly.
  std::string src = "auto t = std::chrono::steady_clock::now();\n";
  for (const char* path : {"src/par/pool.cc", "src/cdn/observatory.cc",
                           "src/io/store_io.cc"}) {
    EXPECT_TRUE(HasRule(Analyze(path, src), "determinism.time")) << path;
  }
  // The prefix match is anchored: a path merely containing "obs" or "bench"
  // is not exempt.
  EXPECT_TRUE(
      HasRule(Analyze("src/analysis/obs_helper.cc", src), "determinism.time"));
  EXPECT_TRUE(HasRule(Analyze("src/benchlike/x.cc", src), "determinism.time"));
}

TEST(LintRules, PopcountFiresOutsideMatrixHeaderOnly) {
  std::string direct = "int n = std::popcount(word);\n";
  std::string builtin = "int n = __builtin_popcountll(word);\n";
  for (const char* path : {"src/activity/change.cc", "src/serve/server.cc",
                           "tests/x_test.cc", "tools/lint/x.cc"}) {
    EXPECT_TRUE(HasRule(Analyze(path, direct), "perf.popcount")) << path;
    EXPECT_TRUE(HasRule(Analyze(path, builtin), "perf.popcount")) << path;
  }
  EXPECT_FALSE(HasRule(Analyze("src/activity/matrix.h", "#pragma once\n" +
                                                            direct),
                       "perf.popcount"));
  // Only the std-qualified call: an unrelated identifier is not one.
  EXPECT_FALSE(HasRule(Analyze("src/activity/x.cc", "int popcount = 0;\n"),
                       "perf.popcount"));
}

TEST(LintRules, Crc32cFiresOutsideCrcSourceOnly) {
  std::string intrinsic = "auto c = _mm_crc32_u64(crc, word);\n";
  std::string builtin = "auto c = __builtin_ia32_crc32di(crc, word);\n";
  for (const char* path : {"src/io/store_io.cc", "src/ingest/session.cc",
                           "tests/x_test.cc", "bench/bench_micro.cc"}) {
    EXPECT_TRUE(HasRule(Analyze(path, intrinsic), "perf.isa-intrinsics"))
        << path;
    EXPECT_TRUE(HasRule(Analyze(path, builtin), "perf.isa-intrinsics"))
        << path;
  }
  EXPECT_FALSE(HasRule(Analyze("src/io/crc32c.cc", intrinsic + builtin),
                       "perf.isa-intrinsics"));
  // The dispatched entry points are not instructions.
  EXPECT_FALSE(HasRule(Analyze("src/io/x.cc",
                               "auto c = Crc32cExtend(0, p, n);\n"),
                       "perf.isa-intrinsics"));
}

TEST(LintRules, IsaIntrinsicsFireOutsideTheirTwoHomesOnly) {
  const std::string spellings[] = {
      "auto z = _mm512_mullo_epi64(a, b);\n",
      "auto m = _mm512_cmplt_epu64_mask(a, b);\n",
      "auto v = _mm256_add_epi64(a, b);\n",
      "auto n = _mm_popcnt_u64(word);\n",
      "auto c = __builtin_ia32_crc32di(crc, word);\n",
  };
  for (const std::string& src : spellings) {
    for (const char* path :
         {"src/sim/policy.cc", "src/rng/lognormal_batch.cc",
          "src/activity/matrix.h", "src/serve/server.cc", "tests/x_test.cc",
          "bench/bench_micro.cc", "tools/lint/x.cc"}) {
      EXPECT_TRUE(HasRule(Analyze(path, src), "perf.isa-intrinsics"))
          << path << ": " << src;
    }
    for (const char* home : {"src/io/crc32c.cc", "src/rng/flip_words.cc"}) {
      EXPECT_FALSE(HasRule(Analyze(home, src), "perf.isa-intrinsics"))
          << home << ": " << src;
    }
  }
  // The header of the coin-flip kernel is not a home, vector types are
  // not intrinsics, and neither are the dispatched entry points.
  EXPECT_TRUE(HasRule(Analyze("src/rng/flip_words.h",
                              "#pragma once\n"
                              "auto z = _mm512_set1_epi64(1);\n"),
                      "perf.isa-intrinsics"));
  EXPECT_FALSE(HasRule(Analyze("src/sim/policy.cc",
                               "__m512i z; int _mm = 0;\n"
                               "auto w = rng::FlipWord(k, 64, s, t);\n"),
                       "perf.isa-intrinsics"));
  // A popcount intrinsic is one finding, not one per rule.
  EXPECT_FALSE(HasRule(Analyze("src/serve/server.cc",
                               "auto n = _mm_popcnt_u64(word);\n"),
                       "perf.popcount"));
}

TEST(LintRules, OneKernelFiresInSrcOutsidePolicyOnly) {
  std::string call = "void F() { GenerateStep(plan, spec, 0, bits); }\n";
  for (const char* path : {"src/security/reputation.cc", "src/cdn/rawlog.h",
                           "src/sim/world.cc", "src/check/reference.cc"}) {
    EXPECT_TRUE(HasRule(Analyze(path, "#pragma once\n" + call),
                        "design.one-kernel"))
        << path;
  }
  for (const char* path : {"src/sim/policy.cc", "src/sim/policy.h",
                           "tests/sim_kernel_test.cc", "bench/bench_micro.cc",
                           "examples/log_pipeline.cpp"}) {
    EXPECT_FALSE(HasRule(Analyze(path, "#pragma once\n" + call),
                         "design.one-kernel"))
        << path;
  }
  // A mention in a comment, or the name without a call, is not a call.
  EXPECT_FALSE(HasRule(Analyze("src/cdn/x.cc",
                               "// GenerateStep(plan)\n"
                               "auto* f = &GenerateStep;\n"),
                       "design.one-kernel"));
}

TEST(LintRules, RawParseAndGetenvFireEverywhere) {
  std::string src =
      "#include <cstdlib>\n"
      "int n = atoi(std::getenv(\"X\"));\n";
  lint::FileAnalysis fa = Analyze("tests/x.cc", src);
  EXPECT_TRUE(HasRule(fa, "parsing.raw-parse"));
  EXPECT_TRUE(HasRule(fa, "parsing.getenv"));
}

TEST(LintRules, CatchAllNeedsRethrowOrReport) {
  std::string silent =
      "void f() { try { g(); } catch (...) { x = 0; } }\n";
  std::string rethrow =
      "void f() { try { g(); } catch (...) { throw; } }\n";
  std::string report =
      "void f() { try { g(); } catch (...) { obs::Count(); } }\n";
  EXPECT_TRUE(
      HasRule(Analyze("src/io/x.cc", silent), "silent-fallback.catch-all"));
  EXPECT_FALSE(
      HasRule(Analyze("src/io/x.cc", rethrow), "silent-fallback.catch-all"));
  EXPECT_FALSE(
      HasRule(Analyze("src/io/x.cc", report), "silent-fallback.catch-all"));
}

TEST(LintRules, EmptyDefaultReturnOnlyInLibraryAndTools) {
  std::string src =
      "int f(K k) { switch (k) { case K::kA: return 1; default: return 0; } }\n";
  EXPECT_TRUE(
      HasRule(Analyze("src/geo/x.cc", src), "silent-fallback.empty-default"));
  EXPECT_FALSE(
      HasRule(Analyze("tests/x.cc", src), "silent-fallback.empty-default"));
}

TEST(LintRules, PragmaOnceAllowsLeadingComments) {
  std::string good = "// banner\n/* doc */\n#pragma once\nint x;\n";
  std::string bad = "// banner\nint x;\n#pragma once\n";
  EXPECT_FALSE(HasRule(Analyze("src/io/x.h", good), "hygiene.pragma-once"));
  EXPECT_TRUE(HasRule(Analyze("src/io/x.h", bad), "hygiene.pragma-once"));
  // Source files have no pragma requirement.
  EXPECT_FALSE(HasRule(Analyze("src/io/x.cc", bad), "hygiene.pragma-once"));
}

TEST(LintRules, IoRuleExemptsCliToolsAndSnprintf) {
  std::string src = "void f() { printf(\"x\"); }\n";
  EXPECT_TRUE(HasRule(Analyze("src/stats/x.cc", src), "hygiene.io"));
  EXPECT_FALSE(HasRule(Analyze("src/cli/x.cc", src), "hygiene.io"));
  EXPECT_FALSE(HasRule(Analyze("tools/x.cc", src), "hygiene.io"));
  std::string fmt = "void f() { char b[8]; std::snprintf(b, 8, \"x\"); }\n";
  EXPECT_FALSE(HasRule(Analyze("src/stats/x.cc", fmt), "hygiene.io"));
}

TEST(LintRules, FindingsSortedByLine) {
  std::string src =
      "#include <cstdlib>\n"
      "int a = atoi(\"1\");\n"
      "int b = atoi(\"2\");\n";
  lint::FileAnalysis fa = Analyze("src/io/x.cc", src);
  ASSERT_EQ(fa.findings.size(), 2u);
  EXPECT_LT(fa.findings[0].line, fa.findings[1].line);
}

// --- Graph passes (phase 2) ------------------------------------------------

lint::ProjectFile MakeProjectFile(const std::string& pseudo,
                                  const std::string& src) {
  lint::FileAnalysis fa = Analyze(pseudo, src);
  return lint::ProjectFile{pseudo, pseudo, std::move(fa.facts),
                           std::move(fa.suppressions)};
}

const lint::Finding* FindProjectRule(const lint::ProjectAnalysis& pa,
                                     const std::string& rule) {
  for (const lint::Finding& f : pa.findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

TEST(LintGraph, ModuleOfPathSplitsIoBase) {
  EXPECT_EQ(lint::ModuleOfPath("src/geo/db.cc"), "geo");
  EXPECT_EQ(lint::ModuleOfPath("src/serve/server.h"), "serve");
  // The io.base leaves sit below obs; the rest of src/io is the data layer.
  EXPECT_EQ(lint::ModuleOfPath("src/io/result.h"), "io.base");
  EXPECT_EQ(lint::ModuleOfPath("src/io/crc32c.cc"), "io.base");
  EXPECT_EQ(lint::ModuleOfPath("src/io/store_io.cc"), "io");
  // Outside src/ there is no module (tools are unlayered).
  EXPECT_EQ(lint::ModuleOfPath("tools/lint/graph.cc"), "");
  EXPECT_EQ(lint::LayerOfModule("netbase"), 0);
  EXPECT_EQ(lint::LayerOfModule("serve"), 4);
  EXPECT_EQ(lint::LayerOfModule("no-such-module"), -1);
}

TEST(LintGraph, IllegalDepFiresOnlyUpward) {
  std::vector<lint::ProjectFile> up;
  up.push_back(MakeProjectFile("src/sim/world.cc",
                               "#include \"serve/server.h\"\nint x;\n"));
  lint::ProjectAnalysis pa = lint::AnalyzeProject(up);
  const lint::Finding* f = FindProjectRule(pa, "layering.illegal-dep");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path, "src/sim/world.cc");
  EXPECT_EQ(f->line, 1);
  ASSERT_FALSE(f->related.empty());

  // The reverse direction (services -> data) is legal.
  std::vector<lint::ProjectFile> down;
  down.push_back(MakeProjectFile("src/serve/server.cc",
                                 "#include \"sim/world.h\"\nint x;\n"));
  pa = lint::AnalyzeProject(down);
  EXPECT_EQ(FindProjectRule(pa, "layering.illegal-dep"), nullptr);
}

TEST(LintGraph, CycleReportedOnceWithFullChain) {
  std::vector<lint::ProjectFile> files;
  files.push_back(MakeProjectFile("src/geo/a.cc",
                                  "#include \"scan/b.h\"\nint a;\n"));
  files.push_back(MakeProjectFile("src/scan/b.h",
                                  "#pragma once\n#include \"geo/c.h\"\n"));
  lint::ProjectAnalysis pa = lint::AnalyzeProject(files);
  const lint::Finding* f = FindProjectRule(pa, "layering.cycle");
  ASSERT_NE(f, nullptr);
  // Anchored at the representative edge out of the smallest module (geo),
  // with one related location per cycle edge.
  EXPECT_EQ(f->path, "src/geo/a.cc");
  EXPECT_EQ(f->line, 1);
  EXPECT_NE(f->message.find("geo -> scan -> geo"), std::string::npos);
  ASSERT_EQ(f->related.size(), 2u);
  EXPECT_EQ(f->related[0].path, "src/geo/a.cc");
  EXPECT_EQ(f->related[1].path, "src/scan/b.h");
  // Exactly one finding per cycle, not one per participating edge.
  int cycle_findings = 0;
  for (const lint::Finding& g : pa.findings) {
    if (g.rule == "layering.cycle") ++cycle_findings;
  }
  EXPECT_EQ(cycle_findings, 1);
}

TEST(LintGraph, ForkUnsafeTransitiveReachability) {
  std::vector<lint::ProjectFile> files;
  files.push_back(MakeProjectFile(
      "src/ingest/session.cc",
      "#include \"measurement/helper.h\"\nvoid Ingest() {}\n"));
  files.push_back(MakeProjectFile(
      "src/measurement/helper.h",
      "#pragma once\n#include <mutex>\nstruct H { std::mutex mu; };\n"));
  lint::ProjectAnalysis pa = lint::AnalyzeProject(files);
  const lint::Finding* f = FindProjectRule(pa, "concurrency.fork-unsafe");
  ASSERT_NE(f, nullptr);
  // Anchored at the root's include line, where the dependency is chosen.
  EXPECT_EQ(f->path, "src/ingest/session.cc");
  EXPECT_EQ(f->line, 1);
  ASSERT_GE(f->related.size(), 2u);
  EXPECT_EQ(f->related.back().path, "src/measurement/helper.h");
  EXPECT_EQ(f->related.back().line, 3);

  // The same hazard outside ingest's include closure is fine.
  std::vector<lint::ProjectFile> apart;
  apart.push_back(
      MakeProjectFile("src/ingest/session.cc", "void Ingest() {}\n"));
  apart.push_back(MakeProjectFile(
      "src/serve/server.cc",
      "#include <mutex>\nstruct S { std::mutex mu; };\n"));
  pa = lint::AnalyzeProject(apart);
  EXPECT_EQ(FindProjectRule(pa, "concurrency.fork-unsafe"), nullptr);
}

TEST(LintGraph, ForkUnsafeDirectPrimitiveAndSuppression) {
  std::vector<lint::ProjectFile> files;
  files.push_back(MakeProjectFile(
      "src/ingest/shard.cc",
      "#include <thread>\nvoid F() { std::thread t; }\n"));
  lint::ProjectAnalysis pa = lint::AnalyzeProject(files);
  const lint::Finding* f = FindProjectRule(pa, "concurrency.fork-unsafe");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 2);  // anchored at the use, not the include

  // A justified fork-tag suppression on the anchor line silences it.
  std::vector<lint::ProjectFile> suppressed;
  suppressed.push_back(MakeProjectFile(
      "src/ingest/shard.cc",
      "#include <thread>\n"
      "// lint: fork(joined before the chaos gate ever forks)\n"
      "void F() { std::thread t; }\n"));
  pa = lint::AnalyzeProject(suppressed);
  EXPECT_EQ(FindProjectRule(pa, "concurrency.fork-unsafe"), nullptr);
  EXPECT_EQ(pa.suppressions_used, 1);
}

TEST(LintGraph, DiscardedResultHeaderDeclIsProjectWide) {
  std::vector<lint::ProjectFile> files;
  files.push_back(MakeProjectFile(
      "src/io/api.h",
      "#pragma once\nipscope::Result<int, int> FrobStore();\n"));
  files.push_back(MakeProjectFile("src/cli/use.cc",
                                  "void G() {\n  FrobStore();\n}\n"));
  lint::ProjectAnalysis pa = lint::AnalyzeProject(files);
  const lint::Finding* f = FindProjectRule(pa, "errors.discarded-result");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path, "src/cli/use.cc");
  EXPECT_EQ(f->line, 2);
  ASSERT_FALSE(f->related.empty());
  EXPECT_EQ(f->related[0].path, "src/io/api.h");

  // Binding the value is not a discard.
  std::vector<lint::ProjectFile> bound;
  bound.push_back(files[0]);
  bound.push_back(MakeProjectFile(
      "src/cli/use.cc", "void G() {\n  auto r = FrobStore();\n  (void)r;\n}\n"));
  pa = lint::AnalyzeProject(bound);
  EXPECT_EQ(FindProjectRule(pa, "errors.discarded-result"), nullptr);
}

TEST(LintGraph, DiscardedResultCcDeclIsTuLocal) {
  // A Result-returning helper declared in a .cc shadows only its own TU:
  // an unrelated same-named call in another file is not flagged ...
  std::vector<lint::ProjectFile> files;
  files.push_back(MakeProjectFile(
      "src/io/impl.cc", "ipscope::Result<int, int> LocalFrob();\n"));
  files.push_back(MakeProjectFile("src/cli/other.cc",
                                  "void G() {\n  LocalFrob();\n}\n"));
  lint::ProjectAnalysis pa = lint::AnalyzeProject(files);
  EXPECT_EQ(FindProjectRule(pa, "errors.discarded-result"), nullptr);

  // ... while a discard in the declaring file itself still is.
  std::vector<lint::ProjectFile> same;
  same.push_back(MakeProjectFile(
      "src/io/impl.cc",
      "ipscope::Result<int, int> LocalFrob();\n"
      "void G() {\n  LocalFrob();\n}\n"));
  pa = lint::AnalyzeProject(same);
  const lint::Finding* f = FindProjectRule(pa, "errors.discarded-result");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 3);
}

TEST(LintGraph, GuardedByHeaderAnnotationCoversCc) {
  std::string header =
      "#pragma once\n"
      "#include <mutex>\n"
      "class W {\n"
      " public:\n"
      "  void Bump();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int q_ = 0;  // guards: mu_\n"
      "};\n";
  std::vector<lint::ProjectFile> files;
  files.push_back(MakeProjectFile("src/serve/widget.h", header));
  files.push_back(MakeProjectFile("src/serve/widget.cc",
                                  "#include \"serve/widget.h\"\n"
                                  "void W::Bump() { q_ += 1; }\n"));
  lint::ProjectAnalysis pa = lint::AnalyzeProject(files);
  const lint::Finding* f = FindProjectRule(pa, "concurrency.guarded-by");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path, "src/serve/widget.cc");
  EXPECT_EQ(f->line, 2);
  ASSERT_FALSE(f->related.empty());
  EXPECT_EQ(f->related[0].path, "src/serve/widget.h");
  EXPECT_EQ(f->related[0].line, 8);

  // The same touch under a RAII lock on the named mutex is clean.
  std::vector<lint::ProjectFile> locked;
  locked.push_back(MakeProjectFile("src/serve/widget.h", header));
  locked.push_back(MakeProjectFile(
      "src/serve/widget.cc",
      "#include \"serve/widget.h\"\n"
      "void W::Bump() {\n"
      "  std::lock_guard<std::mutex> lock{mu_};\n"
      "  q_ += 1;\n"
      "}\n"));
  pa = lint::AnalyzeProject(locked);
  EXPECT_EQ(FindProjectRule(pa, "concurrency.guarded-by"), nullptr);
}

// --- SARIF -----------------------------------------------------------------

TEST(LintSarif, EmitsValidStructureWithEscaping) {
  std::vector<lint::Finding> findings;
  findings.push_back(lint::Finding{"parsing.raw-parse", "src/a \"b\".cc", 3, 7,
                                   "message with \"quotes\"\nand newline",
                                   {}});
  std::ostringstream os;
  lint::WriteSarif(findings, os);
  std::string sarif = os.str();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"parsing.raw-parse\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\\\"quotes\\\"\\nand newline"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  // Every catalogue rule is declared in the driver metadata.
  for (const lint::RuleMeta& r : lint::RuleCatalogue()) {
    EXPECT_NE(sarif.find(std::string("\"id\": \"") + r.id + "\""),
              std::string::npos)
        << r.id;
  }
}

}  // namespace
