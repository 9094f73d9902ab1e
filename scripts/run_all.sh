#!/usr/bin/env bash
# Build, test, and regenerate every paper experiment into results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build -j"$(nproc)"

# One sanitizer pass over the test suite (ASan + UBSan) so concurrent code —
# notably the obs metrics registry — is race/UB-checked on every full run.
# Set IPSCOPE_SKIP_SANITIZERS=1 to skip (e.g. on memory-constrained hosts).
if [ "${IPSCOPE_SKIP_SANITIZERS:-0}" != "1" ]; then
  cmake -B build-san -G Ninja -DIPSCOPE_ASAN=ON -DIPSCOPE_UBSAN=ON
  cmake --build build-san --target ipscope_tests ipscope_fault_tests \
    ipscope_lint
  # Only those binaries exist in this tree; ctest lists every other test
  # binary as a failing <binary>_NOT_BUILT placeholder.
  ctest --test-dir build-san -j"$(nproc)" -E '_NOT_BUILT$'

  # TSAN is incompatible with ASan, so it gets its own tree. The pass runs
  # every test in the three binaries it builds, so each pooled producer
  # (the hits pass, ScanMonth, GenerateBlock, the reputation scorer, the
  # UDmap analysis, ...) is race-checked without a hand-kept regex, beside
  # the par::Pool scheduler and determinism suites (oversubscribed thread
  # counts force real interleavings) and the serve daemon (reload races,
  # single-flight aggregate fills, the TCP accept loop and its drain).
  cmake -B build-tsan -G Ninja -DIPSCOPE_TSAN=ON
  cmake --build build-tsan --target ipscope_tests ipscope_par_tests \
    ipscope_serve_tests
  # The lint gates are not built here; they run in the trees above.
  ctest --test-dir build-tsan -j"$(nproc)" \
    -E '_NOT_BUILT$|^Lint(SelfTest|TreeScan)$'
fi

# A host-tuned pass: IPSCOPE_NATIVE builds the kernel TUs with
# -march=native, where activity::PopCount takes its std::popcount (popcnt
# instruction) branch instead of the portable SWAR fold. The row kernels
# (Activity*, DayBits*) and the serve aggregate sweep (Serve*) are checked
# on that branch too, and so are the hit-draw kernels and the hits pass
# built into the tuned sim/policy.cc: every kernel and lane-loop target
# (LogNormalBatch*, SubscriberHitsMu*, FlipWords*), the lane-derived mu
# and coin-flip words against GenerateStep (GenerateBlock*, Observatory*)
# and Fig 9 on top of them.
cmake -B build-native -G Ninja -DIPSCOPE_NATIVE=ON
cmake --build build-native --target ipscope_tests ipscope_serve_tests
ctest --test-dir build-native -j"$(nproc)" \
  -R '^(Activity|DayBits|Serve|LogNormalBatch|SubscriberHitsMu|FlipWords|GenerateBlock|Observatory|Fig9)'

mkdir -p results

# Static-analysis gate: the project-contract linter must (a) prove every
# rule still fires on the committed corpus (--self-test) and (b) find zero
# unsuppressed violations in the tree. Either failure exits non-zero and
# fails the run (set -e). clang-tidy additionally runs inside lint.sh when
# installed. Findings print as file:line:rule; silence one only with an
# inline `// lint: <tag>(<justification>)` — see DESIGN.md §4.10.
echo "== lint gate"
build/tools/lint/ipscope_lint --self-test --corpus tests/lint_corpus \
  | tee results/lint_selftest.txt
build/tools/lint/ipscope_lint --root . \
  --metrics-out results/lint_metrics.json | tee results/lint.txt
# clang-tidy pass (skipped with a warning when clang-tidy is absent).
scripts/lint.sh build >/dev/null

# Prove the lint gate has teeth: seed (a) an illegal upward include
# (sim -> serve) and (b) a statement-position call that discards an
# ipscope::Result, then require the scan to fail naming the exact rule at
# the exact file:line. The temp sources are removed on every exit path and
# never enter the build.
lint_teeth_cleanup() {
  rm -f src/sim/zz_lint_teeth.cc src/cli/zz_lint_teeth.cc
}
trap lint_teeth_cleanup EXIT
printf '%s\n' \
  '// lint-gate teeth: deliberately illegal upward dependency.' \
  '#include "serve/server.h"' > src/sim/zz_lint_teeth.cc
printf '%s\n' \
  '// lint-gate teeth: deliberately discarded Result.' \
  '#include "io/store_io.h"' \
  'void ZzLintTeeth() {' \
  '  ipscope::io::TryLoadStoreFile("zz-teeth-missing.store");' \
  '}' > src/cli/zz_lint_teeth.cc
if build/tools/lint/ipscope_lint --root . >results/lint_teeth.txt 2>&1; then
  echo "FATAL: lint gate accepted the seeded violations" >&2
  exit 1
fi
grep -q '^src/sim/zz_lint_teeth\.cc:2:.*\[layering\.illegal-dep\]' \
    results/lint_teeth.txt || {
  echo "FATAL: seeded sim->serve include not reported as" \
       "layering.illegal-dep at src/sim/zz_lint_teeth.cc:2" >&2
  exit 1
}
grep -q '^src/cli/zz_lint_teeth\.cc:4:.*\[errors\.discarded-result\]' \
    results/lint_teeth.txt || {
  echo "FATAL: seeded discarded Result not reported as" \
       "errors.discarded-result at src/cli/zz_lint_teeth.cc:4" >&2
  exit 1
}
lint_teeth_cleanup
trap - EXIT
echo "lint gate: seeded violations correctly caught"

# Correctness gate: the differential sweep re-derives every figure series
# with the naive check::reference oracles and compares the optimized
# pipeline exactly (seeds x thread counts x fault schedules), then verifies
# the committed golden snapshots in tests/golden/ against their CRC
# manifest. Non-zero exit on any divergence or stale golden fails the run
# (set -e). Refresh goldens deliberately with
# `build/tools/ipscope_cli check --update-goldens`.
echo "== differential check"
build/tools/ipscope_cli check | tee results/check.txt

# Chaos smoke pass: the full pipeline under the default fault schedule
# (dropped log days + store truncation + a killed scan snapshot) must
# survive, salvage every intact block, and pass its own scorecard.
echo "== chaos smoke"
build/tools/ipscope_cli chaos --seed 7 --blocks 800 | tee results/chaos.txt

# Crash-recovery gate: sweep every registered crash point of the sharded
# ingest commit protocol (src/ingest) x 3 seeds — kill a child process at
# the armed syscall boundary, then require recovery to land bit-exactly on
# the committed prefix and replay to converge. Non-zero exit fails the run.
echo "== chaos-crash gate"
build/tools/ipscope_cli chaos-crash --blocks 120 --seeds 3 \
  | tee results/chaos_crash.txt

# The gate's teeth run in the ctest pass at the top of this script:
# IngestCrash.SweepFailsARecoveryThatAdoptsOrphans drives the same sweep
# with a recovery that adopts orphaned shards as committed and requires
# every cell that leaves an orphan to fail.

# Serve smoke: spin up the query daemon on an ephemeral port, hammer it
# from a client swarm over real TCP, byte-compare every response against
# the DirectAnswer oracle, hot-reload the snapshot mid-run, and drain via
# SIGINT. Any divergent byte (including a stale snapshot id) exits 1.
echo "== serve smoke"
build/tools/ipscope_cli serve-smoke --blocks 400 --clients 4 \
  | tee results/serve_smoke.txt

# The smoke's teeth against stale answers live in the serve ctest label
# (ServeMemo.*): every memoized aggregate equals DirectAnswer before and
# after a reload, and the smoke's summary/churn bodies provably differ
# across its reload, so an aggregate carried over cannot pass it.

# The paper reproduction: one world, its stores and the BGP feed built once,
# every experiment written to results/<id>.txt; stderr carries one
# "id wall_s peak_rss_mb peak_rise_mb" row per experiment (the high-water
# mark so far, and how far that experiment raised it).
echo "== reproduce"
build/tools/ipscope_cli reproduce --blocks "${IPSCOPE_BLOCKS:-4000}" \
  --out results/ 2>&1 | tee results/reproduce_times.txt

# Microbenchmarks (google-benchmark; no world-scale argument).
echo "== bench_micro"
build/bench/bench_micro | tee results/bench_micro.txt

# Benchmark gate: ipscope_bench (BENCHMARK.json) is the one benchmark
# stack, built from this checkout's src/ into its own tree. The smoke runs
# every workload at 200 blocks for about a second, untraced and traced,
# each in its own process, and fails on an output that diverges from its
# oracle, a failed operation, an end-to-end or per-layer metric that
# BENCHMARK.json names but a report lacks (a lost stage or run), or a
# trace that does not parse. Its scratch files stay under build-bench/.
echo "== ipscope_bench smoke"
cmake -S ipscope_bench -B build-bench -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-bench --target ipscope_bench
rm -rf build-bench/.bench_work/smoke
(cd build-bench && ./ipscope_bench --workload all --smoke \
  --benchmark ../BENCHMARK.json) | tee results/bench_smoke.txt

# Prove `ipscope_bench compare` has teeth on every run, on copies of the
# smoke reports: a report set against itself passes; a copy with one
# end-to-end metric ten times worse must be rejected as `worse`; a copy
# with one output fingerprint flipped must be rejected as a mismatch.
rm -rf results/bench
mkdir -p results/bench/A results/bench/worse results/bench/fingerprint
cp build-bench/.bench_work/smoke/*.json results/bench/A/
cp results/bench/A/*.json results/bench/worse/
cp results/bench/A/*.json results/bench/fingerprint/
python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
doc["metrics"]["latency_p50_ms"]["value"] *= 10
json.dump(doc, open(sys.argv[2], "w"))' \
  results/bench/A/repro-trace0.json results/bench/worse/repro-trace0.json
# Both repro reports carry the fingerprint; compare keeps one per workload
# and seed, so the flip goes into both.
for report in repro-trace0.json repro-trace1.json; do
  python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
fp = doc["fingerprints"]["store_image"]
doc["fingerprints"]["store_image"] = fp[:-1] + ("1" if fp[-1] == "0" else "0")
json.dump(doc, open(sys.argv[2], "w"))' \
    "results/bench/A/$report" "results/bench/fingerprint/$report"
done
compare() {
  build-bench/ipscope_bench compare "$@" --benchmark BENCHMARK.json
}
echo "== ipscope_bench compare teeth"
compare results/bench/A results/bench/A | tee results/bench_compare_same.txt
if compare results/bench/A results/bench/worse \
    >results/bench_compare_worse.txt 2>&1; then
  echo "FATAL: compare accepted a 10x repro latency_p50_ms" >&2
  exit 1
fi
grep -Eq '^repro +latency_p50_ms .* worse$' results/bench_compare_worse.txt || {
  echo "FATAL: compare did not call repro latency_p50_ms worse" >&2
  exit 1
}
if compare results/bench/A results/bench/fingerprint \
    >results/bench_compare_fingerprint.txt 2>&1; then
  echo "FATAL: compare accepted a flipped repro fingerprint" >&2
  exit 1
fi
grep -q '^FINGERPRINT MISMATCH repro seed 1 store_image' \
    results/bench_compare_fingerprint.txt || {
  echo "FATAL: compare did not report the flipped fingerprint" >&2
  exit 1
}
echo "benchmark gate: seeded regression and fingerprint flip rejected"

echo "All experiment outputs written to results/."
