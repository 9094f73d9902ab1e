#!/usr/bin/env bash
# Static analysis entry point: the project-contract analyzer always runs
# (it is built from this repo with no external deps); clang-tidy runs when
# installed and is skipped with a warning when not, so the build stays
# dependency-free.
#
#   scripts/lint.sh [build-dir]     # default build dir: build/
#
# Exit non-zero when ipscope_lint finds an unsuppressed violation, the
# self-test fails, or clang-tidy (if present) reports an error.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

if [ ! -x "$BUILD_DIR/tools/lint/ipscope_lint" ]; then
  echo "lint.sh: building ipscope_lint in $BUILD_DIR"
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target ipscope_lint -j >/dev/null
fi

echo "== ipscope_lint self-test"
"$BUILD_DIR/tools/lint/ipscope_lint" --self-test --corpus tests/lint_corpus

echo "== ipscope_lint tree scan"
"$BUILD_DIR/tools/lint/ipscope_lint" --root .

if command -v clang-tidy >/dev/null 2>&1; then
  # CMAKE_EXPORT_COMPILE_COMMANDS=ON (top-level CMakeLists) provides the
  # compilation database clang-tidy needs.
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -B "$BUILD_DIR" -S . >/dev/null
  fi
  echo "== clang-tidy (.clang-tidy profile)"
  # Library + tool sources; tests/bench inherit the same headers.
  mapfile -t files < <(find src tools -name '*.cc' | sort)
  clang-tidy -p "$BUILD_DIR" --quiet "${files[@]}"
else
  echo "lint.sh: warning: clang-tidy not installed; skipping the" \
       "clang-tidy pass (project contracts were still checked by" \
       "ipscope_lint)" >&2
fi
