#!/usr/bin/env bash
# One-command CI gate: the default build with the full test suite, then
# the sanitizer presets over their labeled smoke subsets (see
# CMakePresets.json and tests/CMakeLists.txt for the label wiring).
#
#   tools/ci_check.sh             # default + serve + vp + asan + tsan
#   tools/ci_check.sh default     # any subset of: default serve vp asan tsan
#
# Run from the repository root. Each stage is incremental: configure is
# skipped when the preset's build directory already has a cache, except
# in the default stage, which configures on every run so that its
# warnings-as-errors setting also reaches an existing cache.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(default serve vp asan tsan)
fi

configure() { # <preset> <builddir>
  if [ ! -f "$2/CMakeCache.txt" ]; then
    cmake --preset "$1"
  fi
}

for stage in "${STAGES[@]}"; do
  echo "==> ci_check: ${stage}"
  case "${stage}" in
    default)
      cmake --preset default -DBGPATOMS_WARNINGS_AS_ERRORS=ON
      cmake --build --preset default -j "${JOBS}"
      ctest --test-dir build --output-on-failure -j "${JOBS}"
      # Self-tests of the repository benchmark's measurement rules and its
      # compare tool, so the one perf harness keeps building; run
      # `python3 perfbench/run.py --workload ...` for real numbers.
      python3 perfbench/run.py --self-test
      ;;
    serve)
      # bga_serve protocol + live-socket smoke (tests/test_serve.cpp);
      # the same suite also runs under the tsan stage via its labels.
      configure default build
      cmake --build --preset default -j "${JOBS}" --target test_serve
      ctest --test-dir build -L serve_smoke --output-on-failure -j "${JOBS}"
      ;;
    vp)
      # VP-value selection smoke: the table_vp_value experiment at quarter
      # scale under --strict-checks (cli/CMakeLists.txt wires the test).
      configure default build
      cmake --build --preset default -j "${JOBS}" --target bga_bench
      ctest --test-dir build -L vp_smoke --output-on-failure -j "${JOBS}"
      ;;
    asan)
      configure asan build-asan
      cmake --build --preset asan -j "${JOBS}"
      ctest --test-dir build-asan -L asan_smoke --output-on-failure -j "${JOBS}"
      ;;
    tsan)
      configure tsan build-tsan
      cmake --build --preset tsan -j "${JOBS}"
      ctest --test-dir build-tsan -L tsan --output-on-failure -j "${JOBS}"
      ;;
    *)
      echo "ci_check: unknown stage '${stage}' (expected: default serve vp asan tsan)" >&2
      exit 2
      ;;
  esac
done
echo "==> ci_check: all stages passed (${STAGES[*]})"
