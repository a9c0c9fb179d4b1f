#!/usr/bin/env bash
# Production-coverage audit: which src/ lines and functions does production
# never run?
#
# "Production" is everything outside tests/: `ctest -L bench_smoke` (all the
# bench programs), `ctest -R example_smoke`, and the three perfbench
# workloads (seed 1, one second each). The script
#   1. builds the repo at Debug with --coverage -O0 and tests off, and runs
#      the two ctest selections;
#   2. builds perfbench/ with the same flags into WORK_DIR/perfbench (never
#      under perfbench/ or .bench_build/) and runs serve, tpch and contend
#      from the repo root;
#   3. merges the gcov counters of every object file of both trees over src/
#      and prints the totals and the unrun lines per function, functions
#      never entered first (tools/prod_coverage_report.py);
#   4. exits 1 when a function production never enters has no entry in
#      tools/prod_coverage_waivers.txt, or when a waiver matches nothing.
#
# Usage: tools/prod_coverage.sh [WORK_DIR]     (default: build-cov/)
# 10-13 minutes on four cores: the two -O0 builds, then contend, whose
# three fixed passes ignore --seconds. Exit codes: 0 clean, 1 findings,
# 2 a build or production run failed.
set -uo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="${1:-${ROOT}/build-cov}"
mkdir -p "${WORK}" && WORK="$(cd "${WORK}" && pwd)" || exit 2
REPO_BUILD="${WORK}/repo"
PERF_BUILD="${WORK}/perfbench"
JOBS="$(nproc)"
(( JOBS > 4 )) && JOBS=4
COV_FLAGS=(-DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS=--coverage -O0"
  "-DCMAKE_EXE_LINKER_FLAGS=--coverage")

die() {
  echo "prod_coverage: $*" >&2
  exit 2
}

echo "== coverage build of the repo (${REPO_BUILD}) =="
cmake -S "${ROOT}" -B "${REPO_BUILD}" "${COV_FLAGS[@]}" \
  -DJAFAR_BUILD_TESTS=OFF >/dev/null || die "configure failed"
cmake --build "${REPO_BUILD}" -j "${JOBS}" >/dev/null || die "build failed"

echo "== coverage build of perfbench (${PERF_BUILD}) =="
cmake -S "${ROOT}/perfbench" -B "${PERF_BUILD}" "${COV_FLAGS[@]}" \
  >/dev/null || die "perfbench configure failed"
cmake --build "${PERF_BUILD}" -j "${JOBS}" --target perfbench >/dev/null ||
  die "perfbench build failed"

# Counters left by an earlier run would be merged into this one.
find "${REPO_BUILD}" "${PERF_BUILD}" -name '*.gcda' -delete

echo "== production runs =="
ctest --test-dir "${REPO_BUILD}" -L bench_smoke -j "${JOBS}" \
  --output-on-failure >"${WORK}/bench_smoke.log" 2>&1 ||
  die "ctest -L bench_smoke failed (see ${WORK}/bench_smoke.log)"
ctest --test-dir "${REPO_BUILD}" -R example_smoke -j "${JOBS}" \
  --output-on-failure >"${WORK}/example_smoke.log" 2>&1 ||
  die "ctest -R example_smoke failed (see ${WORK}/example_smoke.log)"
# The workloads write the same .gcda files; libgcov merges concurrent
# writers under a file lock.
pids=()
for workload in serve tpch contend; do
  (cd "${ROOT}" && "${PERF_BUILD}/perfbench" --workload "${workload}" \
    --seed 1 --seconds 1 --trace 0 >"${WORK}/perfbench_${workload}.log" 2>&1) &
  pids+=($!)
done
for pid in "${pids[@]}"; do
  wait "${pid}" || die "a perfbench workload failed (see ${WORK}/perfbench_*.log)"
done

echo "== report =="
python3 "${ROOT}/tools/prod_coverage_report.py" "${ROOT}" \
  "${ROOT}/tools/prod_coverage_waivers.txt" "${REPO_BUILD}" "${PERF_BUILD}"
