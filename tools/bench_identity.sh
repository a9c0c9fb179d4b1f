#!/usr/bin/env bash
# Byte-identity check between two build trees of this repo, for a change
# that must not move any simulated number.
#
#   1. runs `ctest -L bench_smoke` in both trees and cmp's every
#      bench/BENCH_*.json they leave behind, except BENCH_sim.json (host
#      wall-clock microbenchmarks, which always differ);
#   2. runs each of the 27 paper/ablation bench programs (table1_*, fig*,
#      abl_*) from both trees with one fixed small-size environment and
#      diffs their stdout.
#
# Exits non-zero on any difference, on a file present in only one tree, or
# when a bench program fails in either tree.
#
# Usage: tools/bench_identity.sh PARENT_BUILD CHANGE_BUILD
# Both arguments are configured and built CMake build directories.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
PARENT="$(cd "$1" && pwd)" || exit 2
CHANGE="$(cd "$2" && pwd)" || exit 2

# The sizes every stdout comparison uses (small: the whole pass takes a few
# minutes on one core).
BENCH_ENV=(ABL_ROWS=8192 FIG3_ROWS=8192 FIG3_STEP=50 ABF_ROWS=65536
  NDP_BENCH_THREADS=2 FIG4_SCALE=0.002 FIG4_SAMPLE=4 ABL_TPCH_SCALE=0.002
  SERVING_ROWS=4096 SERVING_WINDOW_US=300)

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
diffs=0

echo "== ctest -L bench_smoke in both trees =="
for tree in "${PARENT}" "${CHANGE}"; do
  rm -f "${tree}"/bench/BENCH_*.json
  if ! ctest --test-dir "${tree}" -L bench_smoke >"${WORK}/ctest.log" 2>&1; then
    echo "FAIL bench_smoke in ${tree}"
    tail -20 "${WORK}/ctest.log"
    diffs=$((diffs + 1))
  fi
done
shopt -s nullglob
for f in "${PARENT}"/bench/BENCH_*.json "${CHANGE}"/bench/BENCH_*.json; do
  name="$(basename "${f}")"
  [[ "${name}" == BENCH_sim.json ]] && continue
  [[ -e "${WORK}/seen.${name}" ]] && continue
  touch "${WORK}/seen.${name}"
  if ! cmp -s "${PARENT}/bench/${name}" "${CHANGE}/bench/${name}"; then
    echo "DIFF ${name}"
    diffs=$((diffs + 1))
  fi
done

echo "== stdout of every bench program =="
programs=0
for exe in "${PARENT}"/bench/table1_* "${PARENT}"/bench/fig* \
  "${PARENT}"/bench/abl_*; do
  [[ -x "${exe}" && -f "${exe}" ]] || continue
  name="$(basename "${exe}")"
  programs=$((programs + 1))
  for side in parent change; do
    tree="${PARENT}"
    [[ "${side}" == change ]] && tree="${CHANGE}"
    mkdir -p "${WORK}/${side}"
    # Run from a scratch directory: Reporter benches write BENCH_*.json to
    # the working directory.
    if ! (cd "${WORK}/${side}" &&
      env "${BENCH_ENV[@]}" "${tree}/bench/${name}" \
        >"${WORK}/${side}.${name}.out" 2>/dev/null); then
      echo "FAIL ${name} (${side})"
      diffs=$((diffs + 1))
    fi
  done
  if ! diff -q "${WORK}/parent.${name}.out" "${WORK}/change.${name}.out" \
    >/dev/null; then
    echo "DIFF ${name} stdout"
    diff "${WORK}/parent.${name}.out" "${WORK}/change.${name}.out" | head -10
    diffs=$((diffs + 1))
  fi
done
echo "${programs} bench programs compared"

if [[ ${diffs} -ne 0 ]]; then
  echo "bench_identity: ${diffs} difference(s)"
  exit 1
fi
echo "bench_identity: identical"
