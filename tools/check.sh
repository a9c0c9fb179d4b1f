#!/usr/bin/env bash
# One-shot correctness lane: configure, build, and run every check the repo
# ships, in the order a reviewer would want them to fail.
#
#   1. default build    — full ctest suite (unit + bench_smoke + lint +
#                         analyze labels)
#   2. ndp-analyze      — whole-program analysis of src/ bench/ tests/ (the
#                         lexed file rules plus the cross-TU stats/layer-DAG/
#                         knob/bounded-queue/test-only/never-set
#                         passes; also a ctest, but run directly here so its
#                         findings print even if the build of the test tree
#                         fails), then the fixture corpus against its golden
#                         report. examples/ and perfbench/ are read as call
#                         corpora (a function they call is not test-only, a
#                         config field they assign is not never-set) but
#                         never rule-checked
#   3. protocol build   — -DNDP_PROTOCOL_CHECK=ON: every DRAM command the
#                         suite issues is audited against the DDR3 JEDEC
#                         timing rules by the shadow checker
#   4. sanitizer build  — -DNDP_SANITIZE=address,undefined: the fault suite
#                         (ctest -L faults), the multi-query runtime suite
#                         (-L runtime), the device-generation suite
#                         (-L devgen), the serving-ingress suite
#                         (-L serving), the join-pushdown suite (-L join),
#                         the partitioned-core suite (-L pdes), and unit
#                         tests under ASan+UBSan;
#                         recovery paths (aborts, retries, epoch-guarded
#                         cancellation, deadline-culled slots) are where
#                         lifetime bugs would hide
#   5. tsan build       — -DNDP_SANITIZE=thread: the fault + runtime +
#                         devgen + serving + join + unit suites under TSan;
#                         the unit suite's ParallelSweep tests are the only
#                         threaded code (sweep threads share columns and
#                         the point ticket)
#   6. clang-tidy       — only if clang-tidy is on PATH (the pinned CI image
#                         ships gcc only)
#
# All three sanitizer/protocol lanes run from this one driver; skip the slow
# tail lanes with NDP_CHECK_FAST=1 (build + analysis + default ctest only).
#
# Usage: tools/check.sh [build-dir-prefix]   (default: build)
# Environment: JOBS=<n> overrides the parallelism (default: nproc).
set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build}"
JOBS="${JOBS:-$(nproc)}"

step() { printf '\n== %s ==\n' "$*"; }

step "configure + build (${PREFIX})"
cmake -B "${PREFIX}" -S . >/dev/null
cmake --build "${PREFIX}" -j "${JOBS}"

step "ndp-analyze"
"./${PREFIX}/tools/ndp_analyze" .
"./${PREFIX}/tools/ndp_analyze" --expect tests/lint/expected.txt \
  tests/lint/fixtures

step "ctest (${PREFIX}: unit + bench_smoke + lint + analyze)"
ctest --test-dir "${PREFIX}" -j "${JOBS}" --output-on-failure

if [[ "${NDP_CHECK_FAST:-0}" == "1" ]]; then
  step "NDP_CHECK_FAST=1: protocol/sanitizer/tidy lanes skipped"
  exit 0
fi

step "configure + build (${PREFIX}-check, NDP_PROTOCOL_CHECK=ON)"
cmake -B "${PREFIX}-check" -S . -DNDP_PROTOCOL_CHECK=ON >/dev/null
cmake --build "${PREFIX}-check" -j "${JOBS}"

step "ctest (${PREFIX}-check: JEDEC audit enabled)"
ctest --test-dir "${PREFIX}-check" -j "${JOBS}" --output-on-failure

step "configure + build (${PREFIX}-asan, NDP_SANITIZE=address,undefined)"
cmake -B "${PREFIX}-asan" -S . -DNDP_SANITIZE=address,undefined >/dev/null
cmake --build "${PREFIX}-asan" -j "${JOBS}"

step "ctest (${PREFIX}-asan: faults + runtime + devgen + serving + join + pdes + unit under ASan/UBSan)"
ctest --test-dir "${PREFIX}-asan" -j "${JOBS}" \
  -L 'unit|faults|runtime|devgen|serving|join|pdes' --output-on-failure

step "configure + build (${PREFIX}-tsan, NDP_SANITIZE=thread)"
cmake -B "${PREFIX}-tsan" -S . -DNDP_SANITIZE=thread >/dev/null
cmake --build "${PREFIX}-tsan" -j "${JOBS}"

step "ctest (${PREFIX}-tsan: faults + runtime + devgen + serving + join + unit under TSan)"
ctest --test-dir "${PREFIX}-tsan" -j "${JOBS}" \
  -L 'unit|faults|runtime|devgen|serving|join' --output-on-failure

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy"
  cmake --build "${PREFIX}" --target tidy
else
  step "clang-tidy: not on PATH, skipped"
fi

step "all lanes passed"
