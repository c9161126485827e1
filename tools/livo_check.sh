#!/usr/bin/env bash
# Strict-mode gate for the sanitizer-sensitive parts of the tree, in four
# passes:
#
#  1. TSan pass — builds test_util + test_obs + test_video_parallel +
#     test_runtime + test_conference + test_fec + test_report +
#     test_kernels + test_sim (the sharded LoopGroup scheduler with its
#     cross-loop ring stress test, thread-pool codec interaction,
#     multi-session runs, the N-party SFU conference including the
#     cascaded edge-SFU topology, and capture, whose RenderRig fans views
#     out on the shared pool) with -Wall -Wextra -Werror and, when the
#     toolchain supports it, ThreadSanitizer, then runs the combined
#     binary. TSan is the real gate for the M-threads-M-loops runtime:
#     cross-loop sends and barrier hand-offs race-check here.
#  2. ASan+UBSan pass — builds the kernel-equivalence, codec, transport,
#     runtime, conference, point-cloud, metrics and capture suites
#     (test_kernels + test_golden_bitstream + test_video +
#     test_video_parallel + test_pointcloud + test_metrics + test_sim,
#     plus the quick suites test_net + test_runtime + test_conference +
#     test_fec + test_report) with AddressSanitizer +
#     UndefinedBehaviorSanitizer and libstdc++'s bounds-checked containers
#     (-D_GLIBCXX_ASSERTIONS) so out-of-bounds SIMD loads, UB in the
#     intrinsics code, bad indices into the nearest-neighbour index's
#     cell table and reassembly bookkeeping errors surface; the
#     cross-loop stress and cascade tests repeat here for lifetime bugs
#     TSan cannot see.
#  3. Telemetry gate — runs a traced 8-party conference sweep
#     (bench_conference --parties=8 --fresh under LIVO_TRACE=1, simulcast
#     ladder engaged at its default 3 layers) in the TSan build tree and
#     feeds the emitted telemetry JSONL through livo_report --check, so
#     the frame ledger's invariants (hop ordering, gate counts vs SFU
#     counters, audit reconciliation, per-layer conservation and the
#     switch-only-at-keyframe rule) hold under sanitizers on every change.
#  4. Loss-resilience gate — the same traced 8-party run on 5%-iid-loss
#     links with FEC enabled (--loss=0.05 --fec), checked for the repair
#     conservation rules: recoveries cite parity ingests, abandoned
#     repairs are terminal, and the ledger totals match the run counters.
#
# For the fast unsanitized subset of the same surface, use the ctest
# label instead: ctest --test-dir build -L quick.
#
#   tools/livo_check.sh            # from the repo root
#   cmake --build build -t livo_check
#
# Uses dedicated build directories (build-check/, build-check-asan/) so
# sanitizer flags never contaminate the regular build tree.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${ROOT}/build-check"
ASAN_BUILD_DIR="${ROOT}/build-check-asan"
CMAKE_BIN="${CMAKE_COMMAND:-cmake}"

STRICT_FLAGS="-Wall -Wextra -Werror"
TSAN_FLAGS="-fsanitize=thread -g -O1"
ASAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1 -D_GLIBCXX_ASSERTIONS"

# Probe whether TSan links on this toolchain (it needs libtsan installed);
# fall back to a plain -Werror build rather than failing the gate.
tsan_works() {
  local probe_dir
  probe_dir="$(mktemp -d)"
  trap 'rm -rf "${probe_dir}"' RETURN
  cat > "${probe_dir}/probe.cc" <<'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&] { x = 1; });
  t.join();
  return x - 1;
}
EOF
  ${CXX:-c++} ${TSAN_FLAGS} "${probe_dir}/probe.cc" -o "${probe_dir}/probe" \
      -pthread 2> /dev/null
}

FLAGS="${STRICT_FLAGS}"
if tsan_works; then
  FLAGS="${STRICT_FLAGS} ${TSAN_FLAGS}"
  echo "[livo_check] ThreadSanitizer available: building with TSan + -Werror"
else
  echo "[livo_check] ThreadSanitizer unavailable on this toolchain:" \
       "falling back to -Werror only"
fi

"${CMAKE_BIN}" -S "${ROOT}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${FLAGS}" > /dev/null

"${CMAKE_BIN}" --build "${BUILD_DIR}" --target livo_check_tests -j "$(nproc)"

echo "[livo_check] running livo_check_tests"
"${BUILD_DIR}/tests/livo_check_tests" --gtest_brief=1

# --- Pass 2: ASan + UBSan with bounds-checked containers ---

asan_works() {
  local probe_dir
  probe_dir="$(mktemp -d)"
  trap 'rm -rf "${probe_dir}"' RETURN
  cat > "${probe_dir}/probe.cc" <<'EOF'
int main(int argc, char**) { return argc - 1; }
EOF
  ${CXX:-c++} ${ASAN_FLAGS} "${probe_dir}/probe.cc" -o "${probe_dir}/probe" \
      2> /dev/null && "${probe_dir}/probe"
}

if asan_works; then
  echo "[livo_check] ASan+UBSan available: building livo_asan_tests"
  "${CMAKE_BIN}" -S "${ROOT}" -B "${ASAN_BUILD_DIR}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${STRICT_FLAGS} ${ASAN_FLAGS}" > /dev/null
  "${CMAKE_BIN}" --build "${ASAN_BUILD_DIR}" --target livo_asan_tests \
    -j "$(nproc)"
  echo "[livo_check] running livo_asan_tests"
  "${ASAN_BUILD_DIR}/tests/livo_asan_tests" --gtest_brief=1
else
  echo "[livo_check] ASan+UBSan unavailable on this toolchain: skipping" \
       "the memory/UB pass"
fi

# --- Pass 3: traced conference -> livo_report --check telemetry gate ---

echo "[livo_check] telemetry gate: traced layered 8-party conference" \
     "+ livo_report"
"${CMAKE_BIN}" --build "${BUILD_DIR}" --target bench_conference livo_report \
  -j "$(nproc)"

TELEMETRY_DIR="$(mktemp -d)"
trap 'rm -rf "${TELEMETRY_DIR}"' EXIT
(
  cd "${TELEMETRY_DIR}"
  LIVO_TRACE=1 LIVO_TRACE_DIR="${TELEMETRY_DIR}" \
    "${BUILD_DIR}/bench/bench_conference" --parties=8 --fresh \
    --conference_json="${TELEMETRY_DIR}/bench.json" > /dev/null
)
TELEMETRY_FILES=("${TELEMETRY_DIR}"/*.telemetry.jsonl)
if [ ! -e "${TELEMETRY_FILES[0]}" ]; then
  echo "[livo_check] FAIL: traced run produced no telemetry JSONL" >&2
  exit 1
fi
"${BUILD_DIR}/tools/livo_report" --check --quiet "${TELEMETRY_FILES[@]}"

# --- Pass 4: lossy FEC run -> repair-conservation telemetry gate ---
#
# The same traced 8-party conference on 5%-loss links with the FEC
# subsystem enabled (DESIGN.md §12): livo_report --check now also proves
# every recovered fragment cites an earlier parity ingest and every
# abandoned repair is terminal (no NACK after giving up).

echo "[livo_check] telemetry gate: lossy traced 8-party conference" \
     "(5% iid loss, FEC on) + livo_report"
LOSSY_DIR="$(mktemp -d)"
trap 'rm -rf "${TELEMETRY_DIR}" "${LOSSY_DIR}"' EXIT
(
  cd "${LOSSY_DIR}"
  LIVO_TRACE=1 LIVO_TRACE_DIR="${LOSSY_DIR}" \
    "${BUILD_DIR}/bench/bench_conference" --parties=8 --loss=0.05 --fec \
    --fresh --conference_json="${LOSSY_DIR}/bench.json" > /dev/null
)
LOSSY_FILES=("${LOSSY_DIR}"/*.telemetry.jsonl)
if [ ! -e "${LOSSY_FILES[0]}" ]; then
  echo "[livo_check] FAIL: lossy traced run produced no telemetry JSONL" >&2
  exit 1
fi
"${BUILD_DIR}/tools/livo_report" --check --quiet "${LOSSY_FILES[@]}"

echo "[livo_check] OK"
