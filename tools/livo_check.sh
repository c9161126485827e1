#!/usr/bin/env bash
# Strict-mode gate for the sanitizer-sensitive parts of the tree, in five
# passes:
#
#  1. TSan pass — builds the livo_check_tests target and every bench and
#     example program (the livo_programs target) with -Wall -Wextra
#     -Werror and, when the toolchain supports it, ThreadSanitizer, then
#     runs the tests. TSan is the real gate for the M-threads-M-loops
#     runtime: cross-loop sends and barrier hand-offs, the thread-pool codec,
#     multi-session runs, the N-party and cascaded conferences and
#     capture's pool fan-out race-check here. The same pass configures
#     perfbench/ (its own CMake project, as perfbench/run.py builds it)
#     into build-check/perfbench with -Wall -Wextra -Werror and builds
#     livo_perfbench, so a src/ change that breaks the benchmark's build
#     fails here.
#  2. ASan+UBSan pass — builds the livo_asan_tests target with
#     AddressSanitizer + UndefinedBehaviorSanitizer and libstdc++'s
#     bounds-checked containers (-D_GLIBCXX_ASSERTIONS), so out-of-bounds
#     SIMD loads, UB in the intrinsics code or the bit writer, bad indices
#     into the nearest-neighbour index's cell table or the voxelizer's
#     table, pooled planes the receiver releases twice and reassembly
#     bookkeeping errors surface; the cross-loop stress and cascade tests
#     repeat here for lifetime bugs TSan cannot see.
#     The test files each pass builds are listed once, next to the two
#     targets in tests/CMakeLists.txt.
#  3. Telemetry gate — runs a traced 8-party conference sweep
#     (bench_conference --parties=8 under LIVO_TRACE=1, simulcast
#     ladder engaged at its default 3 layers) in the TSan build tree and
#     feeds the emitted telemetry JSONL through livo_report --check, so
#     the frame ledger's invariants (hop ordering, gate counts vs SFU
#     counters, audit reconciliation, per-layer conservation and the
#     switch-only-at-keyframe rule) hold under sanitizers on every change.
#  4. Loss-resilience gate — the same traced 8-party run on 5%-iid-loss
#     links with FEC enabled (--loss=0.05 --fec), checked for the repair
#     conservation rules: recoveries cite parity ingests, abandoned
#     repairs are terminal, and the ledger totals match the run counters.
#  5. Cascade gate — the lossy FEC run cascaded over 2 edge regions and a
#     root relay (--regions=2, 3 loop shards), so relay-hop conservation,
#     the cross-region repair rules and the root's PLI relays go through
#     livo_report --check on a run with shard threads under TSan.
#
# For the fast unsanitized subset of the same surface, use the ctest
# label instead: ctest --test-dir build -L quick.
#
#   tools/livo_check.sh            # from the repo root
#   cmake --build build -t livo_check
#
# Uses dedicated build directories (build-check/, build-check/perfbench/,
# build-check-asan/) so sanitizer flags never contaminate the regular
# build tree.
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

"${CMAKE_BIN}" --build "${BUILD_DIR}" --target livo_check_tests livo_programs \
  -j "$(nproc)"

echo "[livo_check] building livo_perfbench against this tree"
"${CMAKE_BIN}" -S "${ROOT}/perfbench" -B "${BUILD_DIR}/perfbench" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${STRICT_FLAGS}" > /dev/null
"${CMAKE_BIN}" --build "${BUILD_DIR}/perfbench" --target livo_perfbench \
  -j "$(nproc)"

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

# --- Passes 3-5: traced conferences -> livo_report --check telemetry gates ---

"${CMAKE_BIN}" --build "${BUILD_DIR}" --target bench_conference livo_report \
  -j "$(nproc)"

GATE_DIRS=()
trap 'rm -rf "${GATE_DIRS[@]}"' EXIT

# telemetry_gate LABEL ARGS...: runs bench_conference ARGS under LIVO_TRACE=1
# in a fresh directory and feeds the telemetry JSONL it writes through
# livo_report --check.
telemetry_gate() {
  local label="$1"
  shift
  echo "[livo_check] telemetry gate: ${label} + livo_report"
  local dir
  dir="$(mktemp -d)"
  GATE_DIRS+=("${dir}")
  (
    cd "${dir}"
    LIVO_TRACE=1 LIVO_TRACE_DIR="${dir}" \
      "${BUILD_DIR}/bench/bench_conference" "$@" > /dev/null
  )
  local files=("${dir}"/*.telemetry.jsonl)
  if [ ! -e "${files[0]}" ]; then
    echo "[livo_check] FAIL: ${label}: traced run produced no telemetry" \
         "JSONL" >&2
    exit 1
  fi
  "${BUILD_DIR}/tools/livo_report" --check --quiet "${files[@]}"
}

telemetry_gate "traced layered 8-party conference" --parties=8

# The same traced 8-party conference on 5%-loss links with the FEC
# subsystem enabled (DESIGN.md §12): livo_report --check now also proves
# every recovered fragment cites an earlier parity ingest and every
# abandoned repair is terminal (no NACK after giving up).
telemetry_gate "lossy traced 8-party conference (5% iid loss, FEC on)" \
  --parties=8 --loss=0.05 --fec

# The lossy FEC call cascaded over 2 regions on 3 loop shards: relay-hop
# conservation and the root's PLI relays on a run with shard threads.
telemetry_gate "lossy traced 8-party conference on 2 regions, 3 loop shards" \
  --parties=8 --regions=2 --loss=0.05 --fec

echo "[livo_check] OK"
