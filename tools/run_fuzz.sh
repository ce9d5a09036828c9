#!/bin/sh
# Wire-codec fuzzing entry point.
#
# Default mode builds the fuzz targets under ASan+UBSan, runs every test
# with the seeded chaos/fuzz ctest label (24-seed wire fuzz, trace-replay
# determinism, property fuzz, policy and transport storms, window-id
# recycling and range exhaustion), the codec
# behaviour pins and transport units, then drives the fuzz_wire harness over
# the checked-in trace corpus and its seeded-random smoke mode.  Any
# sanitizer report fails the run.
#
# With a clang toolchain, `tools/run_fuzz.sh --libfuzzer [runs]` instead
# builds fuzz_wire as a real libFuzzer target and runs it open-ended against
# the corpus (default 100000 runs).
#
# Usage: tools/run_fuzz.sh [--libfuzzer [runs]] [build-dir]
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if [ "${1:-}" = "--libfuzzer" ]; then
  RUNS="${2:-100000}"
  BUILD="${3:-$ROOT/build-libfuzzer}"
  cmake -B "$BUILD" -S "$ROOT" -DSWM_LIBFUZZER=ON \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DSWM_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j "$(nproc)" --target fuzz_wire
  mkdir -p "$BUILD/corpus"
  "$BUILD/tools/fuzz_wire" -runs="$RUNS" "$BUILD/corpus" "$ROOT/tests/traces"
  exit 0
fi

BUILD="${1:-$ROOT/build-sanitize}"
cmake -B "$BUILD" -S "$ROOT" -DSWM_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)" \
  --target wire_fuzz_test --target trace_replay_test --target wire_roundtrip_test \
  --target chaos_test --target restart_chaos_test --target xtb_fuzz_test \
  --target transport_test --target transport_chaos_test \
  --target policy_chaos_test --target transport_proc_chaos_test \
  --target id_space_test --target fuzz_wire

UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -L chaos
# The codec pins (golden encode/decode hashes over seeded mutations) and the
# framed-connection units, which carry no chaos label.
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" \
    -R '^(wire_roundtrip_test|transport_test)$'

UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  "$BUILD/tools/fuzz_wire" "$ROOT/tests/traces"
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  "$BUILD/tools/fuzz_wire"

echo "run_fuzz.sh: chaos label, codec pins + fuzz_wire clean under ASan+UBSan"
