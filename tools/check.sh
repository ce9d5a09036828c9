#!/bin/sh
# Robustness gate: build everything under ASan+UBSan and run the full test
# suite (including the seeded chaos tests), then rebuild the transport and
# render suites under TSan and run them with the transport-proc label.  Any
# sanitizer report fails the run.  Usage: tools/check.sh [asan-build-dir] [tsan-build-dir]
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-sanitize}"

cmake -B "$BUILD" -S "$ROOT" -DSWM_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)"

# halt_on_error makes UBSan reports fail the test instead of just logging.
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

# The retained-pipeline gate, explicitly: the differential property test
# (after every operation the retained framebuffer must equal an oracle
# stack's "invalidate everything, then flush" repaint, and the retained
# stack must paint less overall), the frame scheduler tests, and the
# 24-seed chaos suite.  These are part of the full ctest run above; naming
# them keeps the gate honest if the suite list ever changes.
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" \
    -R 'frame_differential_test|frame_pipeline_test|chaos_test'

# Fuzz stage: every ctest target labeled `chaos` — the 24-seed chaos suite,
# the 24-seed property-fuzz + restart-under-chaos suite, the binding grammar
# fuzzer, the 24-seed wire fuzz, and trace-replay determinism — must come up
# clean under ASan+UBSan.  This is the acceptance gate for the sanitizing
# ICCCM decoders and the wire codec: malformed bytes must never become an
# out-of-bounds read, only a SanitizerStats tick or a typed ParseError.
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -L chaos

# Layout-policy stage: every ctest target labeled `policy` — the golden
# no-op gate (the floating policy must reproduce the pre-refactor server
# fingerprint byte for byte), the four-policy conformance suite, and the
# 24-seed policy-switch chaos storm (policies cycling mid-fault-injection).
# This is the acceptance gate for the pluggable layout engine: extracting
# the policy layer must not move a single pixel under the default policy,
# and no policy may leak or corrupt client state under faults.
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -L policy

# Transport-fault stage: the duplex transport suites, explicitly.  The
# framed-connection unit tests (reassembly, backpressure, lifecycle,
# kill-mid-request) and the 24-seed transport chaos storm — wire mutations
# plus short reads, short writes, EINTR storms and mid-frame resets over
# real socketpairs — must come up leak-free under ASan+UBSan.  This is the
# acceptance gate for the connection lifecycle: every storm ends in a typed
# CloseReason, never a leak or a stuck connection.
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" \
    -R 'transport_test|transport_chaos_test'

# Out-of-process transport stage: every ctest target labeled
# `transport-proc` — the epoll/timerfd readiness core units, the
# forked-client lifecycle suite (real unix-socket clients, deadline expiry,
# EPIPE-to-dead-peer, live-socket trace replay) and the 24-seed
# multi-process crash chaos storm (SIGKILL mid-frame; survivors'
# reply streams must be byte-identical with or without the crash).  The
# label carries hard per-test timeouts, so a wedged accept loop or a
# readiness bug fails the stage instead of hanging it.
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -L transport-proc

# And the standalone fuzz harness over the checked-in trace corpus plus its
# seeded-random smoke mode (tools/run_fuzz.sh drives the same harness
# open-ended under libFuzzer when clang is available).
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  "$BUILD/tools/fuzz_wire" "$ROOT/tests/traces"
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=1" \
  "$BUILD/tools/fuzz_wire"

# TSan stage: rebuild with -fsanitize=thread and run the transport suites
# (the socketpair chaos storm and the xserver suite) with the render and
# multiscreen suites, then the transport-proc label.  The server is
# single-threaded; the stage guards the transport.
TSAN_BUILD="${2:-$ROOT/build-tsan}"
cmake -B "$TSAN_BUILD" -S "$ROOT" -DSWM_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD" -j "$(nproc)" \
  --target swm_render_test \
  --target swm_multiscreen_test --target xserver_test \
  --target transport_chaos_test \
  --target poller_test --target transport_proc_test \
  --target transport_proc_chaos_test
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$(nproc)" \
    -R 'swm_render_test|swm_multiscreen_test|xserver_test|transport_chaos_test'
# The transport-proc label again under TSan: epoll dispatch, the timer
# wheel, and multi-process accept/close must be race-free too.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$(nproc)" -L transport-proc

echo "check.sh: all tests passed under ASan+UBSan (including the chaos/fuzz and transport-proc labels) and the transport suites and transport-proc label are TSan-clean"
