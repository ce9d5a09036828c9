#!/usr/bin/env bash
# Builds one benchmark binary in Release and records its results as a
# BENCH_<n>.json file of {"BenchmarkName": ns_per_op} plus any per-bench
# counters as {"BenchmarkName/counter": value}.  Medians of several
# repetitions are recorded: the harness machines are noisy and single runs
# swing by 2x.  One change records one file; earlier files are left as they
# were measured.  The `_Immediate` rows in BENCH_4/BENCH_7 are historical:
# the immediate-render mode they measured has been deleted.
#
#   BENCH_2.json   resource-query fast path   (bench_eval_resource_db)
#   BENCH_4.json   retained frame pipeline    (bench_frame_pipeline)
#   BENCH_6.json   wire codec + trace replay  (bench_wire)
#   BENCH_7.json   hot-path + parallel paint  (bench_frame_pipeline +
#                                              bench_parallel_paint, since
#                                              deleted: its rows are historical)
#   BENCH_8.json   duplex transport           (bench_wire + bench_transport)
#   BENCH_9.json   layout-policy engine       (bench_policy)
#   BENCH_14.json  batched slot-policy reflow (bench_policy)
#   BENCH_15.json  per-client window index    (bench_eval_toolkit_overhead)
#   BENCH_18.json  one request funnel         (bench_wire)
#   BENCH_19.json  per-path search lists      (bench_eval_resource_db)
#   BENCH_20.json  window hash + hit guard    (bench_eval_toolkit_overhead)
#   BENCH_21.json  panner draws the diff      (bench_eval_toolkit_overhead)
#   BENCH_23.json  one Xrm lookup algorithm   (bench_eval_resource_db)
#   BENCH_24.json  one query funnel           (bench_wire)
#   BENCH_25.json  per-window panner marks    (bench_eval_toolkit_overhead)
#   BENCH_26.json  one paint point per batch  (bench_eval_toolkit_overhead)
#
# Usage: tools/run_benches.sh <bench_binary_name> <BENCH_n.json>
#   e.g. tools/run_benches.sh bench_policy BENCH_14.json
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <bench_binary_name> <BENCH_n.json>" >&2
  exit 2
fi
bench="$1"
out="$2"

cd "$(dirname "$0")/.."
BUILD_DIR=build

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "$bench" >/dev/null
if [[ ! -x "$BUILD_DIR/bench/$bench" ]]; then
  echo "error: bench binary $BUILD_DIR/bench/$bench is missing" >&2
  exit 1
fi

# Let the machine settle after the build before timing anything.
sleep 5

"$BUILD_DIR"/bench/"$bench" \
    --benchmark_min_time=0.3 \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json >"$out.raw"

python3 - "$out.raw" "$out" <<'EOF'
import json, sys
raw = json.load(open(sys.argv[1]))
out = {}
skip = {"name", "real_time", "cpu_time", "time_unit", "iterations", "run_name",
        "run_type", "repetitions", "repetition_index", "threads",
        "aggregate_name", "aggregate_unit", "family_index",
        "per_family_instance_index", "items_per_second"}
for bench in raw["benchmarks"]:
    name = bench["name"]
    if not name.endswith("_median"):
        continue
    base = name.removesuffix("_median")
    out[base] = round(bench["real_time"], 2)
    for key, value in bench.items():
        if key in skip or not isinstance(value, (int, float)):
            continue
        out[base + "/" + key] = round(value, 2)
json.dump(out, open(sys.argv[2], "w"), indent=2, sort_keys=True)
open(sys.argv[2], "a").write("\n")
EOF
rm -f "$out.raw"
echo "wrote $out"
