#!/usr/bin/env bash
# Run the engine micro-benchmarks, the storage benchmarks, the
# planner benchmarks, the graph-core benchmarks, the driver-API
# benchmarks, the fault-injection benchmarks, the observability
# benchmarks, and the network server benchmarks, recording results at
# the repo root as BENCH_engine.json, BENCH_storage.json,
# BENCH_planner.json, BENCH_core.json, BENCH_api.json,
# BENCH_faults.json, BENCH_observe.json, and BENCH_server.json (the
# perf trajectory artifacts).
#
# Usage: benchmarks/run_bench.sh [extra pytest args...]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest \
    benchmarks/bench_engine_ops.py \
    --benchmark-only \
    --benchmark-json="$REPO_ROOT/BENCH_engine.json" \
    -q "$@"

# pytest-benchmark dumps every raw iteration (tens of thousands of
# lines); keep only the aggregate stats per op so the artifact stays
# reviewable and diffs stay meaningful.
python - <<'EOF'
import json

with open("BENCH_engine.json") as fh:
    report = json.load(fh)
for bench in report["benchmarks"]:
    bench["stats"].pop("data", None)
with open("BENCH_engine.json", "w") as fh:
    json.dump(report, fh, indent=2)
    fh.write("\n")
print(f"\nWrote BENCH_engine.json ({len(report['benchmarks'])} benchmarks):")
for bench in report["benchmarks"]:
    median_us = bench["stats"]["median"] * 1e6
    print(f"  {bench['name']}: median {median_us:,.1f} us")
EOF

python benchmarks/bench_storage.py --out "$REPO_ROOT/BENCH_storage.json"

python benchmarks/bench_planner.py --out "$REPO_ROOT/BENCH_planner.json"

python benchmarks/bench_core.py --out "$REPO_ROOT/BENCH_core.json"

python benchmarks/bench_api.py --out "$REPO_ROOT/BENCH_api.json"

python benchmarks/bench_faults.py --out "$REPO_ROOT/BENCH_faults.json"

python benchmarks/bench_observe.py --out "$REPO_ROOT/BENCH_observe.json"

python benchmarks/bench_server.py --out "$REPO_ROOT/BENCH_server.json"
