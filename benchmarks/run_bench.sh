#!/usr/bin/env bash
# Regenerate BENCH_micro.json at the repo root: the micro-benchmarks
# of what benchmarks/e2e cannot see (benchmarks/micro.py; under a
# minute).  The gated benchmark is benchmarks/e2e/run.py.
#
# Usage: benchmarks/run_bench.sh [--only SECTION] [--out PATH]
set -euo pipefail
exec python3 "$(dirname "$0")/micro.py" "$@"
