#!/usr/bin/env python
"""Server benchmark: wire overhead and group-commit amortization.

Two measurements against a real ``GraphServer`` on a loopback socket:

* **Remote vs in-process latency** - the same point lookup, filtered
  scan and row-heavy scan (a few hundred rows) executed through
  ``connect(graph)`` and ``connect("repro://...")``, every row read;
  the delta is the framing + TCP round-trip cost per query, and
  ``us_per_row`` is that delta spread over the rows returned.
* **Group-commit throughput** - 1 / 8 / 32 concurrent writer threads
  each committing single-vertex transactions through the server's
  single-writer path.  The ``repro_wal_group_commit_batch_size``
  histogram (count = fsyncs, sum = commits) gives the amortization
  directly.  Acceptance: at 32 writers, strictly fewer than 1 fsync
  per 4 commits (ratio < 0.25).

Run directly::

    PYTHONPATH=src python benchmarks/bench_server.py [--out PATH] [--smoke]

``benchmarks/run_bench.sh`` invokes it last.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.graphdb import connect, observe
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.server import GraphServer, ServerConfig
from repro.graphdb.storage import GraphStore

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Acceptance target: < 1 fsync per 4 commits at 32 writers.
TARGET_FSYNC_PER_COMMIT = 0.25

NUM_VERTICES = 2000


class ServerThread:
    """A GraphServer on its own event loop thread (bench harness)."""

    def __init__(self, database, config: ServerConfig):
        self.server = GraphServer(database, config)
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_forever()

        try:
            asyncio.run(main())
        finally:
            self._started.set()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        self._started.wait(10)
        if self.server.address is None:
            raise RuntimeError("bench server failed to start")
        return self

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(10)

    @property
    def url(self) -> str:
        host, port = self.server.address
        return f"repro://{host}:{port}"


def build_graph() -> PropertyGraph:
    g = PropertyGraph("bench-server")
    for i in range(NUM_VERTICES):
        g.add_vertex(
            "Drug", {"id": i, "name": f"drug{i}", "tier": i % 16}
        )
    g.create_property_index("Drug", "id")
    g.statistics()
    return g


def _time_queries(session, queries, iterations) -> dict:
    timings = {name: [] for name, _, _ in queries}
    rows = {}
    for _ in range(iterations):
        for name, text, params in queries:
            started = time.perf_counter()
            result = session.run(text, parameters=params)
            rows[name] = sum(1 for _ in result)
            result.consume()
            timings[name].append(time.perf_counter() - started)
    return {
        name: {
            "median_us": round(statistics.median(t) * 1e6, 1),
            "mean_us": round(statistics.fmean(t) * 1e6, 1),
            "rows": rows[name],
        }
        for name, t in timings.items()
    }


def run_latency(iterations: int) -> dict:
    graph = build_graph()
    queries = [
        ("point_lookup",
         "MATCH (d:Drug {id: $id}) RETURN d.name", {"id": 1234}),
        ("scan_filter",
         "MATCH (d:Drug) WHERE d.tier = $t RETURN d.id", {"t": 3}),
        ("scan_rows",
         "MATCH (d:Drug) WHERE d.tier < $t RETURN d.name, d.tier",
         {"t": 4}),
    ]
    local_db = connect(graph)
    with local_db.session() as session:
        _time_queries(session, queries, iterations=5)  # warmup
        local = _time_queries(session, queries, iterations)
    with ServerThread(connect(graph), ServerConfig(port=0)) as harness:
        remote_db = connect(harness.url)
        with remote_db.session() as session:
            _time_queries(session, queries, iterations=5)
            remote = _time_queries(session, queries, iterations)
        remote_db.close()
    local_db.close()
    report = {"iterations": iterations, "queries": {}}
    for name, _, _ in queries:
        overhead = remote[name]["median_us"] - local[name]["median_us"]
        rows = remote[name].pop("rows")
        assert rows == local[name].pop("rows"), name
        report["queries"][name] = {
            "in_process": local[name],
            "remote": remote[name],
            "wire_overhead_us": round(overhead, 1),
            "rows": rows,
            "us_per_row": round(overhead / rows, 2),
        }
    return report


def _group_commit_hist() -> tuple[int, int]:
    snap = observe.REGISTRY.snapshot()["histograms"][
        "repro_wal_group_commit_batch_size"
    ]
    return int(snap["count"]), int(snap["sum"])


def run_group_commit(writer_counts, commits_each, window) -> dict:
    results = {}
    for writers in writer_counts:
        with tempfile.TemporaryDirectory() as tmp:
            data_dir = Path(tmp) / "data"
            GraphStore.create(data_dir, PropertyGraph("gc")).close()
            config = ServerConfig(
                port=0, group_window=window, max_connections=writers + 8
            )
            with ServerThread(connect(data_dir), config) as harness:
                fsyncs_before, commits_before = _group_commit_hist()
                barrier = threading.Barrier(writers)
                errors: list[BaseException] = []

                def write(idx: int) -> None:
                    try:
                        db = connect(harness.url)
                        with db.session() as session:
                            barrier.wait()
                            for i in range(commits_each):
                                with session.begin_tx() as tx:
                                    tx.add_vertex(
                                        "W", {"w": idx, "i": i}
                                    )
                                    tx.commit()
                        db.close()
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=write, args=(i,))
                    for i in range(writers)
                ]
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                elapsed = time.perf_counter() - started
                if errors:
                    raise errors[0]
                fsyncs, commits = _group_commit_hist()
                fsyncs -= fsyncs_before
                commits -= commits_before
        ratio = fsyncs / commits if commits else float("nan")
        results[str(writers)] = {
            "writers": writers,
            "commits": commits,
            "fsyncs": fsyncs,
            "fsync_per_commit": round(ratio, 4),
            "commits_per_sec": round(commits / elapsed, 1),
            "elapsed_ms": round(elapsed * 1000.0, 1),
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_server.json")
    )
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--commits-each", type=int, default=8)
    parser.add_argument("--group-window", type=float, default=0.005)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast pass: fewer iterations and writer configs",
    )
    args = parser.parse_args(argv)

    iterations = 20 if args.smoke else args.iterations
    writer_counts = [1, 8] if args.smoke else [1, 8, 32]

    latency = run_latency(iterations)
    group = run_group_commit(
        writer_counts, args.commits_each, args.group_window
    )
    peak = group[str(writer_counts[-1])]
    # The acceptance gate needs the contended configuration; a smoke
    # pass only checks that batching happened at all.
    target = 1.0 if args.smoke else TARGET_FSYNC_PER_COMMIT
    passed = peak["fsync_per_commit"] < target
    report = {
        "cpus": len(os.sched_getaffinity(0)),
        "latency": latency,
        "group_commit": group,
        "target_fsync_per_commit": target,
        "pass": passed,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    print(f"Wrote {args.out}:")
    for name, q in latency["queries"].items():
        print(
            f"  {name}: in-process {q['in_process']['median_us']:.0f} us"
            f" -> remote {q['remote']['median_us']:.0f} us"
            f" (+{q['wire_overhead_us']:.0f} us wire, {q['rows']} rows,"
            f" {q['us_per_row']:.2f} us/row)"
        )
    for cfg in group.values():
        print(
            f"  group commit x{cfg['writers']:>2} writers: "
            f"{cfg['commits']} commits / {cfg['fsyncs']} fsyncs "
            f"= {cfg['fsync_per_commit']:.3f} fsync/commit "
            f"({cfg['commits_per_sec']:.0f} commits/s)"
        )
    if not passed:
        print(
            f"  FAIL: {peak['writers']} writers at "
            f"{peak['fsync_per_commit']:.3f} fsync/commit "
            f"(target < {target})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
