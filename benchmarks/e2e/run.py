#!/usr/bin/env python3
"""End-to-end benchmark of the paper pipeline, in wall-clock.

One run measures one workload::

    python3 benchmarks/e2e/run.py --workload paper_local --seed 7 \\
        --seconds 10 --trace 0

and prints every metric by name with its unit, the correctness
checks, and as the last line of standard output one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs a short untraced
slice and then a traced pass (benchmark-side spans around every call
into a layer) and reports the per-layer metrics.  Without
``--workload`` all four workloads run, each untraced and then traced.

Other modes: ``--smoke`` (scale 0.2, a few rounds, same checks),
``--repeat N`` (A/A: N untraced runs of each selected workload, order
alternated, spread against each metric's bound), ``--write-expected``
(regenerate ``expected.json``; only in an issue about the benchmark).

The exit code is 0 only if every check passed and nothing - process,
thread, temporary directory - was left behind.  README.md defines the
workloads and metrics; ``BENCHMARK.json`` at the root of the
repository declares them.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"

#: Knobs of the program under test that the environment must not set
#: for it: the benchmark measures the defaults.
SCRUBBED_ENV = (
    "REPRO_PARALLEL", "REPRO_PARALLEL_THRESHOLD", "REPRO_FAULTS",
    "REPRO_FAULTS_SEED", "REPRO_SNAPSHOT_CACHE", "REPRO_OBSERVE",
    "REPRO_OBSERVE_LOG", "REPRO_SLOW_QUERY_MS",
)

DEFAULT_SEED = 7
SCALE = {
    "paper_local": 2.0, "paper_remote": 2.0,
    "pipeline_cold": 1.0, "durable_mixed": 1.0,
}
SMOKE_SCALE = 0.2
SMOKE_ROUNDS = {
    "paper_local": 3, "paper_remote": 3,
    "pipeline_cold": 1, "durable_mixed": 200,
}
#: Set-up is repeated and its median reported, so one slow build does
#: not read as a set-up regression.
SETUP_REPS = 3
#: ... unless the run has already spent this long setting up (a host
#: at half its speed): the driver's time for all its runs is limited.
SETUP_BUDGET_S = 20.0
#: Seconds one set-up may take on the reference host at its slowest;
#: the watchdog allows four times the expected length of a run.
SETUP_ALLOWANCE = {
    "paper_local": 12.0, "paper_remote": 13.0,
    "pipeline_cold": 2.0, "durable_mixed": 3.0,
}
#: Share of ``--seconds`` a traced run spends untraced first, for the
#: tracing-overhead ratio.
UNTRACED_SLICE = 0.25


def load_manifest() -> dict:
    """``BENCHMARK.json``: the one place metrics and workloads are
    declared (names, units, directions, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import the program under test and the workloads; returns the
    workloads module and when the imports were done."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.stderr.write(
            f"benchmarks/e2e: no program to measure ({src}/repro is "
            "missing); run from a checkout of the repository\n"
        )
        raise SystemExit(2)
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads, time.perf_counter()


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def env_header(name: str, args, scale: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "smoke": args.smoke,
        "scale": scale,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from the files (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = git / head[5:]
            if ref.exists():
                return ref.read_text().strip()[:12]
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(head[5:]):
                    return line.split()[0][:12]
            return "unknown"
        return head[:12]
    except OSError:
        return "unknown"


def load_expected(seed: int, scale: float) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    path = HERE / "expected.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["scales"].get(f"{scale:g}")


def reset_peak_rss() -> None:
    """Start this run's peak-RSS reading from the current RSS (only
    matters when one process runs several workloads)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def temp_dirs() -> list[Path]:
    """The data directories of runs, under ``out/`` beside the traces."""
    if not OUT_DIR.is_dir():
        return []
    return [path for path in OUT_DIR.iterdir() if path.is_dir()]


def remove_temp_dirs() -> None:
    for path in temp_dirs():
        shutil.rmtree(path, ignore_errors=True)


def alive() -> set:
    """The threads and child processes there are right now."""
    return set(threading.enumerate()) | set(
        multiprocessing.active_children()
    )


def leftovers(before: set) -> list[str]:
    """Whatever a finished run must not leave behind: a thread or a
    child process that was not there ``before``, a temporary
    directory."""
    sys.modules["repro.graphdb.query.parallel"].shutdown_pool()
    found = [f"still alive: {item.name}" for item in alive() - before]
    return found + [f"temp dir {path.name}" for path in temp_dirs()]


def span_table(tracer, host) -> list[str]:
    """Per span name: calls, corrected self time, and its share."""
    own = tracer.by_name(tracer.self_times(host))
    total = sum(map(sum, own.values()))
    return [
        f"{span:28s} {len(times):8d} calls {sum(times) * 1e3:12.2f} "
        f"ms self {sum(times) / total:7.1%}"
        for span, times in sorted(
            own.items(), key=lambda item: -sum(item[1])
        )
    ]


def run_once(mod, host, imports: tuple, name: str, args, trace: bool) -> dict:
    """Set up, measure, check and tear down one workload."""
    from tracing import Tracer

    manifest = load_manifest()
    declared = manifest["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    layer_units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    scale = SMOKE_SCALE if args.smoke else SCALE[name]
    cfg = mod.RunConfig(
        seed=args.seed, scale=scale,
        max_rounds=SMOKE_ROUNDS[name] if args.smoke else None,
        expected=load_expected(args.seed, scale),
    )
    header = env_header(name, args, scale, trace)
    reps = 1 if (trace or args.smoke) else SETUP_REPS
    host.watchdog(
        4 * (args.seconds + reps * SETUP_ALLOWANCE[name] + 5),
        remove_temp_dirs,
    )
    checks = mod.Checks()
    before = alive()
    workload = mod.WORKLOADS[name](cfg, checks, host)
    reset_peak_rss()
    setups = []
    spans: list[str] = []
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    details: dict[str, float] = {}
    try:
        for rep in range(reps):
            if rep:
                if time.perf_counter() - setups[0][0] > SETUP_BUDGET_S:
                    break
                workload.teardown()
                gc.collect()
            start = time.perf_counter()
            workload.setup(Tracer() if trace else None)
            setups.append((start, time.perf_counter()))
        if trace:
            workload.timed(args.seconds * UNTRACED_SLICE)
            untraced = workload.query_ms_p50()
            workload.reset_samples()
            tracer = Tracer()
            workload.timed(args.seconds * (1 - UNTRACED_SLICE), tracer)
            workload.finish()
            layers = workload.per_layer()
            layers["trace.overhead_ratio"] = (
                workload.query_ms_p50() / untraced
            )
            for metric in units:
                values[metric] = float(layers.pop(metric, 0.0))
            assert not layers, f"undeclared per-layer metrics: {layers}"
            tracer.dump(OUT_DIR / f"trace-{name}.json", header)
            spans = span_table(tracer, host)
        else:
            workload.timed(args.seconds)
            workload.finish()
            intervals = [imports] + setups
            corrected = host.correct(*zip(*intervals))
            values["setup_s"] = float(
                corrected[0] + statistics.median(corrected[1:])
            )
            notes["setup_s"] = (
                "imports + median of set-ups "
                + " ".join(f"{t:.3f}" for t in corrected)
                + "; as the clock read them "
                + " ".join(f"{end - start:.3f}" for start, end in intervals)
            )
            raw = workload.end_to_end(corrected=False)
            for metric, (value, blocks) in workload.end_to_end().items():
                values[metric] = value
                notes[metric] = (
                    f"as the clock read it {raw[metric][0]:.4f}; blocks "
                    + " ".join(f"{b:.4g}" for b in blocks)
                )
            samples = workload.samples
            notes["round_ms_p50"] += (
                f"; {len(samples.round_ends)} rounds, "
                f"{samples.complete} timed operations, host slowdown "
                f"{host.slowdown(*workload.phase):.2f}"
            )
            values["peak_rss_mb"] = workload.rss_mb or mod.peak_rss_mb()
            details = workload.details()
    except Exception as exc:
        checks.fail("crashed", f"{name}: {exc!r}")
        traceback.print_exc()
    finally:
        workload.teardown()
        host.watchdog(float("inf"), None)
    for item in leftovers(before):
        checks.fail("leak", item)
    result = {
        "header": header,
        "correct": checks.failed == 0 and all(m in values for m in units),
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items() if metric in values
        },
        "notes": notes,
        "spans": spans,
        "details": {
            metric: (value, layer_units[metric])
            for metric, value in details.items()
        },
        "failures": dict(checks.by_kind),
        "messages": checks.messages,
    }
    print_result(result)
    return result


def print_result(result: dict) -> None:
    header = result["header"]
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    kind = "layer" if header["trace"] else "e2e"
    for metric, entry in result["metrics"].items():
        note = result["notes"].get(metric, "")
        print(
            f"{kind:5s} {metric:38s} {entry['value']:14.4f} "
            f"{entry['unit']:13s} {note}"
        )
    for metric, (value, unit) in result["details"].items():
        print(f"info  {metric:38s} {value:14.4f} {unit}")
    for line in result["spans"]:
        print(f"span  {line}")
    print(
        f"check attempted={result['attempted']} failed={result['failed']} "
        f"error_ratio={result['failed'] / result['attempted']:.6f} "
        f"{result['failures'] or ''}"
    )
    for message in result["messages"]:
        print(f"  FAILED {message}")


def contract_line(result: dict) -> str:
    return json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    })


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def merge(merged: dict, name: str, result: dict) -> None:
    merged["correct"] &= result["correct"]
    merged["attempted"] += result["attempted"]
    merged["failed"] += result["failed"]
    for metric, entry in result["metrics"].items():
        merged["metrics"][f"{name}.{metric}"] = entry


def run_all(run, names) -> dict:
    """Every selected workload, untraced then traced; one summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (False, True):
            merge(merged, name, run(name, trace))
    return merged


def run_repeat(run, names, repeat: int) -> dict:
    """A/A: the same code measured N times; do the runs agree within
    each metric's bound?  All runs share this process, so their peak
    RSS includes what earlier runs left behind: it is printed, not
    judged (the driver's runs have a process each)."""
    end_to_end = load_manifest()["end_to_end"]
    bounds = {metric["name"]: metric["bound"] for metric in end_to_end}
    runs: dict[tuple[str, str], list[float]] = {}
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for index in range(repeat):
        for name in (names if index % 2 == 0 else names[::-1]):
            result = run(name, False)
            merge(merged, name, result)
            for metric, entry in result["metrics"].items():
                runs.setdefault((name, metric), []).append(entry["value"])
    print(f"# A/A over {repeat} runs per workload")
    print(
        f"{'workload':14s} {'metric':14s} {'median':>12s} {'IQR/med':>8s} "
        f"{'max dev':>8s} {'halves':>8s} {'bound':>6s}"
    )
    for (name, metric), values in runs.items():
        mid = statistics.median(values)
        spread = 0.0
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid
        deviation = max(abs(v - mid) for v in values) / mid
        half = len(values) // 2
        halves = 0.0
        if half:
            first = statistics.median(values[:half])
            halves = abs(statistics.median(values[half:]) - first) / first
        agree = halves <= bounds[metric] or metric == "peak_rss_mb"
        merged["correct"] &= agree
        merged["metrics"][f"{name}.{metric}"]["value"] = mid
        print(
            f"{name:14s} {metric:14s} {mid:12.4f} {spread:8.3f} "
            f"{deviation:8.3f} {halves:8.3f} {bounds[metric]:6.2f}"
            + ("" if agree else "  HALVES DISAGREE")
        )
    return merged


def write_expected(mod, host) -> None:
    """Regenerate expected.json from a set-up and one round at every
    scale in use."""
    scales: dict[str, dict] = {}
    for smoke in (False, True):
        for name in mod.WORKLOADS:
            scale = SMOKE_SCALE if smoke else SCALE[name]
            cfg = mod.RunConfig(
                seed=DEFAULT_SEED, scale=scale, max_rounds=1, expected=None,
            )
            checks = mod.Checks()
            workload = mod.WORKLOADS[name](cfg, checks, host)
            try:
                workload.setup()
                workload.timed(60.0)
            finally:
                workload.teardown()
            if checks.failed:
                raise SystemExit(
                    f"set-up checks failed for {name}: {checks.messages}"
                )
            scales.setdefault(f"{scale:g}", {}).update(workload.observed)
    path = HERE / "expected.json"
    with open(path, "w") as fh:
        json.dump(
            {"seed": DEFAULT_SEED, "scales": scales}, fh,
            indent=1, sort_keys=True,
        )
        fh.write("\n")
    print(f"wrote {path}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SCALE))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--write-expected", action="store_true")
    return parser.parse_args(argv)


def main(argv=None, started: float | None = None) -> int:
    """``started``: when the process began, if set-up is to count from
    there (a script run) and not from this call (a test)."""
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    from hostspeed import HostSpeed

    host = HostSpeed()
    host.start()
    try:
        begin = time.perf_counter() if started is None else started
        mod, imported = import_program()
        names = [args.workload] if args.workload else list(mod.WORKLOADS)

        def run(name: str, trace: bool) -> dict:
            return run_once(mod, host, (begin, imported), name, args, trace)

        if args.write_expected:
            write_expected(mod, host)
            return 0
        if args.repeat:
            result = run_repeat(run, names, args.repeat)
        elif args.workload and args.trace is not None:
            result = run(args.workload, bool(args.trace))
        else:
            result = run_all(run, names)
    finally:
        host.stop()
        remove_temp_dirs()
    sys.stdout.flush()
    print(contract_line(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    for variable in SCRUBBED_ENV:
        os.environ.pop(variable, None)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes order the program's sets and dicts of strings:
        # fix them, so two runs of one seed do identical work.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    # One CPU for every thread of the run: the client and the
    # in-thread servers of paper_remote never work at the same time,
    # and hand-overs between two virtual CPUs cost up to 4x more on
    # some runs than on others (README.md, "Host noise").
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    raise SystemExit(main(started=PROCESS_START))
