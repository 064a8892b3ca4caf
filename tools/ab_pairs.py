#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository's benchmark.

Every change that claims a gain (or must show it lost nothing) runs
``benchmarks/e2e/run.py`` on its parent commit and on the working tree,
at least ten times each, alternating which side goes first, and reads
the result by the rule in ``benchmarks/e2e/README.md``.  This does
that by the book::

    python3 tools/ab_pairs.py --parent HEAD --workload paper_local \\
        --pairs 10 --seed 23

The parent is checked out with ``git worktree add`` into a temporary
directory that is removed on exit; nothing is written into the
repository but the git-ignored ``benchmarks/e2e/out/``.  Where
worktrees cannot be made, ``--parent-dir PATH`` in place of
``--parent REV`` measures a checkout that already exists (a ``git
clone`` or ``git archive`` of the parent) and leaves it as it is but
for that checkout's own ``benchmarks/e2e/out/``.  Each side is
measured by *its own* copy of the benchmark, started with the command
``BENCHMARK.json`` declares - this tool runs the benchmark, it never
edits or re-implements it.  It prints every run made, then per
end-to-end metric both sides' medians and quartiles, in how many pairs
the change read better, the parent's inter-quartile spread and a
verdict, and the same as a markdown table for
``benchmarks/EXPERIMENTS.md``:

* ``better``: the change read better in at least 9/10 of the pairs
  (ties count for neither side), the medians differ by more than the
  parent's inter-quartile spread, and at least ten pairs were run;
* ``unresolved``: the parent's spread is wider than the metric's bound
  and some run of the change read no better than some run of the
  parent - the runs cannot tell;
* ``worse``: the change's median is worse than the parent's by more
  than the bound in ``BENCHMARK.json``;
* ``within bound``: everything else.

Exits 0 when every run exited 0 with ``"correct": true`` and nothing
on standard error, whatever the verdicts say; 1 otherwise.
``--smoke`` passes ``--smoke`` through (scale 0.2, a few rounds): a
check of the tool, not a measurement.

Each side runs with a bytecode cache of its own, an empty temporary
``PYTHONPYCACHEPREFIX`` kept for the whole session, and with bytecode
writing on: both sides compile on their first run and reuse the cache
after it.  ``setup_s`` includes the imports, so a side that found a
warm ``__pycache__`` (a working tree) against one that compiles every
run (a fresh clone under ``PYTHONDONTWRITEBYTECODE``) would read faster
for no change of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Pairs below which no gain may be claimed, and the share of them the
#: change must win (benchmarks/e2e/README.md).
CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
SIDES = ("parent", "change")


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args],
        check=True, capture_output=True, text=True,
    )
    return done.stdout.strip()


def run_benchmark(
    root: Path, manifest: dict, args, env: dict
) -> tuple[dict | None, str]:
    """One run of the declared command in ``root`` under ``env``;
    returns the last JSON line of its output and what went wrong (empty
    if nothing)."""
    command = list(manifest["command"]) + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", "0",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=root, env=env, capture_output=True, text=True
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"no result line (exit {done.returncode}): {done.stderr}"
    problems = []
    if done.returncode != 0:
        problems.append(f"exit {done.returncode}")
    if not result.get("correct"):
        problems.append("correct: false")
    if done.stderr.strip():
        problems.append(f"stderr: {done.stderr.strip()}")
    return result, "; ".join(problems)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric over all pairs, by the README's rule."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (p_med - c_med)
    spread = p_q3 - p_q1
    allowed = metric["bound"] * abs(p_med)
    clear = all(sign * (p - c) > 0 for p in parent for c in change)
    if (
        len(gains) >= CLAIM_PAIRS
        and wins >= CLAIM_WIN_SHARE * len(gains)
        and gain > spread
    ):
        verdict = "better"
    elif spread > allowed and not clear:
        verdict = "unresolved"
    elif -gain > allowed:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {
        "name": metric["name"], "unit": metric["unit"],
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "wins": wins, "ties": sum(g == 0 for g in gains),
        "pairs": len(gains), "spread": spread, "verdict": verdict,
    }


def fmt(value: float) -> str:
    return f"{value:.4g}"


def row_cells(row: dict, markdown: bool) -> list[str]:
    def side(stats) -> str:
        median, q1, q3 = stats
        return f"{fmt(median)} ({fmt(q1)}-{fmt(q3)})"

    better = f"{row['wins']}/{row['pairs']}"
    if row["ties"]:
        better += f" ({row['ties']} tied)"
    return [
        f"`{row['name']}`" if markdown else f"{row['name']} [{row['unit']}]",
        side(row["parent"]), side(row["change"]), f"{row['delta']:+.1%}",
        better, fmt(row["spread"]), row["verdict"],
    ]


HEADER = [
    "metric", "parent median (q1-q3)", "change median (q1-q3)", "change",
    "change better in", "parent IQR", "verdict",
]


def print_tables(title: str, rows: list[dict]) -> None:
    """The verdict table, aligned for a terminal and again as markdown
    for ``benchmarks/EXPERIMENTS.md``."""
    lines = [HEADER] + [row_cells(row, markdown=False) for row in rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(HEADER))]
    print(f"# {title}")
    for line in lines:
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    print(f"\nmarkdown:\n\n{title}\n")
    print("| " + " | ".join(HEADER) + " |")
    print("|" + "---|" * len(HEADER))
    for row in rows:
        print("| " + " | ".join(row_cells(row, markdown=True)) + " |")


def side_env(cache: Path) -> dict:
    """The environment of one side's runs: its own bytecode cache
    ``cache``, written to."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parent = parser.add_mutually_exclusive_group(required=True)
    parent.add_argument("--parent", help="revision to compare with")
    parent.add_argument(
        "--parent-dir", type=Path,
        help="an existing checkout of the parent, measured where it is",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=CLAIM_PAIRS)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.parent_dir is not None and not args.parent_dir.is_dir():
        parser.error(f"--parent-dir {args.parent_dir}: not a directory")
    return args


@contextlib.contextmanager
def parent_checkout(commit: str):
    """``commit`` in a ``git worktree`` under a fresh temporary
    directory; both are gone when the block ends, however it ends."""
    temp = Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    checkout = temp / "parent"
    try:
        git("worktree", "add", "--detach", str(checkout), commit)
        yield checkout
    finally:
        for command in (("remove", "--force", str(checkout)), ("prune",)):
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", *command],
                capture_output=True,
            )
        shutil.rmtree(temp, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in manifest["end_to_end"]]
    values = {side: {name: [] for name in names} for side in SIDES}
    failed = {side: [0, 0] for side in SIDES}
    problems = []
    try:
        if args.parent_dir is not None:
            parent = str(args.parent_dir)
            checked_out = contextlib.nullcontext(args.parent_dir.resolve())
        else:
            parent = git("rev-parse", "--short=12", args.parent)
            checked_out = parent_checkout(parent)
        with checked_out as checkout, tempfile.TemporaryDirectory(
            prefix="ab_pairs-pycache-"
        ) as caches:
            roots = {"parent": checkout, "change": ROOT}
            envs = {side: side_env(Path(caches) / side) for side in SIDES}
            print(
                f"# ab_pairs parent={parent} change=working tree "
                f"workload={args.workload} seed={args.seed} "
                f"pairs={args.pairs} seconds={manifest['run_seconds']} "
                f"smoke={args.smoke}"
            )
            print("run  pair  side    " + "  ".join(
                f"{name:>12}" for name in names
            ) + "  failed/attempted")
            for run in range(2 * args.pairs):
                pair, second = divmod(run, 2)
                side = SIDES[(pair + second) % 2]  # who goes first alternates
                result, problem = run_benchmark(
                    roots[side], manifest, args, envs[side]
                )
                if problem:
                    problems.append(f"run {run + 1} ({side}): {problem}")
                if result is None:
                    raise RuntimeError(problem)
                for name in names:
                    values[side][name].append(result["metrics"][name]["value"])
                failed[side][0] += result["failed"]
                failed[side][1] += result["attempted"]
                print(f"{run + 1:3d}  {pair + 1:4d}  {side:6s}  " + "  ".join(
                    f"{values[side][name][-1]:12.4f}" for name in names
                ) + f"  {result['failed']}/{result['attempted']}", flush=True)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or ""
        print(f"ab_pairs: {exc} {detail}".rstrip(), file=sys.stderr)
        return 1
    print()
    print_tables(
        f"{args.workload}, seed {args.seed}, {args.pairs} alternating "
        f"pair(s), parent {parent}" + (" (smoke)" if args.smoke else ""),
        [
            judge(metric, values["parent"][metric["name"]],
                  values["change"][metric["name"]])
            for metric in manifest["end_to_end"]
        ],
    )
    print()
    for side in SIDES:
        print(f"failed operations, {side}: {failed[side][0]}/{failed[side][1]}")
    if args.pairs < CLAIM_PAIRS:
        print(f"fewer than {CLAIM_PAIRS} pairs: no gain can be claimed from these")
    for problem in problems:
        print(f"ab_pairs: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
