"""Tier-1 smoke test of the end-to-end benchmark.

Runs every workload at scale 0.2 for a few rounds, untraced and
traced, in this process: the same code, checks and clean-exit
assertions as a full run, in seconds instead of minutes.
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import re
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _load_run():
    spec = importlib.util.spec_from_file_location(
        "e2e_run", HERE / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


def _last_line(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace, capsys):
    threads = set(threading.enumerate())
    code = run.main([
        "--workload", workload, "--smoke", "--seed", "7",
        "--seconds", "30", "--trace", str(trace),
    ])
    result = _last_line(capsys)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 24
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        if not trace:
            assert reported["value"] > 0, entry["name"]
    # The run's own clean-exit checks passed (they count as failures
    # otherwise); assert the same from outside.
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) <= threads
    out = HERE / "out"
    assert not out.exists() or not any(p.is_dir() for p in out.iterdir())
    if trace:
        spans = json.loads((out / f"trace-{workload}.json").read_text())
        assert spans["columns"] == [
            "name", "start_us", "end_us", "parent", "op",
        ]
        assert spans["spans"]


def test_other_seed_relies_on_equivalence_checks(capsys):
    code = run.main([
        "--workload", "paper_local", "--smoke", "--seed", "11",
        "--seconds", "30", "--trace", "0",
    ])
    assert code == 0, _last_line(capsys)


def test_wrong_expectation_fails_the_run(capsys, monkeypatch):
    real = run.load_expected

    def skewed(seed, scale):
        expected = dict(real(seed, scale))
        expected["query.MED.dir.Q1"] = [1, "0" * 16]
        return expected

    monkeypatch.setattr(run, "load_expected", skewed)
    code = run.main([
        "--workload", "paper_local", "--smoke", "--seed", "7",
        "--seconds", "30", "--trace", "0",
    ])
    result = _last_line(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_manifest_is_within_the_contract():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = []
    for entry in MANIFEST["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in MANIFEST["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in MANIFEST["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert unit.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
        names.append(entry["name"])
    assert all(name.match(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [e for e in MANIFEST["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        e["bound"] for e in MANIFEST["end_to_end"]
    )
    assert sorted(names[:len(WORKLOADS)]) == sorted(run.SCALE)


def test_no_program_means_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as raised:
        run.main(["--workload", "paper_local", "--trace", "0"])
    assert raised.value.code == 2
    assert capsys.readouterr().out == ""
