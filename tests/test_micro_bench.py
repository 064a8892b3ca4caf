"""The micro-benchmark harness still runs and still writes its schema.

CI's ``bench-smoke`` job runs every section of ``benchmarks/micro.py``;
this runs the cheapest one in-process so the harness cannot rot where
that job is not looked at.
"""

import importlib.util
import json
import threading
from pathlib import Path

MICRO = Path(__file__).resolve().parent.parent / "benchmarks" / "micro.py"


def test_smoke_section_writes_the_schema(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_micro", MICRO)
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    threads = set(threading.enumerate())
    out = tmp_path / "micro.json"

    code = micro.main(["--smoke", "--only", "derived", "--out", str(out)])

    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(out.read_text())
    assert {
        "commit", "dirty", "python", "numpy", "cpus", "host.slowdown_p50"
    } <= set(report["header"])
    assert report["header"]["smoke"] is True
    assert [row["name"] for row in report["rows"]] == [
        "derived.segments_build",
        "derived.adjacency_build",
        "derived.pagerank_kernel",
    ]
    for row in report["rows"]:
        assert set(row) == {"name", "unit", "median", "iqr", "n", "extra"}
        assert row["unit"] == "ms" and row["median"] > 0 and row["n"] == 1
        assert row["name"] in captured.out
    assert set(threading.enumerate()) == threads
