"""The micro-benchmark harness still runs and still writes its schema.

CI's ``bench-smoke`` job runs every section of ``benchmarks/micro.py``;
this runs four of them in-process so the harness cannot rot where that
job is not looked at: the two cheapest, and ``budgets`` and ``paths``,
which swap in pass-throughs for the fault hooks by their signatures
and gate the batch path.
"""

import importlib.util
import json
import threading
from pathlib import Path

MICRO = Path(__file__).resolve().parent.parent / "benchmarks" / "micro.py"


def load_micro():
    spec = importlib.util.spec_from_file_location("bench_micro", MICRO)
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    return micro


def run_section(micro, section, tmp_path, capsys) -> dict:
    threads = set(threading.enumerate())
    out = tmp_path / f"{section}.json"

    code = micro.main(["--smoke", "--only", section, "--out", str(out)])

    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(out.read_text())
    assert {
        "commit", "dirty", "python", "numpy", "cpus", "host.slowdown_p50"
    } <= set(report["header"])
    assert report["header"]["smoke"] is True
    for row in report["rows"]:
        assert set(row) == {"name", "unit", "median", "iqr", "n", "extra"}
        assert row["n"] == 1 and row["name"] in captured.out
    assert set(threading.enumerate()) == threads
    return report


def test_smoke_section_writes_the_schema(tmp_path, capsys):
    report = run_section(load_micro(), "derived", tmp_path, capsys)
    assert [(row["name"], row["unit"]) for row in report["rows"]] == [
        ("derived.adjacency_fold", "ms"),
        ("derived.freeze", "ms"),
        ("derived.page_traces", "us"),
        ("derived.stats_build", "ms"),
        ("derived.snapshot", "ms"),
        ("derived.load", "ms"),
        ("derived.ontology_pagerank.med", "us"),
        ("derived.ontology_pagerank.fin", "us"),
        ("derived.optimize.med", "ms"),
        ("derived.optimize.fin", "ms"),
    ]
    for row in report["rows"]:
        assert row["median"] > 0
    # The CSR index is sized by anchor ranges: it stays below the
    # neighbor / eid payload it indexes.
    freeze = report["rows"][1]["extra"]
    assert 0 < freeze["csr_bytes"] < freeze["payload_bytes"]
    # A replaying run merges calls into fewer settles, and leaves the
    # counters and the recency order a recording run leaves.
    traces = report["rows"][2]["extra"]
    assert 0 < traces["settles"] < traces["calls"]
    assert traces["replay_pages"] == traces["record_pages"]
    assert traces["record_pages"][1] > 0 and traces["same_order"]
    # The statistics row times FIN-OPT and carries FIN-DIR's time, and
    # what an epoch's first equality estimate costs.
    stats = report["rows"][3]["extra"]
    assert stats["dataset"] == "fin-opt" and stats["dir_ms"] > 0
    assert stats["first_ask_ms"] > 0 and stats["first_ask_rows"] > 0
    # The snapshot row sizes FIN-OPT's snapshot and splits its time.
    snap = report["rows"][4]["extra"]
    assert snap["dataset"] == "fin-opt" and snap["bytes"] > 0
    assert snap["write_ms"] > 0 and snap["read_ms"] > 0
    # The cold build row splits its time into its three parts, names
    # two phases inside the OPT load and counts the collector's passes
    # by generation.
    build = report["rows"][5]["extra"]
    assert build["dataset"] == "fin"
    assert all(
        build[part] > 0
        for part in ("generate_ms", "load_dir_ms", "load_opt_ms")
    )
    assert 0 < build["lists_ms"] + build["set_properties_ms"] < build[
        "load_opt_ms"
    ]
    assert len(build["gc_collections"]) == 3
    # The ontology PageRank runs over tens of concepts, not a graph.
    assert all(
        row["extra"]["concepts"] < 100
        for row in report["rows"] if "pagerank" in row["name"]
    )
    # An optimize() row splits its time into five stages, which sum to
    # no more than the whole (each stage is rounded to 0.01 ms).
    stages = ("model_ms", "rc_ms", "cc_ms", "transform_ms", "schema_ms")
    for row in report["rows"][-2:]:
        extra = row["extra"]
        assert set(extra) == {"budget", *stages}
        assert all(extra[stage] > 0 for stage in stages)
        assert sum(extra[stage] for stage in stages) < row["median"] + 0.025


def test_smoke_driver_section(tmp_path, capsys):
    report = run_section(load_micro(), "driver", tmp_path, capsys)
    (row,) = report["rows"]
    assert row["name"] == "driver.fixed_us" and row["unit"] == "us"
    assert row["extra"]["rows"] == 1
    assert row["extra"]["mode"] == "vectorized"
    assert row["extra"]["driver_us"] > 0 and row["extra"]["executor_us"] > 0


def test_smoke_budgets_and_paths_sections(tmp_path, capsys):
    micro = load_micro()
    names = {
        section: [
            (row["name"], row["unit"])
            for row in run_section(micro, section, tmp_path, capsys)["rows"]
        ]
        for section in ("budgets", "paths")
    }
    assert names == {
        "budgets": [
            ("budgets.observe_disabled_vs_noop", "ratio"),
            ("budgets.observe_traced_vs_untraced", "ratio"),
            ("budgets.observe_enabled_vs_disabled", "ratio"),
            ("budgets.failpoints_disarmed_vs_passthrough", "ratio"),
        ],
        "paths": [
            ("paths.full_label_scan", "us"),
            ("paths.label_project_scan", "us"),
            ("paths.filtered_sum_aggregate", "us"),
            ("paths.string_project_scan", "us"),
            ("paths.grouped_count", "us"),
            ("paths.expand_collect_size", "us"),
            ("paths.two_hop_expand", "us"),
        ],
    }


def test_only_a_whole_run_writes_the_default_file(tmp_path, monkeypatch):
    # One section (without --out) would leave the committed file with
    # that section's rows alone, so it writes nothing; a full run
    # rewrites the file whole.
    micro = load_micro()
    monkeypatch.setattr(micro, "ROOT", tmp_path)
    monkeypatch.setattr(micro, "SECTIONS", {"noop": lambda bench: None})
    assert micro.main(["--only", "noop"]) == 0
    assert not (tmp_path / "BENCH_micro.json").exists()
    assert micro.main([]) == 0
    report = json.loads((tmp_path / "BENCH_micro.json").read_text())
    assert report["rows"] == []
