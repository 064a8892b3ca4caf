"""The ``repro metrics`` subcommand: JSON and Prometheus dumps."""

import json

import pytest

from repro.cli import main
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage import GraphStore


@pytest.fixture()
def data_dir(tmp_path):
    g = PropertyGraph("clim")
    for i in range(4):
        g.add_vertex("Drug", {"id": i, "name": f"d{i}"})
    g.create_property_index("Drug", "id")
    store = GraphStore.create(tmp_path / "store", g)
    store.close()
    return str(tmp_path / "store")


class TestMetricsCommand:
    def test_json_snapshot(self, data_dir, capsys):
        assert main(["metrics", data_dir]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["enabled"] is True
        # Opening the store runs recovery, so the open itself counts.
        assert snap["counters"]["repro_recoveries_total"] >= 1
        assert "repro_query_seconds" in snap["histograms"]

    def test_query_flag_populates_query_metrics(self, data_dir, capsys):
        before_main = main(["metrics", data_dir])
        assert before_main == 0
        before = json.loads(capsys.readouterr().out)["counters"][
            "repro_queries_total"
        ]
        assert main([
            "metrics", data_dir,
            "--query", "MATCH (d:Drug) RETURN count(*)",
            "--query", "MATCH (d:Drug) RETURN d.name",
        ]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["repro_queries_total"] == before + 2

    def test_checkpoint_flag_counts_checkpoint(self, data_dir, capsys):
        assert main(["metrics", data_dir, "--checkpoint"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["repro_checkpoints_total"] >= 1
        assert snap["counters"]["repro_snapshot_writes_total"] >= 1
        assert snap["histograms"]["repro_checkpoint_seconds"]["count"] >= 1

    def test_prometheus_format(self, data_dir, capsys):
        assert main(["metrics", data_dir, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_recoveries_total counter" in out
        assert "# TYPE repro_query_seconds histogram" in out
        assert 'repro_query_seconds_bucket{le="+Inf"}' in out

    def test_missing_store_exits_1(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err
