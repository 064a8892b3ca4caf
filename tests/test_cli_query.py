"""The ``repro query`` subcommand: parameters, formats, exit codes."""

import json

import pytest

from repro.cli import main
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage import GraphStore


@pytest.fixture()
def data_dir(tmp_path):
    g = PropertyGraph("cliq")
    for i in range(5):
        g.add_vertex("Drug", {"id": i, "name": f"d{i}", "score": i / 2})
    g.add_vertex("Condition", {"cname": "c0"})
    g.create_property_index("Drug", "id")
    store = GraphStore.create(tmp_path / "store", g)
    store.close()
    return str(tmp_path / "store")


class TestQueryCommand:
    def test_table_output(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug) RETURN count(*) AS n",
        ]) == 0
        out = capsys.readouterr().out
        assert "n" in out and "5" in out

    def test_json_output(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug {id: $id}) RETURN d.name AS name",
            "--param", "id=2", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["name"]
        assert payload["rows"] == [["d2"]]
        assert payload["latency_ms"] > 0

    def test_json_output_carries_full_summary(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug) RETURN d.name AS name",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["row_count"] == 5
        assert payload["elapsed_ms"] >= 0
        assert len(payload["plan_digest"]) == 12
        assert payload["metrics"]["rows"] == 5
        assert payload["parameters"] == {}

    def test_json_output_echoes_parameters(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug {id: $id}) RETURN d.name",
            "--param", "id=2", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"] == {"id": 2}

    def test_trace_flag_table(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug) RETURN count(*) AS n", "--trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "parse" in out and "execute" in out
        assert "actual=5 rows" in out

    def test_trace_flag_json(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug) RETURN d.name",
            "--trace", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        trace = payload["trace"]
        names = [child["name"] for child in trace["children"]]
        assert names == ["parse", "plan", "execute"]
        execute = trace["children"][-1]
        assert execute["rows"] == 5
        assert execute["children"][0]["actual_rows"] == 5

    def test_untraced_json_has_no_trace_key(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug) RETURN d.name", "--format", "json",
        ]) == 0
        assert "trace" not in json.loads(capsys.readouterr().out)

    def test_param_json_and_string_values(self, data_dir, capsys):
        # score=0.5 parses as a JSON number; name falls back to str.
        assert main([
            "query", data_dir,
            "MATCH (d:Drug {score: $s, name: $n}) RETURN d.id",
            "--param", "s=0.5", "--param", "n=d1",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [[1]]

    def test_vertex_binding_serialization(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug {id: $id}) RETURN d",
            "--param", "id=0", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [[{"vertex": 0}]]

    def test_explain_flag(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug {id: $id}) RETURN d.name",
            "--param", "id=1", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "index lookup (Drug.id = $id)" in out

    def test_json_output_reports_pipeline_mode(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug) RETURN sum(d.id) AS s",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "vectorized"
        assert payload["rows"] == [[10]]

    def test_json_mode_reports_fallback(self, data_dir, capsys):
        # LIMIT is tuple-only by design; the surfaced mode must say so.
        assert main([
            "query", data_dir,
            "MATCH (d:Drug) RETURN d.id LIMIT 2",
            "--format", "json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "tuple"

    def test_explain_renders_chosen_path(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug) RETURN count(*) AS n", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "mode=vectorized" in out

    def test_trace_renders_chosen_path(self, data_dir, capsys):
        assert main([
            "query", data_dir,
            "MATCH (d:Drug) RETURN count(*) AS n", "--trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "mode=vectorized" in out

    def test_query_error_exits_1(self, data_dir, capsys):
        assert main(["query", data_dir, "MATCH (d:Drug RETURN d"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_param_exits_1(self, data_dir, capsys):
        assert main([
            "query", data_dir, "MATCH (d:Drug {id: $id}) RETURN d",
        ]) == 1
        assert "$id" in capsys.readouterr().err

    def test_missing_store_exits_1(self, tmp_path, capsys):
        assert main([
            "query", str(tmp_path / "nope"), "MATCH (d) RETURN d",
        ]) == 1

    def test_bad_param_syntax_exits_2(self, data_dir):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "query", data_dir, "MATCH (d) RETURN d",
                "--param", "noequals",
            ])
        assert exc_info.value.code == 2

    def test_missing_args_exits_2(self, data_dir):
        with pytest.raises(SystemExit) as exc_info:
            main(["query", data_dir])
        assert exc_info.value.code == 2

    def test_removed_parallel_flag_exits_2(self, data_dir):
        with pytest.raises(SystemExit) as exc_info:
            main(["query", data_dir, "MATCH (d) RETURN d", "--parallel", "2"])
        assert exc_info.value.code == 2

    def test_load_on_snapshot_file_exits_cleanly(self, tmp_path, capsys):
        from repro.graphdb.graph import PropertyGraph
        from repro.graphdb.storage import write_snapshot

        g = PropertyGraph()
        g.add_vertex("A", {})
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        assert main(["load", str(path)]) == 1
        assert "not a data directory" in capsys.readouterr().err

    def test_query_accepts_snapshot_file(self, tmp_path, capsys):
        from repro.graphdb.graph import PropertyGraph
        from repro.graphdb.storage import write_snapshot

        g = PropertyGraph()
        g.add_vertex("A", {"x": 1})
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        assert main([
            "query", str(path), "MATCH (a:A) RETURN a.x",
            "--format", "json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [[1]]

    def test_readonly_leaves_store_untouched(self, data_dir, tmp_path):
        import os

        before = {
            name: os.path.getsize(os.path.join(data_dir, name))
            for name in os.listdir(data_dir)
        }
        assert main([
            "query", data_dir, "MATCH (d:Drug) RETURN count(*)",
        ]) == 0
        after = {
            name: os.path.getsize(os.path.join(data_dir, name))
            for name in os.listdir(data_dir)
        }
        assert before == after
