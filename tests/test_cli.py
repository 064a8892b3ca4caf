"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import load_ontology, main
from repro.ontology.io import dumps
from repro.ontology.samples import figure2_medical_ontology


@pytest.fixture()
def onto_json(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(dumps(figure2_medical_ontology()))
    return str(path)


@pytest.fixture()
def onto_owl(tmp_path):
    path = tmp_path / "mini.owl"
    path.write_text(
        "Class(A)\nClass(B)\n"
        "DataProperty(A x STRING)\nDataProperty(B y STRING)\n"
        "ObjectProperty(ab A B 1:M)\n"
    )
    return str(path)


class TestLoadOntology:
    def test_json(self, onto_json):
        onto = load_ontology(onto_json)
        assert onto.num_concepts == 9

    def test_owl(self, onto_owl):
        onto = load_ontology(onto_owl)
        assert onto.num_concepts == 2

    def test_invalid_ontology_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "concepts": {"A": {}, "B": {}},
            "relationships": [
                {"label": "isA", "src": "A", "dst": "B",
                 "type": "inheritance"},
                {"label": "isA", "src": "B", "dst": "A",
                 "type": "inheritance"},
            ],
        }))
        assert main(["inspect", str(path)]) == 1


class TestOptimizeCommand:
    def test_cypher_output(self, onto_json, capsys):
        assert main(["optimize", onto_json]) == 0
        out = capsys.readouterr().out
        assert "IndicationCondition (" in out
        assert "(Drug)-[cause]->(ContraIndication)" in out

    def test_gsql_output(self, onto_json, capsys):
        assert main(
            ["optimize", onto_json, "--format", "gsql"]
        ) == 0
        assert "CREATE VERTEX" in capsys.readouterr().out

    def test_budget_and_workload_flags(self, onto_json, capsys):
        code = main([
            "optimize", onto_json, "--budget", "0.3",
            "--workload", "zipf", "--base-cardinality", "50",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_threshold_flags(self, onto_json, capsys):
        code = main([
            "optimize", onto_json, "--theta1", "1.0", "--theta2", "0.0",
        ])
        assert code == 0
        # Nothing leaves the middle band: DrugInteraction survives.
        assert "DrugInteraction (" in capsys.readouterr().out

    def test_missing_file(self):
        assert main(["optimize", "/nope/missing.json"]) == 1


class TestInspectCommand:
    def test_summary_and_ranks(self, onto_json, capsys):
        assert main(["inspect", onto_json, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Ontology" in out
        assert "OntologyPR" in out
        assert "Drug" in out
        assert "rule family" in out


class TestDemoCommand:
    def test_med_demo(self, capsys):
        assert main(["demo", "med", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "MED microbenchmark" in out
        assert "Q1" in out

    def test_removed_data_dir_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["demo", "med", "--data-dir", str(tmp_path)])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["demo", "save"])
    def test_scale_must_be_finite_and_positive(
        self, command, scale, tmp_path, capsys
    ):
        target = [str(tmp_path / "data")] if command == "save" else []
        with pytest.raises(SystemExit) as exc_info:
            main([command, "med", *target, "--scale", scale])
        assert exc_info.value.code == 2
        assert "finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()
