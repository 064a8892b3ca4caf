"""Tests for the experiment drivers (shape assertions on small scales).

Each driver is exercised at test scale; shape expectations mirror the
paper's qualitative claims (see DESIGN.md section 4).  The full-scale
numbers live in benchmarks/ and EXPERIMENTS.md.
"""

import pytest

from repro.bench.harness import (
    MICROBENCH_THRESHOLDS,
    build_pipeline,
    run_efficiency,
    run_jaccard_sweep,
    run_knapsack_ablation,
    run_microbenchmark,
    run_space_sweep,
    run_workload_experiment,
)
from repro.datasets import build_med
from repro.exceptions import OntologyError
from repro.optimizer.concept_centric import optimize_concept_centric
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.relation_centric import optimize_relation_centric
from repro.rules.base import Thresholds


class TestPipeline:
    def test_pipeline_components(self, med_pipeline):
        assert med_pipeline.dir_graph.num_vertices > 0
        assert med_pipeline.opt_graph.num_vertices > 0
        assert med_pipeline.opt_graph.num_vertices < (
            med_pipeline.dir_graph.num_vertices
        )
        assert set(med_pipeline.rewritten) == set(
            med_pipeline.dataset.queries
        )

    def test_snapshot_cache_variable_is_ignored(
        self, tmp_path, monkeypatch
    ):
        """Every build generates and loads both graphs: the removed
        snapshot memo cache's variable neither writes nor reads."""
        monkeypatch.setenv("REPRO_SNAPSHOT_CACHE", str(tmp_path))
        for _ in range(2):
            pipeline = build_pipeline(build_med(), scale=0.1)
            assert pipeline.logical is not None
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_accepts_only_none(self, med_small, tmp_path):
        with pytest.raises(TypeError, match="cache_dir"):
            build_pipeline(med_small, cache_dir=tmp_path)

    @pytest.mark.parametrize("scale", [0.0, float("nan")])
    def test_scale_not_finite_and_positive_is_rejected(
        self, med_small, scale
    ):
        with pytest.raises(OntologyError, match="finite and > 0"):
            build_pipeline(med_small, scale=scale)

    def test_budget_respected(self, med_pipeline):
        result = med_pipeline.result
        assert result.total_cost <= result.space_limit


class TestSpaceSweep:
    def test_rows_and_shape(self, med_small):
        table = run_space_sweep(
            med_small, fractions=(0.05, 0.25, 1.0),
            workload_kinds=("uniform",),
        )
        assert len(table.rows) == 3
        rc = table.column("RC BR")
        assert rc == sorted(rc)          # monotone in budget
        assert rc[-1] == pytest.approx(1.0)
        cc = table.column("CC BR")
        assert cc[-1] == pytest.approx(1.0)

    def test_rc_dominates_cc(self, med_small):
        table = run_space_sweep(
            med_small, fractions=(0.1, 0.5), workload_kinds=("zipf",),
        )
        for rc, cc in zip(table.column("RC BR"), table.column("CC BR")):
            assert rc >= cc - 0.05


    def test_rows_are_the_optimizers_benefit_ratios(self, med_small):
        """The sweeps price the rules once and realize nothing, yet
        read what the realizing optimizer calls report."""
        fractions, pairs = (0.1, 0.5), ((0.9, 0.1), (0.5, 0.5))
        rows = run_space_sweep(
            med_small, fractions=fractions, workload_kinds=("zipf",),
        ).rows + run_jaccard_sweep(
            med_small, pairs=pairs, workload_kinds=("zipf",),
        ).rows
        ontology, stats = med_small.ontology, med_small.stats
        workload = med_small.workload("zipf")
        settings = [(MICROBENCH_THRESHOLDS, f) for f in fractions] + [
            (Thresholds(*pair), 0.5) for pair in pairs
        ]
        want = []
        for thresholds, fraction in settings:
            model = CostBenefitModel(ontology, stats, workload, thresholds)
            budget = model.budget_for_fraction(fraction)
            want.append([
                round(optimize(
                    ontology, stats, budget, workload, thresholds
                ).benefit_ratio, 4)
                for optimize in (
                    optimize_relation_centric, optimize_concept_centric
                )
            ])
        assert [row[2:] for row in rows] == want


class TestJaccardSweep:
    def test_robustness(self, med_small):
        table = run_jaccard_sweep(
            med_small,
            pairs=((0.9, 0.1), (0.5, 0.5)),
            workload_kinds=("uniform",),
        )
        assert len(table.rows) == 2
        for value in table.column("RC BR"):
            assert value >= 0.5  # paper: >= ~0.7 at 50% budget


class TestMicrobenchmark:
    def test_speedups(self, med_small):
        table = run_microbenchmark([med_small], scale=1.0)
        # 6 queries x 2 backends
        assert len(table.rows) == 12
        speedups = table.column("speedup")
        assert all(s >= 0.9 for s in speedups)
        assert any(s > 1.5 for s in speedups)


class TestWorkloadExperiment:
    def test_opt_wins(self, med_small):
        table = run_workload_experiment([med_small], scale=1.0, size=6)
        assert len(table.rows) == 2  # 2 backends
        for row in table.rows:
            direct_ms, opt_ms = row[2], row[3]
            assert opt_ms < direct_ms


class TestEfficiency:
    def test_table_shape(self, med_small):
        table = run_efficiency(
            [med_small], fractions=(0.25, 0.75), repeats=1
        )
        assert len(table.rows) == 2
        for row in table.rows:
            assert row[2] > 0 and row[3] > 0  # RC ms, CC ms


class TestKnapsackAblation:
    def test_fptas_at_least_greedy(self, med_small):
        table = run_knapsack_ablation(
            med_small, fractions=(0.1, 0.5)
        )
        for fptas, greedy in zip(
            table.column("FPTAS BR"), table.column("greedy BR")
        ):
            assert fptas >= greedy - 0.1


class TestPipelineDatabase:
    def test_unknown_graph_name_rejected(self):
        from repro.bench.harness import Pipeline

        pipeline = Pipeline.__new__(Pipeline)
        try:
            pipeline.database("dri")
        except ValueError as exc:
            assert "dri" in str(exc)
        else:  # pragma: no cover - guard must fire
            raise AssertionError("typo'd graph name was accepted")
