"""Figure 10: benefit ratio vs Jaccard thresholds on FIN.

The paper varies (theta1, theta2) over {(0.9, 0.1), (0.66, 0.33),
(0.6, 0.4), (0.5, 0.5)} with the budget fixed at half the (per-
threshold) NSC space overhead, and finds both algorithms robust:
>= ~0.7 BR in the worst case.
"""

from conftest import report

from repro.bench.harness import run_jaccard_sweep


def test_fig10_jaccard_sweep_fin(fin):
    table = run_jaccard_sweep(fin)
    report(table, "fig10_jaccard_fin.txt")
    for value in table.column("RC BR"):
        assert value >= 0.6
    for value in table.column("CC BR"):
        assert value >= 0.4
