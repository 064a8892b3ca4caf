"""Figure 9: benefit ratio vs space constraint on FIN.

FIN is inheritance-dominant; the paper observes occasional dips in the
CC curve as expensive inheritance applications exhaust the budget.
"""

from conftest import report

from repro.bench.harness import run_space_sweep


def test_fig9_space_sweep_fin(fin):
    table = run_space_sweep(fin)
    report(table, "fig9_space_fin.txt")
    rc = table.column("RC BR")
    cc = table.column("CC BR")
    assert rc[-1] == 1.0 and cc[-1] == 1.0
    wins = sum(1 for r, c in zip(rc, cc) if r >= c - 1e-9)
    assert wins >= len(rc) * 0.8
