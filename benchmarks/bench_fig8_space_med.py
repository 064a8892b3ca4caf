"""Figure 8: benefit ratio vs space constraint on MED.

Reproduces both workload summaries (uniform and Zipf).  Expected
shapes: RC >= CC nearly everywhere, >= 50% of the benefit by ~20% of
the space, and BR = 1.0 at 100% (Theorem 3).
"""

from conftest import report

from repro.bench.harness import run_space_sweep


def test_fig8_space_sweep_med(med):
    table = run_space_sweep(med)
    report(table, "fig8_space_med.txt")
    rc = table.column("RC BR")
    cc = table.column("CC BR")
    assert rc[-1] == 1.0 and cc[-1] == 1.0  # 100% budget endpoint
    # RC dominates CC (small tolerance: CC may luck into ties).
    wins = sum(1 for r, c in zip(rc, cc) if r >= c - 1e-9)
    assert wins >= len(rc) * 0.8
    # Roughly half the benefit by ~20-25% of the space (both
    # workloads; the paper reads "approximately 20%" off its plot).
    for offset in (0, len(rc) // 2):
        assert rc[offset + 7] >= 0.45   # the 0.20 fraction
        assert rc[offset + 8] >= 0.50   # the 0.25 fraction
