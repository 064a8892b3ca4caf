"""Motivating examples (Section 1, Figure 1).

Example 1: a pattern-matching query over the Drug/DrugInteraction
inheritance triangle.  Example 2: a COUNT aggregation over the 1:M
``treat`` relationship.  The paper reports ~2 orders of magnitude and
~8x respectively on its testbed; we check the optimized graph wins on
both (shape, not absolute numbers).
"""

from conftest import report

from repro.bench.harness import run_motivating


def test_motivating_examples():
    table = run_motivating(scale=1.0)
    report(table, "motivating.txt")
    for row in table.rows:
        assert row[4] > 1.0, f"{row[0]} should win on the optimized PG"
