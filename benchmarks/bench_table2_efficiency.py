"""Table 2: efficiency of the RC and CC algorithms.

Optimization wall time at 25/50/75% space budgets on MED and FIN.
The paper's Java implementation reports 23-26ms (MED) / 188-193ms
(FIN) for RC and 34-36ms / 344-373ms for CC; we check the same
qualitative properties: well under a second, insensitive to the
budget, and FIN slower than MED.
"""

from conftest import report

from repro.bench.harness import run_efficiency


def test_table2_efficiency(med, fin):
    table = run_efficiency([med, fin])
    report(table, "table2_efficiency.txt")

    by_dataset = {}
    for dataset, space, rc_ms, cc_ms in table.rows:
        by_dataset.setdefault(dataset, []).append((rc_ms, cc_ms))

    for dataset, times in by_dataset.items():
        for rc_ms, cc_ms in times:
            # Paper: "both CC and RC produce an optimized property
            # graph schema in less than one second".
            assert rc_ms < 1000, dataset
            assert cc_ms < 1000, dataset
        # Budget insensitivity, loosely (our fixpoint engine does more
        # merging work at larger budgets; see EXPERIMENTS.md).
        rc_values = [t[0] for t in times]
        assert max(rc_values) <= 4 * min(rc_values) + 50

    # FIN (138 relationships) costs more than MED (60).
    fin_rc = max(t[0] for t in by_dataset["FIN"])
    med_rc = max(t[0] for t in by_dataset["MED"])
    assert fin_rc > med_rc
