"""``statistics.value_code``: the one value -> code lookup that the
planner's equality estimates and the batch path's equality kernels
share.  On an int or float column it must find what a dict keyed by
the stored values finds, in Python's exact int/float/bool equality -
not in float64, where ``2**54 - 1`` and ``2**54`` are one number.
"""

import math

import pytest

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.statistics import GraphStatistics, value_code
from tests.graphdb.stats_oracle import OracleStatistics

COLUMNS = {
    "int": [2**54 - 1, 2**54, 5, 0, 1, -(2**63), 2**63 - 1],
    "float": [2.0**54, 0.5, -0.0, 1.0, math.inf, 2.0**53],
}
PROBES = [
    2**54 - 1, 2**54, 2.0**54, 2**53 + 1, 2**53, True, False, 5, 5.0, 0.5,
    0.0, -0.0, math.inf, -math.inf, math.nan, 2**63, 2**70, "a", (1,),
]


def column_graph(values):
    graph = PropertyGraph("codes")
    for value in values:
        graph.add_vertex("L", {"x": value})
    return graph


@pytest.mark.parametrize("kind", COLUMNS)
def test_value_code_finds_what_a_dict_finds(kind):
    graph = column_graph(COLUMNS[kind])
    index = graph.arrays().column("x").coding()[1]
    keyed = {value: code for code, value in enumerate(index.tolist(), 1)}
    for probe in PROBES:
        assert value_code(index, probe) == keyed.get(probe, 0), probe


def test_an_estimate_past_2_53_equals_the_histograms():
    graph = column_graph(COLUMNS["int"])
    for probe in (2.0**54, 2**54 - 1, 2**53 + 1):
        assert GraphStatistics.build(graph).eq_estimate("L", "x", probe) == (
            OracleStatistics.build(graph).eq_estimate("L", "x", probe)
        ), probe
