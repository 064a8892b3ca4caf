"""Test-only reference for :class:`~repro.graphdb.statistics.GraphStatistics`'
equality estimates.

The eager build the value coding replaced: per (vertex label, property
name), a :class:`collections.Counter` histogram of the hashable values
over every table carrying the label, plus how many values are lists
(unhashable, counted in aggregate).  :class:`OracleStatistics` is a
``GraphStatistics`` whose ``eq_estimate`` / ``avg_eq_estimate`` read
these histograms, built once with the counts: the numbers are as of
its ``build``.  ``build_plan(..., statistics=OracleStatistics.build(g))``
gives the plan the histograms priced.

:func:`assert_estimates_match` asks a statistics object and the oracle
of the graph as it stands the same :func:`questions`: every stored
value read back, an absent value, a NaN, a list literal and ``True``,
and the value-agnostic estimate, for every (label, property) pair.  A
statistics object answers a pair as the graph stood at its first ask
after the build, so a test that mutates the graph between asks
re-asks the earlier :func:`questions` with :func:`estimates`.
"""

from collections import Counter
from itertools import compress

import numpy as np

from repro.graphdb.columnar import KIND_OBJ
from repro.graphdb.statistics import GraphStatistics, hashable, is_hashable


class PropertyStats:
    """Value histogram for one (vertex label, property name) pair.

    ``hist`` maps each *hashable* value to its occurrence count among
    vertices carrying the label; lists are only counted in aggregate.
    """

    __slots__ = ("count", "unhashable", "hist")

    def __init__(self) -> None:
        self.count = 0          # vertices with a non-null value
        self.unhashable = 0     # of which: unhashable (list) values
        self.hist: dict = {}    # value -> occurrences (hashable only)

    @property
    def ndv(self) -> int:
        """Number of distinct (hashable) values."""
        return len(self.hist)


def _column_histogram(table, column) -> tuple[Counter, int, int]:
    """(value histogram, unhashable count, non-null count) of a column:
    live, present rows only, stored ``None`` skipped."""
    mask = column.mask
    if table.live != len(table.vids):
        # Columns pad lazily, so the mask may be shorter than the vid
        # list; rows past its end are absent and need no clearing.
        vids = np.fromiter(table.vids[:len(mask)], np.int64)
        mask = (np.frombuffer(mask, np.uint8) * (vids >= 0)).tobytes()
    values = list(compress(column.data, mask))
    if column.kind != KIND_OBJ:
        return Counter(values), 0, len(values)
    values = [v for v in values if v is not None]
    hist: Counter = Counter()
    unhashable = 0
    for value in values:
        if is_hashable(value):
            hist[value] += 1
        else:
            unhashable += 1
    return hist, unhashable, len(values)


def reference_histograms(graph) -> dict[tuple[str, str], PropertyStats]:
    """(label, property) -> :class:`PropertyStats` of ``graph`` as it
    stands; a pair with no non-null value has no entry."""
    props: dict[tuple[str, str], PropertyStats] = {}
    for table in graph._tables:
        if table.live == 0:
            continue
        for key_sid, column in table.columns.items():
            hist, unhashable, total = _column_histogram(table, column)
            if total == 0:
                continue
            name = graph._symbols.name(key_sid)
            for label in table.labels:
                stat = props.get((label, name))
                if stat is None:
                    stat = props[(label, name)] = PropertyStats()
                stat.count += total
                stat.unhashable += unhashable
                for value, occurrences in hist.items():
                    stat.hist[value] = stat.hist.get(value, 0) + occurrences
    return props


class OracleStatistics(GraphStatistics):
    """``GraphStatistics`` pricing equality on eager histograms."""

    @classmethod
    def build(cls, graph) -> "OracleStatistics":
        stats = super().build(graph)
        stats.props = reference_histograms(graph)
        return stats

    def eq_estimate(self, label: str, prop: str, value: object) -> float:
        stat = self.props.get((label, prop))
        if stat is None:
            return 0.0
        if is_hashable(value):
            return float(stat.hist.get(value, 0))
        return float(stat.unhashable)

    def avg_eq_estimate(self, label: str, prop: str) -> float:
        stat = self.props.get((label, prop))
        if stat is None:
            return 0.0
        if stat.ndv <= 0:
            return float(stat.unhashable)
        return (stat.count - stat.unhashable) / stat.ndv


#: Literals no stored value needs to hold: absent, a NaN, a list, a
#: bool and a float that an int column's 1 answers, a float between
#: ints and an int past int64.
PROBES = ("no such value", float("nan"), [1, 2], True, 1.0, 2.5, 2 ** 70)

#: The value of a :func:`questions` entry that asks ``avg_eq_estimate``.
ANY = object()


def questions(graph) -> list[tuple[str, str, object]]:
    """``(label, property, value)`` for every (label, property) pair
    ``graph`` has as it stands (and one label and one property it has
    not): every stored value read back and :data:`PROBES`, then
    :data:`ANY` for the value-agnostic estimate."""
    props = reference_histograms(graph)
    stored: dict[tuple[str, str], dict] = {}  # one value per key
    for vid in graph.vertex_ids():
        vertex = graph.vertex(vid)
        for name, value in vertex.properties.items():
            key = type(value), hashable(value)
            for label in vertex.labels:
                stored.setdefault((label, name), {}).setdefault(key, value)
    pairs = set(stored) | set(props)
    pairs |= {("no such label", "v"), (next(iter(graph.labels()), "A"),
                                        "no such property")}
    return [
        (label, prop, value)
        for label, prop in pairs
        for value in [*stored.get((label, prop), {}).values(), *PROBES, ANY]
    ]


def _ask(stats: GraphStatistics, label: str, prop: str, value) -> float:
    if value is ANY:
        return stats.avg_eq_estimate(label, prop)
    return stats.eq_estimate(label, prop, value)


def _key(label: str, prop: str, value) -> tuple[str, str, str]:
    return label, prop, "?" if value is ANY else repr(value)


def estimates(stats: GraphStatistics, asked) -> dict:
    """``stats``' answers to :func:`questions`, keyed by (label,
    property, ``repr`` of the value), ``"?"`` for :data:`ANY`."""
    return {_key(*question): _ask(stats, *question) for question in asked}


def assert_estimates_match(stats: GraphStatistics, graph) -> dict:
    """``stats``' equality estimates equal the oracle's of ``graph`` as
    it stands, for all its :func:`questions`: so each pair ``stats``
    had been asked about before must have been asked of the graph as
    it stands now.  Returns the answers (:func:`estimates`)."""
    oracle = OracleStatistics.build(graph)
    answers = {}
    for question in questions(graph):
        got = _ask(stats, *question)
        want = _ask(oracle, *question)
        assert got == want and type(got) is float, (question, got, want)
        answers[_key(*question)] = got
    return answers
