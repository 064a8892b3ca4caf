"""Graph statistics: the cardinalities behind cost-based planning.

:class:`GraphStatistics` holds, per graph:

* **label cardinalities** - vertices per label, edges per edge type;
* **degree statistics** - for every (edge type, vertex label) pair,
  how many edges of that type start (or end) at a vertex carrying that
  label, which gives the planner average expansion fan-out and the
  label composition of an edge type's endpoints;

and prices **equality predicates** (``x.p = literal``, ``x.p = $p``)
and the label-scan vs. property-index choice from the graph's value
coding: the codes of ``p``'s column in the graph's
:class:`~repro.graphdb.view.GraphArrays`, at the live vertices carrying
the label (:meth:`GraphStatistics.eq_estimate`), counted at the first
ask of that (label, property) after the build and kept with the
counts.  The batch path's grouping and comparison kernels read the
same codes, and look a constant up with the same :func:`value_code`,
so one coding decides when two values are one key, and no histogram
is kept.

The counts are derived state with one producer,
:meth:`GraphStatistics.build` - one pass over the graph's tables,
with one ``np.unique`` over the edges' packed codes.
:meth:`PropertyGraph.statistics` caches the build and rebuilds it once
the element mutations since then reach ``max(64, size >> 4)`` (about
6% of the graph); an index created or dropped discards it at once.
So the counts are as of the build and may lag the graph by up to that
many mutations, and an equality estimate is as of the first plan after
the build that asked for its (label, property): a write between plans
costs no column build until the next rebuild.  Plans stay *correct* on stale numbers - only their optimality
decays.  Nothing is persisted: a reopened store builds on its first
query, from the same columns, the same numbers.

The **plan cache** lives here because its lifetime is the statistics
object's lifetime: a small LRU mapping a query (text or AST) to its
built :class:`~repro.graphdb.query.planner.Plan`, so repeated queries
skip parsing and planning.  A rebuild starts with an empty cache,
which is what invalidates plans priced on the old numbers.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from itertools import combinations
from typing import Iterable

import numpy as np

from repro.graphdb.observe import REGISTRY as _OBS

_PLAN_CACHE_HITS = _OBS.counter(
    "repro_plan_cache_hits_total", "Plan-cache lookups served from cache."
)
_PLAN_CACHE_MISSES = _OBS.counter(
    "repro_plan_cache_misses_total",
    "Plan-cache lookups that required planning (includes rebuilds).",
)


def is_hashable(value: object) -> bool:
    """Whether ``value`` can key a dict as it is.

    The single hashability test shared by the equality estimates here,
    the planner's fold/access logic and the batch path's equality
    kernels - all must agree on which literals an index lookup is
    priced and planned for, and which have a value code.
    """
    try:
        hash(value)
    except TypeError:
        return False
    return True


def hashable(value: object) -> object:
    """``value`` as a dict key: a list becomes a tuple, recursively.

    What property-index buckets, grouping keys and DISTINCT rows are
    keyed by, so that a list value buckets by its contents.
    """
    if isinstance(value, list):
        return tuple(hashable(v) for v in value)
    return value


def value_code(index, value) -> int:
    """``value``'s code in a column coding's ``index`` (see
    :meth:`~repro.graphdb.view._Column.coding`), 0 where no slot holds
    it: what a dict keyed by the stored values finds.  ``value`` must
    be hashable.  An int or float column's sorted distinct values are
    searched in Python's exact int/float/bool order, so ``2**53 + 1``
    equals no float and ``True`` is ``1``."""
    if isinstance(index, dict):
        return index.get(value, 0)
    try:
        i = bisect_left(index, value, key=np.generic.item)
    except TypeError:  # no order with a number: equal to none
        return 0
    return i + 1 if i < len(index) and index[i].item() == value else 0


class PlanCache:
    """LRU cache of built plans, one per statistics build.

    The key is the raw query text or a hashable (frozen-dataclass)
    AST.  A cached plan is always *correct* - plans never embed row
    counts, only access choices and orderings - so entries are not
    evicted on mutation; a statistics rebuild replaces the whole cache.
    """

    def __init__(self, capacity: int = 128):
        self.capacity = max(1, capacity)
        self._entries: dict = {}  # query key -> value
        self.hits = 0
        self.misses = 0

    def get(self, query):
        value = self._entries.pop(query, None)
        if value is None:
            self.misses += 1
            _PLAN_CACHE_MISSES.inc()
            return None
        self._entries[query] = value  # re-insert: most recently used
        self.hits += 1
        _PLAN_CACHE_HITS.inc()
        return value

    def put(self, query, value) -> None:
        self._entries.pop(query, None)
        while len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[query] = value

    def __len__(self) -> int:
        return len(self._entries)


def _add(counter: dict, key, count: int) -> None:
    counter[key] = counter.get(key, 0) + count


class GraphStatistics:
    """Cardinality statistics of one graph: counts as of one
    :meth:`build`, equality estimates as of their first ask since."""

    def __init__(self) -> None:
        self.num_vertices = 0
        self.num_edges = 0
        #: label -> vertex count
        self.label_counts: dict[str, int] = {}
        #: edge label -> edge count
        self.edge_label_counts: dict[str, int] = {}
        #: (edge label, src vertex label) -> edge count
        self._src: dict[tuple[str, str], int] = {}
        #: (edge label, dst vertex label) -> edge count
        self._dst: dict[tuple[str, str], int] = {}
        #: (edge label, src label, dst label) -> edge count; prices
        #: P(far end has label | near end has label) without the
        #: independence error the two marginals above would introduce.
        self._triples: dict[tuple[str, str, str], int] = {}
        #: vertex label -> total out-/in-edge count (any edge label)
        self._src_total: dict[str, int] = {}
        self._dst_total: dict[str, int] = {}
        #: sorted (label, label) pair -> vertices carrying both.  The
        #: schema optimizer's merge rules produce multi-label vertices
        #: whose labels correlate near-perfectly, so conjunctions must
        #: not be priced under independence.
        self._label_pairs: dict[tuple[str, str], int] = {}
        #: Weak, as :class:`~repro.graphdb.view.GraphArrays`'s: the
        #: graph caches its statistics.  Equality estimates read its
        #: arrays.
        self._graph = None
        #: (label, prop) -> its value coding, as of the first estimate
        #: that asked (:meth:`_coded`).
        self._codings: dict[tuple[str, str], tuple] = {}
        self.plan_cache = PlanCache()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph) -> "GraphStatistics":
        """One batch pass over a live :class:`PropertyGraph`.

        Instead of walking per-vertex label sets, the build iterates
        the graph's per-label-set tables: label and label-pair counts
        fall out of table sizes, and edge degree statistics count each
        live edge's packed ``(edge type, src table, dst table)`` code
        with one ``np.unique`` - frozen or not, never the CSR - then fan
        the few distinct triples out to per-label counters in
        first-live-eid order.  No property value is read.
        """
        stats = cls()
        stats._graph = weakref.ref(graph)
        symbols = graph._symbols
        for table in graph._tables:
            live = table.live
            if live == 0:
                continue
            labels = table.labels
            stats.num_vertices += live
            for pair in combinations(sorted(labels), 2):
                _add(stats._label_pairs, pair, live)
            for label in labels:
                _add(stats.label_counts, label, live)

        tables = graph._tables
        n = len(tables)

        # (sid * n + src tid) * n + dst tid, packed in place, over
        # copies of the id columns (see view.py: copy, not frombuffer).
        v_tid = np.array(graph._v_tid, dtype=np.int64)
        codes = np.array(graph._e_label, dtype=np.int64)
        live = codes >= 0
        for ends in (graph._e_src, graph._e_dst):
            codes *= n
            codes += v_tid[np.array(ends, dtype=np.int64)]
        codes, first, counts = np.unique(
            codes[live], return_index=True, return_counts=True
        )
        order = np.argsort(first)  # the key order a per-edge pass gives
        for code, count in zip(codes[order].tolist(),
                               counts[order].tolist()):
            code, dst_tid = divmod(code, n)
            sid, src_tid = divmod(code, n)
            label = symbols.name(sid)
            src_labels = tables[src_tid].labels
            dst_labels = tables[dst_tid].labels
            stats.num_edges += count
            _add(stats.edge_label_counts, label, count)
            for src_label in src_labels:
                _add(stats._src, (label, src_label), count)
                _add(stats._src_total, src_label, count)
            for dst_label in dst_labels:
                _add(stats._dst, (label, dst_label), count)
                _add(stats._dst_total, dst_label, count)
            for src_label in src_labels:
                for dst_label in dst_labels:
                    _add(stats._triples, (label, src_label, dst_label), count)
        return stats

    # ------------------------------------------------------------------
    # Estimation API (what the planner consumes)
    # ------------------------------------------------------------------
    def label_count(self, label: str) -> int:
        return self.label_counts.get(label, 0)

    def edge_count(self, labels: Iterable[str] | None) -> float:
        """Edges matching any of ``labels`` (all edges when empty)."""
        labels = tuple(labels or ())
        if not labels:
            return float(self.num_edges)
        return float(
            sum(self.edge_label_counts.get(label, 0) for label in labels)
        )

    def fanout(
        self,
        labels: frozenset | set,
        edge_labels: tuple[str, ...],
        direction: str,
    ) -> float:
        """Average matching edges per vertex of the given label set.

        ``direction`` follows pattern semantics seen from the vertex:
        ``out`` counts edges leaving it, ``in`` edges entering it,
        ``any`` both.  For multi-label specs the estimate is based on
        the rarest label, the same anchor the scan cost model uses.
        """
        if labels:
            anchor = min(labels, key=lambda l: self.label_counts.get(l, 0))
            base = max(1, self.label_counts.get(anchor, 0))
            total = 0.0
            if direction in ("out", "any"):
                total += self._incident(self._src, self._src_total,
                                        anchor, edge_labels)
            if direction in ("in", "any"):
                total += self._incident(self._dst, self._dst_total,
                                        anchor, edge_labels)
            return total / base
        base = max(1, self.num_vertices)
        per_direction = self.edge_count(edge_labels)
        if direction == "any":
            return 2.0 * per_direction / base
        return per_direction / base

    def _incident(
        self,
        pairs: dict[tuple[str, str], int],
        totals: dict[str, int],
        label: str,
        edge_labels: tuple[str, ...],
    ) -> float:
        if not edge_labels:
            return float(totals.get(label, 0))
        return float(
            sum(pairs.get((edge_label, label), 0)
                for edge_label in edge_labels)
        )

    def endpoint_label_fraction(
        self,
        edge_labels: tuple[str, ...],
        label: str,
        end: str,
    ) -> float:
        """Fraction of matching edges whose ``end`` carries ``label``.

        ``end`` is ``"src"`` or ``"dst"``.  Prices the label check the
        executor applies to each expansion target.
        """
        total = self.edge_count(edge_labels)
        if total <= 0:
            return 1.0
        pairs = self._src if end == "src" else self._dst
        if not edge_labels:
            totals = (
                self._src_total if end == "src" else self._dst_total
            )
            matching = float(totals.get(label, 0))
        else:
            matching = float(
                sum(pairs.get((edge_label, label), 0)
                    for edge_label in edge_labels)
            )
        return min(1.0, matching / total)

    def label_overlap(self, anchor: str, label: str) -> float:
        """P(a vertex carrying ``anchor`` also carries ``label``)."""
        if anchor == label:
            return 1.0
        base = self.label_counts.get(anchor, 0)
        if base <= 0:
            total = max(1, self.num_vertices)
            return min(1.0, self.label_counts.get(label, 0) / total)
        pair = tuple(sorted((anchor, label)))
        return min(1.0, self._label_pairs.get(pair, 0) / base)

    def cond_endpoint_fraction(
        self,
        edge_labels: tuple[str, ...],
        from_label: str,
        to_label: str,
        walk: str,
    ) -> float:
        """P(far end has ``to_label`` | near end has ``from_label``).

        ``walk`` is the traversal direction seen from the near end
        (``out`` / ``in`` / ``any``).  Falls back to the unconditional
        endpoint fraction when the conditioning side has no matching
        edges at all.
        """
        labels = tuple(edge_labels) or tuple(self.edge_label_counts)
        numerator = 0.0
        denominator = 0.0
        for edge_label in labels:
            if walk in ("out", "any"):
                denominator += self._src.get((edge_label, from_label), 0)
                numerator += self._triples.get(
                    (edge_label, from_label, to_label), 0
                )
            if walk in ("in", "any"):
                denominator += self._dst.get((edge_label, from_label), 0)
                numerator += self._triples.get(
                    (edge_label, to_label, from_label), 0
                )
        if denominator <= 0:
            end = {"out": "dst", "in": "src"}.get(walk)
            if end is None:
                return 0.5 * (
                    self.endpoint_label_fraction(edge_labels, to_label,
                                                 "src")
                    + self.endpoint_label_fraction(edge_labels, to_label,
                                                   "dst")
                )
            return self.endpoint_label_fraction(edge_labels, to_label, end)
        return min(1.0, numerator / denominator)

    def _coded(self, label: str, prop: str):
        """``prop``'s value coding at the live vertices carrying
        ``label``, counted at the first ask after the build and kept
        for its life: ``(index, counts, nan, lists)`` - the column's
        :meth:`~repro.graphdb.view._Column.coding` index, slots per
        code among the slots holding no list, the slots whose every
        read is a new NaN, and the slots holding a list."""
        coded = self._codings.get((label, prop))
        if coded is not None:
            return coded
        graph = self._graph() if self._graph is not None else None
        if graph is None:
            return {}, np.zeros(1, dtype=np.int64), 0, 0
        arrays = graph.arrays()
        column = arrays.column(prop)
        vids = arrays.label_vids(label)
        try:
            codes, index, lists = column.coding()
        except TypeError:
            # No dict can key a value (a set stored in memory), so no
            # codes: every literal gets code 0, which counts one slot,
            # as if each value were distinct.
            present = int(np.count_nonzero(column.present[vids]))
            coded = {}, np.array([min(present, 1)]), 0, present
        else:
            lists = np.zeros(len(vids), bool) if lists is None else lists[vids]
            codes = codes[vids][~lists]
            coded = (
                index, np.bincount(codes[codes > 0]),
                int(np.count_nonzero(codes == -1)),
                int(np.count_nonzero(lists)),
            )
        self._codings[label, prop] = coded
        return coded

    def eq_estimate(self, label: str, prop: str, value: object) -> float:
        """Estimated vertices of ``label`` with ``prop = value``: the
        slots holding ``value``'s code.  Unhashable literals can only
        match unhashable stored values, so a list counts the lists."""
        index, counts, _, lists = self._coded(label, prop)
        if not is_hashable(value):
            return float(lists)
        code = value_code(index, value)
        return float(counts[code]) if code < len(counts) else 0.0

    def eq_selectivity(
        self, label: str, prop: str, value: object
    ) -> float:
        """``eq_estimate`` as a fraction of the label's cardinality."""
        base = self.label_counts.get(label, 0)
        if base <= 0:
            return 1.0
        return min(1.0, self.eq_estimate(label, prop, value) / base)

    def avg_eq_estimate(self, label: str, prop: str) -> float:
        """Estimated rows matching ``prop = ?`` for an unknown value.

        Prices ``$parameter`` equality predicates, whose value is only
        bound at execution time: the hashable values per distinct one
        (the uniform-spread assumption).  Distinct values are the
        distinct codes, each new-NaN slot one of its own; with none,
        the lists.
        """
        _, counts, nan, lists = self._coded(label, prop)
        distinct = np.count_nonzero(counts) + nan
        if distinct <= 0:
            return float(lists)
        return float((counts.sum() + nan) / distinct)

    def avg_eq_selectivity(self, label: str, prop: str) -> float:
        """``avg_eq_estimate`` as a fraction of the label cardinality."""
        base = self.label_counts.get(label, 0)
        if base <= 0:
            return 1.0
        return min(1.0, self.avg_eq_estimate(label, prop) / base)

    def summary(self) -> str:
        return (
            f"GraphStatistics: {self.num_vertices:,} vertices / "
            f"{self.num_edges:,} edges, "
            f"{len(self.label_counts)} labels, "
            f"{len(self.edge_label_counts)} edge types"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.summary()}>"
