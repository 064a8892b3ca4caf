"""Graph statistics: the cardinalities behind cost-based planning.

:class:`GraphStatistics` holds, per graph:

* **label cardinalities** - vertices per label, edges per edge type;
* **degree statistics** - for every (edge type, vertex label) pair,
  how many edges of that type start (or end) at a vertex carrying that
  label, which gives the planner average expansion fan-out and the
  label composition of an edge type's endpoints;
* **property-value histograms** - for every (label, property) pair, a
  value -> occurrence-count histogram plus the number of distinct
  values (NDV), which prices equality predicates (``x.p = literal``)
  and the label-scan vs. property-index choice.

Statistics are derived state with one producer,
:meth:`GraphStatistics.build` - one batch pass over the graph's
columns.  :meth:`PropertyGraph.statistics` caches the build and
rebuilds it once the element mutations since then reach
``max(64, size >> 4)`` (about 6% of the graph); an index created or
dropped discards it at once.  Plans stay *correct* on stale
statistics - only their optimality decays - so the numbers may lag
the graph by up to that many mutations.  Nothing is persisted: a
reopened store builds on its first query, from the same columns, the
same numbers.

The **plan cache** lives here because its lifetime is the statistics
object's lifetime: a small LRU mapping a query (text or AST) to its
built :class:`~repro.graphdb.query.planner.Plan`, so repeated queries
skip parsing and planning.  A rebuild starts with an empty cache,
which is what invalidates plans priced on the old numbers.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, compress
from typing import Iterable

from repro.graphdb.columnar import KIND_OBJ
from repro.graphdb.observe import REGISTRY as _OBS

_PLAN_CACHE_HITS = _OBS.counter(
    "repro_plan_cache_hits_total", "Plan-cache lookups served from cache."
)
_PLAN_CACHE_MISSES = _OBS.counter(
    "repro_plan_cache_misses_total",
    "Plan-cache lookups that required planning (includes rebuilds).",
)


def is_hashable(value: object) -> bool:
    """Whether ``value`` can key a histogram as it is.

    The single hashability test shared by the histograms here and the
    planner's fold/access logic - both must agree on which literals an
    index lookup is priced and planned for.
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


class PropertyStats:
    """Value histogram for one (vertex label, property name) pair.

    ``hist`` maps each *hashable* value to its occurrence count among
    vertices carrying the label.  Unhashable values (lists) are only
    counted in aggregate - they can never drive an index lookup, so
    their individual identities are irrelevant to planning.
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

    def eq_estimate(self, value: object) -> float:
        """Estimated rows matching ``prop = value``."""
        if is_hashable(value):
            return float(self.hist.get(value, 0))
        # Unhashable literals can only match unhashable stored values.
        return float(self.unhashable)


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


def _column_histogram(table, column) -> tuple[Counter, int, int]:
    """(value histogram, unhashable count, non-null count) of a column.

    Considers live, present rows only and skips stored ``None`` values
    (a null property is no value to plan on).
    Typed columns can never hold ``None`` or unhashables, so they take
    a pure ``compress`` + ``Counter`` fast path.
    """
    mask = column.mask
    data = column.data
    if table.live != len(table.vids):
        # Tombstoned rows have their presence bits cleared, but guard
        # against vid<0 anyway so a future partial-unset cannot leak
        # removed rows into planner statistics.
        # Columns pad lazily, so the mask may be shorter than the vid
        # list; rows past its end are absent and need no clearing.
        selectors = bytearray(mask)
        for row, vid in enumerate(table.vids[:len(selectors)]):
            if vid < 0:
                selectors[row] = 0
        values = list(compress(data, selectors))
    else:
        values = list(compress(data, mask))
    if column.kind != KIND_OBJ:
        return Counter(values), 0, len(values)
    values = [v for v in values if v is not None]
    try:
        return Counter(values), 0, len(values)
    except TypeError:
        hist: Counter = Counter()
        unhashable = 0
        for value in values:
            if is_hashable(value):
                hist[value] += 1
            else:
                unhashable += 1
        return hist, unhashable, len(values)


class GraphStatistics:
    """Cardinality statistics of one graph, as of one :meth:`build`."""

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
        #: (vertex label, property name) -> histogram
        self.props: dict[tuple[str, str], PropertyStats] = {}
        self.plan_cache = PlanCache()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph) -> "GraphStatistics":
        """One batch pass over the columns of a live :class:`PropertyGraph`.

        Instead of walking per-vertex label sets and property dicts,
        the build iterates the graph's per-label-set tables: label and
        label-pair counts fall out of table sizes, each property
        histogram is one :class:`collections.Counter` pass over a flat
        column, and edge degree statistics aggregate one
        ``(edge type, src label set, dst label set)`` Counter over the
        edge columns before fanning out to per-label counters.
        """
        stats = cls()
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
            for key_sid, column in table.columns.items():
                hist, unhashable, total = _column_histogram(table, column)
                if total == 0:
                    continue
                name = symbols.name(key_sid)
                for label in labels:
                    stat = stats.props.get((label, name))
                    if stat is None:
                        stat = stats.props[(label, name)] = PropertyStats()
                    stat.count += total
                    stat.unhashable += unhashable
                    stat_hist = stat.hist
                    for value, occurrences in hist.items():
                        stat_hist[value] = (
                            stat_hist.get(value, 0) + occurrences
                        )

        v_tid = graph._v_tid
        labelsets = graph._labelset_strs
        combos = Counter(
            (sid, v_tid[src], v_tid[dst])
            for sid, src, dst in zip(
                graph._e_label, graph._e_src, graph._e_dst
            )
            if sid >= 0
        )
        for (sid, src_tid, dst_tid), count in combos.items():
            label = symbols.name(sid)
            src_labels = labelsets[src_tid]
            dst_labels = labelsets[dst_tid]
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

    def eq_estimate(self, label: str, prop: str, value: object) -> float:
        """Estimated vertices of ``label`` with ``prop = value``."""
        stat = self.props.get((label, prop))
        if stat is None:
            return 0.0
        return stat.eq_estimate(value)

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
        bound at execution time: the average histogram bucket
        (count / NDV), i.e. the uniform-spread assumption.
        """
        stat = self.props.get((label, prop))
        if stat is None:
            return 0.0
        distinct = stat.ndv
        if distinct <= 0:
            return float(stat.unhashable)
        return (stat.count - stat.unhashable) / distinct

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
            f"{len(self.props)} property histograms"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.summary()}>"
