"""Graph statistics: the cardinalities behind cost-based planning.

:class:`GraphStatistics` tracks, per graph:

* **label cardinalities** - vertices per label, edges per edge type;
* **degree statistics** - for every (edge type, vertex label) pair,
  how many edges of that type start (or end) at a vertex carrying that
  label, which gives the planner average expansion fan-out and the
  label composition of an edge type's endpoints;
* **property-value histograms** - for every (label, property) pair, a
  value -> occurrence-count histogram plus the number of distinct
  values (NDV), which prices equality predicates (``x.p = literal``)
  and the label-scan vs. property-index choice.

The first call to :meth:`PropertyGraph.statistics` builds everything
in one batch pass; from then on every mutation the graph applies keeps
the counters current *incrementally* (the same hook points that feed
the WAL listeners, but with the pre-mutation context removals need).
Statistics therefore survive WAL replay: recovery replays mutations
through the ordinary graph API, which updates any attached statistics
as a side effect.

Two pieces of planner infrastructure live here because their lifetime
is the statistics object's lifetime:

* the **stats epoch** - a coarse version counter that advances after a
  batch of mutations large enough to plausibly shift cardinalities
  (one epoch per ~6% of graph size, minimum 64 mutations).  Plans are
  valid regardless of stats staleness - only their *optimality* decays
  - so the epoch exists purely to invalidate cached plans lazily;
* the **plan cache** - a small LRU mapping
  ``(query text, stats epoch)`` to a built
  :class:`~repro.graphdb.query.planner.Plan`, so repeated queries skip
  parsing and planning entirely until the epoch moves on.

Persistence: snapshots carry a STATS section (see
:mod:`repro.graphdb.storage.snapshot`) with the exact counters and a
most-common-values truncation of each histogram, so a recovered store
plans with warm statistics instead of paying a rebuild.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Iterable

from repro.graphdb.columnar import KIND_OBJ
from repro.graphdb.observe import REGISTRY as _OBS

_PLAN_CACHE_HITS = _OBS.counter(
    "repro_plan_cache_hits_total", "Plan-cache lookups served from cache."
)
_PLAN_CACHE_MISSES = _OBS.counter(
    "repro_plan_cache_misses_total",
    "Plan-cache lookups that required planning (includes epoch bumps).",
)
_PLAN_CACHE_EVICTIONS = _OBS.counter(
    "repro_plan_cache_evictions_total",
    "Cached plans dropped by LRU capacity pressure.",
)

#: Histograms persisted into snapshots keep at most this many
#: most-common values; the remainder is summarized as (extra distinct
#: values, extra row count) and estimated uniformly.
MCV_CAP = 64


def is_hashable(value: object) -> bool:
    """Whether ``value`` can key an index bucket or a histogram.

    The single hashability test shared by the histograms here and the
    planner's fold/access logic - both must agree on what a property
    index can look up.
    """
    try:
        hash(value)
    except TypeError:
        return False
    return True


class PropertyStats:
    """Value histogram for one (vertex label, property name) pair.

    ``hist`` maps each *hashable* value to its occurrence count among
    vertices carrying the label.  Unhashable values (lists) are only
    counted in aggregate - they can never drive an index lookup, so
    their individual identities are irrelevant to planning.  After a
    snapshot load the histogram may be truncated to its most common
    values; ``extra_ndv`` / ``extra_count`` summarize the truncated
    tail, and estimates for untracked values fall back to a uniform
    spread over that tail.
    """

    __slots__ = ("count", "unhashable", "hist", "extra_ndv", "extra_count")

    def __init__(self) -> None:
        self.count = 0          # vertices with a non-null value
        self.unhashable = 0     # of which: unhashable (list) values
        self.hist: dict = {}    # value -> occurrences (hashable only)
        self.extra_ndv = 0      # distinct values truncated at load
        self.extra_count = 0    # rows truncated at load

    @property
    def ndv(self) -> int:
        """Number of distinct (hashable) values, tail included."""
        return len(self.hist) + self.extra_ndv

    def add(self, value: object) -> None:
        self.count += 1
        if is_hashable(value):
            self.hist[value] = self.hist.get(value, 0) + 1
        else:
            self.unhashable += 1

    def remove(self, value: object) -> None:
        self.count = max(0, self.count - 1)
        if not is_hashable(value):
            self.unhashable = max(0, self.unhashable - 1)
            return
        occurrences = self.hist.get(value)
        if occurrences is None:
            # Value fell in the truncated tail of a loaded histogram.
            self.extra_count = max(0, self.extra_count - 1)
        elif occurrences <= 1:
            del self.hist[value]
        else:
            self.hist[value] = occurrences - 1

    def eq_estimate(self, value: object) -> float:
        """Estimated rows matching ``prop = value``."""
        if is_hashable(value):
            tracked = self.hist.get(value)
            if tracked is not None:
                return float(tracked)
            if self.extra_ndv > 0:
                return self.extra_count / self.extra_ndv
            return 0.0
        # Unhashable literals can only match unhashable stored values.
        return float(self.unhashable)


class PlanCache:
    """LRU cache of built plans keyed on (query, stats epoch).

    The query key is the raw text or a hashable (frozen-dataclass)
    AST.  A cached plan is always *correct* - plans never embed row
    counts, only access choices and orderings - so entries are not
    evicted on mutation.  They are keyed by epoch instead: once the
    epoch advances, lookups miss and stale entries age out of the LRU.
    """

    def __init__(self, capacity: int = 128):
        self.capacity = max(1, capacity)
        self._entries: dict = {}  # (query key, epoch) -> value
        self.hits = 0
        self.misses = 0

    def get(self, query, epoch: int):
        key = (query, epoch)
        value = self._entries.pop(key, None)
        if value is None:
            self.misses += 1
            _PLAN_CACHE_MISSES.inc()
            return None
        self._entries[key] = value  # re-insert: most recently used
        self.hits += 1
        _PLAN_CACHE_HITS.inc()
        return value

    def put(self, query, epoch: int, value) -> None:
        key = (query, epoch)
        self._entries.pop(key, None)
        while len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            _PLAN_CACHE_EVICTIONS.inc()
        self._entries[key] = value

    def __len__(self) -> int:
        return len(self._entries)


def _column_histogram(table, column) -> tuple[Counter, int, int]:
    """(value histogram, unhashable count, non-null count) of a column.

    Considers live, present rows only and skips stored ``None`` values
    (parity with the incremental hooks, which ignore null properties).
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
    """Incrementally maintained cardinality statistics for one graph."""

    def __init__(self) -> None:
        self.epoch = 0
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
        self._mutations = 0
        self._next_epoch_at = 64

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
        edge columns before fanning out to per-label counters.  The
        result is exactly what replaying every mutation through the
        incremental hooks would produce.
        """
        stats = cls()
        symbols = graph._symbols
        bump = cls._bump
        for table in graph._tables:
            live = table.live
            if live == 0:
                continue
            labels = table.labels
            stats.num_vertices += live
            for pair in cls._pairs_of(labels):
                bump(stats._label_pairs, pair, live)
            for label in labels:
                stats.label_counts[label] = (
                    stats.label_counts.get(label, 0) + live
                )
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
            bump(stats.edge_label_counts, label, count)
            for src_label in src_labels:
                bump(stats._src, (label, src_label), count)
                bump(stats._src_total, src_label, count)
            for dst_label in dst_labels:
                bump(stats._dst, (label, dst_label), count)
                bump(stats._dst_total, dst_label, count)
            for src_label in src_labels:
                for dst_label in dst_labels:
                    bump(
                        stats._triples, (label, src_label, dst_label), count
                    )
        stats._reset_epoch_trigger()
        return stats

    # ------------------------------------------------------------------
    # Mutation hooks (called by PropertyGraph with pre-state context)
    # ------------------------------------------------------------------
    def on_add_vertex(self, labels: frozenset, props: dict) -> None:
        self._vertex_added(labels, props)
        self._tick()

    def on_remove_vertex(self, labels: frozenset, props: dict) -> None:
        self.num_vertices = max(0, self.num_vertices - 1)
        for pair in self._pairs_of(labels):
            self._bump(self._label_pairs, pair, -1)
        for label in labels:
            remaining = self.label_counts.get(label, 1) - 1
            if remaining > 0:
                self.label_counts[label] = remaining
            else:
                self.label_counts.pop(label, None)
            for name, value in props.items():
                stat = self.props.get((label, name))
                if stat is not None and value is not None:
                    stat.remove(value)
        self._tick()

    def on_add_edge(
        self, label: str, src_labels: frozenset, dst_labels: frozenset
    ) -> None:
        self._edge_added(label, src_labels, dst_labels)
        self._tick()

    def on_remove_edge(
        self, label: str, src_labels: frozenset, dst_labels: frozenset
    ) -> None:
        self.num_edges = max(0, self.num_edges - 1)
        self._bump(self.edge_label_counts, label, -1)
        for src_label in src_labels:
            self._bump(self._src, (label, src_label), -1)
            self._bump(self._src_total, src_label, -1)
        for dst_label in dst_labels:
            self._bump(self._dst, (label, dst_label), -1)
            self._bump(self._dst_total, dst_label, -1)
        for src_label in src_labels:
            for dst_label in dst_labels:
                self._bump(
                    self._triples, (label, src_label, dst_label), -1
                )
        self._tick()

    def on_set_property(
        self,
        labels: frozenset,
        name: str,
        old: object,
        new: object,
    ) -> None:
        for label in labels:
            stat = self.props.get((label, name))
            if stat is None:
                if new is None:
                    continue
                stat = self.props[(label, name)] = PropertyStats()
            if old is not None:
                stat.remove(old)
            if new is not None:
                stat.add(new)
        self._tick()

    def on_remove_property(
        self, labels: frozenset, name: str, old: object
    ) -> None:
        if old is not None:
            for label in labels:
                stat = self.props.get((label, name))
                if stat is not None:
                    stat.remove(old)
        self._tick()

    def on_create_index(self) -> None:
        # Index creation changes nothing the counters track, but it
        # does change the planner's best choice - force an epoch bump
        # so cached plans are rebuilt against the new access path.
        self.epoch += 1
        self._reset_epoch_trigger()

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

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _vertex_added(self, labels: frozenset, props: dict) -> None:
        self.num_vertices += 1
        for pair in self._pairs_of(labels):
            self._bump(self._label_pairs, pair, 1)
        for label in labels:
            self.label_counts[label] = self.label_counts.get(label, 0) + 1
            for name, value in props.items():
                if value is None:
                    continue
                stat = self.props.get((label, name))
                if stat is None:
                    stat = self.props[(label, name)] = PropertyStats()
                stat.add(value)

    def _edge_added(
        self, label: str, src_labels: frozenset, dst_labels: frozenset
    ) -> None:
        self.num_edges += 1
        self._bump(self.edge_label_counts, label, 1)
        for src_label in src_labels:
            self._bump(self._src, (label, src_label), 1)
            self._bump(self._src_total, src_label, 1)
        for dst_label in dst_labels:
            self._bump(self._dst, (label, dst_label), 1)
            self._bump(self._dst_total, dst_label, 1)
        for src_label in src_labels:
            for dst_label in dst_labels:
                self._bump(
                    self._triples, (label, src_label, dst_label), 1
                )

    @staticmethod
    def _pairs_of(labels: frozenset) -> list[tuple[str, str]]:
        if len(labels) < 2:
            return []
        ordered = sorted(labels)
        return [
            (ordered[i], ordered[j])
            for i in range(len(ordered))
            for j in range(i + 1, len(ordered))
        ]

    @staticmethod
    def _bump(counter: dict, key, delta: int) -> None:
        value = counter.get(key, 0) + delta
        if value > 0:
            counter[key] = value
        else:
            counter.pop(key, None)

    def _tick(self) -> None:
        self._mutations += 1
        if self._mutations >= self._next_epoch_at:
            self.epoch += 1
            self._reset_epoch_trigger()

    def _reset_epoch_trigger(self) -> None:
        size = self.num_vertices + self.num_edges
        self._next_epoch_at = self._mutations + max(64, size >> 4)

    def summary(self) -> str:
        return (
            f"GraphStatistics epoch={self.epoch}: "
            f"{self.num_vertices:,} vertices / {self.num_edges:,} edges, "
            f"{len(self.label_counts)} labels, "
            f"{len(self.props)} property histograms"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.summary()}>"
