"""Morsel-driven parallel execution over shared-memory columns.

The vectorized pipeline (PR 8) still runs on one core.  This module
dispatches its batch kernels across a persistent pool of worker
*processes*: the scan's candidate vid arrays and the int64/float64
property columns are exported once per graph epoch into
``multiprocessing.shared_memory`` segments, each worker attaches them
zero-copy, and the coordinator scatters :class:`~repro.graphdb.morsel.
Morsel`\\ s (one vectorized batch each) and gathers partial results.

Three workloads run here:

* **scan / aggregate queries** - workers run the *same* compiled mask
  and projection kernels as serial vectorized execution
  (:func:`vectorized.compile_mask` / :func:`vectorized._compile_item`)
  against a recording session, and the coordinator replays the
  recorded work-counter charges against the real session in exact
  serial order.  Because a morsel is exactly one serial batch
  (``vectorized.BATCH_ROWS`` rows), the recorded ``(kind, pages)``
  charges are the serial ones call for call, and the six work
  counters come out tuple-identical to both serial paths - the
  differential harness asserts serial ≡ vectorized ≡ parallel on rows
  *and* counters.
* **PageRank** - the power iteration partitioned by destination
  vertex: edges are sorted by ``dst`` once, each worker owns a
  contiguous destination range, and every iteration is a barrier
  (scatter shares, gather partial incoming-mass vectors, reduce
  dangling mass on the coordinator).  Scores match the serial kernel
  to float tolerance (summation order differs), not bit-exactly.
* **statistics builds** - per-table histogram tasks plus chunked
  edge-combination counting; ``Counter`` merges are order-independent
  so the result equals a serial :meth:`GraphStatistics.build`.

Aggregate exactness is preserved by *not* summarizing per morsel:
float sums are a sequential left fold and NaN min/max folds are
history-dependent, so workers return the masked value arrays (raw
``float64``/``int64`` bytes, at most ``BATCH_ROWS`` values) and the
coordinator runs the serial :class:`vectorized._Aggregator` folds
morsel by morsel in serial order.

Serial remains the default and the oracle: the executor only picks
this path when the plan already qualifies for vectorized mode, the
scan is the whole plan, and estimated rows clear
``parallel_threshold``.  Every rejection is counted per reason in
``repro_parallel_fallback_total`` and lands on
``ExecutionReport.parallel_reason``.
"""

from __future__ import annotations

import atexit
import os
import queue as queue_mod
import time
import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import ParallelExecutionError
from repro.graphdb import faults, observe
from repro.graphdb.columnar import KIND_FLOAT, KIND_INT
from repro.graphdb.metrics import ExecutionMetrics
from repro.graphdb.morsel import MorselSource
from repro.graphdb.query import vectorized
from repro.graphdb.query.ast import (
    BoolOp,
    Comparison,
    FuncCall,
    NotOp,
    NullCheck,
    PropertyRef,
    contains_aggregate,
)
from repro.graphdb.query.executor import _resolve_props
from repro.graphdb.query.planner import ScanStep
from repro.graphdb.view import graph_pagerank, undirected_edge_index

__all__ = [
    "WorkerPool",
    "build_parallel_pipeline",
    "get_pool",
    "live_segment_names",
    "parallel_build_stats",
    "parallel_pagerank",
    "resolve_parallelism",
    "resolve_threshold",
    "shutdown_pool",
]

#: Environment knobs (also threaded through ``connect()`` / the CLI).
PARALLEL_ENV = "REPRO_PARALLEL"
THRESHOLD_ENV = "REPRO_PARALLEL_THRESHOLD"
START_METHOD_ENV = "REPRO_PARALLEL_START"

#: Minimum estimated scan rows before the parallel path engages.
#: Below this, per-morsel dispatch overhead dwarfs the work.
DEFAULT_THRESHOLD = 8192

#: The four work counters replayed additively; page hits/misses are
#: replayed as ordered ``(kind, pages)`` charges through the real
#: session's LRU.
_REPLAY_COUNTERS = (
    "vertex_reads", "property_reads", "index_lookups", "edge_traversals",
)

_MORSELS = observe.REGISTRY.counter(
    "repro_morsels_dispatched_total",
    "Morsels dispatched to the parallel worker pool.",
)
_PARALLEL_FALLBACKS = observe.REGISTRY.labeled_counter(
    "repro_parallel_fallback_total",
    "reason",
    "Queries that qualified for vectorized mode but not parallel "
    "dispatch, per reason.",
)
_WORKER_FAILURES = observe.REGISTRY.counter(
    "repro_parallel_worker_failures_total",
    "Worker tasks that failed or worker processes that died mid-job.",
)
_WORKER_BUSY = observe.REGISTRY.histogram(
    "repro_parallel_worker_busy_seconds",
    help="Per-task busy time reported by pool workers.",
)

#: Failpoints: ``parallel.dispatch`` fires on the coordinator as a job
#: starts; ``parallel.worker`` fires inside each worker task (armed
#: specs are shipped in the task payload - failpoint arming is
#: process-local and does not propagate to pool workers by itself).
FP_DISPATCH = faults.REGISTRY.register("parallel.dispatch")
FP_WORKER = faults.REGISTRY.register("parallel.worker")


def resolve_parallelism(value: object = None) -> int:
    """Normalize a worker count: explicit value, else ``REPRO_PARALLEL``,
    else 1 (serial)."""
    if value is None:
        value = os.environ.get(PARALLEL_ENV)
        if value in (None, ""):
            return 1
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ParallelExecutionError(
            f"parallelism must be an integer, got {value!r}"
        ) from None
    return max(1, workers)


def resolve_threshold(value: object = None) -> int:
    """Normalize the minimum-rows threshold for parallel dispatch."""
    if value is None:
        value = os.environ.get(THRESHOLD_ENV)
        if value in (None, ""):
            return DEFAULT_THRESHOLD
    try:
        return max(0, int(value))
    except (TypeError, ValueError):
        raise ParallelExecutionError(
            f"parallel threshold must be an integer, got {value!r}"
        ) from None


# ----------------------------------------------------------------------
# Shared-memory arena (coordinator side)
# ----------------------------------------------------------------------
#: Names of every segment this process created and has not yet
#: unlinked.  Tests assert this is empty (and /dev/shm clean) after
#: ``shutdown_pool()`` - the no-leak contract.
_LIVE_SEGMENTS: set[str] = set()


def live_segment_names() -> frozenset[str]:
    return frozenset(_LIVE_SEGMENTS)


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    _LIVE_SEGMENTS.add(shm.name)
    return shm


def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
    name = shm.name
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - defensive
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
    _LIVE_SEGMENTS.discard(name)


class ShmArena:
    """Owns shared-memory copies of numpy arrays, keyed for reuse.

    Column exports are keyed ``(graph key, epoch, prop, part)`` so a
    second query on the same frozen graph pays nothing; stale epochs
    are dropped when the same graph re-exports after a mutation.
    Job-scoped segments (scan candidates, PageRank edge arrays) are
    dropped when their job ends.
    """

    def __init__(self):
        self._segments: dict[object, shared_memory.SharedMemory] = {}
        self._descs: dict[object, tuple[str, str, int]] = {}

    def share(self, key, arr) -> tuple[str, str, int]:
        """Copy ``arr`` into a segment (idempotent per key); returns a
        picklable ``(name, dtype, length)`` descriptor."""
        desc = self._descs.get(key)
        if desc is not None:
            return desc
        arr = np.ascontiguousarray(arr)
        shm = _create_segment(arr.nbytes)
        if len(arr):
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[:] = arr
        self._segments[key] = shm
        desc = (shm.name, arr.dtype.str, len(arr))
        self._descs[key] = desc
        return desc

    def create_buffer(self, key, shape, dtype):
        """A *writable* segment the coordinator mutates between
        barriers (the PageRank rank vector).  Returns ``(view, desc)``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        shm = _create_segment(nbytes)
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        self._segments[key] = shm
        desc = (shm.name, dtype.str, int(np.prod(shape)))
        self._descs[key] = desc
        return view, desc

    def drop(self, predicate) -> None:
        """Unlink every segment whose key satisfies ``predicate``."""
        for key in [k for k in self._segments if predicate(k)]:
            _unlink_segment(self._segments.pop(key))
            self._descs.pop(key, None)

    def close(self) -> None:
        for shm in self._segments.values():
            _unlink_segment(shm)
        self._segments.clear()
        self._descs.clear()


_GRAPH_KEYS = iter(range(1, 2 ** 62))


def _graph_key(graph) -> int:
    """A stable arena key per graph object (``id()`` can be reused
    after garbage collection; this cannot)."""
    key = getattr(graph, "_parallel_arena_key", None)
    if key is None:
        key = next(_GRAPH_KEYS)
        graph._parallel_arena_key = key
    return key


# ----------------------------------------------------------------------
# Worker-side attach cache
# ----------------------------------------------------------------------
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, object]] = {}


def _attach(desc: tuple[str, str, int]):
    """Attach a segment by descriptor, cached per worker process."""
    name, dtype, length = desc
    cached = _ATTACHED.get(name)
    if cached is None:
        # Python <3.13 registers even *attached* segments with the
        # resource tracker, which would unlink them out from under the
        # coordinator when this worker exits (and, under fork, sends a
        # spurious unregister to the shared tracker).  Workers never
        # create segments, so suppress registration for the attach.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        arr = np.ndarray((length,), dtype=np.dtype(dtype), buffer=shm.buf)
        cached = (shm, arr)
        _ATTACHED[name] = cached
    return cached[1]


def _prune_worker_caches() -> None:
    """Bound worker memory: drop attach + compile caches between tasks
    once they grow large.  References only - unlinking is the
    coordinator's job; dropped segments re-attach on demand."""
    if len(_ATTACHED) > 256:
        _ATTACHED.clear()
        _JOB_CACHE.clear()


# ----------------------------------------------------------------------
# Charge recording and replay
# ----------------------------------------------------------------------
class _Recorder:
    """A :class:`GraphSession` stand-in that *records* work-counter
    charges instead of applying them.

    The vectorized kernels only touch ``session.metrics`` (additive
    counters) and ``session.charge_pages`` (ordered page touches), so
    recording those two streams is enough to replay an execution's
    charges against the real session - in serial order, through the
    real page LRU, producing identical hit/miss splits.
    """

    __slots__ = (
        "graph", "metrics", "page_log",
        "_vertices_per_page", "_adjacency_per_page",
    )

    def __init__(self, vertices_per_page, adjacency_per_page, graph=None):
        self.graph = graph
        self.metrics = ExecutionMetrics()
        self.page_log: list[tuple[str, list[int]]] = []
        self._vertices_per_page = vertices_per_page
        self._adjacency_per_page = adjacency_per_page

    def charge_pages(self, kind, pages) -> None:
        self.page_log.append((kind, pages))

    def take(self) -> tuple[tuple[int, int, int, int], list]:
        """Drain recorded charges: ``(counters, page_log)``.

        Counters are zeroed *in place* - compiled kernels capture
        ``session.metrics`` (the object) at compile time, so swapping
        in a fresh :class:`ExecutionMetrics` would orphan them."""
        m = self.metrics
        counters = (
            m.vertex_reads, m.property_reads,
            m.index_lookups, m.edge_traversals,
        )
        m.vertex_reads = 0
        m.property_reads = 0
        m.index_lookups = 0
        m.edge_traversals = 0
        log = self.page_log
        self.page_log = []
        return counters, log


def _replay(session, counters, page_log) -> None:
    """Apply recorded charges to the real session, in order."""
    m = session.metrics
    m.vertex_reads += counters[0]
    m.property_reads += counters[1]
    m.index_lookups += counters[2]
    m.edge_traversals += counters[3]
    for kind, pages in page_log:
        session.charge_pages(kind, pages)


class _PlanStub:
    """The two plan attributes kernels read, in picklable form."""

    __slots__ = ("slots", "slot_kinds", "num_slots")

    def __init__(self, slots, slot_kinds, num_slots):
        self.slots = slots
        self.slot_kinds = slot_kinds
        self.num_slots = num_slots


class _ShmArrays:
    """A :class:`vectorized.GraphArrays` stand-in for workers: columns
    reconstructed over shared-memory buffers."""

    def __init__(self, column_descs):
        self._descs = column_descs
        self._columns: dict[str, vectorized._Column] = {}

    def column(self, name: str) -> vectorized._Column:
        col = self._columns.get(name)
        if col is None:
            kind, values_desc, present_desc, vmin, vmax = self._descs[name]
            values = None if values_desc is None else _attach(values_desc)
            present = None if present_desc is None else _attach(present_desc)
            # has_tids/examined drive the *coordinator's* per-table
            # scan charging; worker kernels never read them.
            col = vectorized._Column(
                kind, values, present, frozenset(), {}, vmin, vmax
            )
            self._columns[name] = col
        return col


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
def _default_start_method() -> str:
    env = os.environ.get(START_METHOD_ENV)
    if env:
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _arm_payload_faults(payload) -> None:
    for spec in payload.get("faults") or ():
        faults.REGISTRY.arm(spec)


def _armed_worker_faults() -> list:
    """Armed ``parallel.worker*`` specs, to ship inside task payloads
    (worker processes do not share the coordinator's registry)."""
    specs = []
    for point in faults.REGISTRY.armed_points():
        if point.startswith("parallel.worker"):
            armed = faults.REGISTRY._armed.get(point)
            if armed is not None:
                specs.append(armed.spec)
    return specs


def _worker_main(tasks, results) -> None:  # pragma: no cover - subprocess
    """Worker loop: pull ``(task_id, kind, payload)``, push
    ``(task_id, ok, out, busy_seconds)``.  A :class:`SimulatedCrash`
    escapes and kills the process - that is the point."""
    while True:
        try:
            item = tasks.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        task_id, kind, payload = item
        started = time.perf_counter()
        try:
            out = _HANDLERS[kind](payload)
        except faults.SimulatedCrash:
            raise
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - reported upstream
            results.put((
                task_id, False,
                f"{type(exc).__name__}: {exc}",
                time.perf_counter() - started,
            ))
            _prune_worker_caches()
            continue
        results.put((task_id, True, out, time.perf_counter() - started))
        _prune_worker_caches()


class WorkerPool:
    """A persistent pool of daemon worker processes.

    Workers are spawned lazily on first use and respawned (at the next
    job) if one died - a crashed worker fails the in-flight job with
    :class:`ParallelExecutionError` but never poisons the pool.
    ``shutdown()`` joins workers and unlinks every shared-memory
    segment the arena owns.
    """

    def __init__(self, workers: int, start_method: str | None = None):
        self.workers = max(1, int(workers))
        self._ctx = mp.get_context(start_method or _default_start_method())
        self._tasks = None
        self._results = None
        self._procs: list = []
        self.arena = ShmArena()
        self._task_seq = 0
        self._job_seq = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def ensure_started(self) -> None:
        if self._closed:
            raise ParallelExecutionError("worker pool is closed")
        if self._tasks is None:
            self._tasks = self._ctx.Queue()
            self._results = self._ctx.Queue()
        self._procs = [p for p in self._procs if p.is_alive()]
        while len(self._procs) < self.workers:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results),
                daemon=True,
                name=f"repro-parallel-{len(self._procs)}",
            )
            proc.start()
            self._procs.append(proc)

    def shutdown(self) -> None:
        if self._tasks is not None:
            for _ in self._procs:
                try:
                    self._tasks.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    break
            for proc in self._procs:
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=5)
            for q in (self._tasks, self._results):
                q.close()
                q.cancel_join_thread()
        self._procs = []
        self._tasks = self._results = None
        self.arena.close()
        self._closed = True

    def job_id(self) -> str:
        self._job_seq += 1
        return f"j{os.getpid()}-{self._job_seq}"

    # -- task traffic --------------------------------------------------
    def submit(self, kind: str, payload: dict) -> int:
        self._task_seq += 1
        self._tasks.put((self._task_seq, kind, payload))
        return self._task_seq

    def collect(self, timeout: float = 0.25):
        """One raw result tuple, or ``None`` on timeout.  Raises
        :class:`ParallelExecutionError` when a worker process died
        (after a grace re-check so in-flight results drain first)."""
        try:
            return self._results.get(timeout=timeout)
        except queue_mod.Empty:
            if any(not p.is_alive() for p in self._procs):
                try:
                    return self._results.get(timeout=0.5)
                except queue_mod.Empty:
                    _WORKER_FAILURES.inc()
                    raise ParallelExecutionError(
                        "a parallel worker process died mid-job "
                        "(results incomplete); the pool will respawn "
                        "workers on the next query"
                    ) from None
            return None


_POOL: WorkerPool | None = None


def get_pool(workers: int = 2) -> WorkerPool:
    """The process-wide pool, grown to at least ``workers``."""
    global _POOL
    workers = max(1, int(workers))
    if _POOL is None or _POOL._closed:
        _POOL = WorkerPool(workers)
    elif workers > _POOL.workers:
        _POOL.workers = workers
    return _POOL


def shutdown_pool() -> None:
    """Stop the shared pool and unlink every shm segment (atexit)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_pool)


def _gather_all(pool: WorkerPool, wanted: dict, guard=None) -> dict:
    """Barrier gather: block until every task in ``wanted`` reported.
    Stale results from aborted jobs are discarded by task id."""
    out = {}
    while wanted:
        got = pool.collect()
        if got is None:
            if guard is not None:
                guard.check_deadline()
            continue
        task_id, ok, res, busy = got
        _WORKER_BUSY.observe(busy)
        key = wanted.pop(task_id, None)
        if key is None:
            continue
        if not ok:
            _WORKER_FAILURES.inc()
            raise ParallelExecutionError(
                f"parallel worker task failed: {res}"
            )
        out[key] = res
    return out


# ----------------------------------------------------------------------
# Workload (a): scans and aggregates
# ----------------------------------------------------------------------
def _collect_props(query, step) -> set[str]:
    """Every property name the worker-side kernels will read."""
    names: set[str] = set()

    def walk(expr):
        if isinstance(expr, PropertyRef):
            names.add(expr.prop)
        elif isinstance(expr, Comparison):
            walk(expr.lhs)
            walk(expr.rhs)
        elif isinstance(expr, BoolOp):
            for op in expr.operands:
                walk(op)
        elif isinstance(expr, NotOp):
            walk(expr.operand)
        elif isinstance(expr, NullCheck):
            walk(expr.expr)
        elif isinstance(expr, FuncCall):
            for arg in expr.args:
                walk(arg)

    for f in step.filters:
        walk(f)
    for item in query.return_items:
        walk(item.expr)
    return names


def _scan_segments(recorder, arrays, graph, step: ScanStep, params):
    """Mirror :func:`vectorized._build_scan`'s candidate generation
    *and charging*, segmented for replay.

    Returns ``(segments, trailing)`` - ``segments`` is an ordered list
    of ``((counters, page_log), passing_vids)`` pairs, one per table
    that admitted rows, where the recorded charges are everything the
    serial generator charges between the previous table's last batch
    and this table's first; ``trailing`` is what it charges after the
    final batch (tables rejected at the end).  Returns ``None`` for an
    unsatisfiable ``$param`` (serial yields nothing and charges
    nothing - not worth a pool round-trip).
    """
    check_labels = (
        frozenset(step.check_labels) if step.check_labels else None
    )
    props = _resolve_props(step.check_props, params)
    if props is None:
        return None
    session = recorder
    metrics = session.metrics
    segments: list = []

    if check_labels is None and not props:
        if step.access == "label":
            metrics.index_lookups += 1
            candidates = arrays.label_vids(step.access_label)
        else:
            candidates = arrays.all_vids()
        if len(candidates):
            segments.append((session.take(), candidates))
        return segments, session.take()

    primary = props[0] if props else None
    primary_spec = (
        vectorized._eq_spec(arrays, primary[0], primary[1])
        if primary is not None else None
    )
    rest_specs = [
        vectorized._eq_spec(arrays, name, value)
        for name, value in props[1:]
    ]
    n_props = len(props)
    count_labels = check_labels is not None
    label_sid = None
    if step.access == "label":
        label_sid = graph._symbols.sid(step.access_label)
        if label_sid is None:
            metrics.index_lookups += 1
            return segments, session.take()
    metrics.index_lookups += 1
    for tid, table in enumerate(graph._tables):
        if table.live <= 0:
            continue
        if label_sid is not None and label_sid not in table.label_sids:
            continue
        vids = arrays.table_vids(tid)
        if check_labels is not None and not (check_labels <= table.labels):
            metrics.vertex_reads += len(vids)
            continue
        live = len(vids)
        examined = live
        if primary is not None:
            mode, col, value = primary_spec
            if tid not in col.has_tids and value is not None:
                metrics.property_reads += live
                continue
            if value is not None:
                examined = col.examined.get(tid, live)
            passing = vids[vectorized._eq_mask(mode, col, value, vids)]
        else:
            passing = vids
        vectorized._charge_pages(session, "v", passing, dedup=True)
        for mode, col, value in rest_specs:
            if not len(passing):
                break
            passing = passing[vectorized._eq_mask(mode, col, value, passing)]
        if count_labels:
            metrics.vertex_reads += examined
        metrics.property_reads += examined * n_props
        if len(passing):
            segments.append((session.take(), passing))
    return segments, session.take()


class _Merger:
    """Coordinator-side fold state for one aggregate RETURN item.

    Wraps a real :class:`vectorized._Aggregator` (constructed without
    its charging reader) so merge results reuse the serial fold code
    verbatim - per-morsel value arrays are folded in serial order,
    which is what keeps float sums and NaN min/max bit-identical."""

    __slots__ = ("agg", "is_prop", "dtype")

    def __init__(self, name: str, col) -> None:
        agg = vectorized._Aggregator.__new__(vectorized._Aggregator)
        agg.name = name
        agg.count = 0
        agg.total = 0
        agg.best = None
        agg.read = None
        agg.col = col
        safe = 0
        if col is not None and col.kind == KIND_INT and col.vmin is not None:
            safe = max(abs(col.vmin), abs(col.vmax))
        agg._safe_mag = safe
        self.agg = agg
        self.is_prop = col is not None
        self.dtype = (
            None if col is None
            else (np.int64 if col.kind == KIND_INT else np.float64)
        )

    def fold(self, payload, n: int) -> None:
        agg = self.agg
        if not self.is_prop:
            agg.count += n  # count(*) / count(var)
            return
        k, raw = payload
        if agg.name == "count":
            agg.count += k
            return
        if k == 0:
            return
        agg.count += k
        values = np.frombuffer(raw, dtype=self.dtype)
        if self.dtype is np.int64:
            agg._fold_int(values, k)
        else:
            agg._fold_float(values)


def _shape_reason(query, plan, threshold: int) -> str | None:
    """Why this (already vectorized-qualified) plan should not go
    parallel.  ``None`` means dispatch."""
    if len(plan.steps) != 1 or not isinstance(plan.steps[0], ScanStep):
        return "multi-step"
    est = plan.steps[0].est_rows
    if est is not None and est < threshold:
        return "small-scan"
    if any(
        contains_aggregate(item.expr) for item in query.return_items
    ) and not vectorized.plain_aggregates(query, plan):
        # Grouped / collect / wrapped aggregates fold whole bindings;
        # the mergers only know the streaming numeric folds.
        return "aggregate-shape"
    return None


def build_parallel_pipeline(
    query,
    plan,
    session,
    params,
    workers: int,
    guard=None,
    step_counts=None,
    step_times=None,
    report=None,
    threshold: int | None = None,
    pool: WorkerPool | None = None,
):
    """Compile a morsel-parallel pipeline, or decline with a counted
    reason (the executor then falls through to serial vectorized).

    Like :func:`vectorized.build_pipeline`, every rejection happens
    here, before any work-counter charge; a returned pipeline replays
    charges exactly and cannot fall back mid-run.  Returns
    ``(columns, row_iterator)`` or ``None``.
    """
    threshold = (
        resolve_threshold() if threshold is None else max(0, int(threshold))
    )

    def decline(reason: str):
        _PARALLEL_FALLBACKS.inc(reason)
        if report is not None:
            report.parallel_reason = reason
        return None

    if workers < 2:
        return decline("single-worker")
    reason = vectorized.query_fallback_reason(query, plan)
    if reason is not None:
        # Not vectorizable at all - serial vectorized will decline it
        # with the same reason; parallel requires vectorized-mode
        # qualification as a precondition.
        return decline(reason)
    reason = _shape_reason(query, plan, threshold)
    if reason is not None:
        return decline(reason)

    graph = session.graph
    arrays = vectorized.graph_arrays(graph)
    step = plan.steps[0]
    vpp = session._vertices_per_page
    app = session._adjacency_per_page

    # Validate that every kernel the workers will build compiles -
    # worker-side compilation must be infallible, and a fallback after
    # charges began would corrupt the equivalence contract.
    probe = _Recorder(vpp, app, graph)
    probe_ctx = vectorized._KernelContext(probe, arrays, plan, params)
    try:
        for f in step.filters:
            vectorized.compile_mask(probe_ctx, f)
        columns, _ = vectorized._compile_output(query, plan, probe_ctx)
        for item in query.return_items:
            # A projected string/list column is an object array the
            # serial batch path reads in place; it cannot cross into
            # shared memory.
            if isinstance(item.expr, PropertyRef):
                vectorized._require_typed(arrays.column(item.expr.prop))
    except vectorized._Fallback as fb:
        return decline(fb.reason)

    try:
        scanned = _scan_segments(
            _Recorder(vpp, app, graph), arrays, graph, step, params
        )
    except vectorized._Fallback as fb:
        # The scan's inline property map hit an unkernelable column
        # (object/mixed) - same refusal the serial batch path makes.
        return decline(fb.reason)
    if scanned is None:
        return decline("unsat-params")
    segments, trailing = scanned
    if step.est_rows is None:
        # No cardinality estimate (stats missing): gate on the actual
        # candidate count instead.
        if sum(len(p) for _, p in segments) < threshold:
            return decline("small-scan")

    aggregating = any(
        contains_aggregate(item.expr) for item in query.return_items
    )
    if aggregating:
        agg_specs = []
        mergers = []
        for item in query.return_items:
            expr = item.expr
            arg = expr.args[0] if expr.args else None
            if isinstance(arg, PropertyRef):
                agg_specs.append(("prop", expr.name, arg.var, arg.prop))
                mergers.append(
                    _Merger(expr.name, arrays.column(arg.prop))
                )
            else:  # Star / Variable: row-count only, no charges
                agg_specs.append(("plain", expr.name, None, None))
                mergers.append(_Merger(expr.name, None))
        output_spec = ("agg", agg_specs)
    else:
        mergers = None
        output_spec = ("rows", tuple(item.expr for item in query.return_items))

    pool = pool if pool is not None else get_pool(workers)
    gkey = _graph_key(graph)
    epoch = arrays.epoch
    # Stale-epoch columns of this graph are dead weight; drop them.
    pool.arena.drop(
        lambda k: isinstance(k, tuple) and len(k) == 5
        and k[0] == "col" and k[1] == gkey and k[2] != epoch
    )
    column_descs = {}
    for name in _collect_props(query, step):
        col = arrays.column(name)
        values_desc = (
            # Typed values only: an object array holds pointers.
            None if col.kind not in (KIND_INT, KIND_FLOAT)
            else pool.arena.share(("col", gkey, epoch, name, "v"), col.values)
        )
        present_desc = (
            None if col.present is None
            else pool.arena.share(("col", gkey, epoch, name, "p"), col.present)
        )
        column_descs[name] = (
            col.kind, values_desc, present_desc, col.vmin, col.vmax
        )

    job = pool.job_id()
    spec = {
        "job": job,
        "vpp": vpp,
        "app": app,
        "slot": step.slot,
        "nslots": plan.num_slots,
        "slots": dict(plan.slots),
        "slot_kinds": dict(plan.slot_kinds),
        "filters": tuple(step.filters),
        "params": dict(params),
        "columns": column_descs,
        "output": output_spec,
    }

    if report is not None:
        report.mode = "parallel"

    rows = _drive_parallel(
        pool, session, job, spec, segments, trailing, mergers,
        guard, step_counts, step_times, report,
    )
    return columns, rows


def _drive_parallel(
    pool, session, job, spec, segments, trailing, mergers,
    guard, step_counts, step_times, report,
):
    """The scatter-gather loop, lazy like the serial pipelines: no
    dispatch (and no charge) until the first row is pulled.

    Dispatch runs in bounded waves (≈2 tasks per worker in flight)
    with deadline checks between submissions, so a guard timeout
    cancels outstanding morsels between batches instead of flooding
    the queue.  Results are *consumed* strictly in morsel order and
    their recorded charges replayed through the real session - the
    whole point of the exercise."""
    timing = step_times is not None
    perf = time.perf_counter

    def drive():
        started = perf() if timing else 0.0
        try:
            pool.ensure_started()
            faults.fire("parallel.dispatch")
            worker_faults = _armed_worker_faults()
            batch_rows = vectorized.BATCH_ROWS
            seg_descs = [
                pool.arena.share(("scanjob", job, i), passing)
                for i, (_, passing) in enumerate(segments)
            ]
            morsels = list(MorselSource(
                [len(p) for _, p in segments], batch_rows
            ))
            inflight_cap = max(2 * pool.workers, 2)
            wanted: dict[int, int] = {}
            ready: dict[int, tuple] = {}
            next_dispatch = 0
            current_segment = -1
            for next_consume in range(len(morsels)):
                while (
                    next_dispatch < len(morsels)
                    and next_dispatch - next_consume < inflight_cap
                ):
                    if guard is not None:
                        guard.check_deadline()
                    m = morsels[next_dispatch]
                    task_id = pool.submit("scan", {
                        "spec": spec,
                        "segment": seg_descs[m.segment],
                        "start": m.start,
                        "stop": m.stop,
                        "faults": worker_faults,
                    })
                    wanted[task_id] = next_dispatch
                    _MORSELS.inc()
                    next_dispatch += 1
                while next_consume not in ready:
                    if guard is not None:
                        guard.check_deadline()
                    got = pool.collect()
                    if got is None:
                        continue
                    task_id, ok, out, busy = got
                    _WORKER_BUSY.observe(busy)
                    idx = wanted.pop(task_id, None)
                    if idx is None:
                        continue  # stale result from an aborted job
                    if not ok:
                        _WORKER_FAILURES.inc()
                        raise ParallelExecutionError(
                            f"parallel worker task failed: {out}"
                        )
                    ready[idx] = out
                n, counters, page_log, payload = ready.pop(next_consume)
                morsel = morsels[next_consume]
                if morsel.segment != current_segment:
                    for s in range(current_segment + 1, morsel.segment + 1):
                        _replay(session, *segments[s][0])
                    current_segment = morsel.segment
                _replay(session, counters, page_log)
                if n:
                    vectorized._BATCHES.inc()
                    if report is not None:
                        report.batches += 1
                    if step_counts is not None:
                        step_counts[0] += n
                    if mergers is not None:
                        for merger, part in zip(mergers, payload):
                            merger.fold(part, n)
                    else:
                        yield from payload
            for s in range(current_segment + 1, len(segments)):
                _replay(session, *segments[s][0])
            _replay(session, *trailing)
            if mergers is not None:
                yield tuple(m.agg.result() for m in mergers)
        finally:
            if timing:
                step_times[0] += perf() - started
            pool.arena.drop(
                lambda k: isinstance(k, tuple) and k[0] == "scanjob"
                and k[1] == job
            )

    return drive()


# -- worker side -------------------------------------------------------
class _WorkerJob:
    """Per-job compiled state cached in each worker."""

    __slots__ = ("recorder", "filters", "item_fns", "agg_specs",
                 "slot", "nslots")

    def __init__(self, recorder, filters, item_fns, agg_specs, slot, nslots):
        self.recorder = recorder
        self.filters = filters
        self.item_fns = item_fns
        self.agg_specs = agg_specs
        self.slot = slot
        self.nslots = nslots


_JOB_CACHE: dict[str, _WorkerJob] = {}


def _compile_worker_job(spec) -> _WorkerJob:
    recorder = _Recorder(spec["vpp"], spec["app"])
    arrays = _ShmArrays(spec["columns"])
    ctx = vectorized._KernelContext(
        recorder, arrays,
        _PlanStub(spec["slots"], spec["slot_kinds"], spec["nslots"]),
        spec["params"],
    )
    filters = [vectorized.compile_mask(ctx, f) for f in spec["filters"]]
    kind, payload = spec["output"]
    item_fns = agg_specs = None
    if kind == "agg":
        agg_specs = []
        for mode, name, var, prop in payload:
            if mode == "plain":
                agg_specs.append(None)
            else:
                agg_specs.append(
                    (name, spec["slots"][var], arrays.column(prop))
                )
    else:
        item_fns = [vectorized._compile_item(ctx, e) for e in payload]
    return _WorkerJob(
        recorder, filters, item_fns, agg_specs,
        spec["slot"], spec["nslots"],
    )


def _handle_scan(payload):
    """One morsel: filter + project/aggregate-gather, charges recorded.

    Replicates exactly one iteration of the serial scan generator's
    ``emit`` loop plus the consumer's per-batch work, against a
    recording session - returns ``(n, counters, page_log, out)``."""
    _arm_payload_faults(payload)
    faults.fire("parallel.worker")
    spec = payload["spec"]
    jobkey = spec["job"]
    job = _JOB_CACHE.get(jobkey)
    if job is None:
        if len(_JOB_CACHE) > 8:
            _JOB_CACHE.clear()
        job = _compile_worker_job(spec)
        _JOB_CACHE[jobkey] = job
    recorder = job.recorder
    recorder.take()  # defensive: never carry stale charges
    vids = _attach(payload["segment"])[payload["start"]:payload["stop"]]
    cols: list = [None] * job.nslots
    cols[job.slot] = vids
    cols, n = vectorized._apply_filters(job.filters, cols, len(vids))
    out = None
    if n:
        if job.agg_specs is not None:
            out = []
            for agg_spec in job.agg_specs:
                if agg_spec is None:
                    out.append(None)  # count(*) / count(var): n is enough
                    continue
                name, slot, col = agg_spec
                # _Aggregator.update's gather + presence mask, minus
                # the fold (the coordinator folds in serial order).
                avids = cols[slot]
                recorder.metrics.property_reads += n
                vectorized._charge_pages(recorder, "v", avids, dedup=False)
                present = col.present[avids]
                k = int(present.sum())
                if name == "count" or k == 0:
                    out.append((k, b""))
                else:
                    out.append((k, col.values[avids][present].tobytes()))
        else:
            out = list(zip(*(fn(cols, n) for fn in job.item_fns)))
    counters, page_log = recorder.take()
    return n, counters, page_log, out


# ----------------------------------------------------------------------
# Workload (b): morsel-parallel PageRank
# ----------------------------------------------------------------------
def _dst_partitions(s_dst, n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous destination-space ranges covering ``[0, n)`` with
    roughly equal edge counts, aligned to dst-run boundaries."""
    e = len(s_dst)
    cuts = [0]
    for w in range(1, workers):
        pos = (e * w) // workers
        dcut = int(s_dst[pos]) if pos < e else n
        cuts.append(min(max(dcut, cuts[-1]), n))
    cuts.append(n)
    return [(cuts[i], cuts[i + 1]) for i in range(workers)]


def parallel_pagerank(
    graph,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iterations: int = 100,
    workers: object = None,
    pool: WorkerPool | None = None,
) -> dict[int, float]:
    """PageRank over the undirected graph, morsel-parallel.

    Matches :func:`view.graph_pagerank` to floating-point tolerance
    (per-destination partial sums are reduced in a different order
    than the serial kernel's edge loop); iteration structure - teleport
    base, dangling-mass redistribution, L1 convergence test - is
    identical, with a barrier per iteration.  Falls back to the serial
    kernel below 2 workers.
    """
    workers = resolve_parallelism(workers)
    if workers < 2:
        return graph_pagerank(graph, damping, tol, max_iterations)
    vids, src, dst = undirected_edge_index(graph)
    n = len(vids)
    if n == 0:
        return {}
    out_degree = np.bincount(src, minlength=n)
    dangling = out_degree == 0
    inv_degree = np.zeros(n, dtype=np.float64)
    nz = out_degree > 0
    inv_degree[nz] = 1.0 / out_degree[nz]
    order = np.argsort(dst, kind="stable")
    s_src = src[order]
    s_dst = dst[order]
    parts = _dst_partitions(s_dst, n, workers)
    edge_bounds = [
        (int(np.searchsorted(s_dst, lo)), int(np.searchsorted(s_dst, hi)))
        for lo, hi in parts
    ]

    pool = pool if pool is not None else get_pool(workers)
    pool.ensure_started()
    faults.fire("parallel.dispatch")
    worker_faults = _armed_worker_faults()
    job = pool.job_id()
    arena = pool.arena
    try:
        src_desc = arena.share(("pr", job, "src"), s_src)
        dst_desc = arena.share(("pr", job, "dst"), s_dst)
        inv_desc = arena.share(("pr", job, "invdeg"), inv_degree)
        rank_view, rank_desc = arena.create_buffer(
            ("pr", job, "rank"), (n,), np.float64
        )
        rank = np.full(n, 1.0 / n, dtype=np.float64)
        base_teleport = (1.0 - damping) / n
        for _iteration in range(max_iterations):
            rank_view[:] = rank
            dangling_mass = float(rank[dangling].sum())
            wanted = {}
            for w, ((d_lo, d_hi), (e_lo, e_hi)) in enumerate(
                zip(parts, edge_bounds)
            ):
                task_id = pool.submit("pagerank", {
                    "src": src_desc, "dst": dst_desc,
                    "invdeg": inv_desc, "rank": rank_desc,
                    "d_lo": d_lo, "d_hi": d_hi,
                    "e_lo": e_lo, "e_hi": e_hi,
                    "faults": worker_faults,
                })
                wanted[task_id] = w
                _MORSELS.inc()
            partials = _gather_all(pool, wanted)  # iteration barrier
            incoming = np.zeros(n, dtype=np.float64)
            for w, ((d_lo, d_hi), _) in enumerate(zip(parts, edge_bounds)):
                if d_hi > d_lo:
                    incoming[d_lo:d_hi] = np.frombuffer(
                        partials[w], dtype=np.float64
                    )
            new_rank = (
                base_teleport
                + damping * dangling_mass / n
                + damping * incoming
            )
            delta = float(np.abs(new_rank - rank).sum())
            rank = new_rank
            if delta < tol:
                break
        return dict(zip(vids, rank.tolist()))
    finally:
        arena.drop(
            lambda k: isinstance(k, tuple) and k[0] == "pr" and k[1] == job
        )


def _handle_pagerank(payload):
    """One destination-range partial: sum incoming shares."""
    _arm_payload_faults(payload)
    faults.fire("parallel.worker")
    e_lo, e_hi = payload["e_lo"], payload["e_hi"]
    d_lo, d_hi = payload["d_lo"], payload["d_hi"]
    part = np.zeros(max(d_hi - d_lo, 0), dtype=np.float64)
    if e_hi > e_lo:
        src = _attach(payload["src"])[e_lo:e_hi]
        dst = _attach(payload["dst"])[e_lo:e_hi]
        rank = _attach(payload["rank"])
        inv_degree = _attach(payload["invdeg"])
        np.add.at(part, dst - d_lo, rank[src] * inv_degree[src])
    return part.tobytes()


# ----------------------------------------------------------------------
# Workload (c): parallel statistics build
# ----------------------------------------------------------------------
def parallel_build_stats(graph, workers: object = None,
                         pool: WorkerPool | None = None):
    """A :meth:`GraphStatistics.build` scattered across the pool.

    Per-table property histograms and chunked edge-combination counts
    run in workers; ``Counter`` merges are order-independent, so the
    result compares equal to a serial build.  Numeric columns travel
    through shared memory; object columns (strings, lists) are
    pickled - they are the minority and histogramming them is the
    expensive part, not the copy.
    """
    from repro.graphdb.statistics import GraphStatistics, PropertyStats

    workers = resolve_parallelism(workers)
    if workers < 2:
        return GraphStatistics.build(graph)
    stats = GraphStatistics()
    symbols = graph._symbols
    bump = GraphStatistics._bump
    pool = pool if pool is not None else get_pool(workers)
    pool.ensure_started()
    faults.fire("parallel.dispatch")
    worker_faults = _armed_worker_faults()
    job = pool.job_id()
    arena = pool.arena
    wanted: dict[int, object] = {}
    try:
        for tid, table in enumerate(graph._tables):
            live = table.live
            if live == 0:
                continue
            labels = table.labels
            stats.num_vertices += live
            for pair in GraphStatistics._pairs_of(labels):
                bump(stats._label_pairs, pair, live)
            for label in labels:
                stats.label_counts[label] = (
                    stats.label_counts.get(label, 0) + live
                )
            columns_payload = []
            for key_sid, column in table.columns.items():
                if column.kind in (KIND_INT, KIND_FLOAT):
                    data = (
                        "shm",
                        arena.share(
                            ("stats", job, tid, key_sid),
                            np.asarray(column.data),
                        ),
                        column.kind,
                    )
                else:
                    data = ("obj", list(column.data), column.kind)
                columns_payload.append((key_sid, data, bytes(column.mask)))
            if not columns_payload:
                continue
            task_id = pool.submit("stats_table", {
                "live": live,
                "nrows": len(table.vids),
                "vids": (
                    list(table.vids)
                    if live != len(table.vids) else None
                ),
                "columns": columns_payload,
                "faults": worker_faults,
            })
            wanted[task_id] = ("table", tid, tuple(labels))
            _MORSELS.inc()

        e_label = graph._e_label
        n_edges = len(e_label)
        edge_chunks = []
        if n_edges:
            lab_desc = arena.share(
                ("stats", job, "e_label"), np.asarray(e_label, dtype=np.int64)
            )
            src_desc = arena.share(
                ("stats", job, "e_src"), np.asarray(graph._e_src, dtype=np.int64)
            )
            dst_desc = arena.share(
                ("stats", job, "e_dst"), np.asarray(graph._e_dst, dtype=np.int64)
            )
            vtid_desc = arena.share(
                ("stats", job, "v_tid"), np.asarray(graph._v_tid, dtype=np.int64)
            )
            n_chunks = min(max(workers, 1), max(n_edges // 4096, 1))
            step = -(-n_edges // n_chunks)
            for ci, lo in enumerate(range(0, n_edges, step)):
                task_id = pool.submit("stats_edges", {
                    "label": lab_desc, "src": src_desc, "dst": dst_desc,
                    "v_tid": vtid_desc,
                    "lo": lo, "hi": min(lo + step, n_edges),
                    "faults": worker_faults,
                })
                wanted[task_id] = ("edges", ci)
                _MORSELS.inc()

        results = _gather_all(pool, wanted)

        from collections import Counter

        for key in sorted(k for k in results if k[0] == "table"):
            _kind, _tid, labels = key
            for key_sid, hist, unhashable, total in results[key]:
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

        combos: Counter = Counter()
        for key, res in results.items():
            if key[0] != "edges":
                continue
            for combo, count in res:
                combos[combo] += count
        labelsets = graph._labelset_strs
        for (sid, src_tid, dst_tid), count in sorted(combos.items()):
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
    finally:
        arena.drop(
            lambda k: isinstance(k, tuple) and k[0] == "stats" and k[1] == job
        )


class _TableStub:
    __slots__ = ("live", "vids")

    def __init__(self, live, vids):
        self.live = live
        self.vids = vids


class _ColumnStub:
    __slots__ = ("kind", "data", "mask")

    def __init__(self, kind, data, mask):
        self.kind = kind
        self.data = data
        self.mask = mask


def _handle_stats_table(payload):
    from repro.graphdb.statistics import _column_histogram

    _arm_payload_faults(payload)
    faults.fire("parallel.worker")
    nrows = payload["nrows"]
    vids = payload["vids"]
    table = _TableStub(
        payload["live"],
        vids if vids is not None else range(nrows),
    )
    out = []
    for key_sid, data_spec, mask in payload["columns"]:
        tag, data, kind = data_spec
        if tag == "shm":
            # tolist() restores plain int/float values so histogram
            # keys compare (and pickle) identically to a serial build.
            data = _attach(data).tolist()
        column = _ColumnStub(kind, data, bytearray(mask))
        hist, unhashable, total = _column_histogram(table, column)
        out.append((key_sid, hist, unhashable, total))
    return out


def _handle_stats_edges(payload):
    _arm_payload_faults(payload)
    faults.fire("parallel.worker")
    lo, hi = payload["lo"], payload["hi"]
    lab = _attach(payload["label"])[lo:hi]
    src = _attach(payload["src"])[lo:hi]
    dst = _attach(payload["dst"])[lo:hi]
    v_tid = _attach(payload["v_tid"])
    mask = lab >= 0  # tombstoned edges have negative label sids
    if not mask.any():
        return []
    combos = np.stack(
        (lab[mask], v_tid[src[mask]], v_tid[dst[mask]]), axis=1
    )
    uniq, counts = np.unique(combos, axis=0, return_counts=True)
    return [
        ((int(a), int(b), int(c)), int(k))
        for (a, b, c), k in zip(uniq.tolist(), counts.tolist())
    ]


_HANDLERS = {
    "scan": _handle_scan,
    "pagerank": _handle_pagerank,
    "stats_table": _handle_stats_table,
    "stats_edges": _handle_stats_edges,
}
