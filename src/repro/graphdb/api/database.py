""":func:`connect` and :class:`Database`: the driver's entry point.

``connect`` accepts anything the stack can serve queries from and
normalizes it into a :class:`Database`:

* a live :class:`~repro.graphdb.graph.PropertyGraph` - an in-memory
  database (no durability);
* a **data directory** - recovered through the storage subsystem
  (latest snapshot + WAL replay) and opened for writing: every
  mutation is write-ahead logged, transactions get BEGIN/COMMIT
  framing, :meth:`Database.checkpoint` compacts.  ``readonly=True``
  recovers a point-in-time graph without touching the directory;
* a **snapshot file** (``.rpgs``) - loaded as an in-memory graph;
* a ``repro://host:port`` **URL** - a
  :class:`~repro.graphdb.api.remote.RemoteDatabase` speaking the wire
  protocol to a ``repro serve`` process (same Session/Result surface,
  rows streamed lazily in PULL batches).

A :class:`Database` is a session factory::

    from repro.graphdb import connect

    with connect("./med-data") as db:
        with db.session() as session:
            record = session.run(
                "MATCH (d:Drug {id: $id}) RETURN d.name AS name", id=7
            ).single()
            print(record["name"])
"""

from __future__ import annotations

from pathlib import Path

from repro.exceptions import GraphError
from repro.graphdb import observe as observe_mod
from repro.graphdb.api.session import Session
from repro.graphdb.backends import BackendProfile, NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph


def connect(
    target: PropertyGraph | str | Path,
    profile: BackendProfile = NEO4J_LIKE,
    *,
    create: bool = True,
    sync: str = "batch",
    readonly: bool = False,
    observe: "observe_mod.ObserveConfig | dict | str | Path | None" = None,
) -> "Database":
    """Open ``target`` (graph, data directory, or snapshot file).

    ``profile`` sets the default simulated backend for sessions;
    ``create``/``sync`` apply to writable data directories (see
    :class:`~repro.graphdb.storage.GraphStore`); ``readonly=True``
    recovers a directory without creating, truncating, or logging.
    ``observe`` configures the process-global observability layer: an
    :class:`~repro.graphdb.observe.ObserveConfig` (or a dict of its
    fields, or a bare event-log path) that can point the JSONL event
    sink somewhere, arm the slow-query log, or switch the metrics
    registry off entirely - see :mod:`repro.graphdb.observe`.
    """
    if observe is not None:
        observe_mod.configure(observe)
    if isinstance(target, PropertyGraph):
        return Database(target, store=None, profile=profile)
    if isinstance(target, str) and target.startswith("repro://"):
        from repro.graphdb.api.remote import RemoteDatabase

        return RemoteDatabase(target, profile=profile, readonly=readonly)
    path = Path(target)
    if path.is_file() or (
        not path.exists() and path.suffix == ".rpgs"
    ):
        from repro.graphdb.storage import read_snapshot

        return Database(read_snapshot(path), store=None, profile=profile)
    if readonly:
        from repro.graphdb.storage import recover_graph
        from repro.graphdb.storage.recovery import RecoveryManager

        manager = RecoveryManager(path)
        if not path.is_dir() or not (
            manager.snapshot_generations() or manager.wal_generations()
        ):
            raise GraphError(f"no graph store at {path}")
        return Database(
            recover_graph(path), store=None, profile=profile,
            readonly=True,
        )
    from repro.graphdb.storage import GraphStore

    store = GraphStore.open(path, create=create, sync=sync)
    return Database(store.graph, store=store, profile=profile)


class Database:
    """A queryable graph plus (optionally) its durable store."""

    def __init__(
        self,
        graph: PropertyGraph,
        store=None,
        profile: BackendProfile = NEO4J_LIKE,
        readonly: bool = False,
    ):
        self.graph = graph
        #: The durable :class:`~repro.graphdb.storage.GraphStore`, or
        #: ``None`` for in-memory / read-only databases.
        self.store = store
        #: Default backend profile for sessions.
        self.profile = profile
        #: ``connect(..., readonly=True)``: sessions refuse to open
        #: transactions, so a point-in-time view cannot be mutated by
        #: accident (the writes would silently never be logged).
        self.readonly = readonly
        self._closed = False

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(
        self,
        profile: BackendProfile | None = None,
        cache=None,
    ) -> Session:
        """A new unit-of-work session (use as a context manager)."""
        self._require_open()
        return Session(self, profile=profile, cache=cache)

    # ------------------------------------------------------------------
    # Durability passthrough
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        return self.store is not None

    def checkpoint(self) -> Path:
        """Compact the WAL into a fresh snapshot (durable stores only)."""
        self._require_open()
        if self.store is None:
            raise GraphError("database has no backing store")
        return self.store.checkpoint()

    def sync(self) -> None:
        """Force buffered WAL records to disk (no-op when in-memory)."""
        self._require_open()
        if self.store is not None:
            self.store.sync()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """A consistent snapshot of the process-global metrics registry.

        Counters, gauges and histograms populated by every layer of
        the engine (WAL, checkpoint, recovery, plan cache, query
        execution) - the same
        payload ``repro metrics`` prints; for a Prometheus text
        exposition use :func:`repro.graphdb.observe.render_prometheus`.
        The registry is process-global, so the snapshot covers every
        database in the process, not just this one.
        """
        return observe_mod.REGISTRY.snapshot()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush and detach the backing store, if any."""
        if self._closed:
            return
        self._closed = True
        if self.store is not None:
            self.store.close()

    def _require_open(self) -> None:
        if self._closed:
            raise GraphError("database is closed")

    def __enter__(self) -> Database:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "durable" if self.store is not None else "in-memory"
        return f"<Database {kind} {self.graph.summary()}>"
