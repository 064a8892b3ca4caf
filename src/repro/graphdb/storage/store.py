"""The durable store: one data directory, one live graph, one WAL.

:class:`GraphStore` glues the layers together:

* :meth:`GraphStore.open` recovers the directory's latest consistent
  state (snapshot + WAL tail, see :mod:`.recovery`), attaches a
  mutation listener to the recovered :class:`PropertyGraph`, and keeps
  an appender on the current generation's WAL - from then on every
  ``add_vertex`` / ``add_edge`` / ``set_property`` / ``remove_*`` /
  ``create_property_index`` on the graph is logged before the call
  returns (durability is governed by the WAL's sync mode);
* :meth:`GraphStore.create` initializes a directory from an existing
  in-memory graph (the dataset memoization and ``repro save`` path);
* :meth:`GraphStore.checkpoint` compacts: it folds the current WAL
  into a fresh snapshot of generation ``g+1`` (written atomically),
  starts an empty ``wal-<g+1>``, and prunes the old generation's
  files.  A crash anywhere in that sequence recovers to either the old
  or the new generation, never a mixture, because recovery pairs each
  snapshot strictly with its own generation's log.

The store only ever *appends* to the log of the graph it owns; readers
that want a point-in-time view without write access should use
:func:`repro.graphdb.storage.recovery.recover_graph`.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.exceptions import StorageError
from repro.graphdb import faults, observe
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage.recovery import (
    RecoveryManager,
    RecoveryReport,
    is_store_artifact,
    snapshot_name,
    wal_name,
)
from repro.graphdb.storage.snapshot import write_snapshot
from repro.graphdb.storage.wal import WriteAheadLog

FP_CKPT_PRE = faults.REGISTRY.register("store.checkpoint.pre_snapshot")
FP_CKPT_STALE = faults.REGISTRY.register("store.checkpoint.stale_wal")
FP_CKPT_NEW = faults.REGISTRY.register("store.checkpoint.new_wal")

_CHECKPOINTS = observe.REGISTRY.counter(
    "repro_checkpoints_total", "Completed checkpoints (WAL compactions)."
)
_CHECKPOINT_SECONDS = observe.REGISTRY.histogram(
    "repro_checkpoint_seconds", help="Checkpoint wall time."
)


class GraphStore:
    """A property graph bound to a durable data directory."""

    def __init__(
        self,
        data_dir: Path,
        graph: PropertyGraph,
        generation: int,
        wal: WriteAheadLog,
        recovery: RecoveryReport | None = None,
    ):
        self.data_dir = data_dir
        self.graph = graph
        self.generation = generation
        self.recovery = recovery
        self._wal = wal
        self._closed = False
        self._poisoned = False
        graph.add_listener(self._on_mutation)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        data_dir: str | Path,
        create: bool = True,
        sync: str = "batch",
        graph_name: str | None = None,
    ) -> GraphStore:
        """Recover ``data_dir`` and return a live, logging store."""
        data_dir = Path(data_dir)
        if not data_dir.is_dir():
            if not create:
                raise StorageError(f"no data directory at {data_dir}")
            data_dir.mkdir(parents=True, exist_ok=True)
        graph, report = RecoveryManager(
            data_dir, graph_name=graph_name
        ).recover(truncate=True)
        wal = WriteAheadLog(
            data_dir / wal_name(report.generation),
            generation=report.generation,
            sync=sync,
        )
        store = cls(
            data_dir, graph, report.generation, wal, recovery=report
        )
        store._prune(keep=report.generation)
        return store

    @classmethod
    def create(
        cls,
        data_dir: str | Path,
        graph: PropertyGraph,
        overwrite: bool = False,
        sync: str = "batch",
    ) -> GraphStore:
        """Initialize a directory from an in-memory graph (generation 1)."""
        data_dir = Path(data_dir)
        if data_dir.is_dir() and any(data_dir.iterdir()):
            if not overwrite:
                raise StorageError(
                    f"data directory {data_dir} is not empty "
                    "(pass overwrite=True to replace it)"
                )
            # Overwrite replaces *store artifacts* only (snapshots,
            # WALs, tmp debris, quarantined files); anything else in
            # the directory is not ours to delete.
            foreign = [
                p.name for p in data_dir.iterdir()
                if not is_store_artifact(p.name)
            ]
            if foreign:
                raise StorageError(
                    f"refusing to overwrite {data_dir}: it contains "
                    f"non-store entries {sorted(foreign)[:5]}"
                )
            for path in data_dir.iterdir():
                path.unlink()
        data_dir.mkdir(parents=True, exist_ok=True)
        generation = 1
        write_snapshot(
            graph, data_dir / snapshot_name(generation), generation
        )
        wal = WriteAheadLog(
            data_dir / wal_name(generation),
            generation=generation,
            sync=sync,
        )
        return cls(data_dir, graph, generation, wal)

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------
    def _on_mutation(self, op: str, args: tuple) -> None:
        if self._poisoned:
            raise StorageError(
                "store is poisoned after a failed checkpoint rollback; "
                "close and reopen to recover"
            )
        self._wal.append(op, args)

    def sync(self) -> None:
        """Force buffered WAL records to disk (fsync included)."""
        self._wal.flush(fsync=True)

    def sync_group(self, commits: int) -> None:
        """Group commit: one fsync making ``commits`` commits durable.

        Identical durability to :meth:`sync`; additionally records the
        batch size in the ``repro_wal_group_commit_batch_size``
        histogram, so the fsync-per-commit amortization is observable
        (an in-process ``Transaction.commit`` reports batches of 1; the
        server's writer task batches every commit that queued while the
        previous fsync was in flight).
        """
        self._wal.group_commit(commits)

    def wal_size_bytes(self) -> int:
        return self._wal.size_bytes()

    # ------------------------------------------------------------------
    # Checkpoint / compaction
    # ------------------------------------------------------------------
    def checkpoint(self) -> Path:
        """Fold the WAL into a fresh snapshot; returns its path.

        Ordering is crash-safe: the new snapshot is fully durable
        before the new (empty) WAL exists, and old-generation files are
        only removed after both.  Recovery at any intermediate point
        finds either generation ``g`` complete or generation ``g+1``
        complete.

        If a step fails *after* the new snapshot became visible, the
        store must not keep appending to the old generation's WAL:
        recovery would prefer snapshot ``g+1`` and those appends would
        be lost.  The failure path therefore rolls the snapshot back
        (unlinks it) - and if even that fails, poisons the store so
        further mutations raise instead of being silently droppable.
        """
        self._require_open()
        if self._poisoned:
            raise StorageError(
                "store is poisoned after a failed checkpoint rollback; "
                "close and reopen to recover"
            )
        if getattr(self.graph, "in_transaction", False):
            # A snapshot taken mid-transaction would make uncommitted
            # state durable with no frame to discard it.
            raise StorageError(
                "cannot checkpoint while a transaction is open"
            )
        started = time.perf_counter()
        self._wal.flush(fsync=True)
        new_generation = self.generation + 1
        snapshot_path = self.data_dir / snapshot_name(new_generation)
        faults.fire(FP_CKPT_PRE)
        write_snapshot(self.graph, snapshot_path, new_generation)
        try:
            # A stale log of the target generation (left behind when a
            # past recovery fell back over a torn checkpoint) must not
            # be appended to: its snapshot was just atomically
            # replaced, so its records belong to an abandoned history.
            faults.fire(FP_CKPT_STALE)
            self._unlink(self.data_dir / wal_name(new_generation))
            old_wal = self._wal
            faults.fire(FP_CKPT_NEW)
            new_wal = WriteAheadLog(
                self.data_dir / wal_name(new_generation),
                generation=new_generation,
                sync=old_wal.sync,
                batch_ops=old_wal.batch_ops,
                batch_bytes=old_wal.batch_bytes,
            )
        except Exception:
            # Not BaseException: a SimulatedCrash models kill -9, which
            # would not run this handler either - recovery must (and
            # does) cope with the raw post-rename states on its own.
            self._rollback_checkpoint(snapshot_path, new_generation)
            raise
        self._wal = new_wal
        old_wal.close()
        self.generation = new_generation
        self._prune(keep=new_generation)
        _CHECKPOINTS.inc()
        _CHECKPOINT_SECONDS.observe(time.perf_counter() - started)
        observe.EVENTS.emit(
            "checkpoint",
            data_dir=str(self.data_dir),
            generation=new_generation,
            snapshot=snapshot_path.name,
        )
        return snapshot_path

    def _rollback_checkpoint(
        self, snapshot_path: Path, new_generation: int
    ) -> None:
        """Make a half-finished checkpoint invisible again.

        Called when a step failed after ``snapshot-<g+1>`` became
        durable.  Removing the snapshot (and any partial ``wal-<g+1>``)
        restores the pre-checkpoint directory; if the snapshot cannot
        be removed the store is poisoned, because appends to the old
        WAL would be invisible to a recovery that prefers ``g+1``.
        """
        try:
            os.unlink(snapshot_path)
        except FileNotFoundError:
            pass
        except OSError:
            self._poisoned = True
            observe.EVENTS.emit(
                "store_poisoned",
                data_dir=str(self.data_dir),
                generation=self.generation,
                snapshot=snapshot_path.name,
            )
            return
        self._unlink(self.data_dir / wal_name(new_generation))

    def _prune(self, keep: int) -> None:
        """Best-effort removal of *older* generations' files.

        Newer-generation files are never touched here: they can only
        exist when recovery fell back past a snapshot it could not
        validate, and deleting them on open would destroy the newest
        data after a transient fault.  A later :meth:`checkpoint`
        reaching that generation overwrites them legitimately.
        """
        manager = RecoveryManager(self.data_dir)
        for generation in manager.snapshot_generations():
            if generation < keep:
                self._unlink(self.data_dir / snapshot_name(generation))
        for generation in manager.wal_generations():
            if generation < keep:
                self._unlink(self.data_dir / wal_name(generation))

    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - prune is best-effort
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush the WAL and stop logging; the graph stays usable."""
        if self._closed:
            return
        self._closed = True
        self.graph.remove_listener(self._on_mutation)
        self._wal.close()

    def abandon(self) -> None:
        """Detach without flushing - crash-emulation shutdown.

        The server's fatal path (an injected :class:`SimulatedCrash`)
        must leave the directory exactly as a killed process would:
        buffered WAL records are dropped, nothing is flushed, and the
        next open recovers from what actually reached disk.
        """
        if self._closed:
            return
        self._closed = True
        self.graph.remove_listener(self._on_mutation)
        self._wal.abandon()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def poisoned(self) -> bool:
        """True when a failed checkpoint rollback left the directory in
        a state where further appends could be silently lost; the only
        way forward is close + reopen (recovery re-validates)."""
        return self._poisoned or self._wal.failed

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("store is closed")

    def __enter__(self) -> GraphStore:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GraphStore {str(self.data_dir)!r} gen={self.generation} "
            f"{self.graph.summary()}>"
        )
