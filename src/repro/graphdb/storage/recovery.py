"""Crash recovery: snapshot + WAL tail -> consistent graph.

A data directory holds numbered generations::

    data_dir/
        snapshot-00000003.rpgs     (latest checkpoint)
        wal-00000003.rpgw          (mutations since that checkpoint)

:class:`RecoveryManager` re-establishes the invariant *graph state ==
latest valid snapshot + valid WAL prefix*:

1. load the newest snapshot whose checksums validate, falling back to
   older generations when a checkpoint was torn mid-write (the atomic
   rename makes this rare, but a corrupt disk is still survivable);
2. replay ``wal-<generation>`` up to the first torn or corrupt record
   (a log of a *different* generation is ignored - it predates or
   postdates the snapshot and must not be applied);
3. truncate the torn tail so the log ends on a record boundary and
   appending can resume.

An empty or missing directory recovers to an empty graph at
generation 0, which is how a fresh store is born.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import StorageError
from repro.graphdb import faults, observe
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage.snapshot import (
    SnapshotError,
    SnapshotIOError,
    read_snapshot_with_generation,
)
from repro.graphdb.storage.wal import (
    WalError,
    WalIOError,
    read_wal,
    replay,
)

SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{8})\.rpgs$")
WAL_PATTERN = re.compile(r"^wal-(\d{8})\.rpgw$")

#: A snapshot that failed validation is renamed aside with this suffix
#: (kept for forensics) so recovery can degrade to an older generation
#: without re-validating the bad file on every open.
QUARANTINE_SUFFIX = ".quarantined"

#: Crash debris from a torn atomic snapshot write.
TMP_PATTERN = re.compile(r"^snapshot-(\d{8})\.rpgs\.tmp$")

FP_TRUNCATE = faults.REGISTRY.register("recovery.wal_truncate")
FP_QUARANTINE = faults.REGISTRY.register("recovery.quarantine")
FP_SWEEP = faults.REGISTRY.register("store.open.sweep")

_RECOVERIES = observe.REGISTRY.counter(
    "repro_recoveries_total", "Recovery passes (store opens)."
)


def snapshot_name(generation: int) -> str:
    return f"snapshot-{generation:08d}.rpgs"


def wal_name(generation: int) -> str:
    return f"wal-{generation:08d}.rpgw"


def is_store_artifact(name: str) -> bool:
    """True when ``name`` is a file this subsystem may own and delete:
    a snapshot or WAL of any generation, their tmp debris, or a
    quarantined snapshot."""
    if name.endswith(QUARANTINE_SUFFIX):
        name = name[: -len(QUARANTINE_SUFFIX)]
    if name.endswith(".tmp"):
        name = name[: -len(".tmp")]
    return bool(SNAPSHOT_PATTERN.match(name) or WAL_PATTERN.match(name))


@dataclass
class RecoveryReport:
    """What recovery found and did - surfaced by ``repro load``."""

    data_dir: Path
    generation: int = 0
    snapshot_path: Path | None = None
    wal_path: Path | None = None
    replayed_ops: int = 0
    truncated_bytes: int = 0
    #: Snapshot files that failed validation and were skipped.
    corrupt_snapshots: list[Path] = field(default_factory=list)
    #: Corrupt snapshots renamed aside as ``*.quarantined``.
    quarantined: list[Path] = field(default_factory=list)
    #: Orphaned ``*.tmp`` files (torn atomic writes) swept on open.
    removed_tmp: list[Path] = field(default_factory=list)
    #: WAL files ignored because their generation did not match.
    skipped_wals: list[Path] = field(default_factory=list)

    def summary(self) -> str:
        parts = [f"generation {self.generation}"]
        if self.snapshot_path is None:
            parts.append("fresh store (no snapshot)")
        else:
            parts.append(f"snapshot {self.snapshot_path.name}")
        parts.append(f"{self.replayed_ops} WAL ops replayed")
        if self.truncated_bytes:
            parts.append(
                f"{self.truncated_bytes} torn byte(s) truncated"
            )
        if self.corrupt_snapshots:
            parts.append(
                f"{len(self.corrupt_snapshots)} corrupt snapshot(s) skipped"
            )
        if self.quarantined:
            parts.append(
                f"{len(self.quarantined)} quarantined"
            )
        if self.removed_tmp:
            parts.append(
                f"{len(self.removed_tmp)} orphaned tmp file(s) removed"
            )
        return ", ".join(parts)


class RecoveryError(StorageError):
    """Raised when no consistent state can be reconstructed."""


class RecoveryManager:
    """Opens a data directory and reconstructs the latest valid state."""

    def __init__(self, data_dir: str | Path, graph_name: str | None = None):
        self.data_dir = Path(data_dir)
        self.graph_name = graph_name

    # -- directory scanning -------------------------------------------
    def snapshot_generations(self) -> list[int]:
        """Snapshot generations on disk, newest first."""
        return self._generations(SNAPSHOT_PATTERN)

    def wal_generations(self) -> list[int]:
        return self._generations(WAL_PATTERN)

    def _generations(self, pattern: re.Pattern) -> list[int]:
        if not self.data_dir.is_dir():
            return []
        found = []
        for name in os.listdir(self.data_dir):
            match = pattern.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found, reverse=True)

    # -- recovery ------------------------------------------------------
    def recover(
        self, truncate: bool = True
    ) -> tuple[PropertyGraph, RecoveryReport]:
        """Load the newest valid snapshot and replay its WAL tail.

        With ``truncate=False`` the torn tail is left on disk (read-only
        openers must not write); the returned graph is identical either
        way.  Writable recovery (``truncate=True``) additionally sweeps
        orphaned ``*.tmp`` files (debris of a torn atomic snapshot
        write) and renames corrupt snapshots aside as
        ``*.quarantined`` - degrading to the newest older valid
        generation instead of re-tripping on the bad file forever.
        """
        report = RecoveryReport(data_dir=self.data_dir)
        if truncate:
            self._sweep_tmp(report)
        graph: PropertyGraph | None = None
        for generation in self.snapshot_generations():
            path = self.data_dir / snapshot_name(generation)
            try:
                graph, snap_gen = read_snapshot_with_generation(path)
            except SnapshotIOError as exc:
                # Transient read failure, not corruption: falling back
                # would fork history and later prune the newest
                # generation's data.  Abort and let the caller retry.
                raise RecoveryError(str(exc)) from exc
            except SnapshotError:
                report.corrupt_snapshots.append(path)
                continue
            # The filename is what the directory protocol keys on; the
            # embedded generation (snap_gen) is informational only.
            del snap_gen
            report.generation = generation
            report.snapshot_path = path
            break
        if graph is None:
            if report.corrupt_snapshots:
                raise RecoveryError(
                    f"every snapshot in {self.data_dir} is corrupt: "
                    + ", ".join(
                        p.name for p in report.corrupt_snapshots
                    )
                )
            graph = PropertyGraph(
                self.graph_name or self.data_dir.name or "graph"
            )
            report.generation = 0
        elif truncate:
            # Quarantine only once a valid fallback exists.  Renaming
            # eagerly would be destructive when *every* generation is
            # corrupt: the next open would find an empty directory and
            # silently start fresh instead of surfacing RecoveryError.
            for path in report.corrupt_snapshots:
                self._quarantine(path, report)

        self._replay_wal(graph, report, truncate)
        _RECOVERIES.inc()
        observe.EVENTS.emit(
            "recovery",
            data_dir=str(self.data_dir),
            generation=report.generation,
            replayed_ops=report.replayed_ops,
            truncated_bytes=report.truncated_bytes,
            quarantined=len(report.quarantined),
            removed_tmp=len(report.removed_tmp),
            writable=truncate,
        )
        return graph, report

    def _replay_wal(
        self,
        graph: PropertyGraph,
        report: RecoveryReport,
        truncate: bool,
    ) -> None:
        wal_path = self.data_dir / wal_name(report.generation)
        for generation in self.wal_generations():
            path = self.data_dir / wal_name(generation)
            if generation != report.generation:
                report.skipped_wals.append(path)
        if not wal_path.exists():
            return
        try:
            scan = read_wal(wal_path)
        except WalIOError as exc:
            # Transient read failure: abort rather than mistake an
            # unreadable log for crash debris and delete it.
            raise RecoveryError(str(exc)) from exc
        except WalError:
            # Unusable header: the log carries no applicable records.
            # Treat like a fully torn file - rewriting starts fresh.
            report.wal_path = wal_path
            report.truncated_bytes = wal_path.stat().st_size
            if truncate:
                wal_path.unlink()
            return
        if scan.generation != report.generation:
            report.skipped_wals.append(wal_path)
            return
        report.wal_path = wal_path
        report.replayed_ops = replay(graph, scan)
        report.truncated_bytes = scan.torn_bytes
        if truncate and scan.torn_bytes:
            faults.fire(FP_TRUNCATE)
            with open(wal_path, "r+b") as fh:
                fh.truncate(scan.valid_end)
                fh.flush()
                faults.retrying(lambda: os.fsync(fh.fileno()))

    # -- hygiene -------------------------------------------------------
    def _sweep_tmp(self, report: RecoveryReport) -> None:
        """Remove orphaned ``*.tmp`` debris from torn atomic writes.

        A crash between ``open(tmp)`` and ``os.replace`` leaves a
        partial file that no reader ever consults; sweeping it on the
        next writable open keeps the directory self-describing.  An
        unlink that fails is tolerated - the file is inert either way.
        """
        if not self.data_dir.is_dir():
            return
        for name in sorted(os.listdir(self.data_dir)):
            if not name.endswith(".tmp") or not is_store_artifact(name):
                continue
            path = self.data_dir / name
            try:
                faults.fire(FP_SWEEP)
                path.unlink()
            except OSError:
                continue
            report.removed_tmp.append(path)

    def _quarantine(self, path: Path, report: RecoveryReport) -> None:
        """Rename a corrupt snapshot aside as ``*.quarantined``.

        Keeps the bytes for forensics while guaranteeing the next open
        does not pay to re-validate (and re-reject) the same file.  A
        failed rename is tolerated: recovery already skipped the file.
        """
        try:
            faults.fire(FP_QUARANTINE)
            os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
        except OSError:
            return
        report.quarantined.append(path)
        observe.EVENTS.emit("quarantine", path=str(path))


def recover_graph(data_dir: str | Path) -> PropertyGraph:
    """Read-only convenience: the recovered graph, nothing persisted."""
    graph, _report = RecoveryManager(data_dir).recover(truncate=False)
    return graph
