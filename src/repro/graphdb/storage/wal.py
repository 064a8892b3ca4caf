"""Append-only write-ahead log for :class:`PropertyGraph` mutations.

File layout::

    header:  magic "RPGWAL01" (8) | version u16 | flags u16 |
             generation u64 | crc u32 (over the preceding 20 bytes)
    record:  length u32 | crc u32 (over payload) | payload
    payload: opcode u8 | opcode-specific fields (codec varints/values)

The ``generation`` ties a log to the snapshot it extends: recovery only
replays ``wal-<g>`` on top of ``snapshot-<g>``, so a stale log from an
older generation can never be double-applied after compaction.

Each record frames exactly one logical mutation.  The length + CRC
framing makes torn tails self-describing: replay stops at the first
record whose header is short, whose payload is short, or whose CRC
fails, and reports the byte offset of the last good record so the
caller can truncate the file there.

Transactions add BEGIN / COMMIT / ROLLBACK *framing records* (emitted
by :meth:`PropertyGraph.begin_transaction` and friends through the
same listener hook).  :func:`read_wal` resolves frames during the
scan: a frame's mutations only count once its COMMIT is on disk, a
ROLLBACK drops them, and a frame still open at end-of-log is an
uncommitted tail - reported (and truncated) exactly like a torn
record, so crash recovery lands on the pre-transaction state.

Appends are buffered and flushed in batches (``sync="batch"``, the
default: every ``batch_ops`` records or ``batch_bytes`` bytes, and on
:meth:`WriteAheadLog.flush` / :meth:`WriteAheadLog.close`).  ``"always"``
fsyncs every append (maximum durability, slowest) and ``"never"``
leaves flushing to the OS (fastest; a crash can lose the buffered
tail but never corrupts the prefix).
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import GraphError, StorageError
from repro.graphdb import faults, observe
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage.codec import (
    CodecError,
    read_props,
    read_str,
    read_uvarint,
    read_value,
    write_props,
    write_str,
    write_uvarint,
    write_value,
)

MAGIC = b"RPGWAL01"
FORMAT_VERSION = 1

#: Metric handles (see :mod:`repro.graphdb.observe`); an update while
#: the registry is disabled is a single flag check, same budget as a
#: disarmed failpoint.
_WAL_APPENDS = observe.REGISTRY.counter(
    "repro_wal_appends_total", "Records appended to the WAL."
)
_WAL_FLUSHED_BYTES = observe.REGISTRY.counter(
    "repro_wal_flushed_bytes_total", "Record bytes written by WAL flushes."
)
_WAL_POISONED = observe.REGISTRY.counter(
    "repro_wal_poisoned_total",
    "Times a WAL poisoned itself after an uncertain write.",
)
_WAL_FSYNC_SECONDS = observe.REGISTRY.histogram(
    "repro_wal_fsync_seconds", help="WAL fsync wall time."
)
_WAL_GROUP_COMMIT_BATCH = observe.REGISTRY.histogram(
    "repro_wal_group_commit_batch_size",
    buckets=observe.DEFAULT_SIZE_BUCKETS,
    help="Transaction commits made durable per group-commit fsync.",
)

#: Failpoints threaded through this module (see
#: :mod:`repro.graphdb.faults`); a disarmed hook is one dict probe.
FP_CREATE_WRITE = faults.REGISTRY.register("wal.create.write")
FP_CREATE_FSYNC = faults.REGISTRY.register("wal.create.fsync")
FP_DIR_FSYNC = faults.REGISTRY.register("wal.dir_fsync")
FP_FLUSH_WRITE = faults.REGISTRY.register("wal.flush.write")
FP_PRE_FSYNC = faults.REGISTRY.register("wal.append.pre_fsync")
FP_FLUSH_FSYNC = faults.REGISTRY.register("wal.flush.fsync")
FP_READ = faults.REGISTRY.register("wal.read")

_HEADER = struct.Struct("<8sHHQI")
_RECORD = struct.Struct("<II")

#: A single WAL record larger than this is treated as corruption.
MAX_RECORD_BYTES = 64 * 1024 * 1024

OP_ADD_VERTEX = 1
OP_ADD_EDGE = 2
OP_SET_PROPERTY = 3
OP_REMOVE_PROPERTY = 4
OP_REMOVE_EDGE = 5
OP_REMOVE_VERTEX = 6
OP_CREATE_INDEX = 7
#: Transaction framing records (payload is the bare opcode).  The
#: mutations between a BEGIN and its COMMIT form one atomic frame:
#: :func:`read_wal` only surfaces a frame's mutations once the COMMIT
#: record is seen, drops frames closed by a ROLLBACK, and treats a
#: frame still open at end-of-log as crash debris (truncated like a
#: torn record, so recovery lands on the pre-transaction state).
OP_TX_BEGIN = 8
OP_TX_COMMIT = 9
OP_TX_ROLLBACK = 10

#: Mutation name (the :class:`PropertyGraph` listener vocabulary)
#: to opcode and back.
OPCODE_OF = {
    "add_vertex": OP_ADD_VERTEX,
    "add_edge": OP_ADD_EDGE,
    "set_property": OP_SET_PROPERTY,
    "remove_property": OP_REMOVE_PROPERTY,
    "remove_edge": OP_REMOVE_EDGE,
    "remove_vertex": OP_REMOVE_VERTEX,
    "create_property_index": OP_CREATE_INDEX,
    "tx_begin": OP_TX_BEGIN,
    "tx_commit": OP_TX_COMMIT,
    "tx_rollback": OP_TX_ROLLBACK,
}
OP_NAME = {code: name for name, code in OPCODE_OF.items()}

#: Framing records: no payload beyond the opcode, never replayed.
TX_OPS = frozenset({"tx_begin", "tx_commit", "tx_rollback"})


class WalError(StorageError):
    """Raised for invalid WAL files or unsupported mutations."""


class WalIOError(WalError):
    """The log could not be *read* (transient I/O, permissions, ...).

    Distinct from header corruption: recovery must abort on I/O
    failures rather than treat the log as crash debris and discard it.
    """


class WalPoisonedError(WalError):
    """The log refused an append after an earlier uncertain write.

    Once a write or fsync fails mid-record the on-disk tail is in an
    unknown state; appending more records after it could make them
    unreachable (replay stops at the first tear), silently losing
    acknowledged data.  The only safe continuation is to reopen the
    store, which re-establishes the log's valid end.
    """


def fsync_dir(directory: Path, failpoint: str) -> None:
    """Make a file creation/rename durable by fsyncing its directory;
    ``failpoint`` is the caller's (``wal.dir_fsync`` or
    ``snapshot.dir_fsync``), fired before each attempt."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        faults.retrying(lambda: (faults.fire(failpoint), os.fsync(fd)))
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Mutation payload codec
# ----------------------------------------------------------------------
def encode_mutation(op: str, args: tuple) -> bytes:
    """Encode one listener event ``(op, args)`` into a record payload."""
    try:
        opcode = OPCODE_OF[op]
    except KeyError:
        raise WalError(f"unsupported mutation {op!r}") from None
    buf = bytearray((opcode,))
    if opcode == OP_ADD_VERTEX:
        vid, labels, props = args
        write_uvarint(buf, vid)
        ordered = sorted(labels)
        write_uvarint(buf, len(ordered))
        for label in ordered:
            write_str(buf, label)
        write_props(buf, props)
    elif opcode == OP_ADD_EDGE:
        eid, src, dst, label, props = args
        write_uvarint(buf, eid)
        write_uvarint(buf, src)
        write_uvarint(buf, dst)
        write_str(buf, label)
        write_props(buf, props)
    elif opcode == OP_SET_PROPERTY:
        vid, name, value = args
        write_uvarint(buf, vid)
        write_str(buf, name)
        write_value(buf, value)
    elif opcode == OP_REMOVE_PROPERTY:
        vid, name = args
        write_uvarint(buf, vid)
        write_str(buf, name)
    elif opcode in (OP_REMOVE_EDGE, OP_REMOVE_VERTEX):
        write_uvarint(buf, args[0])
    elif opcode == OP_CREATE_INDEX:
        label, prop = args
        write_str(buf, label)
        write_str(buf, prop)
    # else: transaction framing - the opcode byte is the whole payload
    return bytes(buf)


def decode_mutation(payload: bytes) -> tuple[str, tuple]:
    """Inverse of :func:`encode_mutation`; raises :class:`CodecError`."""
    if not payload:
        raise CodecError("empty WAL payload")
    opcode = payload[0]
    pos = 1
    if opcode == OP_ADD_VERTEX:
        vid, pos = read_uvarint(payload, pos)
        nlabels, pos = read_uvarint(payload, pos)
        labels = []
        for _ in range(nlabels):
            label, pos = read_str(payload, pos)
            labels.append(label)
        props, pos = read_props(payload, pos)
        return "add_vertex", (vid, frozenset(labels), props)
    if opcode == OP_ADD_EDGE:
        eid, pos = read_uvarint(payload, pos)
        src, pos = read_uvarint(payload, pos)
        dst, pos = read_uvarint(payload, pos)
        label, pos = read_str(payload, pos)
        props, pos = read_props(payload, pos)
        return "add_edge", (eid, src, dst, label, props)
    if opcode == OP_SET_PROPERTY:
        vid, pos = read_uvarint(payload, pos)
        name, pos = read_str(payload, pos)
        value, pos = read_value(payload, pos)
        return "set_property", (vid, name, value)
    if opcode == OP_REMOVE_PROPERTY:
        vid, pos = read_uvarint(payload, pos)
        name, pos = read_str(payload, pos)
        return "remove_property", (vid, name)
    if opcode == OP_REMOVE_EDGE:
        eid, pos = read_uvarint(payload, pos)
        return "remove_edge", (eid,)
    if opcode == OP_REMOVE_VERTEX:
        vid, pos = read_uvarint(payload, pos)
        return "remove_vertex", (vid,)
    if opcode == OP_CREATE_INDEX:
        label, pos = read_str(payload, pos)
        prop, pos = read_str(payload, pos)
        return "create_property_index", (label, prop)
    if opcode in (OP_TX_BEGIN, OP_TX_COMMIT, OP_TX_ROLLBACK):
        return OP_NAME[opcode], ()
    raise CodecError(f"unknown WAL opcode {opcode}")


def apply_mutation(graph: PropertyGraph, op: str, args: tuple) -> None:
    """Replay one decoded mutation onto ``graph``.

    ``add_vertex`` / ``add_edge`` verify that the graph assigns the id
    the log recorded - a mismatch means the log is being replayed on
    the wrong base state, which is an error, not a torn tail.
    """
    if op == "add_vertex":
        vid, labels, props = args
        got = graph.add_vertex(labels, props)
        if got != vid:
            raise WalError(
                f"replayed add_vertex produced vid {got}, log says {vid}"
            )
    elif op == "add_edge":
        eid, src, dst, label, props = args
        got = graph.add_edge(src, dst, label, props)
        if got != eid:
            raise WalError(
                f"replayed add_edge produced eid {got}, log says {eid}"
            )
    elif op == "set_property":
        graph.set_property(*args)
    elif op == "remove_property":
        graph.remove_property(*args)
    elif op == "remove_edge":
        eid = args[0]
        # remove_vertex logs its cascaded edge removals individually,
        # so a replayed remove_edge may find the edge already gone.
        labels = graph._e_label
        if eid < len(labels) and labels[eid] >= 0:
            graph.remove_edge(eid)
    elif op == "remove_vertex":
        graph.remove_vertex(args[0])
    elif op == "create_property_index":
        graph.create_property_index(*args)
    elif op in TX_OPS:
        # Framing records are resolved by read_wal (frames are applied
        # or dropped wholesale); one reaching replay is a logic error.
        raise WalError(f"framing record {op!r} cannot be replayed")
    else:
        raise WalError(f"unsupported mutation {op!r}")


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Appender for one generation's log file."""

    def __init__(
        self,
        path: str | Path,
        generation: int,
        sync: str = "batch",
        batch_ops: int = 64,
        batch_bytes: int = 256 * 1024,
    ):
        if sync not in ("always", "batch", "never"):
            raise WalError(f"unknown sync mode {sync!r}")
        self.path = Path(path)
        self.generation = generation
        self.sync = sync
        self.batch_ops = max(1, batch_ops)
        self.batch_bytes = max(1, batch_bytes)
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self.records_appended = 0
        #: Buffer lock: guards the pending-record list so an appender
        #: on the event-loop thread and a group-commit flush running in
        #: an executor thread never race on the batch swap.  Held only
        #: for list manipulation, never across I/O.
        self._buffer_lock = threading.Lock()
        #: Write lock: serializes whole flushes (write + fsync), so two
        #: overlapping group commits cannot interleave their batches on
        #: disk.  Appends do NOT take it - buffering stays wait-free
        #: while an fsync is in flight.
        self._write_lock = threading.Lock()
        #: Set after an uncertain write failure; see
        #: :class:`WalPoisonedError`.
        self._failed = False
        new = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "ab")
        if new:
            header = bytearray(
                _HEADER.pack(MAGIC, FORMAT_VERSION, 0, generation, 0)
            )
            header[-4:] = struct.pack("<I", zlib.crc32(bytes(header[:-4])))
            try:
                faults.write(FP_CREATE_WRITE, self._fh, bytes(header))
                self._fh.flush()
                faults.retrying(
                    lambda: (
                        faults.fire(FP_CREATE_FSYNC),
                        os.fsync(self._fh.fileno()),
                    )
                )
            except BaseException:
                self._failed = True
                _WAL_POISONED.inc()
                observe.EVENTS.emit(
                    "wal_poisoned",
                    path=str(self.path),
                    generation=generation,
                )
                raise
            # The file itself must survive a crash, not just its
            # contents - otherwise fsynced records vanish with the
            # unflushed directory entry.
            fsync_dir(self.path.parent, FP_DIR_FSYNC)

    # -- appends -------------------------------------------------------
    def append(self, op: str, args: tuple) -> None:
        if self._failed:
            raise WalPoisonedError(
                f"WAL {self.path.name} is poisoned after an earlier "
                "I/O failure; reopen the store to resume writing"
            )
        payload = encode_mutation(op, args)
        record = _RECORD.pack(len(payload), zlib.crc32(payload)) + payload
        with self._buffer_lock:
            self._pending.append(record)
            self._pending_bytes += len(record)
            self.records_appended += 1
            pending_records = len(self._pending)
            pending_bytes = self._pending_bytes
        _WAL_APPENDS.inc()
        if self.sync == "always":
            self.flush()
        elif self.sync == "batch" and (
            pending_records >= self.batch_ops
            or pending_bytes >= self.batch_bytes
        ):
            self.flush()

    def flush(self, fsync: bool | None = None) -> None:
        """Write buffered records; fsync unless the mode is ``never``.

        Any failure past this point leaves the on-disk tail in an
        unknown state (a record may be half-written, an fsync may or
        may not have landed), so the log poisons itself: further
        appends raise :class:`WalPoisonedError` until the store is
        reopened and recovery re-establishes the valid end.  Transient
        ``EINTR``/``EAGAIN`` fsync failures are retried with bounded
        backoff before poisoning.

        Thread contract: whole flushes serialize on the write lock, and
        the pending batch is detached under the buffer lock, so a flush
        running in an executor thread (the server's group commit) only
        ever covers records fully appended before its swap - later
        appends land in the next batch.
        """
        with self._write_lock:
            if self._failed:
                raise WalPoisonedError(
                    f"WAL {self.path.name} is poisoned after an earlier "
                    "I/O failure; reopen the store to resume writing"
                )
            try:
                # Detach *before* writing: a torn write must not be
                # re-attempted after the same bytes partially landed.
                with self._buffer_lock:
                    batch = b"".join(self._pending)
                    self._pending.clear()
                    self._pending_bytes = 0
                if batch:
                    faults.write(FP_FLUSH_WRITE, self._fh, batch)
                    _WAL_FLUSHED_BYTES.inc(len(batch))
                self._fh.flush()
                if fsync is None:
                    fsync = self.sync != "never"
                if fsync:
                    faults.fire(FP_PRE_FSYNC)
                    timing = observe.REGISTRY.enabled
                    started = time.perf_counter() if timing else 0.0
                    faults.retrying(
                        lambda: (
                            faults.fire(FP_FLUSH_FSYNC),
                            os.fsync(self._fh.fileno()),
                        )
                    )
                    if timing:
                        _WAL_FSYNC_SECONDS.observe(
                            time.perf_counter() - started
                        )
            except BaseException:
                self._failed = True
                _WAL_POISONED.inc()
                observe.EVENTS.emit(
                    "wal_poisoned",
                    path=str(self.path),
                    generation=self.generation,
                )
                raise

    def group_commit(self, commits: int) -> None:
        """One durable fsync covering ``commits`` acknowledged commits.

        The transaction commits themselves were already appended (WAL
        records buffer in memory until a flush); this forces the whole
        batch to disk with a single fsync and records how many commits
        it amortized over.  One caller at a time actually syncs (the
        write lock serializes); concurrent callers simply ride behind
        it, which is exactly the group-commit contract the server's
        writer task relies on.
        """
        self.flush(fsync=True)
        if commits > 0:
            _WAL_GROUP_COMMIT_BATCH.observe(commits)

    @property
    def failed(self) -> bool:
        return self._failed

    def abandon(self) -> None:
        """Drop buffered records and refuse all further writes.

        Used when the process is going down *as if* killed (the
        server's fatal-crash path): nothing buffered may be flushed on
        the way out, because a real ``kill -9`` would not have flushed
        it either - recovery must re-establish the valid end of the
        log from what actually reached disk.
        """
        self._failed = True

    def size_bytes(self) -> int:
        """Current on-disk size plus the buffered tail."""
        return self._fh.tell() + self._pending_bytes

    def close(self) -> None:
        if self._fh.closed:
            return
        if self._failed:
            # Nothing buffered can be trusted onto the torn tail; the
            # file handle is released as-is and recovery will truncate.
            self._fh.close()
            return
        self.flush()
        self._fh.close()

    def __enter__(self) -> WriteAheadLog:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
@dataclass
class WalScan:
    """Result of scanning a log file up to its last durable record.

    ``records`` holds only *applicable* mutations: transaction frames
    are resolved during the scan - a committed frame's mutations
    appear inline (framing records themselves never do), a rolled-back
    frame's are dropped, and a frame left open at end-of-log is
    treated as an uncommitted tail that never became durable.
    """

    generation: int
    records: list[tuple[str, tuple]]
    #: Byte offset just past the last durable record; anything beyond
    #: it (torn records, an uncommitted transaction frame) is a tail
    #: that recovery truncates.
    valid_end: int
    file_size: int

    @property
    def torn_bytes(self) -> int:
        return self.file_size - self.valid_end


def read_wal(path: str | Path) -> WalScan:
    """Scan a WAL, collecting every valid record before the first tear.

    Raises :class:`WalError` only when the *header* is unusable (wrong
    magic or version, or too short to have been created by
    :class:`WriteAheadLog` at all); damage after the header is normal
    crash debris and is reported via :attr:`WalScan.valid_end`.
    """
    path = Path(path)
    try:
        faults.fire(FP_READ)
        data = path.read_bytes()
    except OSError as exc:
        raise WalIOError(f"cannot read WAL {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise WalError(f"WAL {path} too short for header")
    magic, version, _flags, generation, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WalError(f"{path} is not a WAL (bad magic)")
    if version != FORMAT_VERSION:
        raise WalError(f"WAL {path} has unsupported version {version}")
    if zlib.crc32(data[:_HEADER.size - 4]) != crc:
        raise WalError(f"WAL {path}: header checksum")

    records: list[tuple[str, tuple]] = []
    pos = _HEADER.size
    valid_end = pos
    size = len(data)
    #: Mutations of the currently-open transaction frame (None when
    #: outside a frame).  valid_end deliberately stays put while a
    #: frame is open: only its COMMIT/ROLLBACK record makes the frame
    #: durable, so a crash inside the frame truncates it wholesale.
    frame: list[tuple[str, tuple]] | None = None
    while pos + _RECORD.size <= size:
        length, crc = _RECORD.unpack_from(data, pos)
        body_start = pos + _RECORD.size
        body_end = body_start + length
        if length > MAX_RECORD_BYTES or body_end > size:
            break  # torn tail
        payload = data[body_start:body_end]
        if zlib.crc32(payload) != crc:
            break
        try:
            op, args = decode_mutation(payload)
        except CodecError:
            break
        pos = body_end
        if op == "tx_begin":
            if frame is not None:
                break  # nested BEGIN: corrupt framing
            frame = []
        elif op == "tx_commit":
            if frame is None:
                break  # COMMIT without BEGIN: corrupt framing
            records.extend(frame)
            frame = None
            valid_end = pos
        elif op == "tx_rollback":
            if frame is None:
                break
            frame = None
            valid_end = pos
        elif frame is not None:
            frame.append((op, args))
        else:
            records.append((op, args))
            valid_end = pos
    return WalScan(
        generation=generation,
        records=records,
        valid_end=valid_end,
        file_size=size,
    )


def replay(graph: PropertyGraph, scan: WalScan) -> int:
    """Apply every scanned record to ``graph``; returns the op count."""
    for op, args in scan.records:
        try:
            apply_mutation(graph, op, args)
        except GraphError as exc:
            raise WalError(
                f"WAL replay failed on {op}{args!r}: {exc}"
            ) from exc
    return len(scan.records)
