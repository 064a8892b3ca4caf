"""Asyncio graph server: many readers, one group-committing writer.

:class:`GraphServer` exposes one :class:`~repro.graphdb.api.database.
Database` over TCP, speaking the framed protocol in
:mod:`repro.graphdb.server.protocol`.  The concurrency model matches
the engine underneath:

* **Readers are epoch-pinned (MVCC-style).**  A ``RUN`` executes on
  the event loop without yielding, pinned to the graph's mutation
  epoch at that instant, and buffers its rows server-side; the first
  client-paced batch rides on the ``RUN`` response - its ``RECORD``
  frames, then one ``SUCCESS`` holding the columns and epoch with the
  batch's meta, so a result that fits is one round trip of two
  frames - and ``PULL`` streams the rest.  Every row of a
  result therefore comes from exactly one epoch, no matter how many
  writes commit while the client is still pulling - the buffer *is*
  the snapshot.  Readers never take a lock and never block each
  other.

* **Writes serialize through the writer gate.**  ``BEGIN`` acquires
  the server's single writer slot (the engine supports one open
  transaction); ``MUTATE`` applies through the graph's undo log and
  WAL listeners; ``COMMIT`` commits in memory, releases the gate, and
  then *awaits group commit*: concurrent commits that queued while an
  fsync was in flight are made durable by one shared fsync
  (:meth:`~repro.graphdb.storage.store.GraphStore.sync_group`), and
  their acknowledgements resolve together.  The fsync runs in an
  executor thread, so readers keep executing while the disk syncs.

* **Reads drain past open transactions.**  A ``RUN`` from a
  connection that does not own the writer gate waits until no
  transaction is open, so uncommitted state is never visible to other
  sessions (the owner itself reads its own writes, like any
  same-connection read).

Backpressure is layered: past ``max_connections`` new sockets are
refused with an ERROR frame before handshake; a response is
assembled whole (all of it, or exactly one ERROR), written once and
followed by one ``drain()``, so a slow consumer pauses its own stream
with at most one client-paced batch in the transport buffer; and each
connection is served strictly request-by-request, so a client cannot
pipeline the server into unbounded buffering.  Idle connections are
reaped after ``idle_timeout``; per-query budgets clamp onto the driver's
:class:`~repro.graphdb.query.executor.ExecutionGuard` (server-side
``query_timeout`` / ``max_rows`` bound whatever the client asks for).

``server.accept`` / ``server.read`` / ``server.write`` failpoints
fire at the corresponding I/O boundaries (``server.write`` per frame,
before the response's first byte); an injected
:class:`~repro.graphdb.faults.SimulatedCrash` takes the whole server
down *without* flushing the WAL - exactly like ``kill -9`` - which is
what the kill-mid-commit torture tests exercise.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.exceptions import (
    GraphError,
    ReproError,
    StorageError,
    TransactionError,
)
from repro.graphdb import faults, observe
from repro.graphdb.server import protocol as wire
from repro.graphdb.server.http import handle_http_client

FP_ACCEPT = faults.REGISTRY.register("server.accept")
FP_READ = faults.REGISTRY.register("server.read")
FP_WRITE = faults.REGISTRY.register("server.write")

_CONNECTIONS = observe.REGISTRY.gauge(
    "repro_server_connections", "Currently open client connections."
)
_CONNECTIONS_TOTAL = observe.REGISTRY.counter(
    "repro_server_connections_total", "Client connections accepted."
)
_REJECTED = observe.REGISTRY.counter(
    "repro_server_rejected_total",
    "Connections refused at the capacity limit (or by a fault).",
)
_REQUESTS = observe.REGISTRY.labeled_counter(
    "repro_server_requests_total",
    "type",
    "Requests handled, by message type.",
)
_BYTES_READ = observe.REGISTRY.counter(
    "repro_server_bytes_read_total", "Frame bytes read from clients."
)
_BYTES_WRITTEN = observe.REGISTRY.counter(
    "repro_server_bytes_written_total", "Frame bytes written to clients."
)
_REQUEST_SECONDS = observe.REGISTRY.histogram(
    "repro_server_request_seconds",
    help="Request wall time, frame decoded to response written.",
)


@dataclass
class ServerConfig:
    """Tunables for one :class:`GraphServer`."""

    host: str = "127.0.0.1"
    port: int = wire.DEFAULT_PORT
    #: Port for the HTTP sidecar (``/health`` + ``/metrics``); ``None``
    #: disables it, 0 picks an ephemeral port.
    http_port: int | None = None
    readonly: bool = False
    max_connections: int = 64
    #: Seconds a connection may sit between frames before it is reaped.
    idle_timeout: float | None = None
    #: Server-side ceiling on per-query wall time; clamps client asks.
    query_timeout: float | None = None
    #: Server-side ceiling on rows a query may produce.
    max_rows: int | None = None
    #: Seconds the group committer lingers collecting more commits
    #: before fsyncing.  0 still batches whatever queued during the
    #: previous fsync; raising it trades commit latency for batch size.
    group_window: float = 0.0
    #: Upper bound on one PULL batch (protects the response buffer).
    pull_batch_limit: int = 65536


class GroupCommitter:
    """Batches concurrent COMMIT acknowledgements into shared fsyncs.

    Commits register a future and, if no flusher is pending, start
    one.  The flusher yields once (plus the configured window) so
    every commit that is already runnable can join the batch, then
    snapshots the waiter list, syncs the store once in an executor
    thread, and resolves the whole batch together.  Commits arriving
    mid-fsync start the next batch - the classic two-lane group
    commit, sized by whatever queued while the disk was busy.
    """

    def __init__(self, store, window: float = 0.0, on_crash=None):
        self._store = store
        self._window = window
        self._on_crash = on_crash
        self._waiters: list[asyncio.Future] = []
        self._task: asyncio.Task | None = None
        #: Commits acknowledged / fsyncs performed (for /health).
        self.commits = 0
        self.flushes = 0

    def commit(self) -> asyncio.Future:
        """Register one committed transaction; resolves when durable."""
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        if self._store is None:
            fut.set_result(None)  # in-memory database: nothing to sync
            return fut
        self._waiters.append(fut)
        if self._task is None:
            self._task = loop.create_task(self._flush_batch())
        return fut

    async def _flush_batch(self) -> None:
        loop = asyncio.get_running_loop()
        if self._window > 0:
            await asyncio.sleep(self._window)
        else:
            await asyncio.sleep(0)
        waiters, self._waiters = self._waiters, []
        # Reset *before* the blocking sync: commits landing while the
        # fsync is in flight must start the next batch, not miss it.
        self._task = None
        if not waiters:
            return
        try:
            await loop.run_in_executor(
                None, self._store.sync_group, len(waiters)
            )
        except Exception as exc:
            for fut in waiters:
                if not fut.done():
                    fut.set_exception(
                        StorageError(f"group commit failed: {exc}")
                    )
            return
        except BaseException as exc:
            # SimulatedCrash (or loop teardown): the process is dying
            # mid-fsync.  Fail the waiters and route the crash to the
            # server's fatal path (which abandons the store).
            for fut in waiters:
                if not fut.done():
                    fut.set_exception(
                        StorageError("server crashed during commit fsync")
                    )
            if self._on_crash is not None:
                self._on_crash(exc)
                return
            raise exc
        self.commits += len(waiters)
        self.flushes += 1
        for fut in waiters:
            if not fut.done():
                fut.set_result(None)


class _ServerResult:
    """One executed query, buffered for PULL-paced streaming: the
    cursor's chunks joined into one list per result column."""

    __slots__ = ("columns", "meta", "pos")

    def __init__(self, columns, meta):
        self.columns = columns
        self.meta = meta
        self.pos = 0


class _ClientConnection:
    """One client socket's session, request loop, and tx state."""

    def __init__(self, server: "GraphServer", reader, writer):
        self._server = server
        self._reader = reader
        self._writer = writer
        self._session = server.database.session()
        self._result: _ServerResult | None = None
        self._in_tx = False
        self._ready = False  # becomes True after HELLO

    # -- transport -----------------------------------------------------
    async def _read_frame(self) -> bytes:
        timeout = self._server.config.idle_timeout
        if timeout is not None:
            header = await asyncio.wait_for(
                self._reader.readexactly(wire.FRAME_HEADER_BYTES),
                timeout=timeout,
            )
        else:
            header = await self._reader.readexactly(
                wire.FRAME_HEADER_BYTES
            )
        faults.fire(FP_READ)
        payload = await self._reader.readexactly(
            wire.frame_length(header)
        )
        _BYTES_READ.inc(len(header) + len(payload))
        return wire.check_frame(header, payload)

    async def _send(self, *payloads: bytes) -> None:
        # One response: every frame is built before the first byte
        # goes out, so a failure here leaves nothing half-sent.
        frames = []
        for payload in payloads:
            faults.fire(FP_WRITE)
            frames.append(wire.pack_frame(payload))
        data = b"".join(frames)
        self._writer.write(data)
        _BYTES_WRITTEN.inc(len(data))
        # Flow control: a slow consumer stalls its own stream here
        # instead of growing the transport buffer without bound.
        await self._writer.drain()

    async def _send_error(self, exc: BaseException) -> None:
        await self._send(
            wire.encode_error(wire.error_code(exc), str(exc))
        )

    # -- request loop --------------------------------------------------
    async def serve(self) -> None:
        try:
            while True:
                try:
                    payload = await self._read_frame()
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    ConnectionError,
                    OSError,
                ):
                    return  # disconnect or idle reap
                started = time.perf_counter()
                try:
                    msg_type, fields = wire.decode_message(payload)
                except wire.ProtocolError as exc:
                    await self._send_error(exc)
                    return
                _REQUESTS.inc(wire.MSG_NAMES[msg_type])
                if msg_type == wire.MSG_GOODBYE:
                    return
                try:
                    await self._dispatch(msg_type, fields)
                except ReproError as exc:
                    # Driver-level failure: the connection survives,
                    # the result the request was about does not.
                    self._result = None
                    try:
                        await self._send_error(exc)
                    except (ConnectionError, OSError):
                        return
                except (ConnectionError, OSError):
                    return
                finally:
                    _REQUEST_SECONDS.observe(
                        time.perf_counter() - started
                    )
        except faults.SimulatedCrash as exc:
            self._server.crash(exc)
        finally:
            self._cleanup()

    async def _dispatch(self, msg_type: int, fields: dict) -> None:
        if msg_type == wire.MSG_HELLO:
            await self._handle_hello(fields)
            return
        if not self._ready:
            raise wire.ProtocolError("expected HELLO first")
        if msg_type == wire.MSG_RUN:
            await self._handle_run(**fields)
        elif msg_type == wire.MSG_PULL:
            await self._send(*self._pull(fields["n"]))
        elif msg_type == wire.MSG_DISCARD:
            await self._handle_discard()
        elif msg_type == wire.MSG_BEGIN:
            await self._handle_begin()
        elif msg_type == wire.MSG_MUTATE:
            await self._handle_mutate(fields["op"], fields["args"])
        elif msg_type == wire.MSG_COMMIT:
            await self._handle_commit()
        elif msg_type == wire.MSG_ROLLBACK:
            await self._handle_rollback()
        else:
            raise wire.ProtocolError(
                f"unexpected message {wire.MSG_NAMES[msg_type]!r}"
            )

    # -- handshake -----------------------------------------------------
    async def _handle_hello(self, fields: dict) -> None:
        if self._ready:
            raise wire.ProtocolError("duplicate HELLO")
        if fields["version"] != wire.PROTOCOL_VERSION:
            await self._send_error(
                wire.ProtocolError(
                    f"protocol version {fields['version']} unsupported "
                    f"(server speaks {wire.PROTOCOL_VERSION})"
                )
            )
            raise ConnectionError("version mismatch")
        self._ready = True
        server = self._server
        graph = server.database.graph
        await self._send(wire.encode_success({
            "server": "repro",
            "protocol": wire.PROTOCOL_VERSION,
            "graph": graph.name,
            "readonly": server.readonly,
            "generation": server.generation,
            "epoch": graph.mutation_epoch,
        }))

    # -- queries -------------------------------------------------------
    async def _handle_run(
        self, query: str, params: dict, options: dict
    ) -> None:
        self._result = None  # an unfinished result is implicitly dropped
        server = self._server
        if not self._in_tx:
            # Drain past any open transaction: uncommitted state is
            # only visible to the connection that owns it.
            while server._tx_owner is not None:
                await server._tx_idle.wait()
        timeout = _clamp(
            options.get("timeout"), server.config.query_timeout
        )
        max_rows = _clamp(
            options.get("max_rows"), server.config.max_rows
        )
        pull = options.get("pull")
        if pull is not None and (not isinstance(pull, int) or pull < 1):
            raise wire.ProtocolError("RUN pull must be a positive int")
        explain = options.get("explain")
        if explain:
            text = self._session.explain(
                query, analyze=explain >= 2, parameters=params or None
            )
            await self._send(wire.encode_success({"plan": text}))
            return
        graph = server.database.graph
        # The epoch pin: execution happens synchronously on the loop
        # (no awaits below until the rows are buffered), so every row
        # belongs to this epoch by construction.
        epoch = graph.mutation_epoch
        started = time.perf_counter()
        result = self._session.run(
            query, params, timeout=timeout, max_rows=max_rows
        )
        columns = [[] for _ in result.keys()]
        for _, chunk in result.batches():
            if len(chunk) != len(columns):
                raise wire.ProtocolError(
                    f"chunk width {len(chunk)}, result width {len(columns)}"
                )
            for column, part in zip(columns, chunk):
                column += part
        summary = result.consume()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        meta = {
            "rows": summary.rows,
            "epoch": epoch,
            "mode": summary.mode,
            "fallback_reason": summary.fallback_reason,
            "latency_ms": summary.latency_ms,
            "elapsed_ms": elapsed_ms,
            "plan_digest": summary.plan_digest,
        }
        self._result = _ServerResult(columns, meta)
        head = {
            "columns": summary.columns, "epoch": epoch, "mode": summary.mode,
        }
        if pull:
            await self._send(*self._pull(pull, head))
        else:
            await self._send(wire.encode_success({**head, "has_more": True}))

    def _pull(self, n: int, head: dict | None = None) -> list[bytes]:
        """The payloads answering one pull: the next ``n`` rows as
        RECORD batches, then one SUCCESS saying whether more remain -
        with ``head`` merged in when the pull rides on its RUN."""
        result = self._result
        if result is None:
            raise wire.ProtocolError("PULL without an open result")
        start, total = result.pos, result.meta["rows"]
        n = min(n, self._server.config.pull_batch_limit)
        end = min(start + n, total)
        payloads = wire.encode_chunk(
            end - start, [column[start:end] for column in result.columns]
        )
        result.pos = end
        if end < total:
            meta = {"has_more": True}
        else:
            self._result = None
            meta = {"has_more": False, **result.meta}
        payloads.append(wire.encode_success({**(head or {}), **meta}))
        return payloads

    async def _handle_discard(self) -> None:
        result = self._result
        if result is None:
            raise wire.ProtocolError("DISCARD without an open result")
        self._result = None
        await self._send(wire.encode_success(
            {"has_more": False, **result.meta}
        ))

    # -- transactions --------------------------------------------------
    async def _handle_begin(self) -> None:
        server = self._server
        if server.readonly:
            raise TransactionError(
                "server is read-only; writes are rejected"
            )
        if self._in_tx:
            raise TransactionError(
                "this connection already has an open transaction"
            )
        await server._acquire_writer(self)
        try:
            server.database.graph.begin_transaction()
        except BaseException:
            server._release_writer(self)
            raise
        self._in_tx = True
        await self._send(wire.encode_success({}))

    async def _handle_mutate(self, op: str, args: list) -> None:
        if not self._in_tx:
            raise TransactionError(
                f"mutation {op!r} outside a transaction (send BEGIN)"
            )
        graph = self._server.database.graph
        if op == "add_vertex":
            labels, props = args
            new_id = graph.add_vertex(labels, props or {})
        elif op == "add_edge":
            src, dst, label, props = args
            new_id = graph.add_edge(src, dst, label, props or {})
        else:
            getattr(graph, op)(*args)
            new_id = None
        meta = {} if new_id is None else {"id": new_id}
        await self._send(wire.encode_success(meta))

    async def _handle_commit(self) -> None:
        if not self._in_tx:
            raise TransactionError("COMMIT without an open transaction")
        server = self._server
        graph = server.database.graph
        graph.commit_transaction()
        self._in_tx = False
        # Release the gate *before* awaiting durability: the next
        # writer's mutations append behind this commit's records, and
        # its COMMIT joins the next fsync batch - that overlap is the
        # whole point of group commit.
        server._release_writer(self)
        await server.committer.commit()
        await self._send(wire.encode_success({}))

    async def _handle_rollback(self) -> None:
        if not self._in_tx:
            raise TransactionError(
                "ROLLBACK without an open transaction"
            )
        server = self._server
        server.database.graph.rollback_transaction()
        self._in_tx = False
        server._release_writer(self)
        await self._send(wire.encode_success({}))

    # -- teardown ------------------------------------------------------
    def _cleanup(self) -> None:
        if self._in_tx:
            # The client vanished mid-transaction: its uncommitted
            # work is discarded, exactly like a driver disconnect.
            try:
                self._server.database.graph.rollback_transaction()
            except ReproError:  # pragma: no cover - defensive
                pass
            self._in_tx = False
            self._server._release_writer(self)
        self._result = None
        try:
            self._session.close()
        except ReproError:  # pragma: no cover - defensive
            pass
        self._writer.close()


def _clamp(requested, ceiling):
    """The tighter of a client ask and a server ceiling (None-aware)."""
    if requested is None:
        return ceiling
    if ceiling is None:
        return requested
    return min(requested, ceiling)


class GraphServer:
    """One database served over the wire protocol (plus HTTP sidecar)."""

    def __init__(self, database, config: ServerConfig | None = None):
        self.database = database
        self.config = config or ServerConfig()
        self.readonly = self.config.readonly or getattr(
            database, "readonly", False
        )
        self.committer = GroupCommitter(
            None if self.readonly else database.store,
            window=self.config.group_window,
            on_crash=self.crash,
        )
        self.address: tuple[str, int] | None = None
        self.http_address: tuple[str, int] | None = None
        self._connections: set[_ClientConnection] = set()
        self._tcp_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._fatal: BaseException | None = None
        self._tx_owner: _ClientConnection | None = None
        self._tx_lock: asyncio.Lock | None = None
        self._tx_idle: asyncio.Event | None = None

    @property
    def generation(self) -> int:
        store = self.database.store
        return store.generation if store is not None else 0

    @property
    def connection_count(self) -> int:
        return len(self._connections)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener(s); returns once accepting."""
        config = self.config
        self._stop_event = asyncio.Event()
        self._tx_lock = asyncio.Lock()
        self._tx_idle = asyncio.Event()
        self._tx_idle.set()
        self._tcp_server = await asyncio.start_server(
            self._accept, config.host, config.port
        )
        self.address = self._tcp_server.sockets[0].getsockname()[:2]
        if config.http_port is not None:
            self._http_server = await asyncio.start_server(
                lambda r, w: handle_http_client(self, r, w),
                config.host,
                config.http_port,
            )
            self.http_address = (
                self._http_server.sockets[0].getsockname()[:2]
            )
        observe.EVENTS.emit(
            "server_started",
            address=list(self.address),
            readonly=self.readonly,
            max_connections=config.max_connections,
        )

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_stop`; re-raises a fatal crash."""
        assert self._stop_event is not None, "call start() first"
        await self._stop_event.wait()
        await self._shutdown()
        if self._fatal is not None:
            raise self._fatal

    def request_stop(self) -> None:
        """Ask the server to shut down cleanly (threadsafe via
        ``loop.call_soon_threadsafe``)."""
        if self._stop_event is not None:
            self._stop_event.set()

    def crash(self, exc: BaseException) -> None:
        """Fatal path: go down *without* flushing, like ``kill -9``."""
        if self._fatal is None:
            self._fatal = exc
        if self._stop_event is not None:
            self._stop_event.set()

    async def _shutdown(self) -> None:
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        for conn in list(self._connections):
            conn._writer.close()
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
        if self._http_server is not None:
            await self._http_server.wait_closed()
        store = self.database.store
        if self._fatal is not None:
            # Crash semantics: abandon the store so nothing buffered
            # gets flushed on the way out (recovery re-validates).
            if store is not None:
                store.abandon()
        else:
            self.database.close()
        observe.EVENTS.emit(
            "server_stopped", crashed=self._fatal is not None
        )

    # ------------------------------------------------------------------
    # Writer gate
    # ------------------------------------------------------------------
    async def _acquire_writer(self, conn: _ClientConnection) -> None:
        await self._tx_lock.acquire()
        self._tx_owner = conn
        self._tx_idle.clear()

    def _release_writer(self, conn: _ClientConnection) -> None:
        if self._tx_owner is conn:
            self._tx_owner = None
            self._tx_idle.set()
            self._tx_lock.release()

    # ------------------------------------------------------------------
    # Accept path
    # ------------------------------------------------------------------
    async def _accept(self, reader, writer) -> None:
        try:
            faults.fire(FP_ACCEPT)
        except faults.SimulatedCrash as exc:
            self.crash(exc)
            writer.close()
            return
        except Exception:
            _REJECTED.inc()
            writer.close()
            return
        if len(self._connections) >= self.config.max_connections:
            # Backpressure at the front door: refuse loudly rather
            # than queueing reads we cannot serve.
            _REJECTED.inc()
            try:
                writer.write(wire.pack_frame(wire.encode_error(
                    "GraphError",
                    f"server at connection capacity "
                    f"({self.config.max_connections})",
                )))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        conn = _ClientConnection(self, reader, writer)
        self._connections.add(conn)
        _CONNECTIONS_TOTAL.inc()
        _CONNECTIONS.set(len(self._connections))
        try:
            await conn.serve()
        finally:
            self._connections.discard(conn)
            _CONNECTIONS.set(len(self._connections))
