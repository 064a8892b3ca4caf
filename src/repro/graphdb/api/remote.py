"""Remote driver: the ``connect("repro://host:port")`` client half.

Presents the same Database / Session / Result / Transaction surface as
the in-process driver, backed by one TCP connection per session
speaking the framed protocol in :mod:`repro.graphdb.server.protocol`.
Rows stream in batches of ``fetch_size``: the first arrives with the
RUN response (one round trip for a result that fits: its RECORD
frames, then one SUCCESS that carries the column names with the
batch's meta, read by :meth:`RemoteSession.run` itself), and a
:class:`RemoteResult` PULLs the later ones on demand, so consuming the
first record of a large result transfers one batch, not the whole
thing.  A RECORD frame decodes into one column chunk of the cursor
shared with the in-process ``Result``, dropped once read: iterating
holds one batch, whatever the result's size.  Server-side errors
arrive as ERROR frames and re-raise as the *same* driver exception
classes (:func:`~repro.graphdb.server.protocol.exception_for`), so
remote and in-process failure handling is identical.

The client is deliberately synchronous (blocking sockets): the driver
surface it mirrors is synchronous, and the asyncio half lives entirely
in the server.
"""

from __future__ import annotations

import socket

from repro.exceptions import GraphError, ReproError, TransactionError
from repro.graphdb.api.result import _Cursor
from repro.graphdb.backends import BackendProfile, NEO4J_LIKE
from repro.graphdb.server import protocol as wire

#: Records per batch - the one RUN carries and each later PULL
#: (overridable per session).
DEFAULT_FETCH_SIZE = 1024


def parse_url(url: str) -> tuple[str, int]:
    """``repro://host[:port]`` -> ``(host, port)``."""
    if not url.startswith("repro://"):
        raise GraphError(f"not a repro:// URL: {url!r}")
    rest = url[len("repro://"):].rstrip("/")
    if not rest:
        raise GraphError(f"missing host in {url!r}")
    host, _, port_text = rest.rpartition(":")
    if not host:
        return rest, wire.DEFAULT_PORT
    try:
        port = int(port_text)
    except ValueError:
        raise GraphError(f"bad port in {url!r}") from None
    return host, port


class _Connection:
    """One framed TCP connection: transport + request/response."""

    def __init__(self, host: str, port: int, timeout: float | None):
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise GraphError(
                f"cannot connect to repro://{host}:{port}: {exc}"
            ) from exc
        self._sock.settimeout(None)
        self._file = self._sock.makefile("rb")
        self._closed = False

    def send(self, payload: bytes) -> None:
        try:
            self._sock.sendall(wire.pack_frame(payload))
        except OSError as exc:
            self.close()
            raise GraphError(f"server connection lost: {exc}") from exc

    def recv(self) -> tuple[int, dict]:
        try:
            header = self._read_exactly(wire.FRAME_HEADER_BYTES)
            payload = self._read_exactly(wire.frame_length(header))
        except OSError as exc:
            self.close()
            raise GraphError(f"server connection lost: {exc}") from exc
        return wire.decode_message(wire.check_frame(header, payload))

    def _read_exactly(self, n: int) -> bytes:
        data = self._file.read(n)
        if data is None or len(data) != n:
            self.close()
            raise GraphError(
                "server closed the connection mid-frame"
            )
        return data

    def request(self, payload: bytes) -> dict:
        """Send one message, expect SUCCESS; ERROR re-raises."""
        self.send(payload)
        return self.read_response(None)

    def read_response(self, chunks: list | None) -> dict:
        """Read one response: ``(count, columns)`` of each RECORD
        appended to ``chunks`` (``None``: none may come), then the
        SUCCESS meta, returned.  ERROR re-raises."""
        while True:
            msg_type, fields = self.recv()
            if msg_type == wire.MSG_SUCCESS:
                return fields["meta"]
            if msg_type == wire.MSG_ERROR:
                raise wire.exception_for(fields["code"], fields["message"])
            if msg_type != wire.MSG_RECORD or chunks is None:
                raise wire.ProtocolError(
                    f"unexpected {wire.MSG_NAMES[msg_type]!r} response"
                )
            chunks.append((fields["count"], fields["columns"]))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
            self._sock.close()
        except OSError:  # pragma: no cover - teardown is best-effort
            pass

    @property
    def closed(self) -> bool:
        return self._closed


class RemoteDatabase:
    """A server-backed database: a session factory over ``repro://``.

    Each :meth:`session` opens its own TCP connection (one server-side
    session per connection, like real drivers pool); the database
    object itself holds no socket, only the address and the handshake
    metadata of a probe connection.
    """

    def __init__(
        self,
        url: str,
        profile: BackendProfile = NEO4J_LIKE,
        readonly: bool = False,
        connect_timeout: float | None = 10.0,
    ):
        self.url = url
        self.host, self.port = parse_url(url)
        self.profile = profile  # accepted for surface parity; unused
        self._connect_timeout = connect_timeout
        self._closed = False
        # Probe handshake: fail fast on a bad address or version
        # mismatch, and learn the server's readonly mode up front.
        conn = _Connection(self.host, self.port, connect_timeout)
        try:
            self.server_info = conn.request(wire.encode_hello(
                {"app": "repro-driver"}
            ))
        finally:
            conn.send(wire.encode_simple(wire.MSG_GOODBYE))
            conn.close()
        #: True when writes are rejected - either the server is
        #: read-only or this handle was opened with ``readonly=True``.
        self.readonly = bool(self.server_info.get("readonly")) or readonly
        #: No local graph/store: everything goes over the wire.
        self.graph = None
        self.store = None

    @property
    def durable(self) -> bool:
        return True  # durability lives server-side

    def session(
        self, fetch_size: int = DEFAULT_FETCH_SIZE
    ) -> "RemoteSession":
        """A new unit-of-work session on its own connection."""
        self._require_open()
        return RemoteSession(self, fetch_size=fetch_size)

    def metrics(self) -> dict:
        raise GraphError(
            "remote databases expose metrics via the server's HTTP "
            "/metrics endpoint, not the driver"
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise GraphError("database is closed")

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteDatabase {self.url}>"


class RemoteSession:
    """One unit-of-work handle on a :class:`RemoteDatabase`."""

    def __init__(self, database: RemoteDatabase, fetch_size: int):
        self._database = database
        self._fetch_size = max(1, fetch_size)
        self._conn = _Connection(
            database.host, database.port, database._connect_timeout
        )
        self._conn.request(wire.encode_hello({"app": "repro-driver"}))
        self._open_result: RemoteResult | None = None
        self._transaction: RemoteTransaction | None = None
        self._last_summary: RemoteSummary | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def run(
        self,
        query: str,
        parameters: dict[str, object] | None = None,
        timeout: float | None = None,
        max_rows: int | None = None,
        trace: bool = False,
        **params: object,
    ) -> "RemoteResult":
        """Execute ``query`` on the server; returns a lazy cursor.

        ``timeout`` / ``max_rows`` arm the server-side execution
        guard (the server may clamp them tighter); the corresponding
        :class:`~repro.exceptions.QueryTimeoutError` /
        :class:`~repro.exceptions.ResourceLimitError` raise here
        exactly as they would in-process.  ``trace`` is not available
        over the wire.
        """
        self._require_open()
        if trace:
            raise GraphError(
                "trace=True is not supported over remote connections"
            )
        self._finish_open_result()
        bound = {**(parameters or {}), **params}
        options: dict[str, object] = {"pull": self._fetch_size}
        if timeout is not None:
            options["timeout"] = timeout
        if max_rows is not None:
            options["max_rows"] = max_rows
        # The first pull rides on the RUN: its RECORD frames, then one
        # SUCCESS holding the columns and the pull's meta.
        self._conn.send(wire.encode_run(query, bound, options))
        chunks: list[tuple[int, list[list]]] = []
        meta = self._conn.read_response(chunks)
        result = RemoteResult(self, query, bound, meta)
        self._open_result = result
        result._take(chunks, meta)
        return result

    def explain(
        self,
        query: str,
        analyze: bool = False,
        parameters: dict[str, object] | None = None,
        **params: object,
    ) -> str:
        """The server-side plan for ``query`` (``analyze=True`` runs it)."""
        self._require_open()
        self._finish_open_result()
        bound = {**(parameters or {}), **params}
        meta = self._conn.request(wire.encode_run(
            query, bound, {"explain": 2 if analyze else 1}
        ))
        return meta["plan"]

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin_tx(self) -> "RemoteTransaction":
        """Open an explicit server-side transaction.

        Waits for the server's single writer slot; rejected with
        :class:`~repro.exceptions.TransactionError` on read-only
        handles (client-side) and read-only servers (server-side).
        """
        self._require_open()
        if self._database.readonly:
            raise TransactionError(
                "database is read-only; writes are rejected"
            )
        if (
            self._transaction is not None
            and not self._transaction.closed
        ):
            raise TransactionError(
                "this session already has an open transaction"
            )
        self._finish_open_result()
        self._conn.request(wire.encode_simple(wire.MSG_BEGIN))
        self._transaction = RemoteTransaction(self)
        return self._transaction

    # ------------------------------------------------------------------
    # Lifecycle / plumbing
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Settle the open cursor, roll back any open tx, hang up."""
        if self._closed:
            return
        self._closed = True
        try:
            if not self._conn.closed:
                if (
                    self._transaction is not None
                    and not self._transaction.closed
                ):
                    self._transaction._closed = True
                    self._conn.request(
                        wire.encode_simple(wire.MSG_ROLLBACK)
                    )
                self._conn.send(wire.encode_simple(wire.MSG_GOODBYE))
        except GraphError:  # pragma: no cover - teardown best-effort
            pass
        finally:
            self._conn.close()
        self._transaction = None

    def last_summary(self) -> "RemoteSummary | None":
        return self._last_summary

    def _finish_open_result(self) -> None:
        # Same cursor-isolation contract as the in-process session: a
        # new query first buffers the previous result's remaining
        # records client-side (the server drops its buffer on RUN).
        if self._open_result is not None:
            self._open_result._detach()

    def _require_open(self) -> None:
        if self._closed:
            raise TransactionError("session is closed")

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _RemoteMetrics:
    """Placeholder work counters: remote executions count server-side
    (scrape the server's ``/metrics`` endpoint for the real numbers)."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {}


class RemoteSummary:
    """What one consumed remote execution did (server-reported)."""

    __slots__ = (
        "query", "parameters", "columns", "rows", "epoch", "mode",
        "fallback_reason", "latency_ms", "elapsed_ms", "plan_digest",
        "metrics", "trace",
    )

    def __init__(self, query, parameters, columns, meta):
        self.query = query
        self.parameters = parameters
        self.columns = columns
        self.rows = meta.get("rows", 0)
        #: The graph mutation epoch this execution was pinned to -
        #: every row of the result came from this exact version.
        self.epoch = meta.get("epoch")
        self.mode = meta.get("mode", "tuple")
        self.fallback_reason = meta.get("fallback_reason")
        self.latency_ms = meta.get("latency_ms", 0.0)
        self.elapsed_ms = meta.get("elapsed_ms", 0.0)
        self.plan_digest = meta.get("plan_digest", "")
        self.metrics = _RemoteMetrics()
        self.trace = None

    @property
    def plan(self) -> str:
        return (
            "(plan not carried over the wire; "
            "use session.explain(query, analyze=True))"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RemoteSummary rows={self.rows} epoch={self.epoch}>"
        )


class RemoteResult(_Cursor):
    """Lazy cursor over one remote execution (batched PULL streaming):
    each RECORD frame is one chunk, held until its rows are read."""

    def __init__(self, session: RemoteSession, query: str,
                 parameters: dict, meta: dict):
        super().__init__(list(meta.get("columns", [])))
        self._session = session
        self._query = query
        self._parameters = parameters
        self._header = meta
        self.epoch = meta.get("epoch")

    def _pull(self) -> tuple[int, list[list]] | None:
        session = self._session
        session._conn.send(wire.encode_pull(session._fetch_size))
        chunks: list[tuple[int, list[list]]] = []
        try:
            meta = session._conn.read_response(chunks)
        except ReproError:
            # The server dropped the result (or the connection): the
            # cursor ends at the rows that did arrive.
            self._settle({**self._header, "rows": self._pulled})
            raise
        self._take(chunks, meta)
        return self._chunks.popleft() if self._chunks else None

    def _take(self, chunks: list, meta: dict) -> None:
        """Queue one pull's chunks; settle if it was the last pull."""
        self._pulled += sum(n for n, _ in chunks)
        self._chunks.extend(chunks)
        if not meta.get("has_more"):
            self._settle(meta)

    def _settle(self, meta: dict) -> None:
        self._summary = RemoteSummary(
            self._query, dict(self._parameters), self._columns, meta
        )
        session = self._session
        if session._open_result is self:
            session._open_result = None
        session._last_summary = self._summary

    def _drain(self, keep: bool) -> None:
        if keep:
            self._chunks.extend(list(self.batches()))
            return
        self._rows = iter(())
        self._chunks.clear()
        if self._summary is None:
            # DISCARD drops the server buffer in one round-trip
            # (no point streaming records we are throwing away).
            self._settle(self._session._conn.request(
                wire.encode_simple(wire.MSG_DISCARD)
            ))


class RemoteTransaction:
    """Explicit server-side transaction bound to one session."""

    def __init__(self, session: RemoteSession):
        self._session = session
        self._closed = False

    def run(self, query, parameters=None, **params):
        """Run a query inside the transaction (sees its own writes)."""
        self._require_open()
        return self._session.run(query, parameters, **params)

    # -- mutations (MUTATE frames, WAL vocabulary) ---------------------
    def add_vertex(self, labels, properties=None) -> int:
        if isinstance(labels, str):
            labels = [labels]
        meta = self._mutate("add_vertex", [list(labels), properties or {}])
        return meta["id"]

    def add_edge(self, src: int, dst: int, label: str,
                 properties=None) -> int:
        meta = self._mutate(
            "add_edge", [src, dst, label, properties or {}]
        )
        return meta["id"]

    def set_property(self, vid: int, name: str, value) -> None:
        self._mutate("set_property", [vid, name, value])

    def remove_property(self, vid: int, name: str) -> None:
        self._mutate("remove_property", [vid, name])

    def remove_edge(self, eid: int) -> None:
        self._mutate("remove_edge", [eid])

    def remove_vertex(self, vid: int) -> None:
        self._mutate("remove_vertex", [vid])

    def create_property_index(self, label: str, prop: str) -> None:
        self._mutate("create_property_index", [label, prop])

    def _mutate(self, op: str, args: list) -> dict:
        self._require_open()
        self._session._finish_open_result()
        return self._session._conn.request(wire.encode_mutate(op, args))

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def commit(self) -> None:
        """Commit; returns once the server made the commit durable
        (the acknowledgement rides the server's group-commit fsync)."""
        self._require_open()
        self._session._finish_open_result()
        self._closed = True
        self._session._conn.request(wire.encode_simple(wire.MSG_COMMIT))

    def rollback(self) -> None:
        self._require_open()
        self._session._finish_open_result()
        self._closed = True
        self._session._conn.request(
            wire.encode_simple(wire.MSG_ROLLBACK)
        )

    def _require_open(self) -> None:
        if self._closed:
            raise TransactionError("transaction is closed")

    def __enter__(self) -> "RemoteTransaction":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if not self._closed:
            self.rollback()
