"""The result-stream contract: batches, round trips, and errors.

A result travels as batches of ``fetch_size`` rows: the first on the
RUN response, the rest one PULL each.  Whatever the batch size, the
client sees the in-process rows in the in-process order, the request
counter shows exactly the round trips the contract promises, and a
request is answered by its whole response or by one ERROR.
"""

from __future__ import annotations

import socket

import pytest

from repro.exceptions import (
    GraphError,
    QueryError,
    QuerySyntaxError,
    QueryTimeoutError,
    ResourceLimitError,
)
from repro.graphdb import faults, observe
from repro.graphdb.api.database import connect
from repro.graphdb.api.remote import DEFAULT_FETCH_SIZE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.server import protocol as wire

QUERY = "MATCH (d:Drug) RETURN d.name AS name, d.tier AS tier"
ROWS = 6  # small_graph's drugs


def requests() -> dict[str, int]:
    counters = observe.REGISTRY.snapshot()["labeled_counters"]
    return dict(counters["repro_server_requests_total"]["values"])


def moved(before: dict[str, int], kind: str) -> int:
    return requests().get(kind, 0) - before.get(kind, 0)


@pytest.mark.parametrize(
    "fetch_size", [1, ROWS - 1, ROWS, ROWS + 1, DEFAULT_FETCH_SIZE]
)
def test_any_fetch_size_streams_the_in_process_result(
    server_factory, small_graph, fetch_size
):
    harness = server_factory(connect(small_graph))
    with connect(small_graph).session() as local:
        reference = local.run(QUERY)
        expected = [tuple(record) for record in reference]
        want = reference.consume()
    with connect(harness.url) as db:
        with db.session(fetch_size=fetch_size) as session:
            before = requests()
            result = session.run(QUERY)
            assert result.keys() == ["name", "tier"]
            assert [tuple(record) for record in result] == expected
            summary = result.consume()
            assert moved(before, "run") == 1
            assert moved(before, "pull") == -(-ROWS // fetch_size) - 1
            assert moved(before, "discard") == 0
    assert summary.rows == want.rows == ROWS
    assert summary.epoch == small_graph.mutation_epoch
    assert summary.mode == want.mode == "vectorized"
    assert summary.fallback_reason is want.fallback_reason is None
    assert summary.plan_digest == want.plan_digest


def test_the_refusal_reason_crosses_the_wire(server_factory, small_graph):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db:
        with db.session() as session:
            summary = session.run(QUERY + " LIMIT 2").consume()
    assert summary.mode == "tuple"
    assert summary.fallback_reason == "limit"


def recorded(session) -> list[tuple[int, dict]]:
    """Every message the session's connection reads from now on."""
    conn = session._conn
    seen = []
    recv = conn.recv

    def recording_recv():
        message = recv()
        seen.append(message)
        return message

    conn.recv = recording_recv
    return seen


def test_a_run_is_its_records_and_one_success(server_factory, small_graph):
    """A result that fits is RECORD frames and one SUCCESS holding the
    columns with the summary; a zero-row result is that SUCCESS alone."""
    harness = server_factory(connect(small_graph))
    epoch = small_graph.mutation_epoch
    with connect(harness.url) as db, db.session() as session:
        seen = recorded(session)
        result = session.run(QUERY)
        assert [msg_type for msg_type, _ in seen] == [
            wire.MSG_RECORD, wire.MSG_SUCCESS,
        ]
        meta = seen[-1][1]["meta"]
        assert meta["columns"] == ["name", "tier"]
        assert (meta["has_more"], meta["rows"]) == (False, ROWS)
        assert (meta["epoch"], meta["mode"]) == (epoch, "vectorized")
        assert len(result.values()) == ROWS
        assert result.consume().rows == ROWS
        seen.clear()
        empty = session.run(
            "MATCH (d:Drug {name: 'none'}) RETURN d.name AS name"
        )
        assert [msg_type for msg_type, _ in seen] == [wire.MSG_SUCCESS]
        meta = seen[0][1]["meta"]
        assert meta["columns"] == ["name"]
        assert (meta["has_more"], meta["rows"], meta["epoch"]) == (
            False, 0, epoch,
        )
        assert empty.keys() == ["name"] and empty.values() == []
        assert empty.consume().rows == 0


def test_a_run_without_pull_answers_with_the_head_only(
    server_factory, small_graph
):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db, db.session() as session:
        conn = session._conn
        head = conn.request(wire.encode_run(QUERY, {}, {}))
        assert head == {
            "columns": ["name", "tier"],
            "epoch": small_graph.mutation_epoch,
            "mode": "vectorized",
            "has_more": True,
        }
        conn.send(wire.encode_pull(ROWS))
        chunks = []
        assert conn.read_response(chunks)["rows"] == ROWS
        assert [count for count, _ in chunks] == [ROWS]
        assert session.run(QUERY).consume().rows == ROWS


def test_a_big_batch_arrives_as_several_frames(server_factory):
    graph = PropertyGraph("big")
    for i in range(4000):
        graph.add_vertex(["N"], {"name": f"vertex-name-{i:08d}", "i": i})
    harness = server_factory(connect(graph))
    with connect(harness.url) as db:
        with db.session(fetch_size=10_000) as session:
            seen = recorded(session)
            before = requests()
            result = session.run("MATCH (n:N) RETURN n.name, n.i")
            rows = [tuple(record) for record in result]
            assert moved(before, "pull") == 0
    assert rows == [(f"vertex-name-{i:08d}", i) for i in range(4000)]
    # 8000 values against RECORD_FRAME_VALUES: one pull, two frames.
    assert [msg_type for msg_type, _ in seen] == [
        wire.MSG_RECORD, wire.MSG_RECORD, wire.MSG_SUCCESS,
    ]


@pytest.mark.parametrize("fetch_size", [2, DEFAULT_FETCH_SIZE])
def test_cursor_shortcuts_leave_the_connection_usable(
    server_factory, small_graph, fetch_size
):
    """consume() without iterating, a second run() over an open
    cursor, single() and explain() each settle the stream - including
    the batch that came with the RUN - so the next request lines up."""
    harness = server_factory(connect(small_graph))
    count = "MATCH (d:Drug) RETURN count(*) AS n"
    with connect(harness.url) as db:
        with db.session(fetch_size=fetch_size) as session:
            assert session.run(QUERY).consume().rows == ROWS
            first = session.run(QUERY)
            second = session.run(count)  # detaches ``first``
            assert second.single()["n"] == ROWS
            assert len(first.records()) == ROWS
            assert first.consume().rows == ROWS
            with pytest.raises(QueryError, match="more than one"):
                session.run(QUERY).single()
            assert "Scan" in session.explain(QUERY)
            assert session.run(count).single()["n"] == ROWS


def test_run_errors_answer_with_one_error_only(
    server_factory, small_graph
):
    harness = server_factory(connect(small_graph))
    failures = [
        (QuerySyntaxError, "MATCH (((", {}),
        (QueryTimeoutError, QUERY, {"timeout": 0}),
        (ResourceLimitError, QUERY, {"max_rows": 2}),
    ]
    with connect(harness.url) as db, db.session() as session:
        for error, text, options in failures:
            before = requests()
            with pytest.raises(error):
                session.run(text, **options)
            # Nothing of the failed response is left on the socket:
            # the next answer is the next request's.
            assert [
                tuple(r) for r in session.run(
                    "MATCH (d:Drug) RETURN count(*) AS n"
                )
            ] == [(ROWS,)]
            assert moved(before, "run") == 2
            assert moved(before, "pull") == 0


def test_hostile_run_options_are_an_error_not_a_crash(
    server_factory, small_graph
):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db, db.session() as session:
        for pull in (0, -3, "many", 1.5):
            with pytest.raises(wire.ProtocolError, match="pull"):
                session._conn.request(
                    wire.encode_run(QUERY, {}, {"pull": pull})
                )
        assert session.run(QUERY).consume().rows == ROWS


def test_failed_pull_settles_the_cursor(
    server_factory, small_graph, monkeypatch
):
    """A row too big for a frame fails the pull it falls in: the
    iteration raises once, after which consume() and close() are safe
    and the connection serves the next RUN."""
    small_graph.add_vertex(["Drug"], {"name": "x" * 2000, "tier": 9})
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db:
        session = db.session(fetch_size=ROWS)
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1024)
        result = session.run(QUERY)  # the first batch fits
        seen = []
        with pytest.raises(wire.ProtocolError, match="exceeds"):
            for record in result:
                seen.append(record["name"])
        assert len(seen) == ROWS
        assert list(result) == []  # raised once, then just exhausted
        summary = result.consume()
        assert summary.rows == ROWS
        assert summary.epoch == small_graph.mutation_epoch
        assert session.last_summary() is summary
        assert session.run(
            "MATCH (d:Drug) RETURN count(*) AS n"
        ).single()["n"] == ROWS + 1
        # And when the row falls in the batch RUN carries, the RUN is
        # what fails - still one ERROR, still a usable connection.
        with db.session(fetch_size=ROWS + 1) as other:
            with pytest.raises(wire.ProtocolError, match="exceeds"):
                other.run(QUERY)
            assert other.run(QUERY + " LIMIT 2").consume().rows == 2
        session.close()


@pytest.mark.parametrize("at", [1, 2, 3])
def test_write_fault_mid_response_drops_the_connection(
    server_factory, small_graph, at, monkeypatch
):
    """``server.write`` fires per frame before the first byte is
    written: armed at any frame of rows | rows | SUCCESS, the client
    sees a lost connection - not a hang, not a short result."""
    # Six rows of width 2 against a 6-value budget: two RECORD frames.
    monkeypatch.setattr(wire, "RECORD_FRAME_VALUES", 6)
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db:
        session = db.session()
        seen = recorded(session)
        assert session.run(QUERY).consume().rows == ROWS
        assert [msg_type for msg_type, _ in seen] == [
            wire.MSG_RECORD, wire.MSG_RECORD, wire.MSG_SUCCESS,
        ]
        faults.REGISTRY.arm("server.write", mode="error", at=at)
        with pytest.raises(GraphError, match="connection"):
            session.run(QUERY)
        faults.REGISTRY.reset()
        with db.session() as other:
            assert other.run(QUERY).consume().rows == ROWS


def test_v1_peer_is_refused_at_hello(server_factory, small_graph):
    """So is a v2 or v3 peer: row-major RECORD frames (v2), the header
    SUCCESS and per-value string lengths (v3) are gone."""
    harness = server_factory(connect(small_graph))
    for version in range(1, wire.PROTOCOL_VERSION):
        hello = bytearray((wire.MSG_HELLO,))
        wire.write_uvarint(hello, version)
        wire.write_props(hello, {"app": "old-driver"})
        with socket.create_connection(harness.server.address) as sock:
            sock.sendall(wire.pack_frame(bytes(hello)))
            stream = sock.makefile("rb")
            header = stream.read(wire.FRAME_HEADER_BYTES)
            payload = stream.read(wire.frame_length(header))
            msg_type, fields = wire.decode_message(
                wire.check_frame(header, payload)
            )
            assert msg_type == wire.MSG_ERROR
            assert fields["code"] == "ProtocolError"
            assert f"version {version} unsupported" in fields["message"]
            assert stream.read(1) == b""  # and hung up, not half-served
