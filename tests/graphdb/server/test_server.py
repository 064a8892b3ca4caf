"""GraphServer behavior: sessions, transactions, limits, sidecar."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.exceptions import (
    GraphError,
    QuerySyntaxError,
    ResourceLimitError,
    TransactionError,
)
from repro.graphdb import observe
from repro.graphdb.api.database import connect
from repro.graphdb.metrics import LruPageCache
from repro.graphdb.query.executor import VertexBinding
from repro.graphdb.server import ServerConfig


def test_hello_reports_server_identity(server_factory, small_graph):
    harness = server_factory(connect(small_graph))
    remote = connect(harness.url)
    assert remote.server_info["server"] == "repro"
    assert remote.server_info["protocol"] == 3
    assert remote.server_info["graph"] == "wire-test"
    assert remote.server_info["readonly"] is False
    remote.close()


def test_remote_rows_match_in_process(server_factory, small_graph):
    harness = server_factory(connect(small_graph))
    queries = [
        ("MATCH (d:Drug) RETURN d.name AS name, d.tier AS tier", {}),
        ("MATCH (d:Drug {name: $n}) RETURN d", {"n": "aspirin"}),
        ("MATCH (a:Drug)-[:INTERACTS]->(b:Drug) "
         "RETURN a.name, b.name", {}),
        ("MATCH (d:Drug) RETURN count(*) AS n", {}),
    ]
    with connect(small_graph).session() as local, \
            connect(harness.url) as remote_db, \
            remote_db.session() as remote:
        for text, params in queries:
            expected = sorted(
                map(repr, local.run(text, params).values())
            )
            got = sorted(map(repr, remote.run(text, params).values()))
            assert got == expected, text


def test_entity_refs_survive_the_wire(server_factory, small_graph):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db, db.session() as session:
        record = session.run(
            "MATCH (d:Drug {name: $n}) RETURN d", n="aspirin"
        ).single()
        assert isinstance(record["d"], VertexBinding)


def test_lazy_pull_streaming_and_summary(server_factory, small_graph):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db:
        session = db.session(fetch_size=2)
        result = session.run("MATCH (d:Drug) RETURN d.name AS name")
        iterator = iter(result)
        first = next(iterator)
        assert first["name"]
        # Summary only settles once the stream is drained.
        assert result._summary is None
        rest = list(iterator)
        assert len(rest) == 5
        summary = result.consume()
        assert summary.rows == 6
        assert summary.columns == ["name"]
        assert summary.epoch == small_graph.mutation_epoch
        assert summary.plan_digest
        session.close()


def test_session_rejects_unknown_keywords(server_factory, small_graph):
    """A misspelt or in-process-only option is an error over
    ``repro://``, not a silent no-op."""
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db:
        with pytest.raises(TypeError):
            db.session(fetchsize=10)
        with pytest.raises(TypeError):
            db.session(cache=LruPageCache(4))


def test_new_run_detaches_previous_result(server_factory, small_graph):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db:
        with db.session(fetch_size=2) as session:
            first = session.run("MATCH (d:Drug) RETURN d.name")
            second = session.run(
                "MATCH (d:Drug) RETURN count(*) AS n"
            )
            # The first cursor was detached, not lost: all its rows
            # are still readable, in order, from the client buffer.
            assert len(first.records()) == 6
            assert second.single()["n"] == 6


def test_consume_discards_server_side(server_factory, small_graph):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db, db.session(fetch_size=2) as s:
        result = s.run("MATCH (d:Drug) RETURN d.name")
        summary = result.consume()
        assert summary.rows == 6  # server reports the full row count


def test_explain_remote(server_factory, small_graph):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db, db.session() as session:
        plan = session.explain("MATCH (d:Drug) RETURN d.name")
        assert "Scan" in plan
        analyzed = session.explain(
            "MATCH (d:Drug) RETURN d.name", analyze=True
        )
        assert "rows" in analyzed


def test_syntax_error_maps_to_driver_exception(
    server_factory, small_graph
):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db, db.session() as session:
        with pytest.raises(QuerySyntaxError):
            session.run("MATCH (((").consume()
        # The connection survives a query error.
        assert session.run(
            "MATCH (d:Drug) RETURN count(*) AS n"
        ).single()["n"] == 6


def test_server_max_rows_guardrail(server_factory, small_graph):
    harness = server_factory(
        connect(small_graph), ServerConfig(port=0, max_rows=3)
    )
    with connect(harness.url) as db, db.session() as session:
        with pytest.raises(ResourceLimitError):
            session.run("MATCH (d:Drug) RETURN d.name").consume()
        # Client asks above the server ceiling are clamped down.
        with pytest.raises(ResourceLimitError):
            session.run(
                "MATCH (d:Drug) RETURN d.name", max_rows=100
            ).consume()
        assert session.run(
            "MATCH (d:Drug) RETURN count(*) AS n"
        ).single()["n"] == 6


def test_client_max_rows_guardrail(server_factory, small_graph):
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db, db.session() as session:
        with pytest.raises(ResourceLimitError):
            session.run(
                "MATCH (d:Drug) RETURN d.name", max_rows=2
            ).consume()


def _session_with_retry(db, deadline_s: float = 5.0):
    """Open a session, retrying while recently-closed connections are
    still being reaped server-side (the accept counter is loop-async)."""
    deadline = time.time() + deadline_s
    while True:
        try:
            return db.session()
        except GraphError:
            if time.time() >= deadline:
                raise
            time.sleep(0.02)


def test_connection_capacity_backpressure(server_factory, small_graph):
    harness = server_factory(
        connect(small_graph), ServerConfig(port=0, max_connections=2)
    )
    rejected = observe.REGISTRY.counter("repro_server_rejected_total")
    db = connect(harness.url)  # probe connection closes right away
    s1 = _session_with_retry(db)
    s2 = _session_with_retry(db)
    before = rejected.value
    with pytest.raises(GraphError, match="capacity"):
        db.session().run("MATCH (d) RETURN d")
    # A refused connection leaves no object: the counter is its record.
    assert rejected.value == before + 1
    # Freeing a slot lets the next client in.
    s2.close()
    s3 = _session_with_retry(db)
    assert s3.run(
        "MATCH (d:Drug) RETURN count(*) AS n"
    ).single()["n"] == 6
    s3.close()
    s1.close()
    db.close()


def test_idle_timeout_reaps_connections(server_factory, small_graph):
    harness = server_factory(
        connect(small_graph), ServerConfig(port=0, idle_timeout=0.15)
    )
    db = connect(harness.url)
    session = db.session()
    assert session.run(
        "MATCH (d:Drug) RETURN count(*) AS n"
    ).single()["n"] == 6
    time.sleep(0.5)
    with pytest.raises(GraphError):
        session.run("MATCH (d:Drug) RETURN d.name").consume()
    db.close()


# ----------------------------------------------------------------------
# Transactions over the wire
# ----------------------------------------------------------------------
def test_remote_transaction_commit_is_durable(
    server_factory, durable_db, tmp_path
):
    harness = server_factory(durable_db)
    with connect(harness.url) as db, db.session() as session:
        with session.begin_tx() as tx:
            vid = tx.add_vertex("Drug", {"name": "remoteine"})
            tx.set_property(vid, "tier", 9)
            tx.commit()
        assert session.run(
            "MATCH (d:Drug {name: $n}) RETURN d.tier AS t",
            n="remoteine",
        ).single()["t"] == 9
    assert harness.stop() is None
    # The server closed the store cleanly; recovery sees the commit.
    reopened = connect(tmp_path / "data", create=False)
    with reopened.session() as session:
        assert session.run(
            "MATCH (d:Drug {name: $n}) RETURN count(*) AS n",
            n="remoteine",
        ).single()["n"] == 1
    reopened.close()


def test_remote_rollback_discards(server_factory, durable_db):
    harness = server_factory(durable_db)
    with connect(harness.url) as db, db.session() as session:
        with session.begin_tx() as tx:
            tx.add_vertex("Drug", {"name": "ghost"})
            tx.rollback()
        assert session.run(
            "MATCH (d:Drug {name: $n}) RETURN count(*) AS n",
            n="ghost",
        ).single()["n"] == 0


def test_abandoned_tx_rolls_back_on_disconnect(
    server_factory, durable_db
):
    harness = server_factory(durable_db)
    db = connect(harness.url)
    session = db.session()
    tx = session.begin_tx()
    tx.add_vertex("Drug", {"name": "orphan"})
    # Hang up without committing: the server must roll back and free
    # the writer slot for the next client.
    session._conn.close()
    session._closed = True
    with connect(harness.url) as db2, db2.session() as s2:
        with s2.begin_tx() as tx2:  # writer slot is free again
            tx2.commit()
        assert s2.run(
            "MATCH (d:Drug {name: $n}) RETURN count(*) AS n",
            n="orphan",
        ).single()["n"] == 0
    db.close()


def test_mutate_outside_tx_rejected(server_factory, durable_db):
    harness = server_factory(durable_db)
    with connect(harness.url) as db, db.session() as session:
        from repro.graphdb.server import protocol as wire

        with pytest.raises(TransactionError, match="BEGIN"):
            session._conn.request(
                wire.encode_mutate("remove_edge", [0])
            )


def test_tx_sees_own_writes_others_wait(server_factory, durable_db):
    harness = server_factory(durable_db)
    with connect(harness.url) as db:
        writer = db.session()
        reader = db.session()
        tx = writer.begin_tx()
        tx.add_vertex("Drug", {"name": "pending"})
        # Same-connection read sees the uncommitted vertex.
        assert tx.run(
            "MATCH (d:Drug {name: $n}) RETURN count(*) AS n",
            n="pending",
        ).single()["n"] == 1

        observed = {}

        def read_other():
            observed["n"] = reader.run(
                "MATCH (d:Drug {name: $n}) RETURN count(*) AS n",
                n="pending",
            ).single()["n"]

        thread = threading.Thread(target=read_other)
        thread.start()
        thread.join(0.3)
        # The foreign reader is parked until the tx resolves - no
        # dirty read is possible.
        assert thread.is_alive()
        tx.commit()
        thread.join(5)
        assert not thread.is_alive()
        assert observed["n"] == 1
        writer.close()
        reader.close()


# ----------------------------------------------------------------------
# Read-only enforcement
# ----------------------------------------------------------------------
def test_readonly_server_rejects_begin(server_factory, small_graph):
    harness = server_factory(
        connect(small_graph), ServerConfig(port=0, readonly=True)
    )
    remote = connect(harness.url)
    assert remote.readonly is True
    with remote.session() as session:
        # Client-side refusal (the handshake reported readonly).
        with pytest.raises(TransactionError, match="read-only"):
            session.begin_tx()
        # Protocol-level refusal for clients that skip the check.
        from repro.graphdb.server import protocol as wire

        with pytest.raises(TransactionError, match="read-only"):
            session._conn.request(wire.encode_simple(wire.MSG_BEGIN))
    remote.close()


def test_readonly_client_handle_rejects_writes(
    server_factory, durable_db
):
    harness = server_factory(durable_db)
    remote = connect(harness.url, readonly=True)
    with remote.session() as session:
        with pytest.raises(TransactionError, match="read-only"):
            session.begin_tx()
        assert session.run(
            "MATCH (d:Drug) RETURN count(*) AS n"
        ).single()["n"] == 6
    remote.close()


def test_local_readonly_connect_rejects_writes(durable_db, tmp_path):
    durable_db.close()
    db = connect(tmp_path / "data", readonly=True)
    assert db.readonly is True
    with db.session() as session:
        with pytest.raises(TransactionError, match="read-only"):
            session.begin_tx()


# ----------------------------------------------------------------------
# HTTP sidecar
# ----------------------------------------------------------------------
def test_http_health_and_metrics(server_factory, small_graph):
    harness = server_factory(
        connect(small_graph), ServerConfig(port=0, http_port=0)
    )
    with connect(harness.url) as db, db.session() as session:
        session.run("MATCH (d:Drug) RETURN d.name").consume()
        health = json.loads(urllib.request.urlopen(
            f"{harness.http_url}/health", timeout=5
        ).read())
        assert health["status"] == "ok"
        assert health["vertices"] == 6
        assert health["connections"] >= 1
        body = urllib.request.urlopen(
            f"{harness.http_url}/metrics", timeout=5
        ).read().decode()
        assert "repro_server_requests_total" in body
        assert "repro_server_connections" in body
        assert "repro_server_request_seconds" in body
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                f"{harness.http_url}/nope", timeout=5
            )


def test_server_metrics_move(server_factory, small_graph):
    before = observe.REGISTRY.snapshot()
    harness = server_factory(connect(small_graph))
    with connect(harness.url) as db, db.session() as session:
        session.run("MATCH (d:Drug) RETURN d.name").consume()
    after = observe.REGISTRY.snapshot()

    def counter(snap, name):
        value = snap["counters"].get(name, 0)
        if isinstance(value, dict):
            return sum(value.values())
        return value

    assert counter(after, "repro_server_connections_total") > counter(
        before, "repro_server_connections_total"
    )
    assert counter(after, "repro_server_bytes_read_total") > counter(
        before, "repro_server_bytes_read_total"
    )
    assert counter(after, "repro_server_bytes_written_total") > counter(
        before, "repro_server_bytes_written_total"
    )
