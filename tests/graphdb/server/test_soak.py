"""Concurrency soak, crash torture, and remote/in-process parity.

The acceptance-critical properties of the server:

* **Snapshot consistency under concurrent writes** - 32 client
  threads stream results (small PULL batches, so a result spans many
  commits) while a writer bursts transactions; every result must be
  internally consistent: complete transactions only, and a contiguous
  prefix of the commit history.
* **Kill-the-server-mid-commit** - an injected ``wal.flush.fsync``
  crash takes the whole server down without flushing (the PR 6 fault
  model); recovery must preserve every *acknowledged* commit and never
  surface a torn one.
* **Remote == in-process** - the full MED and FIN benchmark suites
  produce multiset-identical rows over the wire and in-process.
* **Group commit** - concurrent writers amortize fsyncs: strictly
  fewer fsyncs than commits, observable in the batch-size histogram.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.data.loader import load_direct
from repro.exceptions import GraphError, StorageError
from repro.graphdb import faults, observe
from repro.graphdb.api.database import connect
from repro.graphdb.server import ServerConfig
from repro.graphdb.storage import GraphStore

MARKS_PER_COMMIT = 5
COMMITS = 20
READERS = 32


def test_soak_readers_see_only_committed_prefixes(
    server_factory, tmp_path
):
    """32 streaming readers during a write burst: every result is a
    snapshot - whole transactions only, no torn or future state."""
    _soak(server_factory, tmp_path, fetch_size=3)


def test_soak_one_row_batches(server_factory, tmp_path):
    """The same at ``fetch_size=1``: every row its own round trip, the
    widest window for a commit to land inside a result."""
    _soak(server_factory, tmp_path, fetch_size=1)


def _soak(server_factory, tmp_path, fetch_size: int) -> None:
    from repro.graphdb.graph import PropertyGraph

    graph = PropertyGraph("soak")
    graph.add_vertex(["Seed"], {"n": 0})
    data_dir = tmp_path / "soak"
    GraphStore.create(data_dir, graph).close()
    harness = server_factory(
        connect(data_dir), ServerConfig(port=0, group_window=0.001)
    )

    failures: list[str] = []
    start = threading.Barrier(READERS + 2)
    writer_done = threading.Event()

    def writer():
        start.wait()
        with connect(harness.url) as db, db.session() as session:
            for gen in range(1, COMMITS + 1):
                with session.begin_tx() as tx:
                    for i in range(MARKS_PER_COMMIT):
                        tx.add_vertex(
                            "Mark", {"gen": gen, "i": i}
                        )
                    tx.commit()
        writer_done.set()

    def reader(idx: int):
        start.wait()
        try:
            with connect(harness.url) as db:
                # A small fetch_size: a full result takes many PULL
                # round trips, so commits land *while* it streams.
                with db.session(fetch_size=fetch_size) as session:
                    while not writer_done.is_set():
                        result = session.run(
                            "MATCH (m:Mark) RETURN m.gen AS g"
                        )
                        gens = [record["g"] for record in result]
                        summary = result.consume()
                        counts = Counter(gens)
                        if any(
                            n != MARKS_PER_COMMIT
                            for n in counts.values()
                        ):
                            failures.append(
                                f"reader {idx} saw a torn commit: "
                                f"{dict(counts)} "
                                f"(epoch {summary.epoch})"
                            )
                            return
                        if counts and sorted(counts) != list(
                            range(1, max(counts) + 1)
                        ):
                            failures.append(
                                f"reader {idx} saw a gapped history: "
                                f"{sorted(counts)}"
                            )
                            return
        except GraphError as exc:
            failures.append(f"reader {idx} errored: {exc}")

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(i,))
        for i in range(READERS)
    ]
    for thread in threads:
        thread.start()
    start.wait()
    for thread in threads:
        thread.join(120)
        assert not thread.is_alive(), "soak thread hung"
    assert not failures, failures[:5]

    # And the final state is exactly the full burst.
    with connect(harness.url) as db, db.session() as session:
        assert session.run(
            "MATCH (m:Mark) RETURN count(*) AS n"
        ).single()["n"] == COMMITS * MARKS_PER_COMMIT


def test_group_commit_batches_concurrent_writers(
    server_factory, tmp_path
):
    """Concurrent writers share fsyncs: the batch-size histogram must
    record fewer fsyncs than commits (at least one batch > 1)."""
    from repro.graphdb.graph import PropertyGraph

    data_dir = tmp_path / "group"
    GraphStore.create(data_dir, PropertyGraph("group")).close()
    harness = server_factory(
        connect(data_dir), ServerConfig(port=0, group_window=0.02)
    )

    def hist():
        snap = observe.REGISTRY.snapshot()["histograms"][
            "repro_wal_group_commit_batch_size"
        ]
        return snap["count"], snap["sum"]

    fsyncs_before, commits_before = hist()
    writers = 8
    commits_each = 4
    barrier = threading.Barrier(writers)
    errors: list[BaseException] = []

    def write(idx: int):
        try:
            with connect(harness.url) as db, db.session() as session:
                barrier.wait()
                for i in range(commits_each):
                    with session.begin_tx() as tx:
                        tx.add_vertex("W", {"w": idx, "i": i})
                        tx.commit()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=write, args=(i,))
        for i in range(writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors, errors
    fsyncs, commits = hist()
    fsyncs -= fsyncs_before
    commits -= commits_before
    assert commits == writers * commits_each
    # Strictly amortized: fewer fsyncs than commits.
    assert fsyncs < commits, (fsyncs, commits)
    # And durable: everything is there after a clean stop + recovery.
    assert harness.stop() is None
    with connect(data_dir, create=False) as db, db.session() as s:
        assert s.run("MATCH (w:W) RETURN count(*) AS n").single()[
            "n"
        ] == commits


def test_kill_server_mid_commit_recovers(server_factory, tmp_path):
    """A SimulatedCrash at the commit fsync takes the server down like
    kill -9; recovery keeps every acknowledged commit."""
    from repro.graphdb.graph import PropertyGraph

    data_dir = tmp_path / "torture"
    GraphStore.create(data_dir, PropertyGraph("torture")).close()
    harness = server_factory(connect(data_dir), ServerConfig(port=0))

    acked = 0
    # The first two commit fsyncs succeed, the third dies mid-fsync.
    faults.REGISTRY.arm("wal.flush.fsync", mode="crash", at=3)
    with connect(harness.url) as db, db.session() as session:
        crashed = False
        for gen in range(1, 6):
            try:
                tx = session.begin_tx()
                tx.add_vertex("T", {"gen": gen})
                tx.commit()
                acked += 1
            except (GraphError, StorageError):
                # StorageError from the dying fsync, or the connection
                # dropping as the server goes down - both are the
                # crash surfacing.
                crashed = True
                break
        assert crashed, "fault never fired"
    assert acked == 2
    error = harness.wait()
    assert isinstance(error, faults.SimulatedCrash)
    # The store was abandoned, not flushed: like a killed process.
    assert harness.server.database.store.closed
    faults.REGISTRY.reset()

    # Recovery: every acknowledged commit survives; the torn one is
    # either fully absent or fully replayed - never partial.
    reopened = connect(data_dir, create=False)
    assert reopened.store.recovery is not None
    with reopened.session() as session:
        gens = sorted(
            record["g"]
            for record in session.run(
                "MATCH (t:T) RETURN t.gen AS g"
            )
        )
    reopened.close()
    assert gens[: acked] == [1, 2]
    assert len(gens) in (acked, acked + 1)
    assert gens == list(range(1, len(gens) + 1))


def test_crash_on_accept_failpoint(server_factory, small_graph):
    """``server.accept:crash`` takes the server down on the next
    connection; ``server.accept:error`` just rejects it."""
    harness = server_factory(connect(small_graph))
    with faults.REGISTRY.armed("server.accept", mode="error"):
        with pytest.raises(GraphError):
            connect(harness.url)
    # Rejection is not fatal: the server still serves.
    with connect(harness.url) as db, db.session() as session:
        assert session.run(
            "MATCH (d:Drug) RETURN count(*) AS n"
        ).single()["n"] == 6
    faults.REGISTRY.arm("server.accept", mode="crash")
    with pytest.raises(GraphError):
        with connect(harness.url) as db:
            db.session()
    assert isinstance(harness.wait(), faults.SimulatedCrash)


def test_read_write_failpoints_drop_the_connection(
    server_factory, small_graph
):
    harness = server_factory(connect(small_graph))
    # Arm *after* the session handshake so the very next server-side
    # frame read (the RUN) eats the fault; the client must surface it
    # as a connection loss, not a hang or a silent empty result.
    db = connect(harness.url)
    session = db.session()
    with faults.REGISTRY.armed("server.read", mode="error"):
        with pytest.raises(GraphError):
            session.run("MATCH (d:Drug) RETURN d.name").consume()
    db.close()
    # Same for the write path: the first write after arming is the
    # SUCCESS response to the RUN.
    db = connect(harness.url)
    session = db.session()
    with faults.REGISTRY.armed("server.write", mode="error"):
        with pytest.raises(GraphError):
            session.run(
                "MATCH (d:Drug) RETURN d.name"
            ).consume()
    db.close()
    # Other connections are unaffected.
    with connect(harness.url) as db, db.session() as session:
        assert session.run(
            "MATCH (d:Drug) RETURN count(*) AS n"
        ).single()["n"] == 6


# ----------------------------------------------------------------------
# Remote / in-process parity on the benchmark suites
# ----------------------------------------------------------------------
def _normalize(rows):
    out = []
    for row in rows:
        out.append(tuple(
            tuple(sorted(map(repr, v))) if isinstance(v, list) else v
            for v in row
        ))
    return sorted(out, key=repr)


@pytest.mark.parametrize("name", ["med", "fin"])
def test_remote_suite_multiset_identical(
    name, med_small, fin_small, server_factory
):
    dataset = med_small if name == "med" else fin_small
    graph = load_direct(dataset.logical(), name=f"{name}-DIR")
    harness = server_factory(connect(graph))
    local_db = connect(graph)
    remote_db = connect(harness.url)
    with local_db.session() as local, remote_db.session() as remote:
        for qid, query in sorted(dataset.queries.items()):
            expected = _normalize(local.run(query).values())
            got = _normalize(remote.run(query).values())
            assert got == expected, f"{name} {qid} diverged"
    remote_db.close()
    local_db.close()
