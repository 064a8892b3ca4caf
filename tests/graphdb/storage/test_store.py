"""GraphStore lifecycle: open/create, logging, checkpoint, pruning."""

import pytest

from repro.exceptions import GraphError, StorageError
from repro.graphdb.api import connect
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage import (
    GraphStore,
    graph_state,
    recover_graph,
)
from repro.graphdb.storage.recovery import snapshot_name, wal_name


def small_graph(name="g") -> PropertyGraph:
    g = PropertyGraph(name)
    a = g.add_vertex("A", {"x": 1})
    b = g.add_vertex("B", {"y": "two"})
    g.add_edge(a, b, "ab")
    return g


class TestOpenCreate:
    def test_open_creates_fresh_store(self, tmp_path):
        with GraphStore.open(tmp_path / "d") as store:
            assert store.graph.num_vertices == 0
            assert store.generation == 0
            store.graph.add_vertex("A")
        assert recover_graph(tmp_path / "d").num_vertices == 1

    def test_open_missing_without_create(self, tmp_path):
        with pytest.raises(StorageError):
            GraphStore.open(tmp_path / "nope", create=False)

    def test_create_from_graph(self, tmp_path):
        g = small_graph()
        store = GraphStore.create(tmp_path / "d", g)
        store.close()
        assert graph_state(recover_graph(tmp_path / "d")) == graph_state(g)

    def test_create_refuses_nonempty(self, tmp_path):
        target = tmp_path / "d"
        GraphStore.create(target, small_graph()).close()
        with pytest.raises(StorageError, match="not empty"):
            GraphStore.create(target, small_graph())
        GraphStore.create(target, small_graph(), overwrite=True).close()

    def test_graph_name_survives(self, tmp_path):
        GraphStore.create(tmp_path / "d", small_graph("named")).close()
        assert recover_graph(tmp_path / "d").name == "named"


class TestLogging:
    def test_mutations_survive_reopen(self, tmp_path):
        target = tmp_path / "d"
        store = GraphStore.create(target, small_graph())
        g = store.graph
        vid = g.add_vertex("C", {"z": [1, "a"]})
        g.add_edge(vid, 0, "ca")
        g.set_property(0, "x", 2)
        g.remove_property(1, "y")
        store.close()
        assert graph_state(recover_graph(target)) == graph_state(g)

    def test_removed_stored_none_stays_removed_after_replay(self, tmp_path):
        """The removal used to emit no event, so replay resurrected it."""
        target = tmp_path / "d"
        g = small_graph()
        g.set_property(0, "n", None)
        store = GraphStore.create(target, g)
        store.graph.remove_property(0, "n")
        store.close()
        assert "n" not in store.graph.vertex(0).properties
        assert graph_state(recover_graph(target)) == graph_state(store.graph)

    def test_unflushed_batch_is_lost_without_close(self, tmp_path):
        """Simulated crash: buffered records beyond batch never hit disk."""
        target = tmp_path / "d"
        store = GraphStore.create(
            target, small_graph(), sync="batch"
        )
        state_before = graph_state(store.graph)
        store.graph.add_vertex("C")  # buffered (batch_ops=64)
        # No close/flush: the process "crashes" here.
        recovered = recover_graph(target)
        assert graph_state(recovered) == state_before

    def test_sync_always_survives_crash(self, tmp_path):
        target = tmp_path / "d"
        store = GraphStore.create(target, small_graph(), sync="always")
        store.graph.add_vertex("C")
        # No close: sync=always already made it durable.
        assert recover_graph(target).num_vertices == 3

    def test_explicit_sync_flushes(self, tmp_path):
        target = tmp_path / "d"
        store = GraphStore.create(target, small_graph(), sync="batch")
        store.graph.add_vertex("C")
        store.sync()
        assert recover_graph(target).num_vertices == 3

    def test_closed_store_stops_logging(self, tmp_path):
        target = tmp_path / "d"
        store = GraphStore.create(target, small_graph())
        store.close()
        store.graph.add_vertex("C")  # no longer logged
        assert recover_graph(target).num_vertices == 2
        with pytest.raises(StorageError):
            store.checkpoint()


class TestCheckpoint:
    def test_checkpoint_folds_and_prunes(self, tmp_path):
        target = tmp_path / "d"
        store = GraphStore.create(target, small_graph())
        store.graph.add_vertex("C")
        path = store.checkpoint()
        assert path.name == snapshot_name(2)
        names = sorted(p.name for p in target.iterdir())
        assert names == [snapshot_name(2), wal_name(2)]
        store.graph.add_vertex("D")
        store.close()
        recovered = recover_graph(target)
        assert graph_state(recovered) == graph_state(store.graph)

    def test_repeated_checkpoints(self, tmp_path):
        target = tmp_path / "d"
        store = GraphStore.create(target, small_graph())
        for i in range(4):
            store.graph.add_vertex("C", {"i": i})
            store.checkpoint()
        assert store.generation == 5
        store.close()
        assert graph_state(recover_graph(target)) == \
            graph_state(store.graph)

    def test_wal_shrinks_after_checkpoint(self, tmp_path):
        target = tmp_path / "d"
        store = GraphStore.create(target, small_graph())
        for i in range(50):
            store.graph.add_vertex("C", {"i": i})
        store.sync()
        before = store.wal_size_bytes()
        store.checkpoint()
        assert store.wal_size_bytes() < before
        store.close()


class TestSessionIntegration:
    def test_session_open_checkpoint_close(self, tmp_path):
        target = tmp_path / "d"
        GraphStore.create(target, small_graph()).close()
        with connect(target) as db:
            db.graph.add_vertex("C")
            with db.session() as session:
                assert session.run(
                    "MATCH (c:C) RETURN count(c) AS n"
                ).single()["n"] == 1
            db.checkpoint()
        recovered = recover_graph(target)
        assert recovered.num_vertices == 3

    def test_session_without_store_raises_on_checkpoint(self):
        db = connect(small_graph())
        with pytest.raises(GraphError, match="no backing store"):
            db.checkpoint()
        db.close()  # no store to flush


class TestFallbackSafety:
    """Open/prune must never destroy a newer generation's files."""

    def corrupt_gen2(self, target):
        store = GraphStore.create(target, small_graph())
        store.graph.add_vertex("C")
        store.checkpoint()
        store.close()
        snap2 = target / snapshot_name(2)
        blob = bytearray(snap2.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        # Recreate a generation-1 fallback, then corrupt generation 2.
        from repro.graphdb.storage import write_snapshot

        write_snapshot(recover_graph(target), target / snapshot_name(1), 1)
        snap2.write_bytes(bytes(blob))
        return snap2

    def test_open_keeps_newer_generation_files(self, tmp_path):
        target = tmp_path / "d"
        snap2 = self.corrupt_gen2(target)
        with GraphStore.open(target) as store:
            assert store.generation == 1
        # The corrupt-but-newer snapshot is quarantined, not deleted:
        # the bytes stay on disk for inspection under a name recovery
        # will not re-validate on every open.
        assert not snap2.exists()
        assert snap2.with_name(snap2.name + ".quarantined").exists()

    def test_checkpoint_replaces_stale_target_wal(self, tmp_path):
        target = tmp_path / "d"
        self.corrupt_gen2(target)
        # Plant a stale wal-2 with abandoned records.
        from repro.graphdb.storage import WriteAheadLog, read_wal

        stale = WriteAheadLog(target / wal_name(2), generation=2)
        stale.append("add_vertex", (99, frozenset({"Stale"}), {}))
        stale.close()
        with GraphStore.open(target) as store:
            store.graph.add_vertex("D")
            store.checkpoint()
            assert store.generation == 2
            expected = graph_state(store.graph)
        scan = read_wal(target / wal_name(2))
        assert scan.records == []  # stale records are gone
        assert graph_state(recover_graph(target)) == expected

    def test_overwrite_refuses_foreign_files(self, tmp_path):
        target = tmp_path / "d"
        GraphStore.create(target, small_graph()).close()
        (target / "precious.txt").write_text("do not delete")
        with pytest.raises(StorageError, match="non-store"):
            GraphStore.create(target, small_graph(), overwrite=True)
        assert (target / "precious.txt").read_text() == "do not delete"
