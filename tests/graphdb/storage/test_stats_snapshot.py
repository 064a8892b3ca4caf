"""Statistics across snapshots and stores: derived, never stored.

A snapshot carries no planner statistics (section 6 is retired and
skipped on read).  A reopened graph builds its counts on its first
query from the columns it decoded, and its equality estimates read
those columns, so both equal the statistics of the graph that was
written - exactly - and a snapshot that still carries a section 6
opens and plans.
"""

import base64

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import Executor
from repro.graphdb.session import GraphSession
from repro.graphdb.statistics import GraphStatistics
from repro.graphdb.storage import (
    GraphStore,
    read_snapshot,
    write_snapshot,
)
from repro.graphdb.storage.snapshot import _validate_layout
from tests.graphdb.stats_oracle import assert_estimates_match
from tests.graphdb.test_statistics import snapshot_of

#: A snapshot with the section 6 the encoder wrote while statistics
#: were stored, after the other five (format version 2, whose sections
#: 1-5 the current encoder wrote): three ``Drug`` vertices (``name``
#: d0-d2, ``tier`` 0/1/0), one ``Condition:Tagged`` (``desc`` "x"),
#: three ``treats`` edges into it, an index on ``Drug.name``.
SECTION_6_SNAPSHOT = base64.b64decode(
    "UlBHU05BUDECAAAABgAAAAoy75MBkgAAAAAAAAATAAAAAAAAACmLYC0CpQAAAAAAAAAt"
    "AAAAAAAAAMLzb34D0gAAAAAAAAAzAAAAAAAAAL1TJ0AEBQEAAAAAAAASAAAAAAAAAMW3"
    "ar4FFwEAAAAAAAADAAAAAAAAAJ/iimcGGgEAAAAAAABjAAAAAAAAAICNQmgNcGFyZW50"
    "LWxheW91dAAEAwQDBwREcnVnCUNvbmRpdGlvbgZUYWdnZWQEbmFtZQR0aWVyBGRlc2MG"
    "dHJlYXRzBAIAAQIDAgEAAgECAgAAAAEDAwMCAAECAQhkMABkMQBkMgQDAgABAgIAAQAF"
    "AQIDAQF4AwIAAQICAAECAgMDAwIGBgYAAQADAAQDAwADAQECAQEGAwEGAAMCBgEDBgID"
    "AQADAgEDAgMBAQIBAgYAAQMGAAIDBAADAwADAwUCZDABBQJkMQEFAmQyAQAEAwACAgMA"
    "AgMCAQEFAQABAQUBeAECBQEAAQEFAXgB"
)


def build_graph() -> PropertyGraph:
    g = PropertyGraph("stats-rt")
    drugs = [
        g.add_vertex("Drug", {"name": f"d{i}", "tier": i % 3})
        for i in range(6)
    ]
    inds = [
        g.add_vertex(["Indication", "Tagged"], {"desc": f"x{i % 2}"})
        for i in range(4)
    ]
    for i, ind in enumerate(inds):
        g.add_edge(drugs[i], ind, "treat")
    g.create_property_index("Drug", "name")
    return g


def section_ids(path) -> list[int]:
    return sorted(_validate_layout(path.read_bytes(), path))


class TestSnapshotRoundtrip:
    def test_counters_survive(self, tmp_path):
        g = build_graph()
        stats = g.statistics()
        path = tmp_path / "snap"
        write_snapshot(g, path, 1)
        loaded = read_snapshot(path)
        assert loaded._stats is None
        assert snapshot_of(loaded.statistics()) == snapshot_of(stats)
        assert assert_estimates_match(
            loaded.statistics(), loaded
        ) == assert_estimates_match(stats, g)
        assert loaded.statistics().eq_estimate("Drug", "tier", 0) == 2.0

    def test_without_stats_section(self, tmp_path):
        g = build_graph()
        g.statistics()  # built, and still not written
        path = tmp_path / "snap"
        write_snapshot(g, path, 1)
        assert section_ids(path) == [1, 2, 3, 4, 5]
        assert read_snapshot(path).statistics().label_count("Drug") == 6

    def test_histograms_are_whole_after_reload(self, tmp_path):
        g = PropertyGraph()
        for i in range(3 * 64):
            value = "common" if i % 3 == 0 else f"rare{i}"
            g.add_vertex("P", {"v": value})
        full = assert_estimates_match(g.statistics(), g)
        path = tmp_path / "snap"
        write_snapshot(g, path, 1)
        loaded = read_snapshot(path)
        restored = loaded.statistics()
        assert assert_estimates_match(restored, loaded) == full
        assert restored.eq_estimate("P", "v", "common") == 64.0
        assert restored.eq_estimate("P", "v", "rare-nonexistent") == 0.0
        assert restored.avg_eq_estimate("P", "v") == 192 / 129

    def test_loaded_stats_stay_live(self, tmp_path):
        path = tmp_path / "snap"
        write_snapshot(build_graph(), path, 1)
        loaded = read_snapshot(path)
        stats = loaded.statistics()
        loaded.remove_vertex(0)  # and its edge: two mutations
        for _ in range(62):
            loaded.add_vertex("Drug")
        rebuilt = loaded.statistics()
        assert rebuilt is not stats
        fresh = GraphStatistics.build(loaded)
        assert snapshot_of(rebuilt) == snapshot_of(fresh)
        assert_estimates_match(rebuilt, loaded)  # after the 64 mutations

    def test_a_section_6_is_skipped_and_the_graph_plans(self, tmp_path):
        path = tmp_path / "old.rpgs"
        path.write_bytes(SECTION_6_SNAPSHOT)
        assert section_ids(path) == [1, 2, 3, 4, 5, 6]
        graph = read_snapshot(path)
        assert graph._stats is None
        assert graph.statistics().label_count("Drug") == 3
        executor = Executor(GraphSession(graph))
        query = (
            "MATCH (d:Drug {name: 'd1'})-[:treats]->(c:Condition) "
            "RETURN d.tier, c.desc"
        )
        assert executor.run(query).rows == [(1, "x")]
        assert "index lookup (Drug.name = 'd1')" in executor.explain(query)


class TestStoreRecovery:
    def test_recovered_statistics_equal_the_live_graphs(self, tmp_path):
        g = build_graph()
        g.statistics()
        store = GraphStore.create(tmp_path / "data", g)
        vid = g.add_vertex("Drug", {"name": "post-snap"})
        g.add_edge(vid, 6, "treat")  # vertex 6 is the first Indication
        g.remove_vertex(0)
        store.close()

        with GraphStore.open(tmp_path / "data", create=False) as opened:
            recovered = opened.graph
            assert recovered._stats is None
            assert snapshot_of(recovered.statistics()) == snapshot_of(
                GraphStatistics.build(g)
            )
            # The live graph after its three post-snapshot mutations.
            assert assert_estimates_match(
                recovered.statistics(), recovered
            ) == assert_estimates_match(g.statistics(), g)

    def test_checkpointed_store_plans_from_its_graph(self, tmp_path):
        g = build_graph()
        g.statistics()
        store = GraphStore.create(tmp_path / "data", g)
        g.add_vertex("NewLabel")
        path = store.checkpoint()
        store.close()
        assert section_ids(path) == [1, 2, 3, 4, 5]
        with GraphStore.open(tmp_path / "data", create=False) as opened:
            assert opened.graph.statistics().label_count("NewLabel") == 1
