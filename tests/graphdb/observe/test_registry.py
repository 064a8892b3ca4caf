"""MetricsRegistry: instruments, thread safety, snapshots."""

import threading

import pytest

from repro.graphdb.observe import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    MetricsRegistry,
)


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestInstrumentCreation:
    def test_getters_are_idempotent(self, reg):
        c1 = reg.counter("c_total")
        c2 = reg.counter("c_total")
        assert c1 is c2
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.labeled_counter("lc", "kind") is reg.labeled_counter(
            "lc", "kind"
        )

    def test_type_conflict_raises(self, reg):
        reg.counter("name")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("name")

    def test_instruments_in_registration_order(self, reg):
        reg.counter("a")
        reg.gauge("b")
        reg.histogram("c")
        assert [i.name for i in reg.instruments()] == ["a", "b", "c"]

    def test_histogram_requires_buckets(self, reg):
        with pytest.raises(ValueError, match="bucket"):
            reg.histogram("empty", buckets=())


class TestCounterGauge:
    def test_counter_inc(self, reg):
        c = reg.counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_set_and_inc(self, reg):
        g = reg.gauge("g")
        g.set(7)
        g.inc(-2)
        assert g.value == 5

    def test_labeled_counter_per_label(self, reg):
        lc = reg.labeled_counter("lc", "kind")
        lc.inc("timeout")
        lc.inc("timeout")
        lc.inc("max_rows", 3)
        assert lc.value("timeout") == 2
        assert lc.value("max_rows") == 3
        assert lc.value("absent") == 0
        assert lc.values == {"timeout": 2, "max_rows": 3}

    def test_disabled_updates_are_noops(self, reg):
        c, g = reg.counter("c"), reg.gauge("g")
        h = reg.histogram("h", buckets=(1.0,))
        lc = reg.labeled_counter("lc", "kind")
        reg.enabled = False
        c.inc()
        g.set(9)
        h.observe(0.5)
        lc.inc("x")
        assert c.value == 0 and g.value == 0.0
        assert h.count == 0 and lc.values == {}
        reg.enabled = True
        c.inc()
        assert c.value == 1


class TestHistogram:
    def test_le_semantics_value_on_bound_lands_in_that_bucket(self, reg):
        h = reg.histogram("h", buckets=(1.0, 10.0))
        h.observe(1.0)  # == first bound -> first bucket (le is <=)
        h.observe(1.0001)  # just past -> second bucket
        h.observe(10.0)  # == last bound -> second bucket
        h.observe(10.5)  # past every bound -> +Inf
        buckets = dict(h.bucket_counts())
        assert buckets[1.0] == 1
        assert buckets[10.0] == 3  # cumulative: 1 + 2
        assert buckets[float("inf")] == 4
        assert h.count == 4
        assert h.sum == pytest.approx(1.0 + 1.0001 + 10.0 + 10.5)

    def test_bucket_counts_are_cumulative_and_end_with_inf(self, reg):
        h = reg.histogram("h", buckets=(1, 2, 3))
        for v in (0.5, 1.5, 2.5, 99):
            h.observe(v)
        assert h.bucket_counts() == [
            (1, 1), (2, 2), (3, 3), (float("inf"), 4)
        ]

    def test_bounds_are_sorted(self, reg):
        h = reg.histogram("h", buckets=(10.0, 1.0, 5.0))
        assert h.bounds == (1.0, 5.0, 10.0)

    def test_default_buckets_are_seconds_scale(self, reg):
        h = reg.histogram("h")
        assert h.bounds == DEFAULT_SECONDS_BUCKETS


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self, reg):
        c = reg.counter("c")
        lc = reg.labeled_counter("lc", "kind")
        h = reg.histogram("h", buckets=(1.0,))
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                c.inc()
                lc.inc("k")
                h.observe(0.5)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert c.value == total
        assert lc.value("k") == total
        assert h.count == total
        assert h.sum == pytest.approx(0.5 * total)

    def test_snapshot_during_updates_does_not_deadlock(self, reg):
        c = reg.counter("c")
        reg.histogram("h", buckets=(1.0,))
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                c.inc()

        t = threading.Thread(target=hammer)
        t.start()
        try:
            for _ in range(50):
                snap = reg.snapshot()
                assert snap["counters"]["c"] >= 0
        finally:
            stop.set()
            t.join()


class TestSnapshotReset:
    def test_snapshot_shape(self, reg):
        reg.counter("c").inc(2)
        reg.gauge("g").set(3)
        reg.labeled_counter("lc", "point").inc("a")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 3}
        assert snap["labeled_counters"]["lc"] == {
            "label": "point", "values": {"a": 1}
        }
        hist = snap["histograms"]["h"]
        assert hist["count"] == 1 and hist["sum"] == 0.5
        assert hist["buckets"][-1] == ["+Inf", 1]

    def test_reset_zeroes_in_place(self, reg):
        c = reg.counter("c")
        h = reg.histogram("h", buckets=(1.0,))
        c.inc(5)
        h.observe(0.5)
        reg.reset()
        assert c.value == 0
        assert h.count == 0 and h.sum == 0.0
        c.inc()  # handle still live after reset
        assert c.value == 1
