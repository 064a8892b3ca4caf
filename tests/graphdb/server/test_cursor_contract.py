"""The cursor contract, once for both cursors.

``Result`` - fed row by row (the tuple path) and chunk by chunk (the
batch path) - and ``RemoteResult`` share one cursor core, so every
promise below is checked against all three: whatever mix of reads a
caller makes, each row comes out exactly once and in order, and
nothing it has read is kept.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest

from repro.exceptions import QueryError
from repro.graphdb.api.database import connect
from repro.graphdb.api.result import Record
from repro.graphdb.graph import PropertyGraph

ROWS = 60
QUERY = "MATCH (n:N) RETURN n.name AS name, n.i AS i"
EXPECTED = [(f"name-{i:03d}", i) for i in range(ROWS)]
KINDS = ["tuple", "batch", "remote"]


def graph_of(rows: int) -> PropertyGraph:
    graph = PropertyGraph("cursor")
    for i in range(rows):
        graph.add_vertex(["N"], {"name": f"name-{i:03d}", "i": i})
    return graph


class Env:
    """One session of ``kind`` and the query that takes its path."""

    def __init__(self, kind, server_factory, rows=ROWS, fetch_size=7):
        self.kind = kind
        graph = graph_of(rows)
        if kind == "remote":
            harness = server_factory(connect(graph))
            self.db = connect(harness.url)
            self.session = self.db.session(fetch_size=fetch_size)
        else:
            self.db = connect(graph)
            self.session = self.db.session()
        # A bare LIMIT keeps a query off the batch path.
        self.query = QUERY + (" LIMIT 1000000" if kind == "tuple" else "")
        self.mode = "tuple" if kind == "tuple" else "vectorized"

    def run(self, where: str = ""):
        query = self.query.replace(" RETURN", f" {where} RETURN")
        return self.session.run(query)

    def close(self) -> None:
        self.session.close()
        self.db.close()


@pytest.fixture(params=KINDS)
def env(request, server_factory):
    env = Env(request.param, server_factory)
    yield env
    env.close()


def holds_nothing(result) -> bool:
    """No chunk queued, no row of the last one unread."""
    return not result._chunks and next(result._rows, None) is None


# ----------------------------------------------------------------------
# Each row once, in order, whatever the mix of reads
# ----------------------------------------------------------------------
def read(result, op: str, rng: random.Random) -> list[tuple]:
    if op == "next":
        return [tuple(r) for r in islice(result, rng.randint(1, 9))]
    if op == "batch":
        count, columns = next(result.batches(), (0, [[], []]))
        assert [len(column) for column in columns] == [count, count]
        return list(zip(*columns))
    if op == "single":
        try:
            return [tuple(result.single())]
        except QueryError:
            return []  # none left, or put back
    if op == "batches":
        return [
            row for _, columns in result.batches() for row in zip(*columns)
        ]
    if op == "values":
        return [tuple(row) for row in result.values()]
    assert op == "records"
    return [tuple(record) for record in result.records()]


@pytest.mark.parametrize("seed", range(12))
def test_mixed_reads_give_each_row_once_in_order(env, seed):
    rng = random.Random(seed)
    result = env.run()
    assert result.keys() == ["name", "i"]
    seen = []
    for _ in range(rng.randint(0, 8)):
        seen += read(result, rng.choice(["next", "batch", "single"]), rng)
    last = rng.choice(["batches", "values", "records", "consume"])
    if last != "consume":
        seen += read(result, last, rng)
        assert seen == EXPECTED
    assert seen == EXPECTED[:len(seen)]
    summary = result.consume()
    assert summary.rows == ROWS  # rows pulled, not rows read
    assert summary.mode == env.mode
    assert list(result) == [] and list(result.batches()) == []
    assert holds_nothing(result)
    assert env.session.last_summary() is summary


def test_records_are_built_when_iterated(env):
    result = env.run()
    first = next(iter(result))
    assert first == Record(["name", "i"], EXPECTED[0])
    assert first["name"] == "name-000" and first[1] == 0
    rest = list(result.batches())
    assert sum(count for count, _ in rest) == ROWS - 1
    assert all(
        type(column) is list for _, columns in rest for column in columns
    )


def test_rows_are_of_one_cached_class_per_column_tuple(env):
    first, second = list(env.run()), list(env.run())
    assert len(first) == len(second) == ROWS
    assert {type(r) for r in first + second} == {
        type(Record(["name", "i"], ()))
    }
    assert isinstance(first[0], Record)


# ----------------------------------------------------------------------
# single()
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fetch_size", [1, 2, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_single_of_none_one_and_many(kind, fetch_size, server_factory):
    env = Env(kind, server_factory, fetch_size=fetch_size)
    try:
        with pytest.raises(QueryError, match="none"):
            env.run("WHERE n.i < 0").single()
        assert tuple(env.run("WHERE n.i = 5").single()) == EXPECTED[5]
        # Many: both records go back - also when the second came from
        # the next chunk (a fetch_size of 1) - and the cursor reads on
        # from the first.
        result = env.run()
        for _ in range(2):
            with pytest.raises(QueryError, match="more than one"):
                result.single()
        assert [tuple(r) for r in islice(result, 3)] == EXPECTED[:3]
        with pytest.raises(QueryError, match="more than one"):
            result.single()
        assert [tuple(r) for r in result] == EXPECTED[3:]
        assert result.consume().rows == ROWS
    finally:
        env.close()


def test_a_put_back_under_a_live_iterator_loses_nothing(env):
    result = env.run()
    live = iter(result)
    seen = [tuple(next(live))]
    with pytest.raises(QueryError, match="more than one"):
        result.single()
    seen += [tuple(record) for record in live]
    assert sorted(seen) == EXPECTED and list(result) == []


# ----------------------------------------------------------------------
# Detach on the next query
# ----------------------------------------------------------------------
def test_detach_on_next_query_keeps_the_remaining_rows(env):
    first = env.run()
    head = [tuple(r) for r in islice(first, 4)]
    second = env.session.run("MATCH (n:N) RETURN count(*) AS n")
    assert second.single()["n"] == ROWS
    assert head + [tuple(r) for r in first] == EXPECTED
    assert first.consume().rows == ROWS


# ----------------------------------------------------------------------
# What it has read, it does not keep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
def test_a_streamed_scan_never_holds_more_than_two_chunks(
    kind, server_factory
):
    rows = 50_000
    env = Env(kind, server_factory, rows=rows, fetch_size=1000)
    try:
        result = env.run()
        seen = queued = 0
        for record in result:
            assert record[1] == seen
            seen += 1
            # The chunk being read, and at most one behind it.
            queued = max(queued, len(result._chunks))
        assert seen == rows and queued <= 1
        assert holds_nothing(result)
        assert result.consume().rows == rows
        # Read as chunks, no chunk is bigger than a batch of its source.
        sizes = [count for count, _ in env.run().batches()]
        assert sum(sizes) == rows and max(sizes) <= 4096
    finally:
        env.close()


# ----------------------------------------------------------------------
# A chunk of the wrong width is refused by the server, not sent
# ----------------------------------------------------------------------
def test_a_chunk_of_the_wrong_width_is_an_error(
    server_factory, monkeypatch
):
    from repro.graphdb.api.result import Result
    from repro.graphdb.server import protocol as wire

    env = Env("remote", server_factory)
    try:
        batches = Result.batches
        monkeypatch.setattr(Result, "batches", lambda self: (
            (count, columns[:1]) for count, columns in batches(self)
        ))
        with pytest.raises(wire.ProtocolError, match="chunk width 1, result width 2"):
            env.run()
        monkeypatch.undo()
        assert env.run().consume().rows == ROWS  # one ERROR, nothing else
    finally:
        env.close()
