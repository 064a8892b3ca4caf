"""Remote as a leg of the differential corpus (rows half).

The generated queries of ``tests/graphdb/test_differential.py`` - nulls,
NaN and infinite floats, strings, ``collect`` lists, entity returns,
every ORDER BY / DISTINCT / aggregate shape the generator draws - run
through one server, and what the client decodes must equal the
in-process result: same columns, same rows, same order.  Work counters
stay server-side, so that half of the contract is not checked here.
"""

import random

import pytest

from repro.graphdb.api.database import connect
from tests.graphdb.diffquery import QueryGen, norm_rows
from tests.graphdb.test_differential import CORPUS_SIZE, SEED

pytestmark = pytest.mark.diff_seed


def test_corpus_rows_survive_the_wire(diff_graph, server_factory):
    harness = server_factory(connect(diff_graph))
    gen = QueryGen(random.Random(SEED))
    rows_seen = 0
    with connect(diff_graph).session() as local, \
            connect(harness.url) as remote_db, \
            remote_db.session() as remote:
        for i in range(CORPUS_SIZE):
            text, params = gen.query()
            context = f"seed={SEED} query #{i}: {text!r} {params!r}"
            expected = local.run(text, params)
            got = remote.run(text, params)
            assert got.keys() == expected.keys(), context
            want = norm_rows(tuple(record) for record in expected)
            assert norm_rows(
                tuple(record) for record in got
            ) == want, context
            assert got.consume().rows == len(want), context
            rows_seen += len(want)
    assert rows_seen > CORPUS_SIZE, f"seed={SEED}: a near-empty corpus"
