"""What a warm ``session.run`` does and does not do.

* The query clock starts in ``Session.run``: ``elapsed_ms``,
  ``repro_query_seconds`` and the slow-query event cover parse, plan
  and compile, not only the cursor.
* A warm run walks no query AST: the parameter names it checks were
  found at planning, a ``Query`` hashes its tree once, and an AST
  query's text is rendered only when ``summary.query`` is read.
"""

import time

from repro.graphdb import PropertyGraph, connect, observe
from repro.graphdb.api import result as result_mod
from repro.graphdb.api import session as session_mod
from repro.graphdb.query import ast, executor as executor_mod
from repro.graphdb.query.parser import parse_query

DELAY_S = 0.05


def graph() -> PropertyGraph:
    g = PropertyGraph("warm")
    drugs = [g.add_vertex("Drug", {"id": i, "name": f"d{i}"}) for i in range(20)]
    for i, drug in enumerate(drugs[1:]):
        g.add_edge(drugs[i], drug, "next")
    g.freeze()
    return g


class TestQueryClock:
    def test_elapsed_covers_planning(self, monkeypatch):
        build_plan = executor_mod.build_plan

        def slow_build_plan(*args, **kwargs):
            time.sleep(DELAY_S)
            return build_plan(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "build_plan", slow_build_plan)
        histogram = result_mod._QUERY_SECONDS
        before = histogram.sum
        with connect(graph()) as db, db.session() as session:
            # A text no other test plans: a plan-cache miss.
            summary = session.run(
                "MATCH (d:Drug) WHERE d.id > $low RETURN d.name AS clock",
                low=3,
            ).consume()
        assert summary.elapsed_ms >= DELAY_S * 1000
        if observe.REGISTRY.enabled:
            assert histogram.sum - before >= DELAY_S


class TestNoTreeWalk:
    def test_warm_runs_hash_no_node_and_render_no_text(self, monkeypatch):
        text = "MATCH (d:Drug)-[:next]->(e:Drug) WHERE d.id < $n RETURN e.name"
        query = parse_query(
            "MATCH (d:Drug)-[:next]->(e:Drug) WHERE e.id >= $n "
            "RETURN d.name, count(e) AS n"
        )
        with connect(graph()) as db, db.session() as session:
            for q in (text, query):  # cold: parse, plan, compile
                assert list(session.run(q, n=5))

            calls = {"hash": 0, "text": 0}
            node_hash, render = ast.NodePattern.__hash__, ast.query_text

            def counted_hash(node):
                calls["hash"] += 1
                return node_hash(node)

            def counted_text(q):
                calls["text"] += 1
                return render(q)

            monkeypatch.setattr(ast.NodePattern, "__hash__", counted_hash)
            for module in (ast, session_mod, result_mod):
                monkeypatch.setattr(
                    module, "query_text", counted_text, raising=False
                )
            summaries = []
            for _ in range(50):
                for q in (text, query):
                    result = session.run(q, n=5)
                    assert len(list(result)) > 0
                    summaries.append(result.consume())
            assert calls == {"hash": 0, "text": 0}
            # The text is still there for whoever reads it.
            assert summaries[-1].query == render(query)
            assert summaries[-2].query == text
            assert calls["text"] == 1

    def test_a_query_hashes_its_tree_once(self, monkeypatch):
        query = parse_query("MATCH (d:Drug {id: $id}) RETURN d.name")
        calls = []
        node_hash = ast.NodePattern.__hash__
        monkeypatch.setattr(
            ast.NodePattern, "__hash__",
            lambda node: calls.append(node) or node_hash(node),
        )
        first = hash(query)
        assert calls and hash(query) == first
        calls.clear()
        assert hash(query) == first and not calls
        # Equal trees still hash and compare equal.
        again = parse_query("MATCH (d:Drug {id: $id}) RETURN d.name")
        assert again == query and hash(again) == first
        assert calls

