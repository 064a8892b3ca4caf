"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``optimize``
    Read an ontology (JSON or the OWL-ish functional syntax), optimize
    its schema, and print DDL::

        python -m repro optimize onto.json --budget 0.5 --format cypher

``inspect``
    Summarize an ontology: element counts, OntologyPR key concepts, and
    the priced rule applications::

        python -m repro inspect onto.json

``demo``
    Run a built-in dataset end-to-end (optimize, load, rewrite,
    compare DIR vs OPT latency)::

        python -m repro demo med --scale 0.5

    ``--explain`` additionally prints each query's ``EXPLAIN ANALYZE``
    plan (scan access path, expand order, pushed-down predicates, and
    the cost-based planner's estimated vs. actual rows per step) on
    both the direct and the optimized graph.  Every run builds both
    graphs from the dataset.

``save``
    Materialize a built-in dataset graph into a durable data
    directory (snapshot + write-ahead log)::

        python -m repro save med ./med-data --scale 0.5 --graph opt

``load``
    Recover a data directory (latest snapshot + WAL replay), print
    the recovery report, and optionally run a query or compact::

        python -m repro load ./med-data --query "MATCH (d:Drug) RETURN count(*)"
        python -m repro load ./med-data --checkpoint

``stats``
    Recover a data directory read-only and dump its shape as JSON:
    label and edge-type cardinalities plus, per label-set table, the
    row count and each property column's dtype::

        python -m repro stats ./med-data

``query``
    Run one Cypher-subset query against a data directory (recovered
    read-only) through the driver API, with ``$name`` parameters bound
    from ``--param`` flags::

        python -m repro query ./med-data \\
            'MATCH (d:Drug {name: $name}) RETURN d.name' \\
            --param name=aspirin --format json

    (Single-quote the query in a shell: ``$name`` inside double
    quotes would be expanded by the shell, not bound by the engine.)
    ``--timeout`` and ``--max-rows`` arm the driver's query
    guardrails.  ``--trace`` records a per-query span tree (parse ->
    plan -> execute with per-operator timings) and prints it after
    the result; with ``--format json`` the payload carries the full
    result summary (work metrics, latency, plan digest) and the
    trace as structured data.

``serve``
    Serve a data directory over TCP (the ``repro://`` wire protocol),
    with an optional HTTP sidecar for ``/health`` and ``/metrics``::

        python -m repro serve ./med-data --port 7688 --http-port 7689

    Any number of clients read concurrently (each query pinned to the
    graph epoch it started on); writes serialize through one writer
    slot with group-committed fsyncs.  ``--readonly`` rejects writes
    at the protocol level; ``--max-connections`` bounds concurrent
    clients (excess connections are refused with an ERROR frame);
    ``--idle-timeout`` / ``--query-timeout`` / ``--max-rows`` arm the
    server-side guardrails.  ``repro query`` accepts ``repro://`` URLs
    in place of a data directory, so a remote smoke test is::

        python -m repro query repro://127.0.0.1:7688 \\
            'MATCH (d:Drug) RETURN count(*) AS n' --format json

    SIGINT/SIGTERM shut down cleanly (flushing the WAL).

``metrics``
    Recover a data directory (populating the recovery, WAL, and plan
    instruments), optionally run queries or a checkpoint against it,
    and dump the process-global metrics registry::

        python -m repro metrics ./med-data \\
            --query 'MATCH (d:Drug) RETURN count(*)' --format prom

    ``--format json`` (default) prints the registry snapshot;
    ``prom`` prints a Prometheus text exposition.

``verify``
    Audit a data directory offline: validate every generation's
    snapshot checksums and WAL framing without repairing anything,
    and print a per-generation JSON report::

        python -m repro verify ./med-data

    Exits 0 when every artifact is intact, 1 when corruption (or a
    torn WAL tail) was found, 2 when the path is not a data
    directory.

Exit codes: 0 on success, 1 for invalid inputs, query errors, or
corrupt/missing data (:class:`~repro.exceptions.ReproError`, I/O and
JSON errors), 2 for command-line usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro import __version__

from repro.bench.harness import build_pipeline
from repro.bench.reporting import ExperimentTable, speedup
from repro.exceptions import ReproError
from repro.graphdb.backends import NEO4J_LIKE
from repro.ontology.io import load_owl_functional, ontology_from_dict
from repro.ontology.model import Ontology
from repro.ontology.stats import synthesize_statistics
from repro.ontology.validation import validate_ontology
from repro.optimizer import CostBenefitModel, ontology_pagerank, optimize
from repro.rules.base import Thresholds
from repro.schema.ddl import to_cypher_ddl, to_gsql
from repro.workload.runner import run_queries


def load_ontology(path: str) -> Ontology:
    """Load a JSON or OWL-ish ontology file."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        ontology = ontology_from_dict(json.loads(text))
    else:
        ontology = load_owl_functional(text, name=Path(path).stem)
    validate_ontology(ontology)
    return ontology


def _common_inputs(args) -> tuple[Ontology, object, object, Thresholds]:
    ontology = load_ontology(args.ontology)
    stats = synthesize_statistics(
        ontology, base_cardinality=args.base_cardinality
    )
    from repro.ontology.workload import WorkloadSummary

    workload = (
        WorkloadSummary.zipf(ontology)
        if args.workload == "zipf"
        else WorkloadSummary.uniform(ontology)
    )
    thresholds = Thresholds(args.theta1, args.theta2)
    return ontology, stats, workload, thresholds


def cmd_optimize(args) -> int:
    ontology, stats, workload, thresholds = _common_inputs(args)
    model = CostBenefitModel(ontology, stats, workload, thresholds)
    budget = (
        None if args.budget is None
        else model.budget_for_fraction(args.budget)
    )
    result = optimize(ontology, stats, budget, workload, thresholds)
    print(f"# {result.summary()}", file=sys.stderr)
    if args.format == "gsql":
        print(to_gsql(result.schema))
    else:
        print(to_cypher_ddl(result.schema))
    return 0


def cmd_inspect(args) -> int:
    ontology, stats, workload, thresholds = _common_inputs(args)
    print(ontology.summary())
    ranks = ontology_pagerank(ontology)
    top = sorted(
        ontology.concepts, key=lambda c: -ranks[c]
    )[: args.top]
    print(f"\nTop {len(top)} concepts by OntologyPR:")
    for concept in top:
        print(f"  {ranks[concept]:.4f}  {concept}")
    model = CostBenefitModel(ontology, stats, workload, thresholds)
    table = ExperimentTable(
        "\nPriced rule applications",
        ["rule family", "items", "total benefit", "total cost (B)"],
    )
    by_family: dict[str, list] = {}
    for item in model.items:
        by_family.setdefault(item.rel_type.value, []).append(item)
    for family, items in sorted(by_family.items()):
        table.add_row(
            family, len(items),
            round(sum(i.benefit for i in items), 1),
            sum(i.cost for i in items),
        )
    print(table.render())
    return 0


def _build_dataset(name: str):
    from repro.datasets import build_fin, build_med

    return build_fin() if name == "fin" else build_med()


def cmd_demo(args) -> int:
    dataset = _build_dataset(args.dataset)
    pipeline = build_pipeline(dataset, scale=args.scale)
    print(pipeline.result.summary())
    print(pipeline.dir_graph.summary())
    print(pipeline.opt_graph.summary())
    if args.explain:
        with pipeline.database("dir").session() as dir_session, \
                pipeline.database("opt").session() as opt_session:
            for qid in sorted(dataset.queries, key=lambda q: int(q[1:])):
                print(f"\n{qid} on DIR:")
                print(
                    dir_session.explain(dataset.queries[qid], analyze=True)
                )
                print(f"{qid} on OPT (rewritten):")
                print(
                    opt_session.explain(
                        pipeline.rewritten[qid], analyze=True
                    )
                )
    table = ExperimentTable(
        f"{dataset.name} microbenchmark (neo4j-like, ms simulated)",
        ["query", "DIR", "OPT", "speedup"],
    )
    for qid in sorted(dataset.queries, key=lambda q: int(q[1:])):
        dir_run = run_queries(
            pipeline.dir_graph, NEO4J_LIKE,
            [(qid, dataset.queries[qid])],
        ).runs[0]
        opt_run = run_queries(
            pipeline.opt_graph, NEO4J_LIKE,
            [(qid, pipeline.rewritten[qid])],
        ).runs[0]
        table.add_row(
            qid, round(dir_run.latency_ms, 2),
            round(opt_run.latency_ms, 2),
            round(speedup(dir_run.latency_ms, opt_run.latency_ms), 2),
        )
    print(table.render())
    return 0


def cmd_save(args) -> int:
    from repro.data.loader import load_direct
    from repro.graphdb.storage import GraphStore

    dataset = _build_dataset(args.dataset)
    if args.graph == "opt":
        pipeline = build_pipeline(dataset, scale=args.scale)
        graph = pipeline.opt_graph
    else:
        graph = load_direct(
            dataset.logical(scale=args.scale),
            name=f"{dataset.name}-DIR",
        )
    store = GraphStore.create(
        args.data_dir, graph, overwrite=args.force
    )
    store.close()
    print(f"saved {graph.summary()}")
    print(f"  -> {Path(args.data_dir).resolve()} "
          f"(generation {store.generation})")
    return 0


def cmd_load(args) -> int:
    from repro.exceptions import StorageError
    from repro.graphdb.api import connect

    with connect(args.data_dir, create=False) as db:
        if db.store is None or db.store.recovery is None:
            # connect() also accepts bare snapshot files; load is
            # about recovering a *directory* (WAL replay, checkpoint).
            raise StorageError(
                f"{args.data_dir} is not a data directory "
                "(use 'repro query' for snapshot files)"
            )
        print(f"recovered: {db.store.recovery.summary()}")
        print(db.graph.summary())
        if args.query:
            with db.session() as session:
                result = session.run(args.query)
                for record in result:
                    print(
                        "  " + "\t".join(str(v) for v in record)
                    )
                summary = result.consume()
            print(f"({summary.rows} row(s), "
                  f"{summary.latency_ms:.2f} ms simulated)")
        if args.checkpoint:
            snapshot_path = db.checkpoint()
            print(f"checkpointed -> {snapshot_path.name}")
    return 0


def _jsonable(value):
    """Result values as JSON-encodable structures.

    Vertex/edge bindings become ``{"vertex": id}`` / ``{"edge": id}``
    markers; lists recurse; everything else is a JSON scalar already.
    """
    from repro.graphdb.query.executor import EdgeBinding, VertexBinding

    if isinstance(value, VertexBinding):
        return {"vertex": value.vid}
    if isinstance(value, EdgeBinding):
        return {"edge": value.eid}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def cmd_verify(args) -> int:
    from repro.graphdb.storage import verify_directory

    try:
        report = verify_directory(args.data_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def cmd_query(args) -> int:
    from repro.graphdb.api import connect

    params = dict(args.params or [])
    with connect(args.data_dir, readonly=True) as db:
        with db.session() as session:
            result = session.run(
                args.query, params,
                timeout=args.timeout, max_rows=args.max_rows,
                trace=args.trace,
            )
            records = [
                row for _, cols in result.batches() for row in zip(*cols)
            ]
            summary = result.consume()
    if args.format == "json":
        # The full ResultSummary, not just rows: work counters, real
        # and simulated latency, and the executed plan's digest, so a
        # scripted caller gets everything the driver knows.
        payload = {
            "columns": summary.columns,
            "rows": [
                [_jsonable(v) for v in row] for row in records
            ],
            "row_count": summary.rows,
            "latency_ms": round(summary.latency_ms, 3),
            "elapsed_ms": round(summary.elapsed_ms, 3),
            "plan_digest": summary.plan_digest,
            "mode": summary.mode,
            "fallback_reason": summary.fallback_reason,
            "parameters": {
                name: _jsonable(value)
                for name, value in summary.parameters.items()
            },
            "metrics": summary.metrics.as_dict(),
        }
        if args.explain:
            payload["plan"] = summary.plan.splitlines()
        if args.trace:
            payload["trace"] = summary.trace.as_dict()
        print(json.dumps(payload, indent=2))
        return 0
    table = ExperimentTable(
        f"{len(records)} row(s), {summary.latency_ms:.2f} ms simulated",
        summary.columns,
    )
    for row in records:
        table.add_row(*[str(v) for v in row])
    print(table.render())
    if args.explain:
        print("\nplan:")
        print(summary.plan)
    if args.trace:
        print("\ntrace:")
        print(summary.trace.render())
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.graphdb import faults
    from repro.graphdb.api import connect
    from repro.graphdb.server import GraphServer, ServerConfig

    database = connect(
        args.data_dir, create=False, readonly=args.readonly
    )
    server = GraphServer(database, ServerConfig(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        readonly=args.readonly,
        max_connections=args.max_connections,
        idle_timeout=args.idle_timeout,
        query_timeout=args.query_timeout,
        max_rows=args.max_rows,
        group_window=args.group_window,
    ))

    async def _serve() -> None:
        await server.start()
        host, port = server.address
        mode = " (read-only)" if server.readonly else ""
        print(
            f"serving {args.data_dir} on repro://{host}:{port}{mode}",
            flush=True,
        )
        if server.http_address is not None:
            http_host, http_port = server.http_address
            print(
                f"http sidecar on http://{http_host}:{http_port} "
                "(/health, /metrics)",
                flush=True,
            )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.request_stop)
        try:
            await server.serve_forever()
        finally:
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(sig)

    try:
        asyncio.run(_serve())
    except faults.SimulatedCrash as crash:
        print(f"server crashed (injected fault: {crash})",
              file=sys.stderr)
        return 1
    print("server stopped", flush=True)
    return 0


def cmd_metrics(args) -> int:
    from repro.graphdb.api import connect
    from repro.graphdb.observe import render_prometheus

    # --checkpoint needs a writable open; plain dumps recover
    # read-only (which still exercises - and counts - recovery).
    writable = bool(args.checkpoint)
    with connect(args.data_dir, readonly=not writable) as db:
        for query in args.queries or []:
            with db.session() as session:
                session.run(query).consume()
        if args.checkpoint:
            db.checkpoint()
        snapshot = db.metrics()
    if args.format == "prom":
        print(render_prometheus(), end="")
    else:
        print(json.dumps(snapshot, indent=2))
    return 0


def cmd_stats(args) -> int:
    from collections import Counter

    from repro.exceptions import StorageError
    from repro.graphdb.storage import recover_graph
    from repro.graphdb.storage.recovery import RecoveryManager

    data_dir = Path(args.data_dir)
    manager = RecoveryManager(data_dir)
    if not data_dir.is_dir() or not (
        manager.snapshot_generations() or manager.wal_generations()
    ):
        raise StorageError(f"no graph store at {data_dir}")
    graph = recover_graph(data_dir)
    symbols = graph.symbols
    edge_types = Counter(
        symbols.name(sid) for sid in graph._e_label if sid >= 0
    )
    tables = [
        {
            "labels": sorted(table.labels),
            "rows": table.live,
            "columns": {
                symbols.name(key_sid): column.kind
                for key_sid, column in sorted(table.columns.items())
                if column.count
            },
        }
        for table in graph.iter_tables()
        if table.live
    ]
    report = {
        "name": graph.name,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "labels": {
            label: graph.label_count(label) for label in graph.labels()
        },
        "edge_types": dict(sorted(edge_types.items())),
        "tables": tables,
    }
    print(json.dumps(report, indent=2))
    return 0


def _param_kv(text: str) -> tuple[str, object]:
    """``--param NAME=VALUE``; VALUE parses as JSON, else raw string."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}"
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return name, value


def _scale(text: str) -> float:
    """``--scale FACTOR``: a finite number above 0."""
    value = float(text)  # argparse reports a ValueError as usage
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Ontology-driven property graph schema optimization "
            "(ICDE 2021 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("ontology", help="ontology file (JSON or OWL-ish)")
        p.add_argument("--base-cardinality", type=int, default=1000,
                       help="synthetic instance count per leaf concept")
        p.add_argument("--workload", choices=("uniform", "zipf"),
                       default="uniform")
        p.add_argument("--theta1", type=float, default=0.66)
        p.add_argument("--theta2", type=float, default=0.33)

    p_opt = sub.add_parser("optimize", help="emit an optimized schema")
    add_common(p_opt)
    p_opt.add_argument(
        "--budget", type=float, default=None,
        help="space budget as a fraction of the NSC overhead "
             "(omit for unconstrained Algorithm 5)",
    )
    p_opt.add_argument("--format", choices=("cypher", "gsql"),
                       default="cypher")
    p_opt.set_defaults(fn=cmd_optimize)

    p_ins = sub.add_parser("inspect", help="summarize an ontology")
    add_common(p_ins)
    p_ins.add_argument("--top", type=int, default=10,
                       help="how many key concepts to list")
    p_ins.set_defaults(fn=cmd_inspect)

    p_demo = sub.add_parser("demo", help="run a built-in dataset demo")
    p_demo.add_argument("dataset", choices=("med", "fin"))
    p_demo.add_argument(
        "--scale", type=_scale, default=0.5, metavar="FACTOR",
        help="cardinality multiplier for the generated data (10-100x "
             "supported)",
    )
    p_demo.add_argument(
        "--explain", action="store_true",
        help="print each query's EXPLAIN ANALYZE plan (estimated vs "
             "actual rows per step) before the latency table",
    )
    p_demo.set_defaults(fn=cmd_demo)

    p_save = sub.add_parser(
        "save", help="materialize a dataset graph into a data directory"
    )
    p_save.add_argument("dataset", choices=("med", "fin"))
    p_save.add_argument("data_dir", help="target data directory")
    p_save.add_argument(
        "--scale", type=_scale, default=0.5, metavar="FACTOR",
        help="cardinality multiplier for the generated data (10-100x "
             "supported)",
    )
    p_save.add_argument(
        "--graph", choices=("dir", "opt"), default="dir",
        help="which materialization to persist (default: dir)",
    )
    p_save.add_argument(
        "--force", action="store_true",
        help="overwrite a non-empty data directory",
    )
    p_save.set_defaults(fn=cmd_save)

    p_load = sub.add_parser(
        "load", help="recover a data directory and summarize it"
    )
    p_load.add_argument("data_dir", help="data directory to open")
    p_load.add_argument(
        "--query", default=None,
        help="run one Cypher query against the recovered graph",
    )
    p_load.add_argument(
        "--checkpoint", action="store_true",
        help="compact the WAL into a fresh snapshot before exiting",
    )
    p_load.set_defaults(fn=cmd_load)

    p_stats = sub.add_parser(
        "stats",
        help="dump a data directory's cardinalities and column dtypes",
    )
    p_stats.add_argument("data_dir", help="data directory to inspect")
    p_stats.set_defaults(fn=cmd_stats)

    p_query = sub.add_parser(
        "query",
        help="run one Cypher query against a data directory (read-only)",
    )
    p_query.add_argument(
        "data_dir",
        help="data directory, .rpgs snapshot, or repro:// server URL "
             "to query",
    )
    p_query.add_argument("query", help="Cypher-subset query text")
    p_query.add_argument(
        "--param", dest="params", action="append", type=_param_kv,
        metavar="NAME=VALUE",
        help="bind a $NAME query parameter; VALUE parses as JSON, "
             "falling back to a plain string (repeatable)",
    )
    p_query.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )
    p_query.add_argument(
        "--explain", action="store_true",
        help="also print the executed plan (est vs actual rows)",
    )
    p_query.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="abort the query when it exceeds this wall-clock budget",
    )
    p_query.add_argument(
        "--max-rows", type=int, default=None, metavar="N",
        help="fail (don't truncate) if the query produces more rows",
    )
    p_query.add_argument(
        "--trace", action="store_true",
        help="record a span tree (parse -> plan -> execute, per-"
             "operator timings) and print it after the result",
    )
    p_query.set_defaults(fn=cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="serve a data directory over TCP (repro:// wire protocol)",
    )
    p_serve.add_argument("data_dir", help="data directory to serve")
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    from repro.graphdb.server.protocol import DEFAULT_PORT

    p_serve.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"TCP port for the wire protocol (default: {DEFAULT_PORT}; "
             "0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="also serve HTTP /health and /metrics on this port",
    )
    p_serve.add_argument(
        "--readonly", action="store_true",
        help="reject BEGIN/MUTATE at the protocol level",
    )
    p_serve.add_argument(
        "--max-connections", type=int, default=64, metavar="N",
        help="refuse connections beyond this many concurrent clients",
    )
    p_serve.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="drop connections idle for longer than this",
    )
    p_serve.add_argument(
        "--query-timeout", type=float, default=None, metavar="SECONDS",
        help="server-side ceiling on per-query wall time",
    )
    p_serve.add_argument(
        "--max-rows", type=int, default=None, metavar="N",
        help="server-side ceiling on rows a query may produce",
    )
    p_serve.add_argument(
        "--group-window", type=float, default=0.0, metavar="SECONDS",
        help="linger this long collecting commits per fsync batch "
             "(0 still batches commits that queue during an fsync)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_metrics = sub.add_parser(
        "metrics",
        help="recover a data directory and dump the engine metrics",
    )
    p_metrics.add_argument("data_dir", help="data directory to open")
    p_metrics.add_argument(
        "--query", dest="queries", action="append", metavar="CYPHER",
        help="run this query before dumping metrics (repeatable)",
    )
    p_metrics.add_argument(
        "--checkpoint", action="store_true",
        help="open writable and checkpoint before dumping (exercises "
             "the WAL and snapshot instruments)",
    )
    p_metrics.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="JSON registry snapshot or Prometheus text exposition",
    )
    p_metrics.set_defaults(fn=cmd_metrics)

    p_verify = sub.add_parser(
        "verify",
        help="audit a data directory's snapshots and WAL (read-only)",
    )
    p_verify.add_argument("data_dir", help="data directory to audit")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
