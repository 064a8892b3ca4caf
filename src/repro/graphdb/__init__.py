"""Instrumented in-memory property graph engine with a Cypher subset.

Two API levels live here:

* the **driver API** (:mod:`repro.graphdb.api`) - the supported
  application surface: :func:`connect` → :class:`Database` →
  :class:`Session` → :class:`Result`, with ``$name`` query parameters
  and explicit :class:`Transaction` handles.  Start there;
* the **engine API** - :class:`PropertyGraph` (whose reads hand out
  read-only :class:`Vertex` / :class:`Edge` records), the
  instrumented :class:`GraphSession`, and the :class:`Executor`, for
  instrumentation-level work (loaders, benchmarks, planner
  experiments).

The structured exception hierarchy roots at :class:`GraphError`:
:class:`QueryError` (with :class:`QuerySyntaxError` and
:class:`ParameterError` beneath it), :class:`TransactionError`, and
the guardrail pair :class:`ResourceLimitError` /
:class:`QueryTimeoutError` raised by ``session.run(...,
timeout=, max_rows=)``.
"""

from repro.exceptions import (
    GraphError,
    ParameterError,
    QueryError,
    QuerySyntaxError,
    QueryTimeoutError,
    ResourceLimitError,
    TransactionError,
)
from repro.graphdb.api import (
    Database,
    ObserveConfig,
    Record,
    Result,
    ResultSummary,
    Session,
    Trace,
    Transaction,
    connect,
    render_prometheus,
)
from repro.graphdb.backends import (
    JANUSGRAPH_LIKE,
    NEO4J_LIKE,
    PROFILES,
    BackendProfile,
)
from repro.graphdb.columnar import PropertyColumn, SymbolTable, VertexTable
from repro.graphdb.graph import Edge, PropertyGraph, Vertex
from repro.graphdb.metrics import ExecutionMetrics, LruPageCache
from repro.graphdb.query.executor import Executor, QueryResult
from repro.graphdb.session import GraphSession

__all__ = [
    # Driver API (the supported application surface)
    "Database",
    "ObserveConfig",
    "Record",
    "Result",
    "ResultSummary",
    "Session",
    "Trace",
    "Transaction",
    "connect",
    "render_prometheus",
    # Exceptions
    "GraphError",
    "ParameterError",
    "QueryError",
    "QuerySyntaxError",
    "QueryTimeoutError",
    "ResourceLimitError",
    "TransactionError",
    # Engine API (instrumentation-level)
    "BackendProfile",
    "Edge",
    "ExecutionMetrics",
    "Executor",
    "GraphSession",
    "JANUSGRAPH_LIKE",
    "LruPageCache",
    "NEO4J_LIKE",
    "PROFILES",
    "PropertyColumn",
    "PropertyGraph",
    "QueryResult",
    "SymbolTable",
    "Vertex",
    "VertexTable",
]
