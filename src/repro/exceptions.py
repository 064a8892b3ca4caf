"""Exception hierarchy for the repro library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class OntologyError(ReproError):
    """Raised when an ontology is malformed or an operation is invalid."""


class ValidationError(OntologyError):
    """Raised when ontology validation finds integrity violations."""


class SchemaError(ReproError):
    """Raised for invalid property-graph-schema operations."""


class OptimizationError(ReproError):
    """Raised when a schema optimization algorithm cannot proceed."""


class GraphError(ReproError):
    """Raised by the property-graph storage engine.

    Also the base of the public driver API's error hierarchy: callers
    of :mod:`repro.graphdb.api` can catch :class:`GraphError` to cover
    query, parameter, and transaction failures alike.
    """


class StorageError(ReproError):
    """Raised by the durable storage subsystem (snapshots, WAL, recovery)."""


class TransactionError(GraphError):
    """Raised for invalid transaction usage (nesting, closed handles)."""


class QueryError(GraphError):
    """Raised for malformed queries (lexing, parsing, or binding errors)."""


class QuerySyntaxError(QueryError):
    """Raised when query text cannot be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ParameterError(QueryError):
    """Raised when query parameters are missing or unusable."""


class ResourceLimitError(GraphError):
    """Raised when a query exceeds a caller-imposed resource budget.

    The base of the guardrail hierarchy: ``session.run(..., max_rows=)``
    raises this directly when the row budget is exhausted, and
    :class:`QueryTimeoutError` specializes it for deadlines.  Catching
    ``ResourceLimitError`` covers both.
    """


class QueryTimeoutError(ResourceLimitError):
    """Raised when a query's wall-clock deadline expires mid-execution."""


class RewriteError(ReproError):
    """Raised when a DIR query cannot be rewritten against an OPT schema."""


class DataGenerationError(ReproError):
    """Raised when synthetic instance data cannot be generated."""
