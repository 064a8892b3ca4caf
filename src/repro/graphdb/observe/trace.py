"""Per-query tracing: a tree of timed spans.

A :class:`Trace` records one query execution as nested spans::

    query MATCH (d:Drug) RETURN count(*)  (1.93 ms)
    |- parse  (0.21 ms)
    |- plan   (0.35 ms)
    `- execute  (1.22 ms, 1 row(s))
       |- 1. Scan d via label scan (:Drug)  (est~525, actual=525 rows, 0.98 ms)

The three phase spans (``parse`` -> ``plan`` -> ``execute``) are timed
with :func:`time.perf_counter`; a plan-cache hit collapses parse+plan
into a single instant ``plan`` span tagged ``cached``.  The operator
spans under ``execute`` are built from the *same* per-step binding
counters ``EXPLAIN ANALYZE`` renders (the executor counts each step's
produced bindings once, and both surfaces read that one list), plus a
per-step inclusive wall time measured only when tracing is on - so a
trace and an ``explain(analyze=True)`` of the same run can never
disagree about row counts.  Operator times are *inclusive*: each step's
clock runs while the pipeline pulls that step's generator, which
includes all upstream work (the classic iterator-model profile).

Tracing is opt-in per query (``session.run(..., trace=True)``,
``repro query --trace``); an untraced run executes the exact pipeline
it always did, with no per-row timing anywhere.
"""

from __future__ import annotations

import time
from typing import Iterator

__all__ = ["Span", "Trace"]

_perf = time.perf_counter


class Span:
    """One timed interval in a trace, possibly with children."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float | None = None):
        self.name = name
        self.start = _perf() if start is None else start
        self.end: float | None = None
        self.attrs: dict[str, object] = {}
        self.children: list[Span] = []

    def finish(self) -> "Span":
        if self.end is None:
            self.end = _perf()
        return self

    @property
    def duration_ms(self) -> float | None:
        if self.end is None:
            return None
        return (self.end - self.start) * 1000.0

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict:
        out: dict[str, object] = {"name": self.name}
        duration = self.duration_ms
        if duration is not None:
            out["duration_ms"] = round(duration, 4)
        if self.attrs:
            out.update(self.attrs)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name!r} {self.duration_ms} ms>"


class Trace:
    """The span tree of one query execution.

    Built by the executor (phase spans) and settled by the driver's
    :class:`~repro.graphdb.api.result.Result` (execute end + operator
    spans); surfaced as ``ResultSummary.trace``.
    """

    def __init__(self, query: str):
        self.query = query
        #: Wall-clock start (event-log correlation; perf_counter is
        #: monotonic but epoch-less).
        self.started_at = time.time()
        self.root = Span(f"query {query}")
        self.root.attrs["query"] = query
        #: Per-step inclusive seconds, filled by the executor's traced
        #: pipeline wrapper (parallel to the plan's steps).
        self.step_times: list[float] | None = None
        self._execute: Span | None = None

    # -- span construction --------------------------------------------
    def begin(self, name: str, parent: Span | None = None) -> Span:
        span = Span(name)
        (parent or self.root).children.append(span)
        return span

    def span(self, name: str, parent: Span | None = None):
        """``with trace.span("parse"):`` - a scoped child span."""
        return _SpanContext(self.begin(name, parent))

    def begin_execute(self) -> Span:
        self._execute = self.begin("execute")
        return self._execute

    @property
    def execute_span(self) -> Span | None:
        return self._execute

    def complete(
        self,
        step_texts: list[str],
        est_rows: list[float | None],
        actual_rows: list[int],
        rows: int,
        mode: str | None = None,
        reason: str | None = None,
    ) -> "Trace":
        """Settle the trace: operator spans + execute/root end times.

        ``actual_rows`` is the executor's per-step binding-count list -
        the same one ``EXPLAIN ANALYZE`` renders - and ``step_times``
        (when the traced pipeline filled it) supplies each operator's
        inclusive wall time.  ``mode`` tags the execute span with the
        pipeline path that ran (``vectorized`` or ``tuple``), and
        ``reason`` with why a tuple run did not take the batch path.
        """
        execute = self._execute
        if execute is None:
            execute = self.begin_execute()
        if mode is not None:
            execute.attrs["mode"] = mode
        if reason is not None:
            execute.attrs["fallback_reason"] = reason
        times = self.step_times
        for i, text in enumerate(step_texts):
            span = Span(f"{i + 1}. {text}", start=execute.start)
            span.attrs["est_rows"] = est_rows[i]
            span.attrs["actual_rows"] = (
                actual_rows[i] if i < len(actual_rows) else 0
            )
            if times is not None and i < len(times):
                span.end = execute.start + times[i]
            else:
                span.end = execute.start
            execute.children.append(span)
        execute.attrs["rows"] = rows
        execute.finish()
        self.root.finish()
        return self

    # -- rendering -----------------------------------------------------
    def as_dict(self) -> dict:
        out = self.root.as_dict()
        out["started_at"] = self.started_at
        return out

    def render(self) -> str:
        """The span tree as indented text (``repro query --trace``)."""
        lines: list[str] = []
        self._render(self.root, "", "", lines)
        return "\n".join(lines)

    def _render(
        self, span: Span, lead: str, child_lead: str, lines: list[str]
    ) -> None:
        parts = [f"{lead}{span.name}"]
        details = []
        duration = span.duration_ms
        if duration is not None:
            details.append(f"{duration:.2f} ms")
        if "rows" in span.attrs:
            details.append(f"{span.attrs['rows']} row(s)")
        if "mode" in span.attrs:
            details.append(f"mode={span.attrs['mode']}")
        if "fallback_reason" in span.attrs:
            details.append(f"reason={span.attrs['fallback_reason']}")
        if "actual_rows" in span.attrs:
            est = span.attrs.get("est_rows")
            est_text = f"est~{est:.0f}, " if est is not None else ""
            details.append(f"{est_text}actual={span.attrs['actual_rows']} rows")
        if span.attrs.get("cached"):
            details.append("cached plan")
        if details:
            parts.append(f"  ({', '.join(details)})")
        lines.append("".join(parts))
        for i, child in enumerate(span.children):
            last = i == len(span.children) - 1
            branch = "`- " if last else "|- "
            extend = "   " if last else "|  "
            self._render(
                child, child_lead + branch, child_lead + extend, lines
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace {self.query!r} spans={len(list(self.root.walk()))}>"


class _SpanContext:
    __slots__ = ("span",)

    def __init__(self, span: Span):
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.finish()
