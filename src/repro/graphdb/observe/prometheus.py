"""Prometheus text exposition (version 0.0.4) for the registry.

Renders every registered instrument as the plain-text format a
Prometheus scraper ingests - the exact payload the future server's
``/metrics`` endpoint will serve, also reachable today via
``repro metrics --format prom``::

    # HELP repro_wal_appends_total Records appended to the WAL.
    # TYPE repro_wal_appends_total counter
    repro_wal_appends_total 1042
    # TYPE repro_query_seconds histogram
    repro_query_seconds_bucket{le="0.001"} 17
    ...
    repro_query_seconds_bucket{le="+Inf"} 23
    repro_query_seconds_sum 0.11941
    repro_query_seconds_count 23

Naming follows the Prometheus conventions the metric catalog was
designed to (``repro_`` prefix, ``_total`` counters, base units in
seconds/bytes); histogram buckets are cumulative with ``le``
(less-or-equal) bounds.
"""

from __future__ import annotations

from repro.graphdb.observe.registry import (
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    MetricsRegistry,
)

__all__ = ["render_prometheus"]


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: int | float) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _bound_text(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """The registry as Prometheus text exposition (trailing newline)."""
    if registry is None:
        from repro.graphdb.observe import REGISTRY

        registry = REGISTRY
    lines: list[str] = []
    for instrument in registry.instruments():
        name = instrument.name
        if instrument.help:
            lines.append(f"# HELP {name} {instrument.help}")
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, LabeledCounter):
            lines.append(f"# TYPE {name} counter")
            label = instrument.label
            for key, value in sorted(instrument.values.items()):
                lines.append(
                    f'{name}{{{label}="{_escape_label(str(key))}"}} '
                    f"{_format_value(value)}"
                )
        elif isinstance(instrument, Histogram):
            lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in instrument.bucket_counts():
                lines.append(
                    f'{name}_bucket{{le="{_bound_text(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(f"{name}_sum {repr(instrument.sum)}")
            lines.append(f"{name}_count {instrument.count}")
    return "\n".join(lines) + "\n"
