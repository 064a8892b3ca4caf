"""Engine-wide observability: metrics, per-query traces, event log.

Three pillars, one subsystem (the layer the server's metrics/health
endpoint plugs into):

* :data:`REGISTRY` - the process-global
  :class:`~repro.graphdb.observe.registry.MetricsRegistry` of named
  counters, gauges, and fixed-bucket histograms.  The WAL, snapshot,
  recovery, checkpoint, plan-cache, fault, and query layers update it
  inline; :meth:`Database.metrics` snapshots it and
  :func:`render_prometheus` renders the text exposition;
* :class:`~repro.graphdb.observe.trace.Trace` - opt-in per-query span
  trees (``session.run(..., trace=True)``, ``repro query --trace``)
  whose operator spans reuse the executor's EXPLAIN ANALYZE counters;
* :data:`EVENTS` - the process-global
  :class:`~repro.graphdb.observe.events.EventLog` JSONL sink
  (slow-query log + storage lifecycle events), disabled until
  configured via :func:`configure` / ``connect(..., observe=...)`` or
  the environment.

Environment (read once at import):

``REPRO_OBSERVE=off``
    Disable the metrics registry (every update becomes one flag
    check - the <2% disabled-overhead budget path).
``REPRO_OBSERVE_LOG=<path>``
    Enable the JSONL event sink at ``<path>``.
``REPRO_SLOW_QUERY_MS=<float>``
    Arm the slow-query log (requires the sink; ``0`` logs every
    query).

This package deliberately imports nothing from the rest of
``repro.graphdb`` - every engine layer (including
:mod:`repro.graphdb.faults`) can instrument itself without import
cycles.
"""

from __future__ import annotations

import os

from repro.graphdb.observe.events import (
    EventLog,
    ObserveConfig,
    query_fingerprint,
)
from repro.graphdb.observe.registry import (
    Counter,
    DEFAULT_SECONDS_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Gauge,
    Histogram,
    LabeledCounter,
    MetricsRegistry,
)
from repro.graphdb.observe.trace import Span, Trace

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "EVENTS",
    "EventLog",
    "Gauge",
    "Histogram",
    "LabeledCounter",
    "MetricsRegistry",
    "ObserveConfig",
    "REGISTRY",
    "Span",
    "Trace",
    "configure",
    "query_fingerprint",
    "render_prometheus",
]

#: The process-global metrics registry every engine layer updates.
REGISTRY = MetricsRegistry()

#: The process-global event sink (inert until configured).
EVENTS = EventLog()


def configure(config: ObserveConfig | dict | str | os.PathLike) -> None:
    """Apply an :class:`ObserveConfig` to the process-global pillars.

    Called by ``connect(..., observe=...)``; both the registry switch
    and the event sink are process-global, so the most recent
    configuration wins (exactly like arming a failpoint via
    ``REPRO_FAULTS``).
    """
    config = ObserveConfig.coerce(config)
    REGISTRY.enabled = config.metrics
    if config.log_path is not None or config.slow_query_ms is not None:
        EVENTS.configure(
            path=config.log_path, slow_query_ms=config.slow_query_ms
        )


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Prometheus text exposition of ``registry`` (default: global)."""
    from repro.graphdb.observe.prometheus import render_prometheus as _render

    return _render(REGISTRY if registry is None else registry)


if os.environ.get("REPRO_OBSERVE", "").lower() in ("off", "0", "false"):
    REGISTRY.enabled = False
_env_log = os.environ.get("REPRO_OBSERVE_LOG")
_env_slow = os.environ.get("REPRO_SLOW_QUERY_MS")
if _env_log:
    EVENTS.configure(
        path=_env_log,
        slow_query_ms=float(_env_slow) if _env_slow else None,
    )
elif _env_slow:
    EVENTS.slow_query_ms = float(_env_slow)
