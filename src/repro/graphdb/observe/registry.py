"""Process-wide metrics: named counters, gauges, and histograms.

The registry is the numeric half of the observability layer (the
other half, :mod:`repro.graphdb.observe.events`, is the structured
event log).  Instrumented modules obtain metric handles **once at
import time** - exactly like the failpoint catalog in
:mod:`repro.graphdb.faults` - and the hot-path cost of an update is
one ``enabled`` check plus one locked add.  Disabling the registry
(``REPRO_OBSERVE=off`` or ``registry.enabled = False``) turns every
update into the check alone, which is what keeps the disabled-path
overhead inside the same <2% budget the failpoint hooks have
(the ``budgets`` rows of ``benchmarks/micro.py`` measure both).

Design points:

* **Named, typed instruments.**  :meth:`MetricsRegistry.counter`,
  :meth:`~MetricsRegistry.gauge`, :meth:`~MetricsRegistry.histogram`,
  and :meth:`~MetricsRegistry.labeled_counter` are idempotent: asking
  for an existing name returns the existing instrument (so modules can
  re-import freely), while asking for it with a *different type*
  raises - a name collision is a bug, not a merge.
* **Thread safety.**  Updates take the registry's value lock, so
  concurrent sessions (or a future server's worker threads) never lose
  increments; reads (:meth:`MetricsRegistry.snapshot`) take the same
  lock and therefore see a consistent cut.
* **Fixed-bucket histograms.**  Buckets are upper bounds with
  Prometheus ``le`` (less-or-equal) semantics: an observation equal to
  a bound lands in that bound's bucket, everything past the last bound
  lands in ``+Inf``.

Metric names follow Prometheus conventions (``repro_`` prefix,
``_total`` for counters, base units in seconds/bytes); see
``docs/OBSERVABILITY.md`` for the full catalog and
:func:`repro.graphdb.observe.prometheus.render_prometheus` for the
text exposition.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "LabeledCounter",
    "MetricsRegistry",
]

#: Latency buckets (seconds): 100us .. 10s, roughly x3 steps.
DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0
)

#: Count/size buckets (records per batch, rows, ...): powers of four.
DEFAULT_SIZE_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)


class _Instrument:
    """Base: a named instrument bound to its registry."""

    __slots__ = ("name", "help", "_registry", "_lock")

    kind = "instrument"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str):
        self.name = name
        self.help = help
        self._registry = registry
        self._lock = registry._value_lock


class Counter(_Instrument):
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    kind = "counter"

    def __init__(self, registry, name, help):
        super().__init__(registry, name, help)
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if self._registry.enabled:
            with self._lock:
                self._value += amount

    @property
    def value(self) -> int | float:
        return self._value

    def _reset(self) -> None:
        self._value = 0


class LabeledCounter(_Instrument):
    """A counter family keyed by one label (e.g. failpoint name)."""

    __slots__ = ("label", "_values")

    kind = "labeled_counter"

    def __init__(self, registry, name, help, label: str):
        super().__init__(registry, name, help)
        self.label = label
        self._values: dict[str, int | float] = {}

    def inc(self, label_value: str, amount: int | float = 1) -> None:
        if self._registry.enabled:
            with self._lock:
                values = self._values
                values[label_value] = values.get(label_value, 0) + amount

    def value(self, label_value: str) -> int | float:
        return self._values.get(label_value, 0)

    @property
    def values(self) -> dict[str, int | float]:
        with self._lock:
            return dict(self._values)

    def _reset(self) -> None:
        self._values.clear()


class Gauge(_Instrument):
    """A value that can go up and down (generation, sizes, ...)."""

    __slots__ = ("_value",)

    kind = "gauge"

    def __init__(self, registry, name, help):
        super().__init__(registry, name, help)
        self._value = 0.0

    def set(self, value: int | float) -> None:
        if self._registry.enabled:
            with self._lock:
                self._value = value

    def inc(self, amount: int | float = 1) -> None:
        if self._registry.enabled:
            with self._lock:
                self._value += amount

    @property
    def value(self) -> int | float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram(_Instrument):
    """Fixed upper-bound buckets with ``le`` (<=) semantics.

    ``observe(v)`` lands ``v`` in the first bucket whose bound is
    ``>= v`` (an observation exactly equal to a bound belongs to that
    bound), or in the implicit ``+Inf`` bucket past the last bound.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(self, registry, name, help, buckets):
        super().__init__(registry, name, help)
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: int | float) -> None:
        if not self._registry.enabled:
            return
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``+Inf``."""
        return self.read()[0]

    def read(self) -> tuple[list[tuple[float, int]], float, int]:
        """:meth:`bucket_counts`, ``sum`` and ``count`` from one hold
        of the lock, so a concurrent :meth:`observe` lands before all
        three or after all three: ``count`` always equals the ``+Inf``
        bucket, as Prometheus requires."""
        with self._lock:
            return self._read()

    def _read(self) -> tuple[list[tuple[float, int]], float, int]:
        # The caller holds the registry's value lock.
        buckets = []
        running = 0
        for bound, n in zip((*self.bounds, float("inf")), self._counts):
            running += n
            buckets.append((bound, running))
        return buckets, self._sum, self._count

    def _reset(self) -> None:
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0


class MetricsRegistry:
    """Catalog of named instruments."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Guards instrument *creation* (import-time, cold).
        self._create_lock = threading.Lock()
        #: Guards every value update and snapshot read (hot, shared by
        #: all instruments - contention is negligible in-process and a
        #: single lock keeps snapshots consistent across instruments).
        self._value_lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    # -- instrument creation (idempotent) ------------------------------
    def _get(self, cls, name: str, help: str, **kwargs) -> _Instrument:
        with self._create_lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            instrument = cls(self, name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def labeled_counter(
        self, name: str, label: str, help: str = ""
    ) -> LabeledCounter:
        return self._get(LabeledCounter, name, help, label=label)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        buckets=DEFAULT_SECONDS_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # -- reads ---------------------------------------------------------
    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, in registration order."""
        return list(self._instruments.values())

    def snapshot(self) -> dict:
        """A consistent JSON-friendly dump of every instrument.

        This is the payload :meth:`Database.metrics` returns, ``repro
        metrics`` prints, and the future server's ``/metrics`` JSON
        endpoint will serve.
        """
        counters: dict[str, int | float] = {}
        gauges: dict[str, int | float] = {}
        labeled: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        with self._value_lock:
            for instrument in self._instruments.values():
                if isinstance(instrument, Counter):
                    counters[instrument.name] = instrument._value
                elif isinstance(instrument, Gauge):
                    gauges[instrument.name] = instrument._value
                elif isinstance(instrument, LabeledCounter):
                    labeled[instrument.name] = {
                        "label": instrument.label,
                        "values": dict(instrument._values),
                    }
                elif isinstance(instrument, Histogram):
                    buckets, total, count = instrument._read()
                    histograms[instrument.name] = {
                        "count": count,
                        "sum": round(total, 9),
                        "buckets": [
                            ["+Inf" if bound == float("inf") else bound, n]
                            for bound, n in buckets
                        ],
                    }
        return {
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "labeled_counters": labeled,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid)."""
        with self._value_lock:
            for instrument in self._instruments.values():
                instrument._reset()
