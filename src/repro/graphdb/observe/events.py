"""Structured event log: JSONL sink for operational events.

Where the metrics registry answers "how much / how fast", the event
log answers "what happened, when": one JSON object per line, append
only, safe to tail.  Events fall into two families:

* **slow queries** - every driver execution whose wall-clock time
  crosses the configured threshold emits a ``slow_query`` event with
  the query text + fingerprint, the executed plan's digest, row count,
  and the full work-counter snapshot, so a production slow-query can
  be replayed and EXPLAINed offline;
* **storage lifecycle** - ``checkpoint``, ``recovery``,
  ``quarantine``, ``wal_poisoned``, ``store_poisoned``: the rare,
  high-signal transitions an operator grepping a disk incident needs
  in order, with timestamps.

The sink is process-global (like the metrics registry and failpoint
catalog) and **disabled by default** - ``emit`` is a single attribute
check until a path is configured.  Configure it via the driver::

    connect("./data", observe=ObserveConfig(
        log_path="./events.jsonl", slow_query_ms=250.0))

or the environment (read once at import)::

    REPRO_OBSERVE_LOG=./events.jsonl REPRO_SLOW_QUERY_MS=250 ...

Each line carries ``ts`` (epoch seconds) and ``event`` (the kind);
remaining fields are event-specific (catalog in
``docs/OBSERVABILITY.md``).  Writes append under a lock with one
``flush`` per event - an event log that loses its tail on a crash is
useless exactly when it matters.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["EventLog", "ObserveConfig", "query_fingerprint"]


def query_fingerprint(text: str) -> str:
    """A stable short digest of a query's text (slow-query grouping)."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


@dataclass
class ObserveConfig:
    """What ``connect(..., observe=...)`` accepts.

    ``log_path`` enables the JSONL event sink; ``slow_query_ms``
    arms the slow-query log (queries at or above the threshold are
    logged - ``0`` logs every query); ``metrics=False`` switches the
    whole metrics registry off (the <2%-budget disabled path).
    """

    log_path: str | Path | None = None
    slow_query_ms: float | None = None
    metrics: bool = True

    @classmethod
    def coerce(cls, value) -> "ObserveConfig":
        """Accept an ObserveConfig, a mapping, or a bare log path."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, Path)):
            return cls(log_path=value)
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            "observe= takes an ObserveConfig, a dict of its fields, "
            f"or an event-log path; got {type(value).__name__}"
        )


class EventLog:
    """Append-only JSONL sink; inert until given a path."""

    def __init__(
        self,
        path: str | Path | None = None,
        slow_query_ms: float | None = None,
    ):
        self._lock = threading.Lock()
        self._fh = None
        self.path: Path | None = None
        #: Wall-clock threshold for the slow-query log (``None`` =
        #: off; ``0`` = log every query).  Checked by the driver's
        #: result settle path.
        self.slow_query_ms = slow_query_ms
        if path is not None:
            self.configure(path=path, slow_query_ms=slow_query_ms)

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def configure(
        self,
        path: str | Path | None = None,
        slow_query_ms: float | None = None,
    ) -> None:
        """(Re)point the sink; ``path=None`` leaves the path alone.

        Passing ``slow_query_ms`` always updates the threshold (use
        ``None`` explicitly via :meth:`disable` to clear everything).
        """
        with self._lock:
            if path is not None:
                path = Path(path)
                if self._fh is not None and path != self.path:
                    self._fh.close()
                    self._fh = None
                self.path = path
            self.slow_query_ms = slow_query_ms

    def disable(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
            self._fh = None
            self.path = None
            self.slow_query_ms = None

    def emit(self, event: str, **fields) -> None:
        """Append one event line (no-op while unconfigured).

        Emission must never take down the caller: an unwritable sink
        degrades to dropping the event (the storage layer cannot be
        allowed to fail a checkpoint because the *log about it* hit
        ENOSPC).
        """
        if self.path is None:
            return
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        line = json.dumps(record, default=str) + "\n"
        try:
            with self._lock:
                if self.path is None:  # disabled concurrently
                    return
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = open(self.path, "a", encoding="utf-8")
                self._fh.write(line)
                self._fh.flush()
        except OSError:  # pragma: no cover - degraded sink
            pass

    def slow_query(
        self,
        elapsed_ms: float,
        query: str,
        plan_digest: str,
        rows: int,
        metrics: dict,
        mode: str | None = None,
        fallback_reason: str | None = None,
    ) -> None:
        """Emit a ``slow_query`` event when the threshold is armed and
        crossed; the common (fast-query or unarmed) path is two
        comparisons."""
        threshold = self.slow_query_ms
        if threshold is None or elapsed_ms < threshold:
            return
        self.emit(
            "slow_query",
            elapsed_ms=round(elapsed_ms, 3),
            threshold_ms=threshold,
            query=query,
            query_fingerprint=query_fingerprint(query),
            plan_digest=plan_digest,
            rows=rows,
            metrics=metrics,
            mode=mode,
            fallback_reason=fallback_reason,
        )
