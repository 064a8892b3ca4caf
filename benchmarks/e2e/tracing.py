"""Benchmark-side spans: the traced pass wraps each call into a layer.

Spans live in the benchmark, not in ``src/``: a span is opened around
a public call (``session.run``, ``load_direct``, ``tx.commit`` ...) and
nests under whichever span is open at that moment.  Everything is kept
in memory (parallel lists, one slot per span) and written out once, at
the end of the run, so recording a span costs two clock reads and a
few list appends.

A layer's *self time* is its span's duration minus the part of it
covered by child spans; self times of all spans add up to the wall
time the root spans cover, which is how the traced pass accounts for
the timed wall.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class _Span:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int):
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._stack.append(self._index)
        tracer.starts[self._index] = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tracer = self._tracer
        tracer.ends[self._index] = end
        tracer._stack.pop()

    @property
    def start(self) -> float:
        return self._tracer.starts[self._index]

    @property
    def end(self) -> float:
        return self._tracer.ends[self._index]


class Tracer:
    """Span recorder: name, start, end, parent span, op id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        #: Identifier shared by every span of the operation in flight
        #: (the benchmark sets it before each op).
        self.op = -1

    def span(self, name: str) -> _Span:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        return _Span(self, index)

    def __len__(self) -> int:
        return len(self.names)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def durations(self, host=None) -> list[float]:
        """Span lengths: as the clock read them, or corrected for the
        host's speed (``hostspeed.HostSpeed.correct``)."""
        if host is not None:
            return list(host.correct(self.starts, self.ends))
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self, host=None) -> list[float]:
        """Per span: duration minus the time its children cover."""
        durations = self.durations(host)
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def by_name(self, values: list[float]) -> dict[str, list[float]]:
        grouped: dict[str, list[float]] = defaultdict(list)
        for name, value in zip(self.names, values):
            grouped[name].append(value)
        return grouped

    def dump(self, path: Path, header: dict) -> None:
        """Write every span as one JSON document (spans relative to
        the first start, in microseconds, as the clock read them)."""
        origin = min(self.starts) if self.starts else 0.0
        spans = [
            [
                name,
                round((start - origin) * 1e6, 1),
                round((end - origin) * 1e6, 1),
                parent,
                op,
            ]
            for name, start, end, parent, op in zip(
                self.names, self.starts, self.ends, self.parents, self.ops
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "header": header,
                    "columns": [
                        "name", "start_us", "end_us", "parent", "op",
                    ],
                    "spans": spans,
                },
                fh,
            )
            fh.write("\n")
