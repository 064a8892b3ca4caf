"""Deterministic fault injection for the storage stack.

Production storage engines earn their crash-safety claims with torture
harnesses that kill the process at every I/O boundary and check
invariants on recovery.  This module is that harness's foundation: a
process-global registry of **named failpoints** threaded through the
WAL, snapshot, store, and recovery layers.  Each hook is a single dict
probe when nothing is armed, so the instrumentation can stay in the
production code path permanently (the fault benchmark pins the
disarmed overhead below 2% of a WAL append).

Failpoints fire in one of three modes:

``error``
    Raise :class:`OSError` with a chosen errno at the hook.  Transient
    errnos (``EINTR``/``EAGAIN``) exercise the storage layer's bounded
    retry loops; hard ones (``EIO``, ``ENOSPC``) exercise poisoning
    and checkpoint rollback.

``crash``
    Raise :class:`SimulatedCrash` - a :class:`BaseException`, so no
    ``except Exception`` / ``except OSError`` cleanup handler in the
    storage stack can swallow it.  The test harness catches it at the
    workload boundary and re-opens the directory, exactly like a
    process kill plus restart (in-flight buffers are abandoned, tmp
    files stay behind as crash debris).

``short_write``
    Only meaningful on *write* hooks (:meth:`FaultRegistry.write`):
    write a strict prefix of the payload, flush it, then raise
    :class:`SimulatedCrash` - a torn write frozen at its worst moment.
    On non-write hooks it degrades to ``crash``.

Activation is per-test (:meth:`FaultRegistry.arm` or the
:meth:`FaultRegistry.armed` context manager) or via the environment::

    REPRO_FAULTS="wal.flush.fsync:error:EINTR@2,snapshot.rename:crash"

Spec grammar, comma-separated: ``point:mode[:arg][@hit][xN][%p]``
where ``arg`` is an errno name or number (``error``) or a keep-bytes
count (``short_write``), ``@hit`` is the 1-based hit index that starts
firing (default 1), ``xN`` caps how many hits fire (default 1,
``x*`` = every hit), and ``%p`` fires each eligible hit with
probability ``p`` drawn from the registry's seeded RNG
(``REPRO_FAULTS_SEED``) - deterministic for a fixed seed.

The registry also keeps the global ``injected`` / ``retries``
counters that :class:`~repro.graphdb.api.result.ResultSummary`
surfaces per query execution.
"""

from __future__ import annotations

import errno as _errno
import os
import random
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "FaultError",
    "FaultRegistry",
    "FaultSpec",
    "REGISTRY",
    "SimulatedCrash",
    "TRANSIENT_ERRNOS",
    "fire",
    "registered_failpoints",
    "retrying",
    "write",
]


class SimulatedCrash(BaseException):
    """A hard process kill, as an exception.

    Deliberately *not* an :class:`Exception`: the storage stack's
    error handling (tmp-file cleanup, retry loops, best-effort prune)
    must never intercept it, because a real ``kill -9`` would not run
    those handlers either.  Only the torture harness catches it.
    """


class FaultError(ValueError):
    """Raised for malformed fault specs or arming unknown modes."""


#: Errnos the storage layer treats as transient and retries with
#: bounded backoff (see :func:`retrying`).
TRANSIENT_ERRNOS = frozenset({_errno.EINTR, _errno.EAGAIN})

MODES = ("error", "crash", "short_write")


@dataclass
class FaultSpec:
    """One armed failpoint's behavior."""

    point: str
    mode: str = "crash"
    #: ``error`` mode: the errno carried by the injected OSError.
    errno_code: int = _errno.EIO
    #: Fire starting at this 1-based hit of the failpoint.
    at: int = 1
    #: How many eligible hits fire (``None`` = every one).
    times: int | None = 1
    #: ``short_write`` mode: bytes actually written before the crash
    #: (``None`` = half the payload, at least one byte short).
    keep_bytes: int | None = None
    #: Probability an eligible hit fires (drawn from the seeded RNG).
    chance: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise FaultError(f"unknown fault mode {self.mode!r}")
        if self.at < 1:
            raise FaultError("fault 'at' is 1-based")
        if not 0.0 < self.chance <= 1.0:
            raise FaultError("fault chance must be in (0, 1]")


class _Armed:
    """Mutable firing state for one armed spec."""

    __slots__ = ("spec", "hits", "fired")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.hits = 0
        self.fired = 0

    def should_fire(self, rng: random.Random) -> bool:
        self.hits += 1
        spec = self.spec
        if self.hits < spec.at:
            return False
        if spec.times is not None and self.fired >= spec.times:
            return False
        if spec.chance < 1.0 and rng.random() >= spec.chance:
            return False
        self.fired += 1
        return True


class FaultRegistry:
    """Process-global catalog of failpoints and their armed faults.

    Instrumented modules :meth:`register` their failpoint names at
    import time (so harnesses can enumerate the full catalog), then
    call :meth:`fire` / :meth:`write` at the guarded operation.  Both
    hooks are a single ``dict.get`` when nothing is armed.
    """

    def __init__(self, seed: int = 0):
        #: name -> registration order (stable across a process).
        self._points: dict[str, int] = {}
        self._armed: dict[str, _Armed] = {}
        self._rng = random.Random(seed)
        #: Total faults injected (all modes) since process start.
        self.injected = 0
        #: Total transient-error retries performed by :func:`retrying`.
        self.retries = 0

    # -- catalog -------------------------------------------------------
    def register(self, point: str) -> str:
        """Declare a failpoint name; idempotent, returns the name."""
        self._points.setdefault(point, len(self._points))
        return point

    def names(self) -> list[str]:
        """Every registered failpoint, in registration order."""
        return sorted(self._points, key=self._points.__getitem__)

    # -- arming --------------------------------------------------------
    def arm(self, spec: FaultSpec | str, **kwargs) -> FaultSpec:
        """Arm one failpoint (replacing any prior arming of it).

        Accepts a prepared :class:`FaultSpec` or a point name plus
        keyword arguments (``mode=``, ``errno_code=``, ``at=``, ...).
        Arming does not require prior registration: env specs may be
        parsed before the instrumented modules import.
        """
        if isinstance(spec, str):
            spec = FaultSpec(spec, **kwargs)
        elif kwargs:
            raise FaultError("pass a FaultSpec or kwargs, not both")
        self._armed[spec.point] = _Armed(spec)
        return spec

    def arm_spec(self, text: str) -> list[FaultSpec]:
        """Arm every fault in a ``REPRO_FAULTS``-style spec string."""
        specs = [parse_fault(part) for part in _split_spec(text)]
        for spec in specs:
            self.arm(spec)
        return specs

    def disarm(self, point: str) -> None:
        self._armed.pop(point, None)

    def reset(self) -> None:
        """Disarm everything; registrations and counters survive."""
        self._armed.clear()

    def seed(self, value: int) -> None:
        """Re-seed the probabilistic-firing RNG (deterministic runs)."""
        self._rng = random.Random(value)

    def armed_points(self) -> list[str]:
        return sorted(self._armed)

    @contextmanager
    def armed(self, spec: FaultSpec | str, **kwargs) -> Iterator[FaultSpec]:
        """Scope one armed fault to a ``with`` block."""
        prepared = self.arm(spec, **kwargs)
        try:
            yield prepared
        finally:
            self.disarm(prepared.point)

    # -- hooks (hot path) ----------------------------------------------
    def fire(self, point: str) -> None:
        """The basic hook: raise if ``point`` is armed and eligible."""
        state = self._armed.get(point)
        if state is None:
            return
        if not state.should_fire(self._rng):
            return
        self.injected += 1
        spec = state.spec
        if spec.mode == "error":
            raise OSError(
                spec.errno_code,
                f"injected fault at {point}",
            )
        # crash - and short_write on a non-write hook degrades to it
        # (there is no payload whose prefix could be kept).
        raise SimulatedCrash(point)

    def write(self, point: str, fh, data: bytes) -> None:
        """Write ``data`` to ``fh``, subject to ``point``'s fault.

        ``error``/``crash`` fire *before* any byte is written;
        ``short_write`` writes a strict prefix, flushes it so the torn
        bytes really reach the OS, then raises
        :class:`SimulatedCrash`.
        """
        state = self._armed.get(point)
        if state is not None and state.should_fire(self._rng):
            self.injected += 1
            spec = state.spec
            if spec.mode == "error":
                raise OSError(
                    spec.errno_code, f"injected fault at {point}"
                )
            if spec.mode == "short_write" and data:
                keep = spec.keep_bytes
                if keep is None:
                    keep = len(data) // 2
                keep = max(0, min(keep, len(data) - 1))
                fh.write(data[:keep])
                fh.flush()
            raise SimulatedCrash(point)
        fh.write(data)


# ----------------------------------------------------------------------
# Spec parsing (REPRO_FAULTS)
# ----------------------------------------------------------------------
def _split_spec(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _errno_of(token: str) -> int:
    if token.isdigit():
        return int(token)
    code = getattr(_errno, token.upper(), None)
    if not isinstance(code, int):
        raise FaultError(f"unknown errno {token!r} in fault spec")
    return code


_SPEC_SUFFIX = re.compile(
    r"^(?P<body>.*?)"
    r"(?:@(?P<at>\d+))?"
    r"(?:x(?P<times>\d+|\*))?"
    r"(?:%(?P<chance>[0-9.]+))?$"
)


def parse_fault(part: str) -> FaultSpec:
    """Parse one ``point:mode[:arg][@hit][xN][%p]`` spec element."""
    match = _SPEC_SUFFIX.match(part)
    if match is None:  # pragma: no cover - the regex accepts anything
        raise FaultError(f"unparseable fault spec {part!r}")
    body = match.group("body")
    at = int(match.group("at") or 1)
    raw_times = match.group("times")
    times: int | None = (
        1 if raw_times is None else None if raw_times == "*" else int(raw_times)
    )
    chance = float(match.group("chance") or 1.0)
    fields = body.split(":")
    if not fields or not fields[0]:
        raise FaultError(f"missing failpoint name in {part!r}")
    point = fields[0]
    mode = fields[1] if len(fields) > 1 and fields[1] else "crash"
    if mode == "short":
        mode = "short_write"
    spec = FaultSpec(point, mode=mode, at=at, times=times, chance=chance)
    if len(fields) > 2 and fields[2]:
        if mode == "error":
            spec.errno_code = _errno_of(fields[2])
        elif mode == "short_write":
            try:
                spec.keep_bytes = int(fields[2])
            except ValueError:
                raise FaultError(
                    f"bad keep-bytes in fault spec {part!r}"
                )
        else:
            raise FaultError(
                f"mode {mode!r} takes no argument (spec {part!r})"
            )
    return spec


# ----------------------------------------------------------------------
# Bounded retry for transient I/O errors
# ----------------------------------------------------------------------
def retrying(
    op: Callable[[], object],
    what: str,
    attempts: int = 5,
    base_delay: float = 0.0005,
) -> object:
    """Run ``op``, retrying transient OSErrors with capped backoff.

    Only :data:`TRANSIENT_ERRNOS` (``EINTR``/``EAGAIN``) are retried -
    hard errors (``EIO``, ``ENOSPC``, permissions) propagate
    immediately so the caller can poison or roll back.  Each retry is
    counted in :attr:`FaultRegistry.retries` (surfaced as
    ``io_retries`` in query metrics).
    """
    delay = base_delay
    for attempt in range(attempts):
        try:
            return op()
        except OSError as exc:
            if (
                exc.errno not in TRANSIENT_ERRNOS
                or attempt == attempts - 1
            ):
                raise
            REGISTRY.retries += 1
            time.sleep(delay)
            delay *= 2
    raise AssertionError("unreachable")  # pragma: no cover


#: The process-global registry; instrumented modules and tests share it.
REGISTRY = FaultRegistry()

#: Module-level aliases bound once: the hot hooks cost one dict probe
#: plus one call when disarmed.
fire = REGISTRY.fire
write = REGISTRY.write


def registered_failpoints() -> list[str]:
    """The full failpoint catalog (import the storage stack first)."""
    return REGISTRY.names()


_env_spec = os.environ.get("REPRO_FAULTS")
if _env_spec:
    _seed = os.environ.get("REPRO_FAULTS_SEED")
    if _seed:
        REGISTRY.seed(int(_seed))
    REGISTRY.arm_spec(_env_spec)
