"""Failpoint torture suite: kill/err/tear at every I/O boundary.

The central harness runs a fixed mutation workload (every opcode,
explicit transactions, a rollback, a cascading delete, a checkpoint, a
torn-tail reopen) against a durable store with exactly one failpoint
armed, lets the injected fault interrupt it wherever it strikes, then
reopens the directory with faults disarmed and checks the recovered
state against an **in-memory oracle**: it must equal the replay of all
*confirmed* steps, or of confirmed steps plus the single in-flight one
(an acknowledged-or-not write may land either way; anything else -
partial cascades, rolled-back data, torn records - is a bug).

Every registered failpoint is exercised in all three modes (``crash``,
``error``, ``short_write``); a probabilistic sweep re-runs the
workload under seeds (``REPRO_TORTURE_SEED``) so CI's chaos job varies
the kill sites across runs without losing reproducibility.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import StorageError
from repro.graphdb import faults
from repro.graphdb.faults import FaultSpec, SimulatedCrash
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage import (  # noqa: F401 - imports register fps
    GraphStore,
    RecoveryError,
    RecoveryManager,
    WalPoisonedError,
    graph_state,
    recover_graph,
    verify_directory,
)
from repro.graphdb.storage.recovery import (
    QUARANTINE_SUFFIX,
    snapshot_name,
    wal_name,
)


@pytest.fixture(autouse=True)
def clean_registry():
    faults.REGISTRY.reset()
    faults.REGISTRY.seed(0)
    yield
    faults.REGISTRY.reset()


# ----------------------------------------------------------------------
# The scripted workload and its oracle
# ----------------------------------------------------------------------
#: Steps are ``(kind, payload)``.  Graph-level kinds (``op``, ``tx``,
#: ``tx_rollback``) replay identically on the oracle; driver-level
#: kinds (checkpoint, sync, close, tear, reopen) are state-neutral.
SCRIPT = [
    ("op", ("add_vertex", ("Person", {"name": "a"}))),          # v0
    ("op", ("add_vertex", ("Person", {"name": "b"}))),          # v1
    ("op", ("add_vertex", (("Person", "Admin"), {"name": "c"}))),  # v2
    ("op", ("add_edge", (0, 1, "knows"))),                      # e0
    ("op", ("add_edge", (1, 2, "knows"))),                      # e1
    ("op", ("add_edge", (2, 0, "knows"))),                      # e2
    ("op", ("set_property", (0, "age", 30))),
    ("op", ("remove_property", (1, "name"))),
    ("op", ("remove_edge", (0,))),
    ("op", ("create_property_index", ("Person", "name"))),
    ("tx", (("add_vertex", ("City", {"name": "x"})),            # v3
            ("add_edge", (0, 3, "lives_in")))),                 # e3
    ("tx_rollback", (("add_vertex", ("City", {"name": "tmp"})),
                     ("set_property", (0, "age", 99)))),
    ("op", ("remove_vertex", (2,))),   # cascades into e1 and e2
    ("checkpoint", None),
    ("op", ("add_vertex", ("Person", {"name": "d"}))),          # v4
    ("op", ("set_property", (4, "age", 1))),
    ("sync", None),
    ("close", None),
    ("tear", None),
    ("reopen", None),
    ("op", ("add_vertex", ("Person", {"name": "e"}))),          # v5
    ("close", None),
]

#: Exceptions that legitimately interrupt a faulted workload: the
#: simulated kill, the injected OSError, and the storage layer's own
#: reactions to either (poisoned WAL, failed recovery read).
INTERRUPTIONS = (SimulatedCrash, OSError, StorageError)


def apply_graph_step(graph: PropertyGraph, step) -> None:
    kind, payload = step
    if kind == "op":
        op, args = payload
        getattr(graph, op)(*args)
    elif kind == "tx":
        graph.begin_transaction()
        for op, args in payload:
            getattr(graph, op)(*args)
        graph.commit_transaction()
    elif kind == "tx_rollback":
        graph.begin_transaction()
        for op, args in payload:
            getattr(graph, op)(*args)
        graph.rollback_transaction()


def replay_oracle(steps, name: str) -> dict:
    graph = PropertyGraph(name)
    for step in steps:
        apply_graph_step(graph, step)
    return graph_state(graph)


def tear_wal(data_dir: Path) -> None:
    """Append garbage to the newest WAL - a dead writer's torn tail."""
    generation = RecoveryManager(data_dir).wal_generations()[0]
    with open(data_dir / wal_name(generation), "ab") as fh:
        fh.write(b"\xff" * 16)


def run_workload(data_dir: Path, confirmed: list) -> None:
    """Run SCRIPT against ``data_dir``, appending each completed step
    to ``confirmed``; an injected fault propagates out mid-script."""
    store = GraphStore.open(data_dir, sync="always")
    for step in SCRIPT:
        kind, _payload = step
        if kind in ("op", "tx", "tx_rollback"):
            apply_graph_step(store.graph, step)
        elif kind == "checkpoint":
            store.checkpoint()
        elif kind == "sync":
            store.sync()
        elif kind == "close":
            store.close()
        elif kind == "tear":
            tear_wal(data_dir)
        elif kind == "reopen":
            store = GraphStore.open(data_dir, sync="always")
        confirmed.append(step)
    # The abandoned-on-crash store object is deliberately not closed:
    # a killed process would not flush either.


def graph_steps(steps):
    return [s for s in steps if s[0] in ("op", "tx", "tx_rollback")]


def run_and_check(tmp_path: Path, spec: FaultSpec) -> bool:
    """One torture iteration; returns True when the fault interrupted.

    Whatever happened, the reopened (faults disarmed) store must match
    the oracle: all confirmed graph steps applied, plus at most the
    single in-flight step.
    """
    data_dir = tmp_path / "d"
    data_dir.mkdir()
    faults.REGISTRY.arm(spec)
    confirmed: list = []
    interrupted = False
    try:
        run_workload(data_dir, confirmed)
    except INTERRUPTIONS:
        interrupted = True
    finally:
        faults.REGISTRY.reset()
    applied = graph_steps(confirmed)
    candidates = [replay_oracle(applied, data_dir.name)]
    if interrupted and len(confirmed) < len(SCRIPT):
        pending = SCRIPT[len(confirmed)]
        if pending[0] in ("op", "tx"):
            candidates.append(
                replay_oracle(applied + [pending], data_dir.name)
            )
    with GraphStore.open(data_dir, sync="always") as reopened:
        state = graph_state(reopened.graph)
    assert state in candidates, (
        f"fault {spec} after {len(confirmed)} step(s): recovered state "
        "matches neither confirmed nor confirmed+pending oracle"
    )
    return interrupted


def all_failpoints() -> list[str]:
    return faults.registered_failpoints()


# ----------------------------------------------------------------------
# The torture matrix
# ----------------------------------------------------------------------
class TestCatalog:
    def test_at_least_fifteen_failpoints(self):
        assert len(all_failpoints()) >= 15

    def test_catalog_is_stable_and_named(self):
        names = all_failpoints()
        assert len(names) == len(set(names))
        for name in names:
            layer = name.split(".")[0]
            assert layer in (
                "wal", "snapshot", "store", "recovery", "server",
            )


@pytest.mark.parametrize("point", all_failpoints())
@pytest.mark.parametrize("mode", ["crash", "error", "short_write"])
def test_torture_every_failpoint(tmp_path, point, mode):
    run_and_check(tmp_path, FaultSpec(point, mode=mode))


@pytest.mark.parametrize("at", [2, 3, 5, 9])
def test_torture_later_hits_of_hot_failpoints(tmp_path, at):
    """Crash at deeper hit counts of the hottest write-path points."""
    for point in ("wal.flush.write", "wal.append.pre_fsync",
                  "wal.flush.fsync"):
        sub = tmp_path / f"{point.replace('.', '_')}-{at}"
        sub.mkdir()
        run_and_check(sub, FaultSpec(point, mode="crash", at=at))


def test_probabilistic_sweep_is_seeded():
    """The chance-based RNG is deterministic for a fixed seed."""
    seed = int(os.environ.get("REPRO_TORTURE_SEED", "0"))
    registry = faults.FaultRegistry(seed=seed)
    registry.register("p")
    registry.arm(FaultSpec("p", mode="crash", times=None, chance=0.5))
    first = [
        isinstance(_fired(registry), SimulatedCrash) for _ in range(64)
    ]
    registry.seed(seed)
    registry.arm(FaultSpec("p", mode="crash", times=None, chance=0.5))
    second = [
        isinstance(_fired(registry), SimulatedCrash) for _ in range(64)
    ]
    assert first == second
    assert any(first) and not all(first)


def _fired(registry) -> BaseException | None:
    try:
        registry.fire("p")
    except BaseException as exc:
        return exc
    return None


def test_torture_probabilistic_crash_sites(tmp_path):
    """Chance-mode arming moves the kill site run to run (seeded)."""
    seed = int(os.environ.get("REPRO_TORTURE_SEED", "0"))
    for i in range(3):
        faults.REGISTRY.seed(seed + i)
        sub = tmp_path / f"run{i}"
        sub.mkdir()
        run_and_check(
            sub,
            FaultSpec(
                "wal.flush.write", mode="crash",
                times=None, chance=0.2,
            ),
        )


# ----------------------------------------------------------------------
# Hardening specifics
# ----------------------------------------------------------------------
class TestTransientRetry:
    def test_eintr_is_absorbed_and_counted(self, tmp_path):
        before = faults.REGISTRY.retries
        with faults.REGISTRY.armed(
            "wal.flush.fsync", mode="error",
            errno_code=__import__("errno").EINTR, times=2,
        ):
            store = GraphStore.open(tmp_path / "d", sync="always")
            store.graph.add_vertex("A", {"n": 1})
            store.close()
        assert faults.REGISTRY.retries - before >= 2
        with GraphStore.open(tmp_path / "d") as reopened:
            assert reopened.graph.num_vertices == 1

    def test_hard_errno_poisons_instead(self, tmp_path):
        import errno

        store = GraphStore.open(tmp_path / "d", sync="always")
        with faults.REGISTRY.armed(
            "wal.flush.fsync", mode="error", errno_code=errno.ENOSPC,
        ):
            with pytest.raises(OSError):
                store.graph.add_vertex("A", {"n": 1})
        assert store.poisoned
        with pytest.raises(WalPoisonedError):
            store.graph.add_vertex("A", {"n": 2})
        # Reopen clears the poison.  The failed-fsync record is in an
        # *uncertain* state - the write landed but durability was never
        # acknowledged - so recovery may legitimately surface it or
        # not; what matters is that the store accepts writes again.
        with GraphStore.open(tmp_path / "d") as reopened:
            assert reopened.graph.num_vertices in (0, 1)
            reopened.graph.add_vertex("A", {"n": 3})


class TestQuarantine:
    def seed_two_generations(self, tmp_path) -> Path:
        data_dir = tmp_path / "d"
        base = PropertyGraph("q")
        base.add_vertex("A", {"n": 1})
        store = GraphStore.create(data_dir, base)
        store.graph.add_vertex("A", {"n": 2})
        store.checkpoint()
        store.close()
        # Recreate the pruned generation-1 fallback, then corrupt 2.
        from repro.graphdb.storage import write_snapshot

        write_snapshot(
            recover_graph(data_dir), data_dir / snapshot_name(1), 1
        )
        snap2 = data_dir / snapshot_name(2)
        blob = bytearray(snap2.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        snap2.write_bytes(bytes(blob))
        return data_dir

    def test_corrupt_snapshot_is_quarantined_and_store_opens(
        self, tmp_path
    ):
        data_dir = self.seed_two_generations(tmp_path)
        snap2 = data_dir / snapshot_name(2)
        with GraphStore.open(data_dir) as store:
            assert store.generation == 1
            assert store.graph.num_vertices == 2
            report = store.recovery
        assert not snap2.exists()
        quarantined = snap2.with_name(snap2.name + QUARANTINE_SUFFIX)
        assert quarantined.exists()
        assert report.quarantined == [snap2]
        assert report.corrupt_snapshots == [snap2]
        assert "quarantined" in report.summary()

    def test_quarantined_file_is_skipped_on_next_open(self, tmp_path):
        data_dir = self.seed_two_generations(tmp_path)
        with GraphStore.open(data_dir):
            pass
        with GraphStore.open(data_dir) as again:
            assert again.recovery.corrupt_snapshots == []
            assert again.recovery.quarantined == []

    def test_readonly_recovery_does_not_quarantine(self, tmp_path):
        data_dir = self.seed_two_generations(tmp_path)
        snap2 = data_dir / snapshot_name(2)
        graph = recover_graph(data_dir)  # truncate=False
        assert graph.num_vertices == 2
        assert snap2.exists()

    def test_all_corrupt_raises_and_preserves_files(self, tmp_path):
        data_dir = tmp_path / "d"
        base = PropertyGraph("q")
        base.add_vertex("A", {"n": 1})
        GraphStore.create(data_dir, base).close()
        snap1 = data_dir / snapshot_name(1)
        blob = bytearray(snap1.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        snap1.write_bytes(bytes(blob))
        with pytest.raises(RecoveryError):
            GraphStore.open(data_dir)
        # No fallback existed, so nothing was renamed: a later repair
        # (or a fixed disk) can still find the original file.
        assert snap1.exists()

    def test_verify_detects_the_corruption(self, tmp_path):
        data_dir = self.seed_two_generations(tmp_path)
        report = verify_directory(data_dir)
        assert report["ok"] is False
        by_gen = {e["generation"]: e for e in report["generations"]}
        assert by_gen[2]["snapshot"]["status"] == "corrupt"
        assert by_gen[1]["snapshot"]["status"] == "ok"
        # After the store quarantines, verify is clean again and the
        # renamed file is listed.
        with GraphStore.open(data_dir):
            pass
        report = verify_directory(data_dir)
        assert report["ok"] is True
        assert report["quarantined"] == [
            snapshot_name(2) + QUARANTINE_SUFFIX
        ]


class TestTmpSweep:
    def test_orphaned_tmp_swept_on_open(self, tmp_path):
        data_dir = tmp_path / "d"
        base = PropertyGraph("s")
        base.add_vertex("A", {"n": 1})
        GraphStore.create(data_dir, base).close()
        debris = data_dir / (snapshot_name(7) + ".tmp")
        debris.write_bytes(b"partial snapshot bytes")
        foreign = data_dir / "keep.tmp"
        foreign.write_bytes(b"not ours")
        with GraphStore.open(data_dir) as store:
            assert store.recovery.removed_tmp == [debris]
        assert not debris.exists()
        assert foreign.exists()  # non-store tmp files are not ours

    def test_crashed_checkpoint_leaves_then_sweeps_tmp(self, tmp_path):
        data_dir = tmp_path / "d"
        base = PropertyGraph("s")
        base.add_vertex("A", {"n": 1})
        store = GraphStore.create(data_dir, base)
        with faults.REGISTRY.armed("snapshot.write.section"):
            with pytest.raises(SimulatedCrash):
                store.checkpoint()
        debris = [
            p for p in data_dir.iterdir() if p.name.endswith(".tmp")
        ]
        assert debris, "a simulated crash must leave tmp debris behind"
        with GraphStore.open(data_dir) as reopened:
            assert reopened.recovery.removed_tmp == debris
            assert reopened.graph.num_vertices == 1
        assert not any(
            p.name.endswith(".tmp") for p in data_dir.iterdir()
        )


class TestEnvSpec:
    def test_env_spec_arms_at_import(self, tmp_path):
        """REPRO_FAULTS in the environment arms before any I/O runs."""
        code = (
            "from repro.graphdb import faults\n"
            "from repro.graphdb.faults import SimulatedCrash\n"
            "from repro.graphdb.storage import GraphStore\n"
            "from repro.graphdb.graph import PropertyGraph\n"
            "assert faults.REGISTRY.armed_points() == "
            "['wal.flush.write']\n"
            "try:\n"
            "    s = GraphStore.open(r'%s', sync='always')\n"
            "    s.graph.add_vertex('A', {})\n"
            "except SimulatedCrash:\n"
            "    print('crashed-as-armed')\n"
        ) % (tmp_path / "d")
        env = dict(
            os.environ,
            REPRO_FAULTS="wal.flush.write:crash",
            REPRO_FAULTS_SEED="7",
            PYTHONPATH=str(
                Path(__file__).resolve().parents[3] / "src"
            ),
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "crashed-as-armed" in out.stdout

    def test_spec_grammar(self):
        spec = faults.parse_fault("wal.flush.fsync:error:EINTR@2x3%0.5")
        assert spec.point == "wal.flush.fsync"
        assert spec.mode == "error"
        assert spec.errno_code == __import__("errno").EINTR
        assert spec.at == 2 and spec.times == 3 and spec.chance == 0.5
        spec = faults.parse_fault("snapshot.rename")
        assert spec.mode == "crash" and spec.times == 1
        spec = faults.parse_fault("wal.flush.write:short:5x*")
        assert spec.mode == "short_write"
        assert spec.keep_bytes == 5 and spec.times is None
        with pytest.raises(faults.FaultError):
            faults.parse_fault(":crash")
        with pytest.raises(faults.FaultError):
            faults.parse_fault("p:nope")
        with pytest.raises(faults.FaultError):
            faults.parse_fault("p:error:EWHAT")
