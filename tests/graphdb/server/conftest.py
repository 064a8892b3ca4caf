"""Server test harness: a real GraphServer on a background event loop.

There is no pytest-asyncio in the toolchain, so the harness runs
``asyncio.run`` in a daemon thread and the tests drive the server from
the outside with the blocking remote driver - which is also exactly
how real clients see it.  Every server binds port 0 (ephemeral), so
tests parallelize and never collide.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.graphdb import faults, observe
from repro.graphdb.api.database import Database, connect
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.server import GraphServer, ServerConfig
from repro.graphdb.storage import GraphStore


class ServerThread:
    """One GraphServer running on its own event loop thread."""

    def __init__(self, database, config: ServerConfig | None = None):
        config = config or ServerConfig(port=0)
        self.server = GraphServer(database, config)
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        #: Whatever serve_forever raised (a SimulatedCrash for the
        #: torture tests), or None after a clean stop.
        self.error: BaseException | None = None

    def _run(self) -> None:
        async def main() -> None:
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_forever()

        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 - harness boundary
            self.error = exc
        finally:
            self._started.set()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._started.wait(10)
        if self.server.address is None:
            raise RuntimeError(f"server failed to start: {self.error}")
        return self

    @property
    def url(self) -> str:
        host, port = self.server.address
        return f"repro://{host}:{port}"

    @property
    def http_url(self) -> str:
        host, port = self.server.http_address
        return f"http://{host}:{port}"

    def stop(self, timeout: float = 10.0) -> BaseException | None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        return self.wait(timeout)

    def wait(self, timeout: float = 10.0) -> BaseException | None:
        """Wait for the server to go down (by itself, after a crash)
        and return what it raised."""
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "server did not stop"
        return self.error


@pytest.fixture()
def server_factory():
    """``factory(database, config=None) -> ServerThread`` (auto-stop)."""
    servers: list[ServerThread] = []

    def factory(database, config: ServerConfig | None = None):
        harness = ServerThread(database, config).start()
        servers.append(harness)
        return harness

    yield factory
    for harness in servers:
        harness.stop()


@pytest.fixture()
def small_graph():
    graph = PropertyGraph("wire-test")
    drugs = [
        graph.add_vertex(["Drug"], {"name": name, "tier": i % 3})
        for i, name in enumerate(
            ["aspirin", "ibuprofen", "paracetamol", "naproxen",
             "codeine", "tramadol"]
        )
    ]
    for i in range(len(drugs) - 1):
        graph.add_edge(drugs[i], drugs[i + 1], "INTERACTS", {"w": i})
    return graph


@pytest.fixture()
def durable_db(small_graph, tmp_path):
    """A durable database over ``small_graph`` (WAL-backed)."""
    data_dir = tmp_path / "data"
    GraphStore.create(data_dir, small_graph).close()
    database = connect(data_dir)
    yield database
    if not database.closed:
        database.close()


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.REGISTRY.reset()
    yield
    faults.REGISTRY.reset()
