"""Placeholder: the process-parallel executor was removed (see "Why there
is no process-parallel path" in docs/ARCHITECTURE.md).  The one name left
is looked up by ``benchmarks/e2e/run.py``'s leftover-process check through
``sys.modules``; this is not an API, and the file goes when that line does.
"""


def shutdown_pool() -> None:
    """No pool exists; nothing to stop."""
