"""The metric catalog audit: every instrument is documented and read.

An instrument earns its place by having a reader - a test assertion, a
benchmark, a tool or a CI step that names it.  One that nothing names
is a number nobody looks at, and goes.
"""

import re
from pathlib import Path

import repro.graphdb  # noqa: F401 - engine instruments register on import
import repro.graphdb.server  # noqa: F401
import repro.graphdb.storage  # noqa: F401
from repro.graphdb import observe

ROOT = Path(__file__).resolve().parents[3]
READER_DIRS = ("tests", "benchmarks", "tools", ".github")
READER_SUFFIXES = {".py", ".sh", ".yml", ".yaml"}


def registered() -> set[str]:
    return {i.name for i in observe.REGISTRY.instruments()}


def catalog() -> set[str]:
    """Names in the "Metric catalog" section of docs/OBSERVABILITY.md."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text.split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(repro_[a-z0-9_]+)[`{]", section))


def reader_text() -> str:
    here = Path(__file__).resolve()
    texts = []
    for directory in READER_DIRS:
        for path in sorted((ROOT / directory).rglob("*")):
            if (
                path.suffix in READER_SUFFIXES
                and path.is_file()
                and path.resolve() != here
            ):
                texts.append(path.read_text(errors="ignore"))
    return "\n".join(texts)


def test_catalog_documents_exactly_the_registered_instruments():
    names, documented = registered(), catalog()
    assert names - documented == set(), "registered but not documented"
    assert documented - names == set(), "documented but not registered"


def test_every_instrument_has_a_reader():
    text = reader_text()
    unread = sorted(
        name for name in registered()
        # A histogram is read through its _bucket / _sum / _count series.
        if not re.search(rf"\b{name}(?:_bucket|_sum|_count)?\b", text)
    )
    assert unread == []
