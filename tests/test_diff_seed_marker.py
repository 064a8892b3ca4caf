"""Every test module that reads ``REPRO_DIFF_SEED`` carries the
``diff_seed`` marker, which is how CI's randomized-seed step selects
them (``python -m pytest -m diff_seed``): a new seeded oracle test that
forgets it would silently run at the default seed only.

A module reads the seed when its code looks ``REPRO_DIFF_SEED`` up in
``os.environ`` or imports ``SEED`` from a module that does.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ENV = "REPRO_DIFF_SEED"


def module_name(path: Path) -> str:
    return ".".join(path.relative_to(REPO_ROOT).with_suffix("").parts)


def parse_tests() -> dict[str, ast.Module]:
    return {
        module_name(path): ast.parse(path.read_text())
        for path in sorted((REPO_ROOT / "tests").rglob("*.py"))
    }


def reads_the_env(tree: ast.Module) -> bool:
    """Whether ``tree`` calls ``os.environ.get(ENV, ...)`` or indexes
    ``os.environ[ENV]``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func, keys = node.func, node.args[:1]
            if not (isinstance(func, ast.Attribute) and func.attr == "get"):
                continue
            mapping = func.value
        elif isinstance(node, ast.Subscript):
            mapping, keys = node.value, [node.slice]
        else:
            continue
        if isinstance(mapping, ast.Attribute) and mapping.attr == "environ":
            if any(
                isinstance(key, ast.Constant) and key.value == ENV
                for key in keys
            ):
                return True
    return False


def seed_sources(tree: ast.Module) -> set[str]:
    """The modules ``tree`` imports ``SEED`` from."""
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and any(alias.name == "SEED" for alias in node.names)
    }


def has_marker(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "diff_seed"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "mark"
        for node in ast.walk(tree)
    )


def seed_readers(trees: dict[str, ast.Module]) -> set[str]:
    readers = {name for name, tree in trees.items() if reads_the_env(tree)}
    while True:
        more = {
            name for name, tree in trees.items()
            if name not in readers and seed_sources(tree) & readers
        }
        if not more:
            return readers
        readers |= more


def test_every_seed_reading_module_is_marked():
    trees = parse_tests()
    readers = seed_readers(trees)
    # The differential fuzzer, the generator parity test and the bulk
    # draw test read it directly; the remote differential test through
    # an import.
    assert {
        "tests.graphdb.test_differential",
        "tests.data.test_generator_parity",
        "tests.data.test_bulk_draws",
        "tests.graphdb.server.test_differential_remote",
    } <= readers
    unmarked = sorted(
        name for name in readers if not has_marker(trees[name])
    )
    assert not unmarked, (
        f"modules reading {ENV} without pytest.mark.diff_seed: {unmarked}"
    )


def test_the_check_sees_a_missing_marker():
    reads = ast.parse(
        "import os\nSEED = int(os.environ.get('REPRO_DIFF_SEED', '1'))\n"
    )
    imports = ast.parse(
        "import pytest\nfrom tests.x import SEED\n"
        "pytestmark = pytest.mark.diff_seed\n"
    )
    mentions = ast.parse('"""Set REPRO_DIFF_SEED to replay."""\n')
    trees = {"tests.x": reads, "tests.test_y": imports, "tests.z": mentions}
    assert seed_readers(trees) == {"tests.x", "tests.test_y"}
    assert not has_marker(reads) and has_marker(imports)
