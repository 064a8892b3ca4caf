"""The documentation surface must not rot: every relative markdown
link in README.md, docs/, EXPERIMENTS.md, and the storage README must
resolve (the CI docs job runs the same checker), and the reference
docs may name only code that exists."""

import importlib.util
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A backticked dotted identifier, optionally called: `a.b_c()`.
_DOC_IDENTIFIER = re.compile(
    r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(\))?`"
)
#: A backticked file name: `test_x.py`.
_DOC_FILE = re.compile(r"`([\w.-]+\.(?:py|md|json|sh|yml|txt))`")
_WORD = re.compile(r"[A-Za-z_]\w*")
#: Where named code must occur (documentation files excluded, so a
#: doc cannot vouch for itself; this file excluded for the same
#: reason).
_CODE_DIRS = ("src", "tests", "benchmarks", "tools")


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_links", module)
    spec.loader.exec_module(module)
    return module


def test_documentation_links_resolve(capsys):
    checker = load_checker()
    exit_code = checker.main([])
    output = capsys.readouterr().out
    assert exit_code == 0, f"broken documentation links:\n{output}"


def test_documentation_surface_exists():
    for relative in (
        "README.md",
        "docs/API.md",
        "docs/ARCHITECTURE.md",
        "docs/QUERY_LANGUAGE.md",
        "benchmarks/EXPERIMENTS.md",
        "src/repro/graphdb/storage/README.md",
    ):
        assert (REPO_ROOT / relative).is_file(), relative


def test_readme_quickstart_executes(tmp_path, capsys):
    """The README's driver quickstart must run against the live API
    (the CI api-smoke job runs the same tool on the installed
    package)."""
    spec = importlib.util.spec_from_file_location(
        "run_readme_quickstart",
        REPO_ROOT / "tools" / "run_readme_quickstart.py",
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("run_readme_quickstart", module)
    spec.loader.exec_module(module)
    import os

    cwd = os.getcwd()
    try:
        exit_code = module.main(
            [str(REPO_ROOT / "README.md"), "--cwd", str(tmp_path)]
        )
    finally:
        os.chdir(cwd)
    output = capsys.readouterr()
    assert exit_code == 0, (
        f"README quickstart failed:\n{output.out}\n{output.err}"
    )


def test_doc_identifiers_name_existing_code():
    """Every backticked identifier in README.md, docs/*.md and the
    storage README occurs as a word in a code file, and every
    backticked file name names a file.  EXPERIMENTS.md is history and
    is not checked."""
    words: set[str] = set()
    files: set[str] = set()
    for top in (*_CODE_DIRS, "docs", ".github"):
        for path in (REPO_ROOT / top).rglob("*"):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            files.add(path.name)
            if top not in _CODE_DIRS or path.suffix == ".md":
                continue
            if path == Path(__file__).resolve():
                continue
            try:
                words.update(_WORD.findall(path.read_text()))
            except UnicodeDecodeError:
                continue  # binary artifacts name nothing
    files.update(path.name for path in REPO_ROOT.iterdir())
    missing = []
    docs = [
        REPO_ROOT / "README.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
        REPO_ROOT / "src/repro/graphdb/storage/README.md",
    ]
    for doc in docs:
        text = doc.read_text()
        found = [
            (match, part)
            for match in _DOC_IDENTIFIER.finditer(text)
            if not _DOC_FILE.fullmatch(match.group(0))
            for part in match.group(1).split(".")
            if part not in words
        ]
        found += [
            (match, match.group(1))
            for match in _DOC_FILE.finditer(text)
            if match.group(1) not in files
        ]
        for match, name in found:
            line = text.count("\n", 0, match.start()) + 1
            missing.append(
                f"{doc.relative_to(REPO_ROOT)}:{line}: {name}"
            )
    assert not missing, "docs name code that does not exist:\n" + (
        "\n".join(missing)
    )
