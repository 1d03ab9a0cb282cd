"""No module of src/, tests/ or scripts/ imports a name it never reads.
The package's __init__.py is left out: its imports are its exports.  An
import on a line marked "# noqa: F401" is kept on purpose (bench/worker.py
wraps those module attributes) and is skipped."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "epsindep" / "__init__.py"


def unused_imports(source):
    """(line, name) of each name source imports and reads nowhere, in
    line order, but those on a line marked "# noqa: F401"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name) for line, name in imported if name not in read and "# noqa: F401" not in lines[line - 1]
    )


def test_scan_finds_an_unused_import_and_honours_noqa():
    source = (
        "import os.path\n"
        "from itertools import (\n"
        "    combinations,\n"
        "    product,\n"
        "    chain,  # noqa: F401\n"
        ")\n"
        "import json as j\n"
        "from .m import *\n"
        "print(os.sep, combinations)\n"
    )
    assert unused_imports(source) == [(4, "product"), (7, "j")]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(
        path
        for folder in ("src", "tests", "scripts")
        for path in (ROOT / folder).rglob("*.py")
        if path != PACKAGE_INIT
    )
    assert {path.relative_to(ROOT).parts[0] for path in paths} == {"src", "tests", "scripts"}
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
