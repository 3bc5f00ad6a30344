import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """``(line, name)`` for each name that ``source`` imports and never
    reads, skipping ``__future__`` imports and names on a ``# noqa`` line.
    A read anywhere in the module counts, in any scope."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_src_and_tests_import_no_unused_names():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re, sys as system\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "def f():\n"
        "    from math import pi, tau\n"
        "    return os.path.join(re.escape(pi))\n"
    ) == [(3, "system"), (5, "dumps"), (9, "tau")]
    # Package ``__init__`` modules import to re-export, so they are skipped.
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert len(files) > 10
    assert found == []
