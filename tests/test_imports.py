"""Every name a source or test file imports is used in that file."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "hflz").glob("*.py"),
                *(ROOT / "scripts").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports("import os, sys\nfrom a.b import c, d as e\n"
                          "from __future__ import annotations\n"
                          "sys.exit(e)\n") == ["c", "os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    assert unused_imports(path.read_text()) == []
