"""Every module of the package and the scripts parses as the oldest Python
that pyproject.toml accepts (requires-python)."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "hflz").glob("*.py"),
                *(ROOT / "scripts").glob("*.py")])


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


def test_the_floor_check_rejects_newer_syntax():
    assert python_floor() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=python_floor())


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path),
              feature_version=python_floor())
