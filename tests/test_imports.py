"""Every name a library module imports is used in that module."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nnobdd"
# `__init__` imports what the package exports
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(text: str) -> list[str]:
    """Imported names that appear nowhere outside the module's import statements.

    A name counts as used wherever it appears as a word, strings included,
    so one read only in a string annotation passes.
    """
    lines = text.splitlines()
    imported = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            for k in range(node.lineno - 1, node.end_lineno):
                lines[k] = ""
    rest = "\n".join(lines)
    return [name for name in imported if not re.search(r"\b%s\b" % re.escape(name), rest)]


def test_every_module_is_checked():
    assert {"analysis.py", "obdd.py", "formats.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_check_finds_an_unused_import():
    text = (
        "from __future__ import annotations\n"
        "from bisect import bisect_left\n"
        "from typing import IO, Callable\n"
        "import os.path\n"
        "def f(fp: 'IO[str]') -> str:\n"
        "    return os.path.join('a', 'b')\n"
    )
    assert unused_imports(text) == ["bisect_left", "Callable"]
