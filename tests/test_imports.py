"""Every module-level import in the package is used.

An ast walk stands in for a linter: a name bound by a top-level import
must be read somewhere in its module.  `__init__.py` and `_backend.py`
are skipped, since their imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "laminarmatroids"
MODULES = sorted(
    p for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "_backend.py")
)


def unused_imports(source):
    """Names bound by the module's top-level imports that no Name node
    reads; `from __future__` imports are directives, not bindings."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_walk_finds_unused_names():
    source = "from __future__ import annotations\nimport os, re as regex\nfrom . import a, b\nb.x\nos\n"
    assert unused_imports(source) == [(2, "regex"), (3, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
