"""Every module-level import and definition in the package is used.

An ast walk stands in for a linter: a name bound by a top-level import
must be read somewhere in its module, in the package and under `tests/`
alike.  `__init__.py` and `_backend.py` are skipped, since their imports
are the package's re-exports.  A
second walk finds dead helpers: every module-level function, class or
constant, and every `_`-prefixed method of a module-level class, must be
named somewhere in the package outside its own definition, as a name,
an attribute (`K._indices`, `m._dependents()`) or an import; a method
read off a class by name counts only for that class and its ancestors.
The same walk covers the shared test helpers in `_oracles.py` and
`_corpus.py`, whose names must be read somewhere under `tests/`.  A
third walk keeps the size cap in one place: only `matroid._check_size`
calls `TooLarge`, and only the four readers of input (`build_matroid`,
`parse_ckt`, `canonicalize`, `LaminarPresentation.to_explicit`) take a
`max_n`, each defaulting to `HARD_CAP`.  A fourth walk finds f-strings
that format a `set(...)` or `frozenset(...)` call, whose element order
follows string hashing.  Last, the kernel module's set of public
callables is pinned, since `perfbench/tracing.py` times each of them as
a span.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "laminarmatroids"
TESTS = Path(__file__).resolve().parent
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
TEST_SOURCES = {p.name: p.read_text() for p in sorted(TESTS.glob("*.py"))}
MODULES = sorted(
    p for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "_backend.py")
) + sorted(TESTS.glob("*.py"))


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


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}"
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def class_lineage(trees):
    """Module-level class name -> that class and its ancestors, as far as
    their bases are module-level classes named in `trees`."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def lineage(name):
        return {name}.union(*(lineage(b) for b in bases[name] if b in bases))

    return {name: lineage(name) for name in bases}


def unreferenced_definitions(sources, owners=None):
    """(module, line, name) of each module-level function, class or
    constant, or private method of a module-level class, of the `owners`
    modules (all by default) that no line of `sources` outside its own
    definition names; `sources` maps module names to their text, and
    dunders are skipped.  An attribute read off a module-level class
    (`CanonicalPresentation._from_masks`) credits only the methods of
    that class and its ancestors; any other (`self._x`, `K._x`) credits
    every definition of that name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    lineage = class_lineage(trees.values())
    defined, named = [], []
    for module, tree in trees.items():
        for node in tree.body if owners is None or module in owners else ():
            if isinstance(node, ast.ClassDef):
                defined += [
                    (module, f.lineno, f.end_lineno, f.name, node.name)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name[:1] == "_" and f.name[:2] != "__"
                ]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    defined.append((module, node.lineno, node.end_lineno, name, None))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.append((module, n.lineno, n.id, None))
            elif isinstance(n, ast.Attribute):
                value = n.value.id if isinstance(n.value, ast.Name) else None
                named.append((module, n.lineno, n.attr, lineage.get(value)))
            elif isinstance(n, ast.ImportFrom):
                named += [(module, n.lineno, alias.name, None) for alias in n.names]
    return sorted(
        (module, first, name)
        for module, first, last, name, cls in defined
        if not any(
            used == name
            and (classes is None or cls in classes)
            and (where != module or not first <= line <= last)
            for where, line, used, classes in named
        )
    )


def test_the_walk_finds_dead_helpers():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef dead(n):\n    return dead(n - 1)\n"
        "X = 1\n_Y = 2\n__all__ = []\n",
        "b.py": "from .a import used\nK.X\n",
    }
    assert unreferenced_definitions(sources) == [("a.py", 5, "dead"), ("a.py", 8, "_Y")]


def test_the_walk_finds_dead_private_methods():
    source = (
        "class A:\n"
        "    def _used(self):\n        return 1\n"
        "    def _dead(self):\n        return self._dead()\n"
        "    def public(self):\n        pass\n"
        "    def __init__(self):\n        pass\n"
        "A()._used\n"
    )
    assert unreferenced_definitions({"a.py": source}) == [("a.py", 4, "_dead")]
    # a method read off a class credits that class and its ancestors only;
    # read off anything else, it credits every method of that name
    source = (
        "class A:\n"
        "    def _make(self):\n        pass\n"
        "    def _shared(self):\n        pass\n"
        "class B:\n"
        "    def _make(self):\n        pass\n"
        "    def _shared(self):\n        pass\n"
        "class C(A):\n    pass\n"
        "C._make\n"
        "m._shared\n"
        "B\n"
    )
    assert unreferenced_definitions({"a.py": source}) == [("a.py", 7, "_make")]


def test_no_dead_module_definitions():
    assert unreferenced_definitions(SOURCES) == []


def test_the_walk_keeps_to_its_owners():
    sources = {"a.py": "def dead():\n    pass\n", "b.py": "def unused():\n    pass\n"}
    assert unreferenced_definitions(sources, owners=("b.py",)) == [("b.py", 1, "unused")]


def test_no_dead_test_helpers():
    assert unreferenced_definitions(TEST_SOURCES, owners=("_oracles.py", "_corpus.py")) == []


def callers(source, callee):
    """Dotted names of the functions (or "" for module level) whose own
    bodies call `callee`, by bare name or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == callee:
                    found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_walk_finds_callers():
    source = (
        "def f():\n    return [E(1) for _ in ()]\n"
        "class A:\n    def g(self):\n        def h():\n            raise errors.E(2)\n"
        "try:\n    E(3)\nexcept E:\n    raise E\n"
    )
    assert callers(source, "E") == {"f", "A.g.h", ""}


def cap_takers(source):
    """(dotted name, default) of every function or method with a `max_n`
    parameter; the default is its source text, or None."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = scope + (child.name,)
                if isinstance(child, ast.FunctionDef):
                    a = child.args
                    positional = a.posonlyargs + a.args
                    defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
                    for arg, default in zip(positional + a.kwonlyargs, defaults + a.kw_defaults):
                        if arg.arg == "max_n":
                            found.add((".".join(name), default and ast.unparse(default)))
                visit(child, name)

    visit(ast.parse(source), ())
    return found


def test_the_walk_finds_cap_takers():
    source = (
        "def f(x, max_n=DESK_CAP):\n    pass\n"
        "class A:\n    def g(self, *, max_n):\n        def h(max_n=16, y=0):\n            pass\n"
        "def k(x, y=HARD_CAP):\n    pass\n"
    )
    assert cap_takers(source) == {("f", "DESK_CAP"), ("A.g", None), ("A.g.h", "16")}


def test_one_home_for_the_size_cap():
    """TooLarge is raised in matroid._check_size alone.  Only the four
    readers of input take a cap, each defaulting to HARD_CAP, and
    `_capped_ground` is the only other private function that takes one."""
    assert {(m, f) for m, source in SOURCES.items() for f in callers(source, "TooLarge")} == {
        ("matroid.py", "_check_size")
    }
    capped = {(module,) + taker for module, source in SOURCES.items() for taker in cap_takers(source)}
    assert capped == {
        ("matroid.py", "build_matroid", "HARD_CAP"),
        ("formats.py", "parse_ckt", "HARD_CAP"),
        ("presentation.py", "canonicalize", "HARD_CAP"),
        ("presentation.py", "LaminarPresentation.to_explicit", "HARD_CAP"),
        ("matroid.py", "_check_size", "HARD_CAP"),
        ("matroid.py", "_capped_ground", None),
    }


def formatted_sets(source):
    """Line numbers of the f-string fields that format a set(...) or
    frozenset(...) call, whose text follows string hashing."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.FormattedValue)
        and isinstance(n.value, ast.Call)
        and getattr(n.value.func, "id", None) in ("set", "frozenset")
    )


def test_the_walk_finds_formatted_sets():
    source = (
        'a = f"{set(x)!r} and {y}"\n'
        "def f(x):\n    return f'{frozenset(x)}', f'{sorted(set(x))}', set(x)\n"
        'b = f"{shown(x)}"\n'
    )
    assert formatted_sets(source) == [1, 3]


def test_messages_format_no_set():
    """Messages name elements in ground order (errors._shown on a
    GroundSet.tuple_of), so CLI stderr does not change with the hash seed."""
    assert {m: formatted_sets(source) for m, source in SOURCES.items()} == {m: [] for m in SOURCES}


def test_kernel_public_callables_are_pinned():
    """The benchmark's tracer wraps every public callable of the kernel
    module as a span; a per-mask helper made public would be timed on
    every call, so a new public kernel is a deliberate edit here."""
    from laminarmatroids._backend import kernels

    public = {name for name, value in vars(kernels).items() if callable(value) and name[:1] != "_"}
    assert public == {
        "Counter", "combinations", "check_circuits", "closure_mask", "cocircuit_masks",
        "compress", "cyclic_flat_masks", "dependents", "find_minor", "greedy_rank",
        "iso_bijection", "minor_circuits", "spanning", "submasks_of_size",
        "truncation_circuits", "verify_elimination",
    }
