"""Every public name of the library has a reader outside the tests.

A name in the ``__all__`` of a module of ``src/somlogic`` must be referenced
in code by some module of the package other than ``__init__.py``, or by a
file under ``scripts/`` or ``bench/``: as a name, an attribute or an import.
Its own definition, strings and docstrings do not count.  Code that only
tests read belongs in ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "somlogic"


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


class _References(ast.NodeVisitor):
    """The names a module reads, each outside its own definition."""

    def __init__(self):
        self.names: set[str] = set()
        self.defining: list[str] = []

    def _definition(self, node):
        self.defining.append(node.name)
        self.generic_visit(node)
        self.defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name: str) -> None:
        if name not in self.defining:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._read(node.name.rsplit(".", 1)[-1])


def _unread(library: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each name in the ``__all__`` of the modules in
    ``library`` (module name to source) that no source in ``readers``
    references."""
    refs = _References()
    for source in readers:
        refs.visit(ast.parse(source))
    return [f"{module}.{name}" for module, source in sorted(library.items())
            for name in _exported(ast.parse(source)) if name not in refs.names]


def test_every_exported_name_has_a_reader_outside_the_tests():
    library = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [source for stem, source in library.items() if stem != "__init__"]
    readers += [p.read_text(encoding="utf-8")
                for folder in ("scripts", "bench") for p in sorted((ROOT / folder).rglob("*.py"))]
    assert _unread(library, readers) == []


def test_census_ignores_definitions_strings_and_init():
    library = {
        "mod": '__all__ = ["used", "recursive", "quoted", "Kept", "LIMIT"]\n'
               "LIMIT = 3\n"
               "def used(): return 1\n"
               "def recursive(n): return recursive(n - 1) if n else 0\n"
               'def quoted(): """See used."""\n'
               "class Kept: pass\n",
        "__init__": "from .mod import quoted\n",
    }
    readers = [library["mod"], "import mod\nmod.used()\nfrom mod import Kept\n"]
    assert _unread(library, readers) == ["mod.recursive", "mod.quoted", "mod.LIMIT"]
