"""Every public name in ``src/snvsim`` has a caller outside the unit tests.

An AST scan over the package's public module-level functions and classes,
and the public methods, properties and fields of those classes.  A name
counts as used when ``src/snvsim``, ``perfbench/`` or the acceptance suite
refers to it: by name, attribute, keyword, import or an identifier string
(``getattr``, the registry's ``"module:function"`` runners).  A class member
is matched by attribute, keyword or string only.  A reference from inside
the name itself, from a ``__post_init__`` (validation is no use), from the
fit-model registry (a model that only the registry names is fitted by
nothing) or from inside a name that is itself unused does not count, so a
dead cluster is found as a whole.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public_names() -> dict[str, tuple[str, bool]]:
    """``{qualname: (name, is_class_member)}`` for ``src/snvsim``."""
    names = {}
    for path in sorted((ROOT / "src" / "snvsim").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names[f"{path.stem}.{node.name}"] = (node.name, False)
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    names[f"{path.stem}.{node.name}.{name}"] = (name, True)
    return names


class _References(ast.NodeVisitor):
    """``(name, is_attribute_like, enclosing qualname)`` for each candidate reference."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def _enter(self, node):
        self.scope.append(f"{self.scope[-1]}.{node.name}")
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _enter

    def _add(self, name, attribute_like):
        self.found.append((name, attribute_like, self.scope[-1]))

    def visit_Name(self, node):
        self._add(node.id, False)

    def visit_alias(self, node):
        self._add(node.name.split(".")[-1], False)

    def visit_Attribute(self, node):
        self._add(node.attr, True)
        self.generic_visit(node)

    def visit_keyword(self, node):
        if node.arg:
            self._add(node.arg, True)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            for part in node.value.split(":"):
                if part.isidentifier():
                    self._add(part, True)


def _references(paths) -> list[tuple[str, bool, str]]:
    found = []
    for path in paths:
        module = path.stem if path.parent.name == "snvsim" else f"{path.parent.name}/{path.stem}"
        visitor = _References(module)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return found


def _unused(names, references) -> set[str]:
    """The qualnames no reference reaches, repeated until nothing more drops out."""
    unused: set[str] = set()

    def used(qualname):
        name, member = names[qualname]
        inside = [qualname, *unused]
        for ref, attribute_like, scope in references:
            if (
                ref != name
                or (member and not attribute_like)
                or scope.endswith(".__post_init__")
                or scope == "fitting.model_registry"
            ):
                continue
            if not any(scope == q or scope.startswith(q + ".") for q in inside):
                return True
        return False

    while True:
        new = {q for q in names if q not in unused and not used(q)}
        if not new:
            return unused
        unused |= new


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    callers = [
        *sorted((ROOT / "src" / "snvsim").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    names = _public_names()
    assert len(names) > 150  # the scan sees the package
    assert _unused(names, _references(callers)) == set()
