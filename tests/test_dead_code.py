"""Dead-code guard: every top-level function, class and method defined in
`src/affrep` must be referenced somewhere in `src/`, `tests/` or `perfbench/`
outside its own definition.

References are matched by bare name (identifiers, attribute names, imported
names and identifier-like strings), so a dead definition whose name is a
common word slips through; the guard is a floor, not a proof of use.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "affrep"
SCANNED = ("src", "tests", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFS):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not item.name.startswith("__"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


class _References(ast.NodeVisitor):
    """Counts names referenced outside the definitions that bear them."""

    def __init__(self):
        self.names = Counter()
        self.inside: list[str] = []

    def _ref(self, name):
        if name not in self.inside:
            self.names[name] += 1

    def _visit_def(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def visit_Name(self, node):
        self._ref(node.id)

    def visit_Attribute(self, node):
        self._ref(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._ref(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._ref(node.value)


def test_every_definition_is_referenced():
    refs = _References()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            refs.visit(ast.parse(path.read_text(encoding="utf-8")))
    unreferenced = [qual for qual, name in _definitions() if not refs.names[name]]
    assert unreferenced == []
