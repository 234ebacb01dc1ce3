"""Layering guard: `matmodel` owns the sl_n basis and every matrix model, so
it must not import the modules built on top of it.  The classifier, the
rationality decision and the catalog read models through `matmodel`; if
`matmodel` imported any of them, the model format would again be split
across modules.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "affrep"
ABOVE_MATMODEL = {"repclass", "rationality", "catalog"}


def _imported_modules(tree) -> set[str]:
    """The `affrep` modules a module imports, by their last name part:
    `from .x import y` and `import affrep.x` give x, `from . import x`
    gives x."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.split(".")[-1])
            if node.module in (None, "affrep"):
                out.update(alias.name for alias in node.names)
    return out


def test_imported_modules_reads_every_import_form():
    tree = ast.parse("import affrep.a\nfrom .b import f\nfrom . import c\n"
                     "from affrep import d\nfrom affrep.e import g\n")
    assert _imported_modules(tree) >= {"a", "b", "c", "d", "e"}


def test_matmodel_imports_no_module_above_it():
    tree = ast.parse((PACKAGE / "matmodel.py").read_text(encoding="utf-8"))
    assert _imported_modules(tree) & ABOVE_MATMODEL == set()
