"""Layering guards.  `matmodel` owns the sl_n basis and every matrix model,
so it must not import the modules built on top of it.  The classifier, the
rationality decision and the catalog read models through `matmodel`; if
`matmodel` imported any of them, the model format would again be split
across modules.  And every command starts a fresh interpreter, so the CLI
must not pay for standard modules it does not need at start-up.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "affrep"
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


# `dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`
SLOW_TO_IMPORT = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


def test_cli_import_loads_no_slow_standard_module():
    # -S: site `.pth` files may preload `typing` and hide a regression; the
    # rest of the environment (PYTHONDONTWRITEBYTECODE too) is passed on
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, json, affrep.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) & SLOW_TO_IMPORT == set()
