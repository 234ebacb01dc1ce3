"""Layering guards.  `matmodel` owns the sl_n basis and every matrix model,
so it must not import the modules built on top of it.  The classifier, the
rationality decision and the catalog read models through `matmodel`; if
`matmodel` imported any of them, the model format would again be split
across modules.  Nor does `matmodel` read a filtration: the checks on
filtrations live in `filtration`.  The character oracle is the reference
`selftest` checks the Littlewood-Richardson code against, so it reads
weights from `schur` and nothing of that code.  `serialize` alone knows the
model file's bytes: the CLI reads model files through it.  The named labels
of a rank (trivial, standard, exterior and symmetric square, adjoint) are
built from their raw parts in `schur.rank_labels` alone, and every other
module reads them there.  A module's `_`-prefixed names are its own: no
other module imports one, nor does a test reference (`*_reference.py`,
`*_oracle.py`), which must share no code with what it checks.  The catalog
enumerates the candidate pairs and `rationality` decides them, so `catalog`
imports nothing from `rationality`.  These hold at run time too: the
package root imports nothing, so importing one module loads only the
`affrep` modules its top-level imports reach.  And every command starts a
fresh interpreter, so the CLI must not pay for standard modules it does not
need at start-up; yet `import affrep.cli` binds every function and method
that `perfbench/spans.py` traces.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
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


def _imported_names(tree) -> list[tuple[str, str]]:
    """(module, name) for each name a module imports from an `affrep`
    module with `from .x import name` or `from affrep.x import name`."""
    return [(node.module.split(".")[-1], alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module not in (None, "affrep")
            and (node.level or node.module.startswith("affrep."))
            for alias in node.names]


def test_imported_names_reads_every_from_form():
    tree = ast.parse("from .a import f, _g\nfrom affrep.b import h as i\nfrom . import c\n"
                     "from affrep import d\nfrom itertools import chain\n"
                     "def f():\n    from .e import _j\n")
    assert sorted(_imported_names(tree)) == [("a", "_g"), ("a", "f"), ("b", "h"), ("e", "_j")]


def test_no_module_imports_a_private_name_of_another():
    imported = [f"{path.stem} imports {module}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                for module, name in _imported_names(ast.parse(path.read_text(encoding="utf-8")))
                if name.startswith("_")]
    assert imported == []


def test_no_test_reference_imports_a_private_name():
    references = sorted([*TESTS.glob("*_reference.py"), *TESTS.glob("*_oracle.py")])
    assert references
    imported = [f"{path.stem} imports {module}.{name}" for path in references
                for module, name in _imported_names(ast.parse(path.read_text(encoding="utf-8")))
                if name.startswith("_")]
    assert imported == []


def test_catalog_imports_nothing_from_rationality():
    tree = ast.parse((PACKAGE / "catalog.py").read_text(encoding="utf-8"))
    assert "rationality" not in _imported_modules(tree)


def test_matmodel_imports_no_module_above_it():
    tree = ast.parse((PACKAGE / "matmodel.py").read_text(encoding="utf-8"))
    assert _imported_modules(tree) & ABOVE_MATMODEL == set()


# what `schur` computes a tensor product with; the oracle computes it alone
LR_NAMES = {"lr_decompose", "tensor_counts", "multiset_fits_in_product", "pieri_sym"}


def _names(tree) -> set[str]:
    """Every identifier, attribute name and imported name in the module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


# what a filtration is made of; filtrations read models, never the reverse
FILTRATION_NAMES = {"snapshots", "layer_sizes"}


def test_matmodel_reads_no_filtration():
    tree = ast.parse((PACKAGE / "matmodel.py").read_text(encoding="utf-8"))
    assert _names(tree) & FILTRATION_NAMES == set()


def test_oracle_is_independent_of_the_lr_code():
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    affrep_modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert _imported_modules(tree) & affrep_modules == {"schur"}
    names = _names(tree)
    assert names & LR_NAMES == set()
    assert not any(name.startswith("_lr_") or name == "_candidate_outer_shapes"
                   for name in names)


# what the model file's bytes are made of; `serialize` writes and reads them
MODEL_FILE_NAMES = {"MODEL_HEAD", "MODEL_HEAD_BYTES", "scan_model", "_frame"}


def test_cli_names_nothing_of_the_model_file_bytes():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _names(tree) & MODEL_FILE_NAMES == set()


# the raw parts of the named labels (the trivial's two ways, the standard's,
# the exterior and the symmetric square's); the adjoint's is
# [2] + [1] * (n - 2)
NAMED_RAWS = {(), (0,), (1,), (1, 1), (2,)}


def _literal_ints(node):
    """The integers of a list or tuple display of integer literals, else None."""
    if isinstance(node, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts):
        return tuple(e.value for e in node.elts)
    return None


def _builds_named_label(node) -> bool:
    """Whether `node` is `normalize(_, raw)` with a named label's raw parts
    (`NAMED_RAWS` or `[2] + [1] * (...)`), or `Weight(_, (0,) * _)`, the
    trivial, each called by name or as an attribute."""
    if not isinstance(node, ast.Call) or len(node.args) != 2:
        return False
    func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
    raw = node.args[1]
    if func == "normalize":
        if _literal_ints(raw) in NAMED_RAWS:
            return True
        return (isinstance(raw, ast.BinOp) and isinstance(raw.op, ast.Add)
                and _literal_ints(raw.left) == (2,) and isinstance(raw.right, ast.BinOp)
                and isinstance(raw.right.op, ast.Mult) and _literal_ints(raw.right.left) == (1,))
    return (func == "Weight" and isinstance(raw, ast.BinOp) and isinstance(raw.op, ast.Mult)
            and _literal_ints(raw.left) == (0,))


def test_builds_named_label_reads_every_form():
    named = ["normalize(n, [])", "normalize(3, [0])", "normalize(n, [1])",
             "schur.normalize(n, [1, 1])", "normalize(n, (2,))",
             "normalize(n, [2] + [1] * (n - 2))", "Weight(n, (0,) * n)"]
    other = ["normalize(n, [3])", "normalize(n, raw)", "normalize(n, [1, 1, 1])",
             "normalize(n, [j - i])", "Weight(n, (1,) * n)", "Weight(n, parts)"]
    for text in named + other:
        assert _builds_named_label(ast.parse(text, mode="eval").body) == (text in named), text


def test_only_schur_builds_a_named_label():
    built = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "schur"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _builds_named_label(node)]
    assert built == []


def _fresh_import(code: str, *args: str):
    """The JSON that `code` prints in a fresh interpreter.  -S: site `.pth`
    files may preload modules and hide a regression; the rest of the
    environment (PYTHONDONTWRITEBYTECODE too) is passed on."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# `dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`
SLOW_TO_IMPORT = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


def test_cli_import_loads_no_slow_standard_module():
    code = "import json, sys, affrep.cli; print(json.dumps(sorted(sys.modules)))"
    assert set(_fresh_import(code)) & SLOW_TO_IMPORT == set()


def test_package_root_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))


def _top_level_imports(stem: str) -> set[str]:
    """The `affrep` modules a module imports at its top level (`tree.body`);
    imports inside functions run only when called."""
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    body = ast.Module([node for node in tree.body
                       if isinstance(node, (ast.Import, ast.ImportFrom))], [])
    return _imported_modules(body) & {path.stem for path in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("stem", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_a_module_loads_only_what_it_imports(stem):
    # `affrep` and the closure of the module's top-level `affrep` imports
    closure, todo = {stem}, [stem]
    while todo:
        new = _top_level_imports(todo.pop()) - closure
        closure |= new
        todo += new
    expected = {"affrep", *(f"affrep.{m}" for m in closure - {"__init__"})}
    name = "affrep" if stem == "__init__" else f"affrep.{stem}"
    code = ("import importlib, json, sys; importlib.import_module(sys.argv[1]); "
            "print(json.dumps([k for k in sys.modules if k.split('.')[0] == 'affrep']))")
    assert set(_fresh_import(code, name)) == expected


def _spans_tuple(name: str):
    """A tuple literal of `perfbench/spans.py`, read without importing it."""
    tree = ast.parse((TESTS.parent / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]]
    return ast.literal_eval(value)


def test_cli_import_binds_every_traced_name():
    functions, methods = _spans_tuple("FUNCTIONS"), _spans_tuple("METHODS")
    assert functions and methods
    code = ("import json, sys, affrep.cli; functions, methods = json.loads(sys.argv[1]); "
            "module = lambda m: sys.modules.get(f'affrep.{m}'); "
            "print(json.dumps([f'{m}.{f}' for m, f in functions if not hasattr(module(m), f)] + "
            "[f'{m}.{c}.{f}' for m, c, f in methods "
            "if f not in vars(getattr(module(m), c, object))]))")
    assert _fresh_import(code, json.dumps([functions, methods])) == []
