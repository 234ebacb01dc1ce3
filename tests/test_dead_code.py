"""Dead-code guard: every top-level function, class and method defined in
`src/affrep` must be reachable from an `affrep` command, and every optional
parameter must be passed by some call in `src/affrep`.

The roots are `cli.main` and the module-level code of every `src/affrep`
module (so `selftest.CRITERIA` reaches the criteria, and decorators and
default values count).  From there the walk follows name
references through reached definitions only.  A top-level definition is
reached only through a name bound to it, in the module that holds the
reference: the definition's own name in its own module, a name that a
`from .m import f` (or `as g`) binds to it, or `alias.f` where `alias`
names its module (`from . import m as alias`).  A method is reached by an
attribute name (`x.basis`) or an identifier-like string, since code can
name a method only that way; a local variable that shares the method's
name does not reach it.  References from `tests/` or `perfbench/` are not
use.

`KEPT` names the unreached definitions that stay, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "affrep"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ROOT_DEF = "cli.main"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(modules):
    """{qualified name: node} for every top-level definition and every
    method that is not a dunder (dunders run with their class)."""
    out = {}
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            out[f"{stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _is_method(item):
                        out[f"{stem}.{node.name}.{item.name}"] = item
    return out


def _header(node):
    """The parts of a definition that run where it is defined: decorators,
    and default values or bases."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords
    return node.decorator_list + [node.args]


def _is_method(node):
    return isinstance(node, DEFS) and not node.name.startswith("__")


class _Names(ast.NodeVisitor):
    """Names referenced by the visited code, skipping the bodies of methods
    that are definitions in their own right: `names` holds identifiers,
    `qualified` (identifier, attribute name) pairs such as `ser.dumps`, and
    `attrs` attribute names and identifier-like strings."""

    def __init__(self):
        self.names = set()
        self.qualified = set()
        self.attrs = set()

    def visit_ClassDef(self, node):
        for part in _header(node):
            self.visit(part)
        for item in node.body:
            for part in _header(item) if _is_method(item) else [item]:
                self.visit(part)

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        if isinstance(node.value, ast.Name):
            self.qualified.add((node.value.id, node.attr))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.attrs.add(node.value)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import


def _bindings(tree):
    """What a module's imports bind, anywhere in it: {name: (module, name
    there)} for `from .m import f` and `from affrep.m import f`, and
    {alias: module} for `from . import m` and `from affrep import m`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("affrep")):
            for alias in node.names:
                if node.module in (None, "affrep"):
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module.split(".")[-1], alias.name)
    return names, modules


def _unreached(modules):
    defs = _definitions(modules)
    methods = {}
    for qual, node in defs.items():
        if qual.count(".") == 2:
            methods.setdefault(node.name, []).append(qual)
    bindings = {stem: _bindings(tree) for stem, tree in modules.items()}

    def resolve(stem, name):
        """The top-level definition `name` is bound to in module `stem`."""
        if f"{stem}.{name}" in defs:
            return f"{stem}.{name}"
        source = bindings[stem][0].get(name)
        return resolve(*source) if source else None

    def reached(stem, refs):
        aliases = bindings[stem][1]
        found = [resolve(stem, name) for name in refs.names]
        found += [resolve(aliases[base], attr) for base, attr in refs.qualified
                  if base in aliases]
        found += [q for name in refs.attrs for q in methods.get(name, ())]
        return [q for q in found if q]

    todo = [ROOT_DEF]
    # first the code each module runs at import: its statements and the
    # headers of its definitions
    for stem, tree in modules.items():
        refs = _Names()
        for node in tree.body:
            for part in _header(node) if isinstance(node, DEFS) else [node]:
                refs.visit(part)
        todo += reached(stem, refs)
    seen = set()
    while todo:
        qual = todo.pop()
        if qual not in seen:
            seen.add(qual)
            refs = _Names()
            refs.visit(defs[qual])
            todo += reached(qual.split(".")[0], refs)
    return sorted(set(defs) - seen)


# unreached definitions that stay, with the reason
KEPT = {
    "schur.contains": "no command calls it, but perfbench traces it for its per-layer "
                      "metric schur.contains.calls",
}


def test_every_definition_is_referenced():
    assert _unreached(_modules()) == sorted(KEPT)


def _passes(call, index, name, bound_first):
    """Does the call pass the parameter at positional `index` (None for a
    keyword-only one) called `name`?  A `*` or `**` argument passes all."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) + bound_first > index


def test_every_optional_parameter_is_passed():
    """A parameter that no call passes always takes its default, so it is a
    constant.  With every definition reached (the test above), every call in
    `src/affrep` is on a command path.  `cli.main` is the root:
    its callers are outside."""
    modules = _modules()
    calls = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    never_passed = []
    for qual, node in _definitions(modules).items():
        if isinstance(node, ast.ClassDef) or qual == ROOT_DEF:
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        optional = [(i, x.arg) for i, x in enumerate(positional)
                    if i >= len(positional) - len(a.defaults)]
        optional += [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        method = qual.count(".") == 2
        for index, name in optional:
            # `obj.method(...)` binds self (or cls) to the first parameter
            if not any(_passes(c, index, name, method and isinstance(c.func, ast.Attribute))
                       for c in calls.get(node.name, ())):
                never_passed.append(f"{qual}({name})")
    assert never_passed == []
