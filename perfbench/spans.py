"""Spans for the traced run, recorded from outside the program.

`Tracer.install` replaces each traced public function of `affrep` with a
wrapper that times the call.  Modules bind names at import
(`from .schur import contains`), so the wrapper replaces every binding of
the original object in every loaded `affrep` module, not only the one in the
defining module; `SMat` and `Echelon` methods are wrapped on the class.

Spans are aggregated as they close: per function, the call count, the
inclusive time, and the time covered by its direct child spans, so that self
time is inclusive time minus child time.  The rank-3 catalog closes over
half a million spans, which is why they are not kept one by one.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

# (module, function) pairs wrapped in the traced run; the module is the
# layer.  `cli.read_json_file` is the JSON parse that precedes every
# `serialize.*_from_json`, so its span is reported as `serialize.json_parse_s`.
FUNCTIONS = (
    ("schur", "lr_decompose"),
    ("schur", "contains"),
    ("rationality", "check_structural"),
    ("rationality", "decide_rationality"),
    ("repclass", "stabilizer_dimension"),
    ("repclass", "classify_with_report"),
    ("repclass", "model_for_weight"),
    ("linalg", "nullspace"),
    ("matmodel", "model_sym_dual"),
    ("matmodel", "sl_only_model"),
    ("matmodel", "tensor_model"),
    ("matmodel", "validate_model"),
    ("filtration", "socle_filtration"),
    ("filtration", "radical_filtration"),
    ("filtration", "check_duality"),
    ("filtration", "check_blocks_containment"),
    ("filtration", "check_embedding_theorem"),
    ("serialize", "model_to_json"),
    ("serialize", "model_from_json"),
    ("serialize", "dumps"),
    ("cli", "read_json_file"),
    ("catalog", "enumerate_exceptional_candidates"),
)
METHODS = (
    ("linalg", "SMat", "apply"),
    ("linalg", "Echelon", "insert"),
)

# Every per-layer metric of the traced run, with its unit, in report order.
PER_LAYER = (
    ("schur.lr_decompose.calls", "count"),
    ("schur.lr_decompose.self_s", "s"),
    ("schur.lr_decompose.distinct_args", "count"),
    ("schur.contains.calls", "count"),
    ("rationality.check_structural.calls", "count"),
    ("rationality.check_structural.s", "s"),
    ("rationality.check_structural.pass_ratio", "ratio"),
    ("rationality.decide_rationality.calls", "count"),
    ("rationality.decide_rationality.s", "s"),
    ("rationality.split_candidates", "count"),
    ("repclass.stabilizer_dimension.calls", "count"),
    ("repclass.stabilizer_dimension.self_s", "s"),
    ("repclass.classify_with_report.hits", "count"),
    ("repclass.classify_with_report.misses", "count"),
    ("repclass.model_for_weight.misses", "count"),
    ("repclass.good_shortcut_ratio", "ratio"),
    ("linalg.Echelon.insert.calls", "count"),
    ("linalg.Echelon.insert.self_s", "s"),
    ("linalg.Echelon.insert.independent_ratio", "ratio"),
    ("linalg.SMat.apply.calls", "count"),
    ("linalg.SMat.apply.self_s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.s", "s"),
    ("matmodel.model_sym_dual.s", "s"),
    ("matmodel.sl_only_model.s", "s"),
    ("matmodel.tensor_model.s", "s"),
    ("matmodel.nnz", "count"),
    ("matmodel.validate_model.calls", "count"),
    ("matmodel.validate_model.s", "s"),
    ("filtration.socle_filtration.calls", "count"),
    ("filtration.socle_filtration.s", "s"),
    ("filtration.radical_filtration.calls", "count"),
    ("filtration.radical_filtration.s", "s"),
    ("filtration.check_duality.s", "s"),
    ("filtration.check_blocks_containment.s", "s"),
    ("filtration.check_embedding_theorem.s", "s"),
    ("serialize.model_to_json.s", "s"),
    ("serialize.dumps.s", "s"),
    ("serialize.bytes_out", "bytes"),
    ("serialize.json_parse_s", "s"),
    ("serialize.model_from_json.s", "s"),
    ("serialize.bytes_in", "bytes"),
    ("catalog.entries", "count"),
    ("trace_overhead_frac", "ratio"),
)


class _Stat:
    __slots__ = ("calls", "incl", "child")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list[float]] = []  # child time of each open span
        self._originals: dict[str, object] = {}
        self.lr_args: set = set()
        self.structural_passes = 0
        self.inserts_independent = 0
        self.split_candidates = 0
        self.nnz = 0
        self.entries = 0
        self.bytes_out = 0
        self.bytes_in = 0

    def _wrap(self, name: str, fn, observe=None):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.incl += dt
                stat.child += frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _observers(self):
        def lr(args, result):
            a, b = args[0], args[1]
            self.lr_args.add((a.n, a.parts, b.parts))

        def structural(args, result):
            self.structural_passes += bool(result)

        def insert(args, result):
            self.inserts_independent += result is not None

        def verdict(args, result):
            self.split_candidates += sum(ev["condition"] == "split" for ev in result.evidence)

        def model(args, result):
            self.nnz += sum(len(col) for m in result.all_gens() for col in m.cols.values())

        def entries(args, result):
            self.entries += len(result)

        def dumped(args, result):
            self.bytes_out += len(result.encode("utf-8"))

        def read(args, result):
            self.bytes_in += os.path.getsize(args[0])

        return {
            "schur.lr_decompose": lr,
            "rationality.check_structural": structural,
            "linalg.Echelon.insert": insert,
            "rationality.decide_rationality": verdict,
            "matmodel.model_sym_dual": model,
            "matmodel.sl_only_model": model,
            "matmodel.tensor_model": model,
            "catalog.enumerate_exceptional_candidates": entries,
            "serialize.dumps": dumped,
            "cli.read_json_file": read,
        }

    def install(self) -> None:
        """Wrap every traced function and method, at every binding."""
        observers = self._observers()
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "affrep" or k.startswith("affrep."))]
        for mod_name, fn_name in FUNCTIONS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"affrep.{mod_name}"], fn_name)
            self._originals[name] = original
            wrapper = self._wrap(name, original, observers.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            name = f"{mod_name}.{cls_name}.{meth}"
            cls = getattr(sys.modules[f"affrep.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, original, observers.get(name)))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (all of PER_LAYER but trace_overhead_frac)."""

        def st(name):
            return self.stats[name]

        def ratio(num, den):
            return num / den if den else 0.0

        ck = self._originals["repclass.classify_with_report"].cache_info()
        mfw = self._originals["repclass.model_for_weight"].cache_info()
        stab = st("repclass.stabilizer_dimension")
        out: dict[str, float] = {}
        for name in ("schur.lr_decompose", "repclass.stabilizer_dimension",
                     "linalg.Echelon.insert", "linalg.SMat.apply"):
            out[f"{name}.calls"] = st(name).calls
            out[f"{name}.self_s"] = st(name).incl - st(name).child
        for name in ("rationality.check_structural", "rationality.decide_rationality",
                     "linalg.nullspace", "matmodel.validate_model",
                     "filtration.socle_filtration", "filtration.radical_filtration"):
            out[f"{name}.calls"] = st(name).calls
            out[f"{name}.s"] = st(name).incl
        for name in ("matmodel.model_sym_dual", "matmodel.sl_only_model",
                     "matmodel.tensor_model", "filtration.check_duality",
                     "filtration.check_blocks_containment",
                     "filtration.check_embedding_theorem", "serialize.model_to_json",
                     "serialize.dumps", "serialize.model_from_json"):
            out[f"{name}.s"] = st(name).incl
        out["schur.lr_decompose.distinct_args"] = len(self.lr_args)
        out["schur.contains.calls"] = st("schur.contains").calls
        out["rationality.check_structural.pass_ratio"] = ratio(
            self.structural_passes, st("rationality.check_structural").calls)
        out["rationality.split_candidates"] = self.split_candidates
        out["repclass.classify_with_report.hits"] = ck.hits
        out["repclass.classify_with_report.misses"] = ck.misses
        out["repclass.model_for_weight.misses"] = mfw.misses
        # every classify miss either short-cuts on a good label or calls the
        # stabilizer, and nothing else on a command path calls the stabilizer
        out["repclass.good_shortcut_ratio"] = ratio(max(0, ck.misses - stab.calls), ck.misses)
        out["linalg.Echelon.insert.independent_ratio"] = ratio(
            self.inserts_independent, st("linalg.Echelon.insert").calls)
        out["matmodel.nnz"] = self.nnz
        out["serialize.bytes_out"] = self.bytes_out
        out["serialize.json_parse_s"] = st("cli.read_json_file").incl
        out["serialize.bytes_in"] = self.bytes_in
        out["catalog.entries"] = self.entries
        return {name: out[name] for name, _ in PER_LAYER if name in out}
