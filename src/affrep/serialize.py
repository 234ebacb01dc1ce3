"""Canonical JSON encoding for all data types.

Writers are deterministic (sorted keys, fixed separators), so identical
objects always serialize to identical bytes and every file round-trips
exactly.  Rationals are encoded as strings: "3" or "-5/7".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .catalog import CatalogEntry
from .filtration import Filtration
from .linalg import SMat
from .matmodel import AffMatrixRep
from .rationality import TwoStepExtension, Verdict
from .repclass import SemisimpleRep, StabilizerReport
from .schur import Weight, WeightMultiset


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fraction_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {s!r}")
    return Fraction(s)


# --- weights and multisets ----------------------------------------------------

# `type(x) is int` and not isinstance: JSON true/false load as bool, a
# subclass of int, and are never a count or a part

def _require_int(value, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    return value


def weight_from_json(n: int, data) -> Weight:
    if not isinstance(data, list) or not all(type(x) is int for x in data):
        raise ValueError(f"field 'lambda' must be a list of integers, got {data!r}")
    return Weight(n, tuple(data))


def multiset_to_json(ms: WeightMultiset) -> dict:
    return {
        "n": ms.n,
        "summands": [{"lambda": list(w.parts), "mult": m} for w, m in ms.entries],
    }


def multiset_from_json(data) -> WeightMultiset:
    if not isinstance(data, dict) or "n" not in data or "summands" not in data:
        raise ValueError("weight multiset needs fields 'n' and 'summands'")
    n = _require_int(data["n"], "n")
    if not isinstance(data["summands"], list):
        raise ValueError(f"field 'summands' must be a list, got {data['summands']!r}")
    items = []
    for s in data["summands"]:
        if not isinstance(s, dict):
            raise ValueError(f"each entry of 'summands' must be an object, got {s!r}")
        if "lambda" not in s:
            raise ValueError(f"summand {s!r} is missing field 'lambda'")
        mult = _require_int(s.get("mult", 1), "mult")
        if mult < 1:
            raise ValueError(f"field 'mult' must be at least 1, got {mult}")
        items.append((weight_from_json(n, s["lambda"]), mult))
    return WeightMultiset.of(n, items)


def rep_from_json(data) -> SemisimpleRep:
    return SemisimpleRep(multiset_from_json(data))


def stabilizer_report_to_json(r: StabilizerReport) -> dict:
    return {"stab_dim": r.stab_dim, "trials": r.trials, "seed": r.seed}


# --- matrix models -------------------------------------------------------------

def _matrix_to_json(m: SMat) -> list[list[str]]:
    return [[fraction_to_str(x) for x in row] for row in m.to_dense()]


def _matrix_from_json(data, dim: int) -> SMat:
    if len(data) != dim or any(len(row) != dim for row in data):
        raise ValueError("matrix has wrong shape")
    return SMat.from_dense([[fraction_from_str(x) for x in row] for row in data])


def model_to_json(rep: AffMatrixRep) -> dict:
    return {
        "n": rep.n,
        "N": rep.dim,
        "sl_gens": {k: _matrix_to_json(m) for k, m in rep.sl_gens.items()},
        "trans_gens": [_matrix_to_json(t) for t in rep.trans_gens],
        "weight_grading": [list(g) for g in rep.weight_grading],
    }


def model_from_json(data) -> AffMatrixRep:
    for key in ("n", "N", "sl_gens", "trans_gens", "weight_grading"):
        if key not in data:
            raise ValueError(f"model file missing field {key!r}")
    n, dim = data["n"], data["N"]
    sl_gens = {k: _matrix_from_json(v, dim) for k, v in data["sl_gens"].items()}
    trans = [_matrix_from_json(t, dim) for t in data["trans_gens"]]
    grading = [tuple(int(x) for x in g) for g in data["weight_grading"]]
    if len(grading) != dim:
        raise ValueError("grading length differs from the model dimension")
    return AffMatrixRep(n, dim, sl_gens, trans, grading)


# --- filtration reports ---------------------------------------------------------

def filtration_report(filt: Filtration, checks: dict | None = None) -> dict:
    out = {
        "kind": filt.kind,
        "length": filt.length,
        "chain_dims": filt.chain_dims(),
        "layers": [multiset_to_json(ms) for ms in filt.layers],
    }
    if checks is not None:
        out["checks"] = checks
    return out


def filtration_text(filt: Filtration, checks: dict | None = None) -> str:
    mark = "'" if filt.kind == "radical" else ""
    lines = [f"kind: {filt.kind}", f"chain dims: {filt.chain_dims()}"]
    for i, ms in enumerate(filt.layers):
        lines.append(f"Q{mark}_{i} = {ms}")
    if checks:
        for name, val in sorted(checks.items()):
            lines.append(f"check {name}: {val}")
    return "\n".join(lines)


# --- extensions and verdicts ----------------------------------------------------

def extension_to_json(ext: TwoStepExtension) -> dict:
    return {
        "n": ext.n,
        "S": multiset_to_json(ext.S.summands),
        "Q": multiset_to_json(ext.Q.summands),
        "W": multiset_to_json(ext.W.summands),
        "assume_generically_free": ext.assume_generically_free,
    }


def extension_from_json(data) -> TwoStepExtension:
    if not isinstance(data, dict):
        raise ValueError(f"extension file must hold an object, got {data!r}")
    for key in ("n", "S", "Q", "W"):
        if key not in data:
            raise ValueError(f"extension file missing field {key!r}")
    n = _require_int(data["n"], "n")

    def part(key):
        d = data[key]
        if not isinstance(d, dict):
            raise ValueError(f"field {key!r} must be an object, got {d!r}")
        if d.get("n", n) != n:
            raise ValueError("rank mismatch inside extension file")
        return SemisimpleRep(multiset_from_json(d))

    free = data.get("assume_generically_free", False)
    if not isinstance(free, bool):
        raise ValueError(f"field 'assume_generically_free' must be true or false, got {free!r}")
    return TwoStepExtension(n, part("S"), part("Q"), part("W"), free)


def verdict_to_json(v: Verdict) -> dict:
    return {
        "outcome": v.outcome,
        "witness": v.witness,
        "evidence": v.evidence,
        "seed": v.seed,
    }


def catalog_entry_to_json(e: CatalogEntry) -> dict:
    return {
        "n": e.n,
        "S": multiset_to_json(e.S.summands),
        "Q": multiset_to_json(e.Q.summands),
        "trigger": e.trigger,
        "verdict": verdict_to_json(e.verdict),
    }
