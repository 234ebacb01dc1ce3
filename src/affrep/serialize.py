"""Canonical JSON encoding for all data types.

Writers are deterministic (sorted keys, fixed separators), so identical
objects always serialize to identical bytes and every file round-trips
exactly.  Rationals are encoded as strings: "3" or "-5/7".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache

from .catalog import TRIGGER_SMALL_S, Catalog, decision_signatures
from .config import check_rank
from .filtration import Filtration
from .linalg import SMat
from .matmodel import AffMatrixRep, validate_model
from .rationality import TwoStepExtension, Verdict
from .repclass import StabilizerReport
from .schur import Weight, WeightMultiset


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    return _ENCODER.encode(obj)


def fraction_from_str(s) -> int | Fraction:
    """A rational from its string or JSON integer, as an `int` when it is
    integral ("3", "6/2", "-0") and a `Fraction` otherwise."""
    # bool is an int subclass, but JSON true/false is never a rational
    if type(s) is int:
        return s
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string or an integer, got {s!r}")
    # the common case, ASCII digits with an optional minus, parses as int
    digits = s[1:] if s[:1] == "-" else s
    if digits.isdigit() and digits.isascii():
        return int(s)
    try:
        v = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None
    return v.numerator if v.denominator == 1 else v


# --- weights and multisets ----------------------------------------------------

# `type(x) is int` and not isinstance: JSON true/false load as bool, a
# subclass of int, and are never a count or a part

def _require_int(value, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _require_at_least(value, field: str, least: int) -> int:
    if _require_int(value, field) < least:
        raise ValueError(f"field {field!r} must be at least {least}, got {value}")
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
    # multiset and extension files feed the classifier and the two-step
    # decision, whose bad list starts at rank 2
    n = _require_at_least(data["n"], "n", 2)
    if not isinstance(data["summands"], list):
        raise ValueError(f"field 'summands' must be a list, got {data['summands']!r}")
    items = []
    for s in data["summands"]:
        if not isinstance(s, dict):
            raise ValueError(f"each entry of 'summands' must be an object, got {s!r}")
        if "lambda" not in s:
            raise ValueError(f"summand {s!r} is missing field 'lambda'")
        mult = _require_at_least(s.get("mult", 1), "mult", 1)
        items.append((weight_from_json(n, s["lambda"]), mult))
    return WeightMultiset.of(n, items)


def stabilizer_report_to_json(r: StabilizerReport) -> dict:
    return {"stab_dim": r.stab_dim, "trials": r.trials, "seed": r.seed}


# --- matrix models -------------------------------------------------------------

def _matrix_to_json(m: SMat) -> list[list[str]]:
    # str of an int or a Fraction is already the canonical "3" / "-5/7"
    rows = [["0"] * m.ncols for _ in range(m.nrows)]
    for c, col in m.cols.items():
        for r, v in col.items():
            rows[r][c] = str(v)
    return rows


def _matrix_from_json(data, dim: int, field: str) -> SMat:
    if isinstance(data, SMat):  # read by `scan_model`, as a `dim` x `dim` matrix
        return data
    if not isinstance(data, list) or len(data) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in data):
        raise ValueError(f"field {field!r} must be a list of {dim} lists of {dim} entries")
    cols: dict[int, dict] = {}
    for r, row in enumerate(data):
        # the scan stops after the last cell other than "0", past every bad one
        left = dim - row.count("0")
        if not left:
            continue
        for c, x in enumerate(row):
            if x != "0":
                try:
                    v = fraction_from_str(x)
                except ValueError as exc:
                    raise ValueError(f"field {field!r}: {exc}") from None
                if v:
                    cols.setdefault(c, {})[r] = v
                left -= 1
                if not left:
                    break
    return SMat(dim, dim, cols)


def model_to_json(rep: AffMatrixRep) -> dict:
    """The model file's object in its dense form, every matrix a list of
    rows of rational strings: the reference `model_dumps` writes the text
    of, and the inverse of `model_from_json`."""
    return {
        "n": rep.n,
        "N": rep.dim,
        "sl_gens": {k: _matrix_to_json(m) for k, m in rep.sl_gens.items()},
        "trans_gens": [_matrix_to_json(t) for t in rep.trans_gens],
        "weight_grading": [list(g) for g in rep.weight_grading],
    }


def _matrix_text(m: SMat) -> str:
    """`dumps(_matrix_to_json(m))`, written from one all-zero row string:
    every empty row is that string, and a row that holds entries is spliced
    from it, `str(v)` in place of the "0" of column c, which sits at offset
    2 + 4c of '["0","0",...]'."""
    zero = "[" + ",".join(['"0"'] * m.ncols) + "]"
    by_row: dict[int, list] = {}
    for c, col in m.cols.items():
        for r, v in col.items():
            by_row.setdefault(r, []).append((c, v))
    rows = [zero] * m.nrows
    for r, cells in by_row.items():
        cells.sort()  # columns are distinct in a row, so no value is compared
        pieces, at = [], 0
        for c, v in cells:
            pieces += (zero[at:2 + 4 * c], str(v))
            at = 3 + 4 * c
        pieces.append(zero[at:])
        rows[r] = "".join(pieces)
    return "[" + ",".join(rows) + "]"


def model_dumps(rep: AffMatrixRep) -> str:
    """The model file text, exactly `dumps(model_to_json(rep))`, written
    from the sparse matrices without building the dense form: top-level and
    `sl_gens` keys in sorted order, each matrix by `_matrix_text`.  Nothing
    needs escaping: every cell is `str` of an `int` or a `Fraction` ("3",
    "-5/7") and every key is a canonical `E_i_j` / `H_k`."""
    sl = ",".join(f'"{k}":{_matrix_text(rep.sl_gens[k])}' for k in sorted(rep.sl_gens))
    trans = ",".join(map(_matrix_text, rep.trans_gens))
    return (f'{{"N":{rep.dim},"n":{rep.n},"sl_gens":{{{sl}}},"trans_gens":[{trans}],'
            f'"weight_grading":{dumps([list(g) for g in rep.weight_grading])}}}')


# the start of every file `model_dumps` writes, up to its first generator; a
# reader looks for it in the first MODEL_HEAD_BYTES bytes, which hold it for
# any N and n of fewer than 20 digits each
MODEL_HEAD = re.compile(rb'\{"N":([1-9][0-9]*),"n":([1-9][0-9]*),"sl_gens":\{')
MODEL_HEAD_BYTES = 64
# every byte but the five the all-zero matrix text is made of ('[', ']',
# ',', '"' and '0') becomes "x"; in a matrix whose text has matched the
# template so far, the next "x" is the first byte of a nonzero cell
_CELL_STARTS = bytes(b if b in b'[],"0' else ord("x") for b in range(256))


def _scan_matrix(raw: bytes, marks: bytes, at: int, zero: bytes, dim: int):
    """The matrix whose text starts at `raw[at]`, and the index past that
    text, which must be `zero` (`_matrix_text` of the zero matrix) with some
    "0" cells holding `str` of a nonzero value instead; ValueError if not.
    Cells are stored in row-major order, as `_matrix_from_json` stores them."""
    cols: dict[int, dict] = {}
    stride = 4 * dim + 2  # a row's text and the comma after it
    z = 0  # the index in `zero` that raw[at] must match
    while True:
        stop = at + len(zero) - z
        i = marks.find(b"x", at, stop)
        if i < 0:
            if raw[at:stop] != zero[z:]:
                raise ValueError("not a canonical matrix")
            return SMat(dim, dim, cols), stop
        start, z = z, z + i - at
        # a cell is spelled only where the template holds the "0" of one
        if zero[z:z + 1] != b"0" or raw[at:i] != zero[start:z]:
            raise ValueError("not a canonical matrix")
        at = raw.index(b'"', i)
        cell = raw[i:at].decode()
        v = Fraction(cell) if "/" in cell else int(cell)
        if str(v) != cell:  # so "-0", "6/2", "05" and " 1" are refused
            raise ValueError("not a canonical cell")
        # the "0" of cell (r, c) sits at 3 + r * stride + 4c
        r, c = divmod(z - 3, stride)
        cols.setdefault(c // 4, {})[r] = v
        z += 1


def scan_model(raw: bytes) -> dict | None:
    """The object of a model file whose bytes are exactly what `model_dumps`
    writes (with or without a final newline), each matrix an `SMat` in place
    of its rows; None for any other bytes, and never an error, so the caller
    can read those with `json` and report what is wrong as before.

    Each matrix is matched against the all-zero matrix text for the header's
    N: one `bytes.translate` of the file marks where a nonzero cell may
    start, `find` jumps to the next mark, and the bytes in between must equal
    the matching slice of the template, compared in C.  The all-zero text
    (4N^2 bytes) is built only when the file is at least that long, so it
    never costs more than the file."""
    head = MODEL_HEAD.match(raw, 0, MODEL_HEAD_BYTES)
    dim = int(head[1]) if head else 0
    if not head or len(raw) < 4 * dim * dim:
        return None
    row = b"[" + b",".join([b'"0"'] * dim) + b"]"
    zero = b"[" + b",".join([row] * dim) + b"]"
    marks = raw.translate(_CELL_STARTS)
    sl, trans, key, at = {}, [], "", head.end()
    try:
        more = raw.startswith(b'"', at)
        while more:
            end = raw.index(b'":', at + 1)
            name = raw[at + 1:end].decode()
            # sorted keys, so none is read twice (json would keep the last)
            if not name.isidentifier() or name <= key:
                return None
            key = name
            sl[key], at = _scan_matrix(raw, marks, end + 2, zero, dim)
            more = raw.startswith(b',"', at)
            at += more
        if not raw.startswith(b'},"trans_gens":[', at):
            return None
        at += 16
        more = raw.startswith(b"[", at)
        while more:
            m, at = _scan_matrix(raw, marks, at, zero, dim)
            trans.append(m)
            more = raw.startswith(b",[", at)
            at += more
        end = len(raw) - raw.endswith(b"\n") - 1
        if not raw.startswith(b'],"weight_grading":', at) or raw[end:end + 1] != b"}":
            return None
        # the grading is a few bytes per basis vector; json reads it, and it
        # must be what `dumps` writes (called as `_ENCODER`, so that the
        # traced `serialize.dumps` of perfbench counts only output)
        tail = raw[at + 19:end]
        grading = json.loads(tail)
        if _ENCODER.encode(grading).encode() != tail:
            return None
    except (ValueError, ZeroDivisionError, RecursionError):
        return None
    return {"N": dim, "n": int(head[2]), "sl_gens": sl, "trans_gens": trans,
            "weight_grading": grading}


def model_from_json(data) -> AffMatrixRep:
    """Read a model file's object and re-verify every defining relation; its
    matrices may be lists of rows or, from `scan_model`, `SMat`s."""
    if not isinstance(data, dict):
        raise ValueError(f"model file must hold an object, got {type(data).__name__}")
    for key in ("n", "N", "sl_gens", "trans_gens", "weight_grading"):
        if key not in data:
            raise ValueError(f"model file missing field {key!r}")
    # the rank is capped before validation builds the saff_n basis of it
    n = check_rank(_require_at_least(data["n"], "n", 1), "field 'n'")
    dim = _require_at_least(data["N"], "N", 1)
    sl, trans, grading = data["sl_gens"], data["trans_gens"], data["weight_grading"]
    if not isinstance(sl, dict):
        raise ValueError(f"field 'sl_gens' must be an object, got {type(sl).__name__}")
    if not isinstance(trans, list) or len(trans) != n:
        raise ValueError(f"field 'trans_gens' must be a list of {n} matrices")
    if not isinstance(grading, list) or len(grading) != dim or any(
            not isinstance(g, list) or len(g) != n or any(type(x) is not int for x in g)
            for g in grading):
        raise ValueError(f"field 'weight_grading' must be a list of {dim} lists of {n} integers")
    rep = AffMatrixRep(
        n, dim,
        {k: _matrix_from_json(m, dim, f"sl_gens.{k}") for k, m in sl.items()},
        [_matrix_from_json(m, dim, f"trans_gens[{i}]") for i, m in enumerate(trans)],
        [tuple(g) for g in grading],
    )
    validate_model(rep)
    return rep


# --- filtration reports ---------------------------------------------------------

def filtration_report(filt: Filtration, checks: dict) -> dict:
    return {
        "kind": filt.kind,
        "length": filt.length,
        "chain_dims": filt.chain_dims(),
        "layers": [multiset_to_json(ms) for ms in filt.layers],
        "checks": checks,
    }


def filtration_text(filt: Filtration, checks: dict) -> str:
    mark = "'" if filt.kind == "radical" else ""
    lines = [f"kind: {filt.kind}", f"chain dims: {filt.chain_dims()}"]
    for i, ms in enumerate(filt.layers):
        lines.append(f"Q{mark}_{i} = {ms}")
    for name, val in sorted(checks.items()):
        lines.append(f"check {name}: {val}")
    return "\n".join(lines)


# --- extensions and verdicts ----------------------------------------------------

def extension_from_json(data) -> TwoStepExtension:
    if not isinstance(data, dict):
        raise ValueError(f"extension file must hold an object, got {data!r}")
    for key in ("n", "S", "Q", "W"):
        if key not in data:
            raise ValueError(f"extension file missing field {key!r}")
    n = check_rank(_require_at_least(data["n"], "n", 2), "field 'n'")

    def part(key):
        d = data[key]
        if not isinstance(d, dict):
            raise ValueError(f"field {key!r} must be an object, got {d!r}")
        if d.get("n", n) != n:
            raise ValueError("rank mismatch inside extension file")
        return multiset_from_json(d)

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


@lru_cache(maxsize=1024)
def _summand_head(w: Weight) -> str:
    """A summand's text up to its multiplicity: '{"lambda":[2,1,0],"mult":'."""
    return f'{{"lambda":[{",".join(map(str, w.parts))}],"mult":'


def _multiset_text(n: int, entries) -> str:
    """`dumps(multiset_to_json(WeightMultiset(n, entries)))`."""
    summands = ",".join(f"{_summand_head(w)}{m}}}" for w, m in entries)
    return f'{{"n":{n},"summands":[{summands}]}}'


def write_catalog(catalog: Catalog, fh) -> tuple[dict, dict]:
    """Write the catalog to `fh`, one string per quotient group, and return
    the number of lines by trigger and by verdict outcome.  Each line is
    `dumps` of its JSON object, written directly (sorted keys, integers
    and `TRIGGER_*` constants only), with `Q`'s text made once per group,
    a clause-(ii) `S` text once per `S` (207 `S` on 2,105 lines at rank 3;
    clause (i)'s seldom repeat), and a verdict decided and encoded once per
    decision signature (`catalog.decision_signatures`).  No table outlives
    the call."""
    n = catalog.n
    decided: dict[tuple, tuple[str, str]] = {}
    small_s: dict[tuple, str] = {}
    by_trigger: dict[str, int] = {}
    by_outcome: dict[str, int] = {}
    for group, signatures in zip(catalog.groups, decision_signatures(catalog)):
        head = f'{{"Q":{_multiset_text(n, group.Q.entries)},"S":'
        frame = f',"n":{n},"trigger":"{group.trigger}","verdict":'
        lines, s_texts = [], small_s if group.trigger == TRIGGER_SMALL_S else {}
        for s, signature in zip(group.subs, signatures):
            if signature not in decided:
                verdict = catalog.verdict(group, s)
                decided[signature] = (verdict.outcome, dumps(verdict_to_json(verdict)))
            outcome, verdict_text = decided[signature]
            s_text = s_texts.get(s) or s_texts.setdefault(s, _multiset_text(n, s))
            lines.append(f"{head}{s_text}{frame}{verdict_text}}}\n")
            by_outcome[outcome] = by_outcome.get(outcome, 0) + 1
        by_trigger[group.trigger] = by_trigger.get(group.trigger, 0) + len(lines)
        fh.write("".join(lines))
    return by_trigger, by_outcome
