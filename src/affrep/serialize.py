"""Canonical JSON encoding for all data types.

Writers are deterministic (sorted keys, fixed separators), so identical
objects always serialize to identical bytes and every file round-trips
exactly.  Rationals are encoded as strings: "3" or "-5/7".
"""

from __future__ import annotations

import io
import json
import re
from fractions import Fraction

from .catalog import Catalog
from .config import MAX_WEIGHT_RANK, check_model_dim, check_rank
from .filtration import Filtration
from .linalg import SMat
from .matmodel import AffMatrixRep, sl_basis_keys, validate_model
from .rationality import TwoStepExtension, Verdict, decide_pair, decision_signature
from .repclass import StabilizerReport
from .schur import Weight, WeightMultiset, entries_dim


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


def _zero_matrix_text(dim: int) -> str:
    """`dumps` of the `dim` x `dim` matrix of "0" cells; the "0" of cell
    (r, c) sits at 3 + r * (4 * dim + 2) + 4c."""
    row = "[" + ",".join(['"0"'] * dim) + "]"
    return "[" + ",".join([row] * dim) + "]"


def _frame(n: int, dim: int, keys) -> list[str]:
    """The model file's text around its matrices, `sl_gens` under `keys` in
    that order and then n translations: the text before each matrix, and
    after the last the text up to the grading.  A NUL, which no key holds,
    marks each matrix in the template."""
    sl, trans = ",".join(f'"{k}":\0' for k in keys), ",".join("\0" * n)
    text = f'{{"N":{dim},"n":{n},"sl_gens":{{{sl}}},"trans_gens":[{trans}],"weight_grading":'
    return text.split("\0")


def model_dumps(rep: AffMatrixRep) -> str:
    """The model file text, exactly `dumps(model_to_json(rep))`, written
    from the sparse matrices without building the dense form: `_frame` for
    the sorted `sl_gens` keys, and each matrix as slices of one all-zero
    matrix text with `str(v)` in place of the "0" of each stored cell, the
    whole file joined once.  Nothing needs escaping: every cell is `str` of
    an `int` or a `Fraction` ("3", "-5/7") and every key is a canonical
    `E_i_j` / `H_k`."""
    dim = rep.dim
    zero = _zero_matrix_text(dim)
    stride = 4 * dim + 2  # a row's text and the comma after it
    keys = sorted(rep.sl_gens)
    frame = _frame(rep.n, dim, keys)
    out = []
    for text, m in zip(frame, [*map(rep.sl_gens.get, keys), *rep.trans_gens]):
        # each cell's offset in `zero`; offsets are distinct, so sorting
        # compares no value
        cells = sorted((3 + r * stride + 4 * c, v)
                       for c, col in m.cols.items() for r, v in col.items())
        out.append(text)
        at = 0
        for i, v in cells:
            out.extend((zero[at:i], str(v)))
            at = i + 1
        out.append(zero[at:])
    out.append(f'{frame[-1]}{dumps([list(g) for g in rep.weight_grading])}}}')
    return "".join(out)


# the start of every file `model_dumps` writes, up to its first generator; a
# reader looks for it in the first MODEL_HEAD_BYTES bytes, which hold it for
# any N and n of fewer than 20 digits each
MODEL_HEAD = re.compile(rb'\{"N":([1-9][0-9]*),"n":([1-9][0-9]*),"sl_gens":\{')
MODEL_HEAD_BYTES = 64
# every byte but the five the all-zero matrix text is made of ('[', ']',
# ',', '"' and '0') becomes "x"; in a matrix whose text has matched the
# template so far, the next "x" is the first byte of a nonzero cell
_CELL_STARTS = bytes(b if b in b'[],"0' else ord("x") for b in range(256))


def _scan_matrix(raw: bytes, marks: bytes, at: int, zero: bytes, dim: int, values: dict):
    """The matrix whose text starts at `raw[at]`, and the index past that
    text, which must be `zero` (`_zero_matrix_text`, encoded) with some "0"
    cells holding `str` of a nonzero value instead; ValueError if not.
    Cells are stored in row-major order, as `_matrix_from_json` stores
    them.  `values` maps each cell's bytes that the file has spelled so far
    to its value, so each distinct cell is decoded and checked once per
    file."""
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
        cell = raw[i:at]
        v = values.get(cell)
        if v is None:
            text = cell.decode()
            v = fraction_from_str(text)
            if str(v) != text:  # so "-0", "6/2", "05" and " 1" are refused
                raise ValueError("not a canonical cell")
            values[cell] = v
        r, c = divmod(z - 3, stride)  # the cell's offset, as `_zero_matrix_text` puts it
        cols.setdefault(c // 4, {})[r] = v
        z += 1


def scan_model(raw: bytes) -> dict | None:
    """The object of a model file whose bytes are exactly what `model_dumps`
    writes (with or without a final newline), each matrix an `SMat` in place
    of its rows; None for any other bytes, and never an error, so the caller
    can read those with `json` and report what is wrong as before.

    The header gives n and N, and with them the file's `_frame`: exactly the
    sorted keys of `sl_basis_keys(n)` and n translations.  Each frame text
    must come where the one before it ends, and each matrix is matched
    against the all-zero matrix text for N: one `bytes.translate` of the
    file marks where a nonzero cell may start, `find` jumps to the next
    mark, and the bytes in between must equal the matching slice of the
    template, compared in C.  The all-zero text (4N^2 bytes) is built only
    when the file is at least that long, so it never costs more than the
    file, and the keys only for a rank a model file may have."""
    head = MODEL_HEAD.match(raw, 0, MODEL_HEAD_BYTES)
    dim, n = (int(head[1]), int(head[2])) if head else (0, 0)
    if not head or n > MAX_WEIGHT_RANK or len(raw) < 4 * dim * dim:
        return None
    keys = sorted(sl_basis_keys(n))
    *heads, last = (text.encode() for text in _frame(n, dim, keys))
    zero = _zero_matrix_text(dim).encode()
    marks = raw.translate(_CELL_STARTS)
    mats, at, values = [], 0, {}
    end = len(raw) - raw.endswith(b"\n") - 1
    try:
        for text in heads:
            if not raw.startswith(text, at):
                return None
            m, at = _scan_matrix(raw, marks, at + len(text), zero, dim, values)
            mats.append(m)
        if not raw.startswith(last, at) or raw[end:end + 1] != b"}":
            return None
        # the grading is a few bytes per basis vector; json reads it, and it
        # must be what `dumps` writes (called as `_ENCODER`, so that the
        # traced `serialize.dumps` of perfbench counts only output)
        tail = raw[at + len(last):end]
        grading = json.loads(tail)
        if _ENCODER.encode(grading).encode() != tail:
            return None
    except (ValueError, RecursionError):
        return None
    return {"N": dim, "n": n, "sl_gens": dict(zip(keys, mats)),
            "trans_gens": mats[len(keys):], "weight_grading": grading}


def parse_json(text: str, path: str):
    """The JSON value of `text`, read from the file `path`; a ValueError
    naming the file if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}")
    except RecursionError:
        # the decoder recurses once per open array or object
        raise ValueError(f"invalid JSON in {path}: nested too deeply")


def read_model_file(path: str, max_dim: int) -> AffMatrixRep:
    """The validated model in the file `path`, refused if its N is above
    `max_dim`: read by `scan_model` if it is what `model_dumps` writes, and
    with `json` otherwise."""
    with open(path, "rb", buffering=0) as fh:
        # a file whose canonical header names an N above the cap is refused
        # before the rest of it is read
        head = fh.read(MODEL_HEAD_BYTES)
        found = MODEL_HEAD.match(head)
        if found:
            check_model_dim(int(found[1]), max_dim)
        # unbuffered, so a file read again from its start lands in one bytes
        # object, never copied; only a pipe keeps its header and copies it
        if fh.seekable():
            fh.seek(0)
            head = b""
        raw = head + fh.readall()
    data = scan_model(raw)
    if data is None:
        # text the writer did not produce is decoded as `cli.read_json_file`
        # decodes it and read with `json`, with the same errors; the bytes
        # are not kept while json builds its lists
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        del raw
        data = parse_json(text, path)
    # refuse an oversized model before its O(N^2) entries are converted and
    # validated; a malformed N is left to model_from_json, which names the field
    dim = data.get("N") if isinstance(data, dict) else None
    if type(dim) is int:
        check_model_dim(dim, max_dim)
    return model_from_json(data)


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


def _multiset_text(n: int, entries, summands: dict) -> str:
    """`dumps(multiset_to_json(WeightMultiset(n, entries)))`, each summand's
    text taken from `summands`, a table from (label, count) pairs to their
    text that it fills."""
    texts = []
    for pair in entries:
        text = summands.get(pair)
        if text is None:
            w, m = pair
            text = summands[pair] = f'{{"lambda":[{",".join(map(str, w.parts))}],"mult":{m}}}'
        texts.append(text)
    return f'{{"n":{n},"summands":[{",".join(texts)}]}}'


def write_catalog(catalog: Catalog, fh, seed: int) -> tuple[dict, dict]:
    """Write the catalog to `fh`, one string per quotient group, with each
    line's verdict decided at `seed`, and return the number of lines by
    trigger and by verdict outcome.  Each line is `dumps` of its JSON
    object, written directly (sorted keys, integers and `TRIGGER_*`
    constants only): a head with the group's `Q`, the `S` text and a tail
    with the verdict.  A summand's text is made once per (label, count),
    and a clause-(ii) `S` text once per `S`, with its dimension (207 `S` on
    2,105 lines at rank 3; clause (i)'s seldom repeat).  A verdict is
    decided (`rationality.decide_pair`) and encoded once per decision
    signature (`rationality.decision_signature`), in a table per quotient
    group's shared signature: a group whose freeness gate fails has one
    verdict, so one tail serves all its lines, and a free group's lines
    look theirs up by dim S.  Only clause (ii) passes the gate: its
    quotients are good, and the translation-stabilized shapes R1-R3 are
    padded bad cores, so they are clause (i)'s.  No table outlives the
    call."""
    n = catalog.n
    summands: dict[tuple, str] = {}
    small_s: dict[tuple, tuple[str, int]] = {}
    decided: dict[tuple, dict] = {}
    by_trigger: dict[str, int] = {}
    by_outcome: dict[str, int] = {}

    def small(s):
        known = small_s.get(s)
        if known is None:
            known = small_s[s] = (_multiset_text(n, s, summands), entries_dim(s))
        return known

    def decide(table, key, group, s):
        known = table.get(key)
        if known is None:
            verdict = decide_pair(WeightMultiset(n, s), group.Q, seed)
            known = table[key] = (verdict.outcome, dumps(verdict_to_json(verdict)))
        return known

    for group in catalog.groups:
        head = f'{{"Q":{_multiset_text(n, group.Q.entries, summands)},"S":'
        frame = f',"n":{n},"trigger":"{group.trigger}","verdict":'
        shared, per_s = decision_signature(group.Q)
        table = decided.setdefault(shared, {})
        if per_s:
            lines = []
            for s in group.subs:
                s_text, dim_s = small(s)
                outcome, verdict_text = decide(table, dim_s, group, s)
                lines.append(f"{head}{s_text}{frame}{verdict_text}}}\n")
                by_outcome[outcome] = by_outcome.get(outcome, 0) + 1
        else:
            outcome, verdict_text = decide(table, None, group, group.subs[0])
            tail = f"{frame}{verdict_text}}}\n"
            lines = [head + _multiset_text(n, s, summands) + tail for s in group.subs]
            by_outcome[outcome] = by_outcome.get(outcome, 0) + len(lines)
        by_trigger[group.trigger] = by_trigger.get(group.trigger, 0) + len(lines)
        fh.write("".join(lines))
    return by_trigger, by_outcome
