"""Reference for `affrep.matmodel.validate_model`, checking every relation.

After the keys, the translation count and the grading length: the grading
of every generator (`check_grading`), then the brackets of all
C(n^2 - 1, 2) pairs of sl_basis_keys, the translation action
[X, T_j] = sum_i X_ij T_i for every key, the commutativity of every pair of
translations, and the translations' nilpotency, in that order.  Tests
compare the program's validator, which checks the grading and then only the
relations that the grading and the model's finite dimension leave open,
against it: both must accept and reject the same models.  The nilpotency
check stays although a grading that passes already implies it.  Products,
sums and commutators come from `matrix_reference`, which the program's
validator does not share.
"""

from __future__ import annotations

import itertools

from affrep.config import ModelInvariantError
from affrep.linalg import SMat
from affrep.matmodel import AffMatrixRep, bracket_coefficients
from basis_matrix import basis_matrices
from matrix_reference import add, commutator, entries, entry, matmul, scale


def _expected_bracket(rep: AffMatrixRep, mats: dict, akey: str, bkey: str) -> SMat:
    coeffs = bracket_coefficients(rep.n, entries(commutator(mats[akey], mats[bkey])))
    out = SMat(rep.dim, rep.dim)
    for key, c in coeffs.items():
        out = add(out, scale(rep.sl_gens[key], c))
    return out


def check_grading(rep: AffMatrixRep) -> None:
    """Raises ModelInvariantError naming the first generator, in key order,
    that does not respect the weight grading."""
    n = rep.n
    g = rep.weight_grading
    for key in rep.sl_keys():
        parts = key.split("_")
        mat = rep.sl_gens[key]
        if parts[0] == "E":
            a, b = int(parts[1]) - 1, int(parts[2]) - 1
            want = tuple((1 if i == a else 0) - (1 if i == b else 0) for i in range(n))
            for c, col in mat.cols.items():
                for r in col:
                    if tuple(x - y for x, y in zip(g[r], g[c])) != want:
                        raise ModelInvariantError(f"grading shift of {key}")
        else:
            k = int(parts[1]) - 1
            for c, col in mat.cols.items():
                for r in col:
                    if r != c:
                        raise ModelInvariantError(f"{key} not diagonal")
            # every coordinate, stored or not, has its grading's eigenvalue
            for c in range(rep.dim):
                if entry(mat, c, c) != g[c][k] - g[c][k + 1]:
                    raise ModelInvariantError(f"{key} eigenvalue")
    for j, t in enumerate(rep.trans_gens):
        want = tuple(1 if i == j else 0 for i in range(n))
        for c, col in t.cols.items():
            for r in col:
                if tuple(x - y for x, y in zip(g[r], g[c])) != want:
                    raise ModelInvariantError(f"grading shift of T_{j + 1}")


def validate_model(rep: AffMatrixRep) -> None:
    """Raises ModelInvariantError naming the first failing relation."""
    n = rep.n
    keys = rep.sl_keys()
    if sorted(rep.sl_gens) != sorted(keys):
        raise ModelInvariantError("sl generator keys")
    if len(rep.trans_gens) != n:
        raise ModelInvariantError("translation generator count")
    if len(rep.weight_grading) != rep.dim:
        raise ModelInvariantError("grading length")

    check_grading(rep)

    # both sides are antisymmetric and [X, X] = 0, so each pair a < b once
    mats = basis_matrices(n, n)
    for a, b in itertools.combinations(keys, 2):
        if commutator(rep.sl_gens[a], rep.sl_gens[b]) != _expected_bracket(rep, mats, a, b):
            raise ModelInvariantError(f"[{a},{b}]")

    for key in keys:
        x = mats[key]
        for j in range(n):
            expect = SMat(rep.dim, rep.dim)
            for i, c in x.cols.get(j, {}).items():
                expect = add(expect, scale(rep.trans_gens[i], c))
            if commutator(rep.sl_gens[key], rep.trans_gens[j]) != expect:
                raise ModelInvariantError(f"[{key},T_{j + 1}]")

    for i in range(n):
        for j in range(i + 1, n):
            if commutator(rep.trans_gens[i], rep.trans_gens[j]).cols:
                raise ModelInvariantError(f"[T_{i + 1},T_{j + 1}]")

    for j, t in enumerate(rep.trans_gens):
        power = t
        for _ in range(rep.dim):
            if not power.cols:
                break
            power = matmul(power, t)
        if power.cols:
            raise ModelInvariantError(f"T_{j + 1} nilpotency")
