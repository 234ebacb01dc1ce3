"""The irreducible models built inside the full tensor power of C^n, for
`matmodel._build_tensor_model`, which works in the columns' exterior powers,
to be checked against.

A coordinate is a word of |parts| letters in the row-major slots of the
row-filled diagram, read as a base-n number with the first slot most
significant.  The seed sums every signed ordering of each column's letters,
so the generated module is the same one the exterior-power builder spans,
expanded into words."""

from __future__ import annotations

import itertools

from affrep.linalg import SMat, Vec, closure, restrict
from affrep.matmodel import AffMatrixRep, sl_basis_keys
from affrep.schur import Weight, weyl_dim
from basis_matrix import basis_matrices


def _tensor_op(mat: SMat, places: list[int]):
    """The action of an n x n matrix on a tensor power of C^n, one slot at a
    time (a derivation): the letter in slot s has place value places[s]."""
    n = mat.nrows

    def op(vec: Vec) -> Vec:
        out: Vec = {}
        for code, val in vec.items():
            for place in places:
                letter = code // place % n
                for target, a in mat.cols.get(letter, {}).items():
                    key = code + (target - letter) * place
                    out[key] = out.get(key, 0) + a * val
        return {c: v for c, v in out.items() if v}

    return op


def tensor_power_model(n: int, parts: tuple[int, ...]) -> AffMatrixRep:
    """The irreducible with label `parts` as the submodule of the |parts|-th
    tensor power generated by the tensor product, over the columns, of the
    wedges e_1 ^ ... ^ e_h of the column heights h, with zero translations."""
    w = Weight(n, parts)
    d = w.size
    target_dim = weyl_dim(w)
    if d == 0:
        gens = {k: SMat(1, 1) for k in sl_basis_keys(n)}
        return AffMatrixRep(n, 1, gens, [SMat(1, 1) for _ in range(n)], [(0,) * n])

    places = [n ** (d - 1 - slot) for slot in range(d)]
    starts = list(itertools.accumulate(parts, initial=0))
    seed: Vec = {0: 1}
    for c in range(parts[0]):
        # the slots of column c, top to bottom, hold letters 0..h-1 in every order
        slots = [places[starts[r] + c] for r in range(n) if parts[r] > c]
        wedge = {}
        for perm in itertools.permutations(range(len(slots))):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            wedge[sum(x * p for x, p in zip(perm, slots))] = (-1) ** inversions
        seed = {a + b: x * y for a, x in seed.items() for b, y in wedge.items()}

    ops = {key: _tensor_op(mat, places) for key, mat in basis_matrices(n, n).items()}
    lowering = [ops[f"E_{i}_{j}"] for i in range(2, n + 1) for j in range(1, i)]
    span = closure([seed], lowering)
    assert len(span) == target_dim
    gens = {key: restrict(span, op) for key, op in ops.items()}
    grading = []
    for code in sorted(span.rows):
        g = [0] * n
        for place in places:
            g[code // place % n] += 1
        grading.append(tuple(g))
    zero = [SMat(target_dim, target_dim) for _ in range(n)]
    return AffMatrixRep(n, target_dim, gens, zero, grading)
