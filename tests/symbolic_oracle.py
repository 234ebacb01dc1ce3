"""Reference for the block-degree check, by symbolic expansion.

Expands exp(sum v_i T_i) as a matrix of polynomials in v_1..v_n (exponent
tuple -> Fraction) and reads off the degree of every block in a
filtration-adapted basis.  Conjugation is applied to the generators before
expanding, since B^-1 exp(M) B = exp(B^-1 M B).  Independent of
`affrep.filtration.verify_degree_bound`, which tests compare against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from affrep.linalg import SMat
from affrep.oracle import poly_mul
from dense import to_dense
from matrix_reference import matmul

PolyMatrix = dict  # column-major {col: {row: polynomial}}


def poly_sub_scaled(p: dict, q: dict, c) -> dict:
    """p - c*q as a fresh dict, dropping the entries that cancel."""
    out = dict(p)
    for e, v in q.items():
        nv = out.get(e, 0) - c * v
        if nv:
            out[e] = nv
        else:
            out.pop(e, None)
    return out


def _accumulate(col: dict, r: int, poly: dict, c) -> None:
    """col[r] += c * poly, dropping the entry when it cancels."""
    cell = poly_sub_scaled(col.get(r, {}), poly, -Fraction(c))
    if cell:
        col[r] = cell
    else:
        col.pop(r, None)


def _pmatmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    out: PolyMatrix = {}
    for c, bcol in b.items():
        newcol: dict[int, dict] = {}
        for k, poly in bcol.items():
            for r, apoly in a.get(k, {}).items():
                _accumulate(newcol, r, poly_mul(apoly, poly), 1)
        if newcol:
            out[c] = newcol
    return out


def symbolic_unipotent(gens: list[SMat], dim: int) -> PolyMatrix:
    """exp(sum v_i gens[i]) with v symbolic."""
    nvars = len(gens)
    m: PolyMatrix = {}
    for i, g in enumerate(gens):
        var = {tuple(int(j == i) for j in range(nvars)): Fraction(1)}
        for c, col in g.cols.items():
            for r, val in col.items():
                _accumulate(m.setdefault(c, {}), r, var, val)
    total: PolyMatrix = {}
    term: PolyMatrix = {i: {i: {(0,) * nvars: Fraction(1)}} for i in range(dim)}
    for k in range(dim + 1):
        if not term:
            return total
        for c, col in term.items():
            for r, poly in col.items():
                _accumulate(total.setdefault(c, {}), r, poly, Fraction(1, factorial(k)))
        term = _pmatmul(m, term)
    raise ValueError("translation sum is not nilpotent")


def _inverse(mat: SMat) -> SMat:
    """Gauss-Jordan inverse; raises ValueError if singular."""
    n = mat.nrows
    a = to_dense(mat)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        inv[col] = [x / f for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                g = a[r][col]
                a[r] = [x - g * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - g * y for x, y in zip(inv[r], inv[col])]
    out = SMat(n, n)
    for r, row in enumerate(inv):
        for c, v in enumerate(row):
            out.add_entry(r, c, v)
    return out


def degree_bound_holds(rep, filtration) -> bool:
    """In the adapted basis, the block of exp(sum v_i T_i) from layer j to
    layer i minus the identity has total degree at most j - i in v."""
    sizes = filtration.layer_sizes()
    if sum(sizes) != rep.dim:
        raise ValueError("filtration does not match the model")
    layer_of = [i for i, s in enumerate(sizes) for _ in range(s)]
    b = SMat(rep.dim, rep.dim)
    adapted_basis = [row for step in filtration.snapshots for row in step]
    for j, vec in enumerate(adapted_basis):
        for r, v in vec.items():
            b.add_entry(r, j, v)
    binv = _inverse(b)
    adapted = [matmul(matmul(binv, t), b) for t in rep.trans_gens]
    one = {(0,) * rep.n: Fraction(1)}
    for c, col in symbolic_unipotent(adapted, rep.dim).items():
        for r, poly in col.items():
            if r == c:
                poly = poly_sub_scaled(poly, one, 1)
            if poly and max(sum(e) for e in poly) > layer_of[c] - layer_of[r]:
                return False
    return True
