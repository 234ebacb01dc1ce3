"""The tensor product of models by two Kronecker products, for
`matmodel.tensor_model`, which builds each generator column by column, to be
checked against: X (x) 1 + 1 (x) Y as `add(kron(X, I), kron(I, Y))`."""

from __future__ import annotations

from affrep.linalg import SMat, Vec
from affrep.matmodel import AffMatrixRep
from matrix_reference import add


def identity(n: int) -> SMat:
    return SMat(n, n, {i: {i: 1} for i in range(n)})


def kron(x: SMat, y: SMat) -> SMat:
    """The Kronecker product: entry (r1 * y.nrows + r2, c1 * y.ncols + c2)
    is x[r1, c1] * y[r2, c2]."""
    cols: dict[int, Vec] = {}
    for c1, col1 in x.cols.items():
        for c2, col2 in y.cols.items():
            cols[c1 * y.ncols + c2] = {r1 * y.nrows + r2: v1 * v2
                                       for r1, v1 in col1.items() for r2, v2 in col2.items()}
    return SMat(x.nrows * y.nrows, x.ncols * y.ncols, cols)


def tensor_model_reference(a: AffMatrixRep, b: AffMatrixRep) -> AffMatrixRep:
    """The Leibniz tensor model of a and b; `add` drops every entry that
    cancels, so no zero is stored."""
    ia, ib = identity(a.dim), identity(b.dim)

    def leibniz(x: SMat, y: SMat) -> SMat:
        return add(kron(x, ib), kron(ia, y))

    return AffMatrixRep(
        a.n, a.dim * b.dim,
        {k: leibniz(a.sl_gens[k], b.sl_gens[k]) for k in a.sl_keys()},
        [leibniz(x, y) for x, y in zip(a.trans_gens, b.trans_gens)],
        [tuple(x + y for x, y in zip(ga, gb)) for ga in a.weight_grading for gb in b.weight_grading],
    )
