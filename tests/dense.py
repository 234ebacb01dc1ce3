"""Dense rows of a sparse matrix, for tests that read small matrices."""

from __future__ import annotations

from fractions import Fraction

from affrep.linalg import SMat


def to_dense(m: SMat) -> list[list[Fraction]]:
    """Rows of Fractions, so that dividing an entry stays exact."""
    out = [[Fraction(0)] * m.ncols for _ in range(m.nrows)]
    for c, col in m.cols.items():
        for r, v in col.items():
            out[r][c] = Fraction(v)
    return out
