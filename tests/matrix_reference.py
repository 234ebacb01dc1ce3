"""Matrix algebra on `SMat` for tests and references: entries, sums,
multiples, products and commutators.  The package keeps none of it; its one
product of two matrices is the bracket `matmodel._bracket`, which model
validation adds up in a single table.  These functions work on
{(row, col): value} tables instead, so a test that compares the two shares
no code with the program."""

from __future__ import annotations

from affrep.linalg import SMat


def entries(m: SMat) -> dict:
    """The stored entries as {(row, col): value}."""
    return {(r, c): v for c, col in m.cols.items() for r, v in col.items()}


def from_entries(nrows: int, ncols: int, table: dict) -> SMat:
    """The matrix of a {(row, col): value} table, its zeros dropped."""
    cols: dict = {}
    for (r, c), v in table.items():
        if v:
            cols.setdefault(c, {})[r] = v
    return SMat(nrows, ncols, cols)


def entry(m: SMat, r: int, c: int):
    return m.cols.get(c, {}).get(r, 0)


def add(x: SMat, y: SMat) -> SMat:
    if (x.nrows, x.ncols) != (y.nrows, y.ncols):
        raise ValueError("shape mismatch")
    out = entries(x)
    for place, v in entries(y).items():
        out[place] = out.get(place, 0) + v
    return from_entries(x.nrows, x.ncols, out)


def scale(m: SMat, c) -> SMat:
    return from_entries(m.nrows, m.ncols, {place: v * c for place, v in entries(m).items()})


def sub(x: SMat, y: SMat) -> SMat:
    return add(x, scale(y, -1))


def matmul(x: SMat, y: SMat) -> SMat:
    """xy: entry (r, j) is the sum over k of x[r, k] * y[k, j]."""
    if x.ncols != y.nrows:
        raise ValueError("shape mismatch")
    y_rows: dict = {}
    for (k, j), w in entries(y).items():
        y_rows.setdefault(k, []).append((j, w))
    out: dict = {}
    for (r, k), v in entries(x).items():
        for j, w in y_rows.get(k, ()):
            out[r, j] = out.get((r, j), 0) + v * w
    return from_entries(x.nrows, y.ncols, out)


def commutator(x: SMat, y: SMat) -> SMat:
    return sub(matmul(x, y), matmul(y, x))
