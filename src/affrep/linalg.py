"""Sparse exact linear algebra over the rationals.

Vectors are dicts {index: value} with no stored zeros; a value is an `int`
or a `Fraction`.  `Echelon` stores every integral entry as `int`: it
divides a row by its pivot with integer division when the pivot divides
every entry, so only a true division makes a `Fraction`.  Arithmetic with
`Fraction`s can leave integral ones in other vectors, which `restrict`
stores in matrices as `int`.  `SMat` holds a model's
generators: built entry by entry, applied to vectors, negated-transposed
for the dual and stacked for a direct sum, and nothing more; the one
product of two matrices, the bracket `matmodel` validates with, reads its
columns directly.  Its column-major sparse layout makes applying a matrix
to a vector (the hot path everywhere in this package) a handful of dict
lookups.  Row reduction uses the leftmost-pivot rule throughout so that
every echelon basis, kernel and chain computed here is bit-reproducible.
Where only a rank is needed, `integer_rank` eliminates integer rows
without fractions.  `closure` and `restrict` turn a set of linear maps and
seed vectors into the generated invariant subspace and the matrices of the
maps on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .config import ModelInvariantError

Vec = dict  # {index: int | Fraction}


def vec_add_scaled(v: Vec, w: Vec, c) -> Vec:
    """v + c*w as a fresh dict."""
    out = dict(v)
    if not c:
        return out
    for i, x in w.items():
        val = out.get(i, 0) + c * x
        if val:
            out[i] = val
        else:
            out.pop(i, None)
    return out

def _exact(x):
    """`x` as an `int` when it is integral."""
    return x.numerator if x.denominator == 1 else x

def vec_pivot(v: Vec):
    """Smallest index with a nonzero entry, or None."""
    return min(v) if v else None


class SMat:
    """Sparse matrix, column-major: cols[c] = {row: value}."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols: dict[int, Vec] = cols if cols is not None else {}

    def add_entry(self, r, c, v):
        if not v:
            return
        col = self.cols.setdefault(c, {})
        val = col.get(r, 0) + v
        if val:
            col[r] = val
        else:
            del col[r]
            if not col:
                del self.cols[c]

    def apply(self, v: Vec) -> Vec:
        """Matrix times column vector."""
        out: Vec = {}
        for c, x in v.items():
            col = self.cols.get(c)
            if not col:
                continue
            for r, a in col.items():
                val = out.get(r, 0) + a * x
                if val:
                    out[r] = val
                else:
                    del out[r]
        return out

    def neg_transpose(self) -> "SMat":
        """-A^T, the dual of a Lie algebra action."""
        cols: dict[int, Vec] = {}
        for c, col in self.cols.items():
            for r, v in col.items():
                cols.setdefault(r, {})[c] = -v
        return SMat(self.ncols, self.nrows, cols)

    def direct_sum(self, other: "SMat") -> "SMat":
        cols = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            cols[self.ncols + c] = {self.nrows + r: v for r, v in col.items()}
        return SMat(self.nrows + other.nrows, self.ncols + other.ncols, cols)

    def __eq__(self, other):
        if not isinstance(other, SMat):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.cols == other.cols


class Echelon:
    """Reduced row echelon accumulator over sparse vectors.

    Pivot rule: first nonzero coordinate (smallest index).  Rows are kept
    mutually reduced with pivot entry 1: each row is zero at every other
    row's pivot.  So reducing a vector by one row changes it at no other
    pivot, the pivots in its support can be cleared in any order, and the
    coordinates of a vector in the span are its entries at the pivots.
    Every stored entry that is integral is an `int`: a row of `int` entries
    whose pivot divides them all is divided by integer division, and only
    the entries of a row that a true division leaves non-integral are
    `Fraction`s.  `held` is every column a kept row has held, so a new
    pivot outside it is in no kept row and clearing it scans nothing.
    """

    def __init__(self):
        self.rows: dict[int, Vec] = {}  # pivot -> row
        self.held: set[int] = set()

    def __len__(self):
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """v minus its component in the span, as a fresh dict."""
        out = dict(v)
        rows = self.rows
        # no row changes another row's pivot entry, so out[p] is still v[p]
        for p, c in v.items():
            row = rows.get(p)
            if row is None:
                continue
            for i, x in row.items():
                val = out.get(i, 0) - c * x
                if val:
                    out[i] = val
                else:
                    del out[i]
        return out

    def insert(self, v: Vec):
        """Reduce v; if independent add it and return its pivot, else None."""
        row = self.reduce(v)
        if not row:
            return None
        p = vec_pivot(row)
        lead = row[p]
        if Fraction in map(type, row.values()):
            inv = 1 / Fraction(lead)
            row = {i: _exact(x * inv) for i, x in row.items()}
        elif lead != 1:
            row = {i: Fraction(x, lead) if x % lead else x // lead for i, x in row.items()}
        rows = self.rows
        if p in self.held:
            # keep full reduction: clear the new pivot from existing rows
            for q, r in rows.items():
                if p in r:
                    r = vec_add_scaled(r, row, -r[p])
                    if Fraction in map(type, r.values()):
                        r = {i: _exact(x) for i, x in r.items()}
                    rows[q] = r
        self.held.update(row)
        rows[p] = row
        return p

    def coords(self, v: Vec):
        """Coefficients {pivot: c} with v = sum c * row; None if not in span."""
        if self.reduce(v):
            return None
        return {p: c for p, c in v.items() if p in self.rows}

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)


def closure(seeds, ops) -> Echelon:
    """The smallest subspace that contains `seeds` and that every op maps into
    itself.  An op is a linear map given as a function on sparse vectors (a
    matrix's bound `apply`, say).  The reduced rows are unique to the
    subspace, so they do not depend on the seeds or ops that span it."""
    ech = Echelon()
    work = [s for s in seeds if ech.insert(s) is not None]
    while work:
        vec = work.pop()
        for op in ops:
            img = op(vec)
            if img and ech.insert(img) is not None:
                work.append(img)
    return ech


def restrict(ech: Echelon, op) -> SMat:
    """The matrix of `op` (as in `closure`) on the span of `ech`, in its rows
    taken in pivot order, with integral entries as `int`; raises
    ModelInvariantError if op leaves the span."""
    pivots = sorted(ech.rows)
    col_of = {p: i for i, p in enumerate(pivots)}
    out = SMat(len(pivots), len(pivots))
    for j, p in enumerate(pivots):
        coeff = ech.coords(op(ech.rows[p]))
        if coeff is None:
            raise ModelInvariantError("span not invariant")
        for q, c in coeff.items():
            out.add_entry(col_of[q], j, _exact(c))
    return out


def nullspace(equations: list[Vec], variables: list[int]) -> list[Vec]:
    """Basis of {x supported on `variables` : each equation row dotted with x
    vanishes}.  Equations are sparse rows over the variable indices.
    Deterministic: free variables in increasing order, pivot rule as above.
    """
    ech = Echelon()
    for eq in equations:
        ech.insert(eq)
    # pivots in descending order, the order the entries of a solution take
    rows = sorted(ech.rows.items(), reverse=True)
    basis = []
    for f in variables:
        if f in ech.rows:
            continue
        sol: Vec = {f: 1}
        # the rows are fully reduced with pivot entry 1, so row p meets no
        # other pivot and x_p = -row_p[f] when x_f = 1 and the other free
        # variables are 0
        for p, row in rows:
            c = row.get(f)
            if c:
                sol[p] = -c
        basis.append(sol)
    return basis


def common_kernel(mats, coords: list[int], modulo: Echelon) -> list[Vec]:
    """`nullspace` basis of the vectors supported on `coords` that every
    matrix in `mats` maps into the span of `modulo` (to zero when it is
    empty): one equation per (matrix, row) of the images of the coordinate
    vectors reduced modulo that span, by matrix and then by row."""
    equations: list[Vec] = []
    for m in mats:
        by_row: dict[int, Vec] = {}
        for c in coords:
            img = m.cols.get(c)
            if img:
                for r, v in modulo.reduce(img).items():
                    by_row.setdefault(r, {})[c] = v
        equations.extend(by_row[r] for r in sorted(by_row))
    return nullspace(equations, coords)


def integer_rank(rows, stop_at: int | None = None) -> int:
    """Exact rank of equal-length integer rows, by fraction-free elimination.

    Each row is reduced against the independent rows kept so far by
    cross-multiplication (r <- p*r - c*b at the pivot of b, divided by
    gcd(p, c)), then divided by the gcd of its entries so that entry sizes
    stay bounded (the content-removal variant of integer-preserving Gaussian
    elimination; E. H. Bareiss, Math. Comp. 22 (1968)).  A kept row is zero
    at the pivots of all rows kept before it, so one pass in insertion order
    reduces a new row completely.  So a kept row is stored without those
    columns, and without its own pivot column, whose entry is kept beside
    it; a new row drops each pivot column as it is eliminated there, so it
    always has the columns of the next kept row, and each reduction step is
    one entry shorter than the one before.

    `rows` may be any iterable and is consumed lazily: with `stop_at`, no
    row is drawn once that many are kept, and the result is
    min(stop_at, rank).
    """
    # (pivot, pivot entry, the other entries), indexed by the columns left
    # when the row was kept
    kept: list[tuple[int, int, list[int]]] = []
    rows = iter(rows)
    while len(kept) != stop_at:
        row = next(rows, None)
        if row is None:
            break
        row = list(row)
        for p, bp, b in kept:
            c = row.pop(p)
            if c:
                g = gcd(bp, c)
                s = bp // g
                c //= g
                row = [s * x - c * y for x, y in zip(row, b)]
        g = gcd(*row)
        if not g:
            continue
        if g != 1:
            row = [x // g for x in row]
        p = next(i for i, x in enumerate(row) if x)
        kept.append((p, row.pop(p), row))
    return len(kept)
