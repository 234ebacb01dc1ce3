"""Brute-force Schur polynomial oracle.

Expands Schur polynomials as explicit monomial sums by enumerating
semistandard tableaux, multiplies the expansions, and re-expands products in
the Schur basis by peeling dominant leading monomials.  Deliberately
independent of the Littlewood-Richardson code in `schur`, so the two can
check each other.
"""

from __future__ import annotations

from functools import lru_cache

from .schur import Weight, WeightMultiset, normalize


# one entry per (shape, rank); 88 for the inputs of 2550 seeded requests
@lru_cache(maxsize=256)
def ssyt_contents(shape: tuple[int, ...], num_vars: int) -> tuple[tuple[int, ...], ...]:
    """Content vectors of all semistandard tableaux of the given shape with
    entries in 1..num_vars, one vector per tableau (repeats kept)."""
    shape = tuple(p for p in shape if p > 0)
    if not shape:
        return ((0,) * num_vars,)
    rows = len(shape)
    if rows > num_vars:
        return ()
    cells = [(r, c) for r in range(rows) for c in range(shape[r])]
    grid: dict[tuple[int, int], int] = {}
    out: list[tuple[int, ...]] = []
    content = [0] * num_vars

    def rec(idx: int):
        if idx == len(cells):
            out.append(tuple(content))
            return
        r, c = cells[idx]
        lo = grid[(r, c - 1)] if c > 0 else 1
        above = grid.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, num_vars + 1):
            grid[(r, c)] = v
            content[v - 1] += 1
            rec(idx + 1)
            content[v - 1] -= 1
            del grid[(r, c)]

    rec(0)
    return tuple(out)


def schur_monomials(shape, num_vars: int) -> dict[tuple[int, ...], int]:
    """The Schur polynomial s_shape(x_1..x_num_vars) as {exponent: coefficient}."""
    poly: dict[tuple[int, ...], int] = {}
    for content in ssyt_contents(tuple(shape), num_vars):
        poly[content] = poly.get(content, 0) + 1
    return poly


def poly_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def poly_sub_scaled(p: dict, q: dict, c: int) -> dict:
    out = dict(p)
    for e, v in q.items():
        nv = out.get(e, 0) - c * v
        if nv:
            out[e] = nv
        else:
            out.pop(e, None)
    return out


def monomials_to_schur(poly: dict, num_vars: int) -> dict[tuple[int, ...], int]:
    """Expand a symmetric polynomial in the Schur basis by repeatedly peeling
    the lexicographically largest monomial (its exponent must be a partition)."""
    work = {e: c for e, c in poly.items() if c}
    out: dict[tuple[int, ...], int] = {}
    while work:
        lead = max(work)
        if any(a < b for a, b in zip(lead, lead[1:])):
            raise ValueError(f"leading exponent {lead} is not dominant; input not symmetric?")
        c = work[lead]
        out[lead] = c
        work = poly_sub_scaled(work, schur_monomials(lead, num_vars), c)
    return out


def product_as_multiset(a: Weight, b: Weight) -> WeightMultiset:
    """Tensor decomposition computed purely through monomial expansions;
    the independent cross-check for lr_decompose."""
    n = a.n
    prod = poly_mul(schur_monomials(a.parts, n), schur_monomials(b.parts, n))
    return WeightMultiset.of(
        n, [(normalize(n, shape), c) for shape, c in monomials_to_schur(prod, n).items()]
    )
