"""The character calculus: brute-force Schur characters and their peeler.

An irreducible's character is its multiset of torus weights modulo the
diagonal, one per semistandard tableau (s_lambda is the sum of x^content
over the tableaux of shape lambda).  `decompose_character` writes any
character as a sum of irreducible ones by peeling its largest weight; the
filtrations identify their layers with it, and `product_as_multiset`
decomposes a tensor product with it.  Deliberately independent of the
Littlewood-Richardson code in `schur`, so the two can check each other.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .schur import Weight, WeightMultiset, grading_rep


# one entry per (shape, rank); 88 for the inputs of 2550 seeded requests
@lru_cache(maxsize=256)
def ssyt_contents(shape: tuple[int, ...], num_vars: int) -> tuple[tuple[int, ...], ...]:
    """Content vectors of all semistandard tableaux of the given shape with
    entries in 1..num_vars, one vector per tableau (repeats kept).  A cell
    with k cells below it in its column takes at most num_vars - k, so every
    partial filling completes, and more rows than num_vars leave none."""
    shape = tuple(p for p in shape if p > 0)
    if not shape:
        return ((0,) * num_vars,)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    top = {(r, c): num_vars - sum(1 for p in shape[r + 1:] if p > c) for r, c in cells}
    grid: dict[tuple[int, int], int] = {}
    out: list[tuple[int, ...]] = []
    content = [0] * num_vars

    def rec(idx: int):
        if idx == len(cells):
            out.append(tuple(content))
            return
        r, c = cells[idx]
        # the cells left of and above (r, c) precede it, so hold this filling's entries
        lo = grid[(r, c - 1)] if c > 0 else 1
        if r > 0:
            lo = max(lo, grid[(r - 1, c)] + 1)
        for v in range(lo, top[(r, c)] + 1):
            grid[(r, c)] = v
            content[v - 1] += 1
            rec(idx + 1)
            content[v - 1] -= 1

    rec(0)
    return tuple(out)


# one entry per label met (layer labels and oracle factors); bounded for a
# long-running process
@lru_cache(maxsize=1024)
def irrep_character(n: int, parts: tuple[int, ...]) -> Counter:
    """Weight multiset of the irreducible with the given normalized label,
    as canonical representatives modulo the diagonal, one per tableau.
    The cached Counter is shared by every caller, so it is only read."""
    out: Counter = Counter()
    for content in ssyt_contents(parts, n):
        out[grading_rep(content)] += 1
    return out


def decompose_character(n: int, char: Counter) -> WeightMultiset:
    """Write a character (multiset of normalized torus weights) as a sum of
    irreducible characters by peeling the lexicographically largest weight."""
    work = Counter({k: v for k, v in char.items() if v})
    found: list[tuple[Weight, int]] = []
    while work:
        lead = max(work)
        if any(a < b for a, b in zip(lead, lead[1:])) or lead[-1] != 0 or lead[0] < 0:
            raise ValueError(f"character has non-dominant leading weight {lead}")
        mult = work[lead]
        if mult < 0:
            raise ValueError(f"negative multiplicity at {lead}; grading is inconsistent")
        w = Weight(n, lead)
        for g, c in irrep_character(n, lead).items():
            work[g] -= mult * c
            if not work[g]:
                del work[g]
        found.append((w, mult))
    return WeightMultiset.of(n, found)


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


def product_as_multiset(a: Weight, b: Weight) -> WeightMultiset:
    """Tensor decomposition computed purely through characters: the product
    of the two tableau characters, peeled into irreducibles.  Weights modulo
    the diagonal add like the weights themselves, so the product of the
    reduced characters is the reduced character of the product.  The
    independent cross-check for lr_decompose."""
    n = a.n
    prod = poly_mul(irrep_character(n, a.parts), irrep_character(n, b.parts))
    return decompose_character(n, prod)
