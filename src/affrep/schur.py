"""Dominant weight arithmetic for SL_n: duals, dimensions, Pieri and
Littlewood-Richardson decompositions.

Weights are normalized partitions: non-increasing integer tuples of length n
whose last entry is 0 (full determinant columns are stripped, since they act
trivially on SL_n).  All arithmetic is exact.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import lru_cache


class Weight(namedtuple("Weight", "n parts")):
    """Normalized highest-weight label for an irreducible SL_n-representation.

    A value: the tuple (n, parts), so equal, ordered and hashed as that
    tuple (a tuple of ints hashes the same under every PYTHONHASHSEED)."""

    __slots__ = ()

    def __new__(cls, n: int, parts: tuple[int, ...]):
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        if len(parts) != n:
            raise ValueError(
                f"weight {list(parts)} has length {len(parts)}, expected {n}"
            )
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"weight {list(parts)} is not non-increasing")
        if parts[-1] != 0:
            raise ValueError(f"weight {list(parts)} is not normalized (last part nonzero)")
        return tuple.__new__(cls, (n, parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def is_trivial(self) -> bool:
        return self.parts[0] == 0

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


class WeightMultiset(namedtuple("WeightMultiset", "n entries")):
    """Finite multiset of same-rank weights; the semisimple data everywhere.
    A value like `Weight`: the tuple (n, entries)."""

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple[tuple[Weight, int], ...]):
        # canonical means strictly increasing labels: sorted, no label twice
        prev = None
        for w, m in entries:
            if w.n != n:
                raise ValueError(f"weight {w} has rank {w.n}, expected {n}")
            if m < 1:
                raise ValueError(f"multiplicity of {w} must be >= 1, got {m}")
            if prev is not None and not prev < w:
                if prev == w:
                    raise ValueError(f"duplicate entry for {w}")
                raise ValueError("entries not in canonical order; use WeightMultiset.of")
            prev = w
        return tuple.__new__(cls, (n, entries))

    @classmethod
    def of(cls, n: int, items=()) -> "WeightMultiset":
        """Build from (weight, mult) pairs or weights; merges repeats and sorts."""
        acc: dict[Weight, int] = {}
        for item in items:
            if isinstance(item, Weight):
                w, m = item, 1
            else:
                w, m = item
            acc[w] = acc.get(w, 0) + m
        entries = tuple(sorted((w, m) for w, m in acc.items() if m > 0))
        return cls(n, entries)

    def count(self, w: Weight) -> int:
        for v, m in self.entries:
            if v == w:
                return m
        return 0

    def dim(self) -> int:
        return entries_dim(self.entries)

    def add(self, other: "WeightMultiset") -> "WeightMultiset":
        if other.n != self.n:
            raise ValueError("rank mismatch")
        return WeightMultiset.of(self.n, list(self.entries) + list(other.entries))

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        terms = []
        for w, m in self.entries:
            terms.append(str(w) if m == 1 else f"{m}*{w}")
        return " + ".join(terms)


def normalize(n: int, raw) -> Weight:
    """Canonical SL_n label: pad to length n, then strip full columns.

    Accepts any non-increasing sequence of length <= n.  Idempotent.
    """
    raw = list(raw)
    if len(raw) > n:
        raise ValueError(f"sequence {raw} longer than rank {n}")
    if any(a < b for a, b in zip(raw, raw[1:])):
        raise ValueError(f"sequence {raw} is not non-increasing")
    return Weight(n, grading_rep(raw + [0] * (n - len(raw))))


def grading_rep(g) -> tuple[int, ...]:
    """Canonical representative of a torus weight modulo the diagonal:
    subtract the last coordinate from all."""
    last = g[-1]
    return tuple(x - last for x in g)


def dual(w: Weight) -> Weight:
    """Label of the dual representation: complement-reverse; involutive."""
    top = w.parts[0]
    return Weight(w.n, tuple(top - p for p in reversed(w.parts)))


# the rank-4 catalog asks for 24 labels; the bound keeps a long-running
# process from growing without limit
@lru_cache(maxsize=8192)
def _weyl_dim(n: int, parts: tuple[int, ...]) -> int:
    # prod over i < j of (parts[i] - parts[j] + j - i) / (j - i), as one
    # integer product over one product of the denominators: exact, since
    # the quotient is the dimension
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    return num // den


def weyl_dim(w: Weight) -> int:
    """Dimension of the irreducible with highest weight w (exact integer)."""
    return _weyl_dim(w.n, w.parts)


def dominant_weights(n: int, fits) -> list[Weight]:
    """Every weight of rank n that satisfies `fits`, in label order.

    A weight is walked as its Dynkin labels a_i = parts[i - 1] - parts[i],
    one at a time: label i is raised, adding the i-th fundamental weight
    (i ones, then zeros), while the weight with the later labels at 0 still
    fits.  So `fits` must fail on every weight that adds fundamental weights
    to one it fails on, and on some multiple of each fundamental weight;
    then every weight that fits is found, since so is each weight it is
    raised from, and each weight is asked about once.  Dimension, size and
    first part all qualify: each factor of Weyl's formula grows along the
    fundamental weights, and the i-th adds i to the size and 1 to the first
    part.  (In partition coordinates no such pruning is sound: the
    dimension is not monotone in the later parts.)"""
    found = []

    def walk(i, w):
        # w fits, and its labels i, i + 1, ... are 0
        if i == n:
            found.append(w)
            return
        while True:
            walk(i + 1, w)
            w = Weight(n, tuple(p + 1 for p in w.parts[:i]) + w.parts[i:])
            if not fits(w):
                return

    triv = Weight(n, (0,) * n)
    if fits(triv):
        walk(1, triv)
    return sorted(found)


def entries_dim(entries) -> int:
    """Dimension of the sum of (label, mult) pairs, such as
    `WeightMultiset.entries`."""
    return sum(m * weyl_dim(w) for w, m in entries)


def core_entries(entries) -> tuple:
    """A multiset's core, its nontrivial part: `entries` past the trivial
    label's, which sorts first; `entries` itself when it holds none."""
    return entries[1:] if entries and entries[0][0].is_trivial() else entries


class RankLabels(namedtuple("RankLabels", "triv std dstd wedge2 sym2 adj")):
    """The named labels of one rank, the bad family's up to duals: trivial,
    standard, dual standard, exterior square, symmetric square and traceless
    adjoint."""

    __slots__ = ()


# the same few values for every question at a rank; one entry per rank
@lru_cache(maxsize=16)
def rank_labels(n: int) -> RankLabels:
    """The named labels at rank n, from rank 2 on (the exterior square
    needs two rows)."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    std = normalize(n, [1])
    return RankLabels(normalize(n, []), std, dual(std), normalize(n, [1, 1]),
                      normalize(n, [2]), normalize(n, [2] + [1] * (n - 2)))


def by_dimension(ms: WeightMultiset):
    """Every sub-multiset of `ms`, lazily, by dimension and ties by the
    entries tuple, each with its count vector over `ms.entries`.  A count
    vector's parent lowers its last nonzero count by one, so each vector is
    pushed once, by its parent; every label has dimension at least 1, so a
    child sorts after its parent and the heap pops the vectors in order."""
    n, pairs = ms.n, ms.entries
    heap = [(0, (), (0,) * len(pairs), 0)]
    while heap:
        d, entries, counts, last = heapq.heappop(heap)
        yield WeightMultiset(n, entries), counts
        for i in range(last, len(pairs)):
            w, m = pairs[i]
            if counts[i] < m:
                child = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                entries = tuple((v, c) for (v, _), c in zip(pairs, child) if c)
                heapq.heappush(heap, (d + weyl_dim(w), entries, child, i))


def horizontal_strips(parts: tuple[int, ...], k: int, nrows: int):
    """All partitions (length <= nrows) obtained from `parts` by adding a
    horizontal strip with k boxes: at most one new box per column."""
    base = list(parts) + [0] * (nrows - len(parts))

    def rec(i, remaining, prev):
        if i == nrows:
            if remaining == 0:
                yield ()
            return
        # rows below can absorb at most base[i] - base[-1] boxes, each row
        # growing at most to the old length of the row above it
        lo = max(base[i], remaining + base[nrows - 1])
        hi = min(prev, base[i] + remaining) if i > 0 else base[i] + remaining
        # strip condition: row i may grow at most to the old length of row i-1
        if i > 0:
            hi = min(hi, base[i - 1])
        for v in range(lo, hi + 1):
            for rest in rec(i + 1, remaining - (v - base[i]), v):
                yield (v,) + rest

    yield from rec(0, k, None)


def pieri_sym(w: Weight, k: int) -> WeightMultiset:
    """Decomposition of (irrep w) tensor Sym^k(C^n): multiplicity-free,
    one summand per horizontal strip of size k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = [normalize(w.n, nu) for nu in horizontal_strips(w.parts, k, w.n)]
    return WeightMultiset.of(w.n, out)


def _candidate_outer_shapes(a: tuple[int, ...], total: int, nrows: int):
    """Partitions nu containing a, with |nu| = total and at most nrows rows."""

    def rec(i, remaining, prev):
        if i == nrows:
            if remaining == 0:
                yield ()
            return
        lo = a[i] if i < len(a) else 0
        hi = min(prev, lo + remaining) if i > 0 else lo + remaining
        for v in range(hi, lo - 1, -1):
            for rest in rec(i + 1, remaining - v + lo, v):
                yield (v,) + rest

    yield from rec(0, total - sum(a), None)


def _lr_fillings(nu: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Number of Littlewood-Richardson skew tableaux of shape nu/a and content b.

    Cells are filled in reverse reading order (rows top to bottom, each row
    right to left) so that the lattice-word condition can be checked as the
    word is produced.
    """
    apad = list(a) + [0] * (len(nu) - len(a))
    cells = []
    for r, width in enumerate(nu):
        for c in range(width - 1, apad[r] - 1, -1):
            cells.append((r, c))
    counts = [0] * (len(b) + 1)  # counts[v] = letters v placed so far, 1-based
    grid: dict[tuple[int, int], int] = {}

    def rec(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = grid.get((r, c + 1))
        # column strictness only against filled cells; inner-shape cells are empty
        above = grid.get((r - 1, c)) if r > 0 and c >= apad[r - 1] else None
        total = 0
        for v in range(1, len(b) + 1):
            if counts[v] >= b[v - 1]:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice word would fail
            grid[(r, c)] = v
            counts[v] += 1
            total += rec(idx + 1)
            counts[v] -= 1
            del grid[(r, c)]
        return total

    return rec(0)


def lr_decompose(a: Weight, b: Weight) -> WeightMultiset:
    """Full tensor product decomposition with Littlewood-Richardson
    multiplicities, normalized to SL_n labels."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    a, b = _outer_first(a, b)
    return _lr_decompose(a.n, a.parts, b.parts)


def _outer_first(a: Weight, b: Weight) -> tuple[Weight, Weight]:
    """The factors as `lr_decompose` takes them: the larger weight outside,
    for fewer fillings with the smaller content."""
    return (b, a) if b.size > a.size else (a, b)


def lr_outer_shapes(a: Weight, b: Weight):
    """The candidate outer shapes `lr_decompose(a, b)` sweeps, lazily."""
    outer, _ = _outer_first(a, b)
    return _candidate_outer_shapes(outer.parts, a.size + b.size, a.n)


# the catalog asks for the same few products over and over (20 distinct
# pairs behind 1,919 calls in the rank-3 catalog); the bound keeps a
# long-running process from growing without limit
@lru_cache(maxsize=4096)
def _lr_decompose(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> WeightMultiset:
    total = sum(a) + sum(b)
    out = []
    bparts = tuple(p for p in b if p > 0)
    for nu in _candidate_outer_shapes(a, total, n):
        c = _lr_fillings(nu, a, bparts) if bparts else 1
        if c:
            out.append((normalize(n, nu), c))
    return WeightMultiset.of(n, out)


def contains(target: Weight, a: Weight, b: Weight) -> int:
    """Multiplicity of `target` inside (irrep a) tensor (irrep b)."""
    return lr_decompose(a, b).count(target)


def tensor_counts(pairs, factor: Weight) -> dict[Weight, int]:
    """Multiplicity of each label in (the sum of mult copies of each irrep
    of the (label, mult) pairs) tensor (irrep factor), unsorted."""
    counts: dict[Weight, int] = {}
    for u, mu in pairs:
        for w, c in lr_decompose(u, factor).entries:
            counts[w] = counts.get(w, 0) + mu * c
    return counts


def multiset_fits_in_product(inner, outer, factor: Weight) -> bool:
    """inner contained (with multiplicities) in outer tensor (irrep factor);
    both are (label, mult) pairs, such as `WeightMultiset.entries`."""
    # plain pairs and dicts, not WeightMultisets: `of` would sort and
    # validate on every check, and the catalog checks candidates it never keeps
    avail = tensor_counts(outer, factor)
    return all(avail.get(w, 0) >= m for w, m in inner)


def check_lr_gap_bound(w: Weight, k: int) -> bool:
    """Gap inequality for Pieri summands: every partition U obtained from w by
    a horizontal strip of k boxes satisfies U_1 - U_2 >= k - w_1.

    Checked on the un-normalized labels, before stripping determinant columns.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    bound = k - w.parts[0]
    for nu in horizontal_strips(w.parts, k, w.n):
        gap = nu[0] - nu[1] if w.n > 1 else 0
        if gap < bound:
            return False
    return True
