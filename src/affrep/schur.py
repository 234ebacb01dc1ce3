"""Dominant weight arithmetic for SL_n: duals, dimensions, Pieri and
Littlewood-Richardson decompositions.

Weights are normalized partitions: non-increasing integer tuples of length n
whose last entry is 0 (full determinant columns are stripped, since they act
trivially on SL_n).  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class Value:
    """Base of the slotted value types built on weights: equality field by
    field, over the names in `__slots__`, and the `Type(field=value, ...)`
    repr.  A subclass is unhashable unless it defines `__hash__`."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({body})"


class Weight:
    """Normalized highest-weight label for an irreducible SL_n-representation.

    A value: equal, hashed and ordered as the tuple (n, parts).  Immutable
    by convention; nothing assigns to a weight after it is built, and
    enforcing it would cost a call on every construction."""

    __slots__ = ("n", "parts", "_hash")

    def __init__(self, n: int, parts: tuple[int, ...]):
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
        self.n = n
        self.parts = parts
        # labels are dict keys on every hot path; a tuple of ints hashes the
        # same under every PYTHONHASHSEED
        self._hash = hash((n, parts))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Weight:
            return NotImplemented
        return self.n == other.n and self.parts == other.parts

    def __lt__(self, other):
        if other.__class__ is not Weight:
            return NotImplemented
        return (self.n, self.parts) < (other.n, other.parts)

    def __le__(self, other):
        if other.__class__ is not Weight:
            return NotImplemented
        return (self.n, self.parts) <= (other.n, other.parts)

    def __gt__(self, other):
        if other.__class__ is not Weight:
            return NotImplemented
        return (self.n, self.parts) > (other.n, other.parts)

    def __ge__(self, other):
        if other.__class__ is not Weight:
            return NotImplemented
        return (self.n, self.parts) >= (other.n, other.parts)

    def __repr__(self) -> str:
        return f"Weight(n={self.n!r}, parts={self.parts!r})"

    @property
    def size(self) -> int:
        return sum(self.parts)

    def is_trivial(self) -> bool:
        return self.parts[0] == 0

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


class WeightMultiset:
    """Finite multiset of same-rank weights; the semisimple data everywhere.
    A value like `Weight`: equal and hashed as the tuple (n, entries)."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: tuple[tuple[Weight, int], ...]):
        self.n = n
        self.entries = entries
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

    def __eq__(self, other):
        if other.__class__ is not WeightMultiset:
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.n, self.entries))

    def __repr__(self) -> str:
        return f"WeightMultiset(n={self.n!r}, entries={self.entries!r})"

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
        return sum(m * weyl_dim(w) for w, m in self.entries)

    def weights(self) -> list[Weight]:
        return [w for w, _ in self.entries]

    def add(self, other: "WeightMultiset") -> "WeightMultiset":
        if other.n != self.n:
            raise ValueError("rank mismatch")
        return WeightMultiset.of(self.n, list(self.entries) + list(other.entries))

    def submultisets(self) -> list["WeightMultiset"]:
        """All sub-multisets in a canonical order: increasing dimension, ties
        by the entries tuple."""
        subs = [WeightMultiset(self.n, e) for e in sub_entries(self.entries)]
        subs.sort(key=lambda s: (s.dim(), s.entries))
        return subs

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        terms = []
        for w, m in self.entries:
            terms.append(str(w) if m == 1 else f"{m}*{w}")
        return " + ".join(terms)


def count_vectors(pairs):
    """Every count vector from all zeros to the multiplicities of (label,
    mult) pairs, in lexicographic order: the sub-multisets of the pairs."""
    return itertools.product(*(range(m + 1) for _, m in pairs))


def sub_entries(pairs):
    """Every sub-multiset of (label, mult) pairs sorted by label, as the
    entries of a `WeightMultiset`: one per count vector from all zeros (the
    empty one, first) to the multiplicities."""
    for counts in count_vectors(pairs):
        yield tuple((w, c) for (w, _), c in zip(pairs, counts) if c)


def normalize(n: int, raw) -> Weight:
    """Canonical SL_n label: pad to length n, then strip full columns.

    Accepts any non-increasing sequence of length <= n.  Idempotent.
    """
    raw = list(raw)
    if len(raw) > n:
        raise ValueError(f"sequence {raw} longer than rank {n}")
    if any(a < b for a, b in zip(raw, raw[1:])):
        raise ValueError(f"sequence {raw} is not non-increasing")
    raw = raw + [0] * (n - len(raw))
    last = raw[-1]
    return Weight(n, tuple(p - last for p in raw))


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
    if b.size > a.size:
        a, b = b, a  # fewer fillings with the smaller content
    return _lr_decompose(a.n, a.parts, b.parts)


# the catalog asks for the same few products over and over (20 distinct
# pairs behind 1,919 calls in the rank-3 catalog); the bound keeps a
# long-running process from growing without limit
@lru_cache(maxsize=4096)
def _lr_decompose(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> WeightMultiset:
    total = sum(a) + sum(b)
    out = []
    bparts = tuple(p for p in b if p > 0)
    for nu in _candidate_outer_shapes(a, total, n):
        if any(x < y for x, y in zip(nu, a)):
            continue
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
