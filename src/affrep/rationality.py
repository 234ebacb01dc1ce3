"""Rationality decision procedure for two-step extensions.

A two-step extension is given by its semisimple data: the completely
reducible submodule S, the completely reducible quotient Q (tied together by
character-level containments S in Q (x) C^n and Q in S (x) dual C^n), and a
detached completely reducible complement W.  The decision evaluates, in
order: generic freeness (a sufficient criterion on Q, overridable by an
explicit assertion), the trivial-isotypic criterion (B), and the split
search (A).  Instances passing neither are reported Exceptional with a full
evidence trail.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import lru_cache
from math import comb

from .config import (DEFAULT_SEED, DEFAULT_TRIALS, MAX_LR_SHAPES, MAX_SPLIT_CANDIDATES,
                     ResourceCapError, check_sweep)
from .repclass import (
    BAD,
    GOOD,
    GOOD_HEURISTIC,
    classify,
)
from .schur import (
    WeightMultiset,
    dual,
    lr_outer_shapes,
    multiset_fits_in_product,
    normalize,
    weyl_dim,
)

RATIONAL_BY_A = "RationalByA"
RATIONAL_BY_B = "RationalByB"
EXCEPTIONAL = "Exceptional"
POSSIBLY_NOT_GENERICALLY_FREE = "PossiblyNotGenericallyFree"

FREE = "Free"
POSSIBLY_NOT_FREE = "PossiblyNotFree"


class TwoStepExtension(namedtuple("TwoStepExtension", "n S Q W assume_generically_free")):
    """Semisimple data of a length-two extension plus a detached summand."""

    __slots__ = ()

    def __new__(cls, n: int, S: WeightMultiset, Q: WeightMultiset, W: WeightMultiset,
                assume_generically_free: bool = False):
        for part in (S, Q, W):
            if part.n != n:
                raise ValueError("rank mismatch between extension parts")
        return tuple.__new__(cls, (n, S, Q, W, assume_generically_free))

    @classmethod
    def of(cls, n: int, S=(), Q=(), W=(), assume_generically_free: bool = False):
        return cls(
            n,
            WeightMultiset.of(n, S),
            WeightMultiset.of(n, Q),
            WeightMultiset.of(n, W),
            assume_generically_free,
        )


class Verdict(namedtuple("Verdict", "outcome witness evidence seed")):
    __slots__ = ()
    __hash__ = None

    def __new__(cls, outcome: str, witness: dict | None, evidence: list[dict], seed: int):
        if (outcome == RATIONAL_BY_A) != (witness is not None):
            raise ValueError("witness present iff the split criterion decided")
        if not evidence:
            raise ValueError("evidence must be nonempty")
        return tuple.__new__(cls, (outcome, witness, evidence, seed))


class RankLabels(namedtuple("RankLabels", "triv std dstd r1 r2")):
    """The labels every extension of one rank is tested against: trivial,
    standard, dual standard, and the quotients of the R1 and R2 shapes
    (R2 is None below rank 2, where it has no label)."""

    __slots__ = ()


# the same few values for every extension of a rank; one entry per rank
@lru_cache(maxsize=16)
def rank_labels(n: int) -> RankLabels:
    std = normalize(n, [1])
    r2 = WeightMultiset.of(n, [dual(normalize(n, [1, 1]))]) if n >= 2 else None
    return RankLabels(normalize(n, []), std, dual(std), WeightMultiset.of(n, [std]), r2)


def check_structural(ext: TwoStepExtension) -> bool:
    """Both character containments: S inside Q (x) standard and Q inside
    S (x) dual standard, with multiplicities.  Before the second, each S
    label u whose LR shapes times the dual standard may exceed MAX_LR_SHAPES
    (C(k + n - 1, n - 1) bounds them, k = min(|u|, n - 1)) has them counted
    as `tensor` does, and more than the cap raise ResourceCapError."""
    n, labels = ext.n, rank_labels(ext.n)
    if not multiset_fits_in_product(ext.S.entries, ext.Q.entries, labels.std):
        return False
    for u, _ in ext.S.entries:
        if comb(min(u.size, n - 1) + n - 1, n - 1) > MAX_LR_SHAPES:
            check_sweep("max_lr_shapes", lr_outer_shapes(u, labels.dstd), MAX_LR_SHAPES)
    return multiset_fits_in_product(ext.Q.entries, ext.S.entries, labels.dstd)


def _r3_shapes(n: int, q: WeightMultiset) -> bool:
    """Is q a sum of at most n-1 copies of the trivial and dual standard?"""
    labels = rank_labels(n)
    total = 0
    for w, m in q.entries:
        if w not in (labels.triv, labels.dstd):
            return False
        total += m
    return 1 <= total <= n - 1


def check_generic_freeness(q: WeightMultiset, seed: int = DEFAULT_SEED,
                           trials: int = DEFAULT_TRIALS):
    """Sufficient freeness criterion on the quotient `q`: its completely
    reducible quotient (`q` itself here) must be good, and `q` must avoid
    the short list of translation-stabilized shapes.  Returns (status,
    detail), the detail of a passed gate being the class of `q`; an
    extension's assertion of generic freeness overrides the criterion
    (`_decide`).
    """
    n = q.n
    labels = rank_labels(n)
    if q == labels.r1:
        return POSSIBLY_NOT_FREE, "R1"
    if q == labels.r2:
        return POSSIBLY_NOT_FREE, "R2"
    if _r3_shapes(n, q):
        return POSSIBLY_NOT_FREE, "R3"
    verdict = classify(q, seed=seed, trials=trials)
    if verdict == BAD:
        return POSSIBLY_NOT_FREE, "bad-quotient"
    return FREE, verdict


def decide_rationality(
    ext: TwoStepExtension,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> Verdict:
    """Outcome of the two-step rationality criteria with an evidence trail.

    Requires the structural containments; raises ValueError otherwise.
    Evaluation order: freeness gate, criterion (B) (the quotient carries at
    least n^2 - 1 trivial summands), then the split search (A) over
    decompositions W = W1 + W2 by increasing dim W2, ties by W2's entries
    (so the reported witness maximizes dim(S + W1)); first acceptance wins.
    A search that would try more than MAX_SPLIT_CANDIDATES splits raises
    ResourceCapError.
    """
    if not check_structural(ext):
        raise ValueError("structural containments fail; not a two-step extension")
    return _decide(ext, seed, trials)


def _decide(ext: TwoStepExtension, seed: int, trials: int = DEFAULT_TRIALS) -> Verdict:
    """`decide_rationality` for an extension whose structural containments
    the caller has established (the catalog builds its pairs that way)."""
    n = ext.n
    evidence: list[dict] = [
        {"condition": "structural-containments", "paper_clause": "shape", "result": True}
    ]

    if ext.assume_generically_free:
        status, detail = FREE, "asserted"
    else:
        status, detail = check_generic_freeness(ext.Q, seed=seed, trials=trials)
    evidence.append(
        {"condition": "generic-freeness", "paper_clause": detail, "result": status}
    )
    if status != FREE:
        return Verdict(POSSIBLY_NOT_GENERICALLY_FREE, None, evidence, seed)

    trivial_count = ext.Q.count(rank_labels(n).triv)
    threshold_b = n * n - 1
    evidence.append(
        {
            "condition": "trivial-summands-in-Q",
            "paper_clause": "B",
            "result": f"{trivial_count} of {threshold_b} required",
        }
    )
    if trivial_count >= threshold_b:
        return Verdict(RATIONAL_BY_B, None, evidence, seed)

    threshold_a = n * n + 2 * n
    dim_sw = ext.S.dim() + ext.W.dim()
    for tried, (w2, counts) in enumerate(_by_dimension(ext.W)):
        if tried == MAX_SPLIT_CANDIDATES:
            raise ResourceCapError("max_split_candidates", f"more than {MAX_SPLIT_CANDIDATES}",
                                   MAX_SPLIT_CANDIDATES)
        cls = classify(ext.Q.add(w2), seed=seed, trials=trials)
        dim_s_w1 = dim_sw - w2.dim()
        accepted = cls in (GOOD, GOOD_HEURISTIC) and dim_s_w1 >= threshold_a
        evidence.append(
            {
                "condition": "split",
                "paper_clause": "A",
                "w2": _summands(w2.entries),
                "classify": cls,
                "dim_S_W1": dim_s_w1,
                "result": accepted,
            }
        )
        if accepted:
            w1 = [(w, m - c) for (w, m), c in zip(ext.W.entries, counts) if m > c]
            witness = {
                "W1": _summands(w1),
                "W2": _summands(w2.entries),
                "heuristic_goodness": cls == GOOD_HEURISTIC,
            }
            return Verdict(RATIONAL_BY_A, witness, evidence, seed)
    return Verdict(EXCEPTIONAL, None, evidence, seed)


def _summands(entries) -> list:
    """A multiset's (label, multiplicity) entries as the trail writes them."""
    return [[list(w.parts), m] for w, m in entries]


def _by_dimension(ms: WeightMultiset):
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
