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

import math
from functools import lru_cache

from .config import DEFAULT_SEED, DEFAULT_TRIALS, MAX_SPLIT_CANDIDATES
from .repclass import (
    BAD,
    GOOD,
    GOOD_HEURISTIC,
    classify,
)
from .schur import (
    Value,
    Weight,
    WeightMultiset,
    dual,
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


class TwoStepExtension(Value):
    """Semisimple data of a length-two extension plus a detached summand."""

    __slots__ = ("n", "S", "Q", "W", "assume_generically_free")

    def __init__(self, n: int, S: WeightMultiset, Q: WeightMultiset, W: WeightMultiset,
                 assume_generically_free: bool = False):
        for part in (S, Q, W):
            if part.n != n:
                raise ValueError("rank mismatch between extension parts")
        self.n = n
        self.S = S
        self.Q = Q
        self.W = W
        self.assume_generically_free = assume_generically_free

    def __hash__(self) -> int:
        return hash(self._fields())

    @classmethod
    def of(cls, n: int, S=(), Q=(), W=(), assume_generically_free: bool = False):
        return cls(
            n,
            WeightMultiset.of(n, S),
            WeightMultiset.of(n, Q),
            WeightMultiset.of(n, W),
            assume_generically_free,
        )


class Verdict(Value):
    __slots__ = ("outcome", "witness", "evidence", "seed")

    def __init__(self, outcome: str, witness: dict | None, evidence: list[dict], seed: int):
        if (outcome == RATIONAL_BY_A) != (witness is not None):
            raise ValueError("witness present iff the split criterion decided")
        if not evidence:
            raise ValueError("evidence must be nonempty")
        self.outcome = outcome
        self.witness = witness
        self.evidence = evidence
        self.seed = seed


class RankLabels(Value):
    """The labels every extension of one rank is tested against: trivial,
    standard, dual standard, and the quotients of the R1 and R2 shapes
    (R2 is None below rank 2, where it has no label)."""

    __slots__ = ("triv", "std", "dstd", "r1", "r2")

    def __init__(self, triv: Weight, std: Weight, dstd: Weight, r1: WeightMultiset,
                 r2: WeightMultiset | None):
        self.triv = triv
        self.std = std
        self.dstd = dstd
        self.r1 = r1
        self.r2 = r2

    def __hash__(self) -> int:
        return hash(self._fields())


# the same few values for every extension of a rank; one entry per rank
@lru_cache(maxsize=16)
def rank_labels(n: int) -> RankLabels:
    std = normalize(n, [1])
    r2 = WeightMultiset.of(n, [dual(normalize(n, [1, 1]))]) if n >= 2 else None
    return RankLabels(normalize(n, []), std, dual(std), WeightMultiset.of(n, [std]), r2)


def check_structural(ext: TwoStepExtension) -> bool:
    """Both character containments: S inside Q (x) standard and Q inside
    S (x) dual standard, with multiplicities."""
    labels = rank_labels(ext.n)
    return (multiset_fits_in_product(ext.S.entries, ext.Q.entries, labels.std)
            and multiset_fits_in_product(ext.Q.entries, ext.S.entries, labels.dstd))


def _r3_shapes(n: int, q: WeightMultiset) -> bool:
    """Is q a sum of at most n-1 copies of the trivial and dual standard?"""
    labels = rank_labels(n)
    total = 0
    for w, m in q.entries:
        if w not in (labels.triv, labels.dstd):
            return False
        total += m
    return 1 <= total <= n - 1


def check_generic_freeness(ext: TwoStepExtension, seed: int = DEFAULT_SEED,
                           trials: int = DEFAULT_TRIALS):
    """Sufficient freeness criterion on the quotient: its completely
    reducible quotient (Q itself here) must be good, and Q must avoid the
    short list of translation-stabilized shapes.  An external assertion on
    the extension overrides the criterion.  Returns (status, detail).
    """
    if ext.assume_generically_free:
        return FREE, "asserted"
    q = ext.Q
    labels = rank_labels(ext.n)
    if q == labels.r1:
        return POSSIBLY_NOT_FREE, "R1"
    if q == labels.r2:
        return POSSIBLY_NOT_FREE, "R2"
    if _r3_shapes(ext.n, q):
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
    decompositions W = W1 + W2 by increasing dim W2 (so the reported witness
    maximizes dim(S + W1)); first acceptance wins.
    """
    if not check_structural(ext):
        raise ValueError("structural containments fail; not a two-step extension")
    return _decide(ext, seed, trials)


def _decide(ext: TwoStepExtension, seed: int, trials: int) -> Verdict:
    """`decide_rationality` for an extension whose structural containments
    the caller has established (the catalog builds its pairs that way)."""
    n = ext.n
    evidence: list[dict] = [
        {"condition": "structural-containments", "paper_clause": "shape", "result": True}
    ]

    status, detail = check_generic_freeness(ext, seed=seed, trials=trials)
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
    count = math.prod(m + 1 for _, m in ext.W.entries)
    exhaustive = count <= MAX_SPLIT_CANDIDATES
    candidates = (
        ext.W.submultisets() if exhaustive else _greedy_candidates(ext)
    )
    if not exhaustive:
        evidence.append(
            {
                "condition": "split-search-incomplete",
                "paper_clause": "A",
                "result": f"greedy shortcut over {count} candidates",
            }
        )
    for w2 in candidates:
        cls = classify(ext.Q.add(w2), seed=seed, trials=trials)
        dim_ok = dim_sw - w2.dim() >= threshold_a
        evidence.append(
            {
                "condition": "split",
                "paper_clause": "A",
                "w2": [[list(w.parts), m] for w, m in w2.entries],
                "classify": cls,
                "dim_S_W1": dim_sw - w2.dim(),
                "result": cls in (GOOD, GOOD_HEURISTIC) and dim_ok,
            }
        )
        if cls in (GOOD, GOOD_HEURISTIC) and dim_ok:
            w1 = _subtract(ext.W, w2)
            witness = {
                "W1": [[list(w.parts), m] for w, m in w1.entries],
                "W2": [[list(w.parts), m] for w, m in w2.entries],
                "heuristic_goodness": cls == GOOD_HEURISTIC,
            }
            return Verdict(RATIONAL_BY_A, witness, evidence, seed)
    return Verdict(EXCEPTIONAL, None, evidence, seed)


def _subtract(ms: WeightMultiset, sub: WeightMultiset) -> WeightMultiset:
    entries = []
    for w, m in ms.entries:
        rem = m - sub.count(w)
        if rem < 0:
            raise ValueError("not a sub-multiset")
        if rem:
            entries.append((w, rem))
    return WeightMultiset.of(ms.n, entries)


def _greedy_candidates(ext: TwoStepExtension):
    """Fallback when W has too many sub-multisets: grow W2 by smallest
    dimension first until the augmented quotient is good."""
    n = ext.n
    singles = sorted(
        ((w, weyl_dim(w)) for w, m in ext.W.entries for _ in range(m)),
        key=lambda t: (t[1], t[0].parts),
    )
    out = [WeightMultiset.of(n, [])]
    acc: list[Weight] = []
    for w, _ in singles:
        acc.append(w)
        out.append(WeightMultiset.of(n, list(acc)))
    return out
