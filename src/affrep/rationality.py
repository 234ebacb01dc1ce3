"""Rationality decision procedure for two-step extensions.

A two-step extension is given by its semisimple data: the completely
reducible submodule S, the completely reducible quotient Q (tied together by
character-level containments S in Q (x) C^n and Q in S (x) dual C^n), and a
detached completely reducible complement W.  The decision evaluates, in
order: generic freeness (a sufficient criterion on Q, overridable by an
explicit assertion), the trivial-isotypic criterion (B), and the split
search (A).  Instances passing neither are reported Exceptional with a full
evidence trail.

The catalog's pairs are decided as W = 0 instances (`decide_pair`), and
with W = 0 the decision reads few of a pair's fields, its decision
signature (`decision_signature`), and many pairs share one: the rank-3
catalog's 3,015 lines have 62, and `serialize.write_catalog` decides and
encodes one verdict per signature.
"""

from __future__ import annotations

from collections import namedtuple
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
    by_dimension,
    dual,
    lr_outer_shapes,
    multiset_fits_in_product,
    rank_labels,
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
    n, entries = q.n, q.entries
    labels = rank_labels(n)
    if entries == ((labels.std, 1),):
        return POSSIBLY_NOT_FREE, "R1"
    # one copy of the dual exterior square; the dual is taken only of a
    # lone label, since the catalog asks the gate once per quotient
    if len(entries) == 1 and entries[0][1] == 1 and dual(entries[0][0]) == labels.wedge2:
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


def decide_pair(S: WeightMultiset, Q: WeightMultiset, seed: int) -> Verdict:
    """`decide_rationality` of the W = 0 extension of `S` by `Q` at `seed`,
    whose structural containments the caller has established (the catalog
    builds its pairs that way).  Pairs of one `decision_signature` get
    equal verdicts."""
    return _decide(TwoStepExtension(Q.n, S, Q, WeightMultiset(Q.n, ())), seed)


def decision_signature(Q: WeightMultiset) -> tuple[tuple, bool]:
    """The decision signature that the W = 0 pairs of quotient `Q` share,
    and whether each pair extends it by its dim S.  A pair's signature
    holds the values its verdict is decided from: with W = 0, `_decide`
    reads Q only through the freeness gate (status, detail) and, past a
    passed gate, its trivial count; S only through its dimension; and its
    one split candidate, W2 = 0, takes the class of Q, which is a passed
    gate's detail.  So the signature is (gate,), extended by (trivial
    count, dim S) when the gate is Free, and pairs of one signature get
    equal verdicts.  Of the catalog's quotients only clause (ii)'s pass
    the gate."""
    gate = check_generic_freeness(Q)
    if gate[0] != FREE:
        return (gate,), False
    return (gate, Q.count(rank_labels(Q.n).triv)), True


def _decide(ext: TwoStepExtension, seed: int, trials: int = DEFAULT_TRIALS) -> Verdict:
    """`decide_rationality` for an extension whose structural containments
    the caller has established."""
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
    for tried, (w2, counts) in enumerate(by_dimension(ext.W)):
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

