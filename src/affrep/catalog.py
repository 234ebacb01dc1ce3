"""Finite catalog of exceptional two-step candidates.

The finiteness clauses bound the search: either the quotient Q is a bad sum
(with fewer than n^2 - 1 trivial summands), or the submodule S is small
(dim S < n^2 + 2n).  The clauses are made disjoint: the second admits only
the pairs whose Q is not bad, since the first already admits the others,
so each pair is produced once and its trigger is the clause that admits
it.  Pairs must satisfy the structural containments both ways; each clause
draws one side from a product with the other (S from Q (x) C^n, or Q from
S (x) dual C^n), so only the other containment is tested, as integer dot
products of each candidate's count vector with columns built once per
product.  Both clauses grow their multisets with one enumerator,
`_grown`, and the pairs are sorted at the end, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import itertools
from operator import mul

from .config import DEFAULT_SEED, DEFAULT_TRIALS
from .repclass import BAD, bad_list, classify
from .rationality import TwoStepExtension, Verdict, _decide, rank_labels
from .schur import (
    Value,
    Weight,
    WeightMultiset,
    count_vectors,
    lr_decompose,
    tensor_counts,
    weyl_dim,
)

TRIGGER_BAD_Q = "Q-bad"
TRIGGER_SMALL_S = "dim-S-small"


class CatalogEntry(Value):
    __slots__ = ("n", "S", "Q", "trigger", "verdict")

    def __init__(self, n: int, S: WeightMultiset, Q: WeightMultiset, trigger: str,
                 verdict: Verdict):
        self.n = n
        self.S = S
        self.Q = Q
        self.trigger = trigger
        self.verdict = verdict


def _grown(n: int, labels, keep) -> list[WeightMultiset]:
    """Every nonempty multiset over `labels` that `keep` accepts and that
    grows from an accepted one (the empty multiset to begin with) by one
    label no earlier in `labels` than any it holds.  Each multiset is
    reached once, by adding its labels in that order, and is passed to
    `keep` once.  `keep` must reject every extension of a multiset it
    rejects; then every multiset it accepts is found, since so is each of
    its prefixes."""
    grown: list[WeightMultiset] = []
    todo = [(WeightMultiset.of(n, []), 0)]
    while todo:
        ms, first = todo.pop()
        for i in range(first, len(labels)):
            bigger = WeightMultiset.of(n, ms.entries + ((labels[i], 1),))
            if keep(bigger):
                grown.append(bigger)
                todo.append((bigger, i))
    return grown


def irreps_up_to_dim(n: int, max_dim: int) -> list[Weight]:
    """All normalized weights of dimension at most max_dim, sorted by
    (dimension, label).

    A weight is grown as the multiset of its fundamental weights, a_i copies
    of the i-th for its Dynkin labels a_i = parts[i - 1] - parts[i].  The
    dimension is nondecreasing in each a_i (each factor of Weyl's formula
    grows along the fundamental weights), so once a weight exceeds max_dim,
    so does every weight that adds fundamental weights to it.  (In partition
    coordinates no such pruning is sound: the dimension is not monotone in
    the later parts.)
    """
    if max_dim < 1:
        raise ValueError("dimension bound must be >= 1")
    fundamentals = [Weight(n, (1,) * i + (0,) * (n - i)) for i in range(1, n)]

    def summed(ms: WeightMultiset) -> Weight:
        return Weight(n, tuple(sum(m * w.parts[j] for w, m in ms.entries) for j in range(n)))

    grown = _grown(n, fundamentals, lambda ms: weyl_dim(summed(ms)) <= max_dim)
    found = [Weight(n, (0,) * n)] + [summed(ms) for ms in grown]
    return sorted(found, key=lambda w: (weyl_dim(w), w.parts))


def _fitting_subs(labels, factor: Weight, inner, caps=()):
    """Every nonempty sub-multiset s of `labels` ((label, mult) pairs sorted
    by label) with `inner` contained in s (x) (irrep factor), as
    `WeightMultiset` entries in `sub_entries` order.

    With `inner` fixed the test is linear in the count vector c of s: for
    each (w, m) of `inner`, sum_j c_j * mult(w in labels_j (x) factor) >= m,
    the sum `tensor_counts` would form for w.  Those columns are built once.
    `caps` are (column, bound) pairs that c must keep at or below bound."""
    prods = [dict(lr_decompose(u, factor).entries) for u, _ in labels]
    needs = [([p.get(w, 0) for p in prods], m) for w, m in inner]
    for counts in itertools.islice(count_vectors(labels), 1, None):
        if any(sum(map(mul, counts, col)) > bound for col, bound in caps):
            continue
        if all(sum(map(mul, counts, col)) >= m for col, m in needs):
            yield tuple((w, c) for (w, _), c in zip(labels, counts) if c)


def _cap(name: str, value: int | None, least: int, clause_bound: int) -> int:
    """The requested cap, or the clause bound when none is given; a cap
    below `least` or beyond the clause bound is refused."""
    if value is None:
        return clause_bound
    if value < least:
        raise ValueError(f"cap violated: {name} {value} is below {least}")
    if value > clause_bound:
        raise ValueError(f"cap violated: {name} {value} exceeds the clause bound {clause_bound}")
    return value


def enumerate_exceptional_candidates(
    n: int,
    max_trivials: int | None = None,
    max_dim_s: int | None = None,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> list[CatalogEntry]:
    """All (Q, S) candidate pairs admitted by the finiteness clauses, each
    with the rationality verdict of the W = 0 instance attached and the
    clause that admits it as its trigger, sorted by (Q, S).

    Caps cannot exceed the clause thresholds (n^2 - 2 trivial summands,
    n^2 + 2n - 1 for dim S); asking for more is refused since nothing
    beyond them is finite.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    if n > 4:
        raise ValueError(f"enumeration cap: rank must be at most 4, got {n}")
    trivial_cap = _cap("max_trivials", max_trivials, 0, n * n - 2)
    dim_s_cap = _cap("max_dim_s", max_dim_s, 1, n * n + 2 * n - 1)

    base = rank_labels(n)
    triv, std, dstd = base.triv, base.std, base.dstd
    no_w = WeightMultiset.of(n, [])
    entries: list[CatalogEntry] = []

    def admit(q: WeightMultiset, s: WeightMultiset, trigger: str):
        """Record a pair that passed both containments, so the decision does
        not check them again."""
        verdict = _decide(TwoStepExtension(n, s, q, no_w), seed, trials)
        entries.append(CatalogEntry(n, s, q, trigger, verdict))

    # clause (i): the bad quotients under the trivial cap, grown over the bad
    # labels, the trivial one first; badness passes to sub-multisets and a
    # quotient is classified as its nontrivial part is, so all are found.  S
    # is drawn from Q (x) standard, so only Q inside S (x) dual standard is
    # open, and S is capped only when a cap is asked for
    bad_qs = _grown(n, sorted(bad_list(n)), lambda q: q.count(triv) <= trivial_cap
                    and classify(q, seed=seed, trials=trials) == BAD)
    for q in bad_qs:
        labels = sorted(tensor_counts(q.entries, std).items())
        caps = [] if max_dim_s is None else [([weyl_dim(w) for w, _ in labels], max_dim_s)]
        for s in _fitting_subs(labels, dstd, q.entries, caps):
            admit(q, WeightMultiset(n, s), TRIGGER_BAD_Q)

    # clause (ii): small submodules, over multisets of small irreducibles;
    # Q runs over sub-multisets of S (x) dual standard, so only S inside
    # Q (x) standard is open.  Clause (i) already admits every pair whose Q
    # is bad, under the same caps, so this clause admits only the rest
    bad_entries = {q.entries for q in bad_qs}
    for s in _grown(n, irreps_up_to_dim(n, dim_s_cap), lambda s: s.dim() <= dim_s_cap):
        labels = sorted(tensor_counts(s.entries, dstd).items())
        # the trivial label sorts first
        caps = [([1] + [0] * (len(labels) - 1), trivial_cap)] if labels[0][0] == triv else []
        for q in _fitting_subs(labels, std, s.entries, caps):
            if q not in bad_entries:
                admit(WeightMultiset(n, q), s, TRIGGER_SMALL_S)

    entries.sort(key=lambda e: (e.Q.entries, e.S.entries))
    return entries
