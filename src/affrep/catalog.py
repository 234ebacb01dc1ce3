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

The class of each admitted Q is fixed when it is admitted, and only the
bad sweep asks the engine.  Clause (i)'s quotients are Bad: they are the
grown set.  A clause (ii) Q with a label outside the bad family is Good.
Any other clause (ii) Q is not in the grown set, so `keep` rejected one of
its canonical prefixes P; P holds no more trivials than Q, which is under
the cap, so the engine found a full-rank point p of P.  The image rows of
Q = P + R at (p, r) contain those of P at p, so Q too has a finite generic
stabilizer (rank is lower semicontinuous): it is GoodHeuristic with no
draw of its own.  An entry keeps only that class; its verdict is decided
from its fields when it is read, and no engine call remains by then.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import mul

from .config import DEFAULT_SEED, DEFAULT_TRIALS
from .repclass import BAD, GOOD, GOOD_HEURISTIC, bad_list, classify
from .rationality import TwoStepExtension, Verdict, _decide, rank_labels
from .schur import (
    Weight,
    WeightMultiset,
    lr_decompose,
    tensor_counts,
    weyl_dim,
)

TRIGGER_BAD_Q = "Q-bad"
TRIGGER_SMALL_S = "dim-S-small"


class CatalogEntry(namedtuple("CatalogEntry", "n S Q trigger q_class seed trials")):
    """A candidate pair, the clause that admits it, and the class of its Q
    as the catalog established it under `seed` and `trials`."""

    __slots__ = ()
    __hash__ = None

    @property
    def verdict(self) -> Verdict:
        """The rationality verdict of the W = 0 instance, decided afresh on
        each read from the fields alone; it makes no engine call."""
        ext = TwoStepExtension(self.n, self.S, self.Q, WeightMultiset(self.n, ()))
        return _decide(ext, self.seed, self.trials, self.q_class)


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


def _fitting_subs(labels, factor: Weight, inner, caps=()) -> list[tuple]:
    """The list of every nonempty sub-multiset s of `labels` ((label, mult)
    pairs sorted by label) with `inner` contained in s (x) (irrep factor),
    as `WeightMultiset` entries in lexicographic order of the count vectors.

    With `inner` fixed the test is linear in the count vector c of s: for
    each (w, m) of `inner`, sum_j c_j * mult(w in labels_j (x) factor) >= m,
    the sum `tensor_counts` would form for w.  Those columns are built once.
    `caps` are (column, bound) pairs that c must keep at or below bound.

    The count vectors are walked depth first, one coordinate at a time in
    lexicographic order.  At coordinate i the values that can still fit
    form one range: at least the shortfall of each need, less the most the
    later coordinates can add (their mult times column entry), over its
    entry; at most the multiplicity and each cap's room over its entry.
    The needs hold on an up-set and the caps on a down-set, so every
    vector the walk completes fits, and none is tested."""
    prods = [dict(lr_decompose(u, factor).entries) for u, _ in labels]
    mults = [m for _, m in labels]
    # each need's column, and reach[i]: the most coordinates i and later add
    needs = []
    for w, _ in inner:
        col = [p.get(w, 0) for p in prods]
        reach = list(itertools.accumulate(map(mul, reversed(mults), reversed(col)), initial=0))
        needs.append((col, reach[::-1]))
    found = []
    last = len(labels) - 1

    def walk(i, prefix, short, room):
        w, hi = labels[i]
        lo = 0
        for (col, reach), gap in zip(needs, short):
            gap -= reach[i + 1]
            if gap > 0:
                if not col[i]:
                    return
                lo = max(lo, -(-gap // col[i]))
        for (col, _), r in zip(caps, room):
            if col[i]:
                hi = min(hi, r // col[i])
        for c in range(lo, hi + 1):
            sub = prefix + ((w, c),) if c else prefix
            if i == last:
                found.append(sub)
            else:
                walk(i + 1, sub, [s - c * col[i] for (col, _), s in zip(needs, short)],
                     [r - c * col[i] for (col, _), r in zip(caps, room)])

    if labels:
        walk(0, (), [m for _, m in inner], [bound for _, bound in caps])
    # the empty vector comes first when it fits (an empty `inner`)
    return found[1:] if found and not found[0] else found


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
    with the clause that admits it as its trigger and the class of its Q
    (from which the verdict of the W = 0 instance is decided when it is
    read), sorted by (Q, S).

    Caps cannot exceed the clause thresholds (n^2 - 2 trivial summands,
    n^2 + 2n - 1 for dim S); asking for more is refused since nothing
    beyond them is finite.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    if n > 5:
        raise ValueError(f"enumeration cap: rank must be at most 5, got {n}")
    trivial_cap = _cap("max_trivials", max_trivials, 0, n * n - 2)
    dim_s_cap = _cap("max_dim_s", max_dim_s, 1, n * n + 2 * n - 1)

    base = rank_labels(n)
    triv, std, dstd = base.triv, base.std, base.dstd
    bad = bad_list(n)
    entries: list[CatalogEntry] = []
    # clause (i): the bad quotients under the trivial cap, grown over the bad
    # labels, the trivial one first; badness passes to sub-multisets and a
    # quotient is classified as its nontrivial part is, so all are found.  S
    # is drawn from Q (x) standard, so only Q inside S (x) dual standard is
    # open, and S is capped only when a cap is asked for
    bad_qs = _grown(n, sorted(bad), lambda q: q.count(triv) <= trivial_cap
                    and classify(q, seed=seed, trials=trials) == BAD)
    for q in bad_qs:
        labels = sorted(tensor_counts(q.entries, std).items())
        caps = [] if max_dim_s is None else [([weyl_dim(w) for w, _ in labels], max_dim_s)]
        for s in _fitting_subs(labels, dstd, q.entries, caps):
            entries.append(CatalogEntry(n, WeightMultiset(n, s), q, TRIGGER_BAD_Q, BAD,
                                        seed, trials))

    # clause (ii): small submodules, over multisets of small irreducibles;
    # Q runs over sub-multisets of S (x) dual standard, so only S inside
    # Q (x) standard is open.  Clause (i) already admits every pair whose Q
    # is bad, under the same caps, so this clause admits only the rest, whose
    # class the grown set certifies (module docstring)
    bad_entries = {q.entries for q in bad_qs}
    for s in _grown(n, irreps_up_to_dim(n, dim_s_cap), lambda s: s.dim() <= dim_s_cap):
        labels = sorted(tensor_counts(s.entries, dstd).items())
        # the trivial label sorts first
        caps = [([1] + [0] * (len(labels) - 1), trivial_cap)] if labels[0][0] == triv else []
        for q in _fitting_subs(labels, std, s.entries, caps):
            if q not in bad_entries:
                q_class = GOOD_HEURISTIC if all(w in bad for w, _ in q) else GOOD
                entries.append(CatalogEntry(n, s, WeightMultiset(n, q), TRIGGER_SMALL_S, q_class,
                                            seed, trials))

    entries.sort(key=lambda e: (e.Q.entries, e.S.entries))
    return entries
