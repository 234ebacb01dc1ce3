"""Finite catalog of exceptional two-step candidates.

The finiteness clauses bound the search: either the quotient Q is a bad sum
(with fewer than n^2 - 1 trivial summands), or the submodule S is small
(dim S < n^2 + 2n).  Pairs must satisfy the structural containments both
ways; each regime draws one side from a product with the other (S from
Q (x) C^n, or Q from S (x) dual C^n), so only the other containment is
tested, as integer dot products of each candidate's count vector with
columns built once per product.  Enumeration order is canonical, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .config import DEFAULT_SEED, DEFAULT_TRIALS
from .repclass import BAD, bad_list, classify, nontrivial_part
from .rationality import TwoStepExtension, Verdict, _decide, rank_labels
from .schur import (
    Weight,
    WeightMultiset,
    count_vectors,
    lr_decompose,
    tensor_counts,
    weyl_dim,
)

TRIGGER_BAD_Q = "Q-bad"
TRIGGER_SMALL_S = "dim-S-small"


@dataclass
class CatalogEntry:
    n: int
    S: WeightMultiset
    Q: WeightMultiset
    trigger: str
    verdict: Verdict


def irreps_up_to_dim(n: int, max_dim: int) -> list[Weight]:
    """All normalized weights of dimension at most max_dim, sorted by
    (dimension, label).

    The sweep runs over the Dynkin labels a_i = parts[i] - parts[i + 1].
    The dimension is nondecreasing in each a_i (each factor of Weyl's
    formula grows along the fundamental weights), so completing a prefix of
    labels with zeros gives the least dimension of any weight extending it:
    once that exceeds max_dim, so does every larger value of the prefix's
    last label, with any completion.  (In partition coordinates no such
    pruning is sound: the dimension is not monotone in the later parts.)
    """
    if max_dim < 1:
        raise ValueError("dimension bound must be >= 1")
    found: list[Weight] = []

    def weight(labels: list[int]) -> Weight:
        parts = [0] * n
        for i in range(len(labels) - 1, -1, -1):
            parts[i] = parts[i + 1] + labels[i]
        return Weight(n, tuple(parts))

    def rec(labels: list[int]):
        if len(labels) == n - 1:
            found.append(weight(labels))
            return
        a = 0
        while weyl_dim(weight(labels + [a])) <= max_dim:
            rec(labels + [a])
            a += 1

    rec([])
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


def _bad_cores(n: int, seed: int, trials: int) -> list[WeightMultiset]:
    """Multisets over the nontrivial bad labels that the stabilizer engine
    still classifies as bad.  Monotone pruning: once a multiset is no longer
    bad, no extension of it is."""
    labels = sorted(w for w in bad_list(n) if not w.is_trivial())
    cores: list[WeightMultiset] = []
    seen: set = set()

    def rec(ms: WeightMultiset):
        if ms.entries in seen:
            return
        seen.add(ms.entries)
        if not ms.is_empty():
            if classify(ms, seed=seed, trials=trials) != BAD:
                return
            cores.append(ms)
        for w in labels:
            rec(ms.add(WeightMultiset.of(n, [w])))

    rec(WeightMultiset.of(n, []))
    cores.sort(key=lambda s: (s.dim(), s.entries))
    return cores


def enumerate_exceptional_candidates(
    n: int,
    max_trivials: int | None = None,
    max_dim_s: int | None = None,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> list[CatalogEntry]:
    """All (Q, S) candidate pairs admitted by the finiteness clauses, each
    with the rationality verdict of the W = 0 instance attached.

    Caps cannot exceed the clause thresholds (n^2 - 2 trivial summands,
    n^2 + 2n - 1 for dim S); asking for more is refused since nothing
    beyond them is finite.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    if n > 4:
        raise ValueError(f"enumeration cap: rank must be at most 4, got {n}")
    trivial_cap = n * n - 2
    dim_s_cap = n * n + 2 * n - 1
    if max_trivials is not None:
        if max_trivials < 0:
            raise ValueError(f"cap violated: max_trivials {max_trivials} is below 0")
        if max_trivials > trivial_cap:
            raise ValueError(
                f"cap violated: max_trivials {max_trivials} exceeds the clause bound {trivial_cap}"
            )
        trivial_cap = max_trivials
    if max_dim_s is not None:
        if max_dim_s < 1:
            raise ValueError(f"cap violated: max_dim_s {max_dim_s} is below 1")
        if max_dim_s > dim_s_cap:
            raise ValueError(
                f"cap violated: max_dim_s {max_dim_s} exceeds the clause bound {dim_s_cap}"
            )
        dim_s_cap_small = max_dim_s
    else:
        dim_s_cap_small = dim_s_cap

    triv, std, dstd = rank_labels(n)[:3]
    no_w = WeightMultiset.of(n, [])
    entries: dict[tuple, CatalogEntry] = {}

    def admit(q: WeightMultiset, s: WeightMultiset, trigger: str):
        """Record a pair that passed both containments (so the decision does
        not check them again); the first clause to produce a pair sets its
        trigger."""
        key = (q.entries, s.entries)
        if key in entries:
            return
        verdict = _decide(TwoStepExtension(n, s, q, no_w), seed, trials)
        entries[key] = CatalogEntry(n, s, q, trigger, verdict)

    cores = _bad_cores(n, seed, trials)

    # clause (i): bad quotients, trivial padding below the threshold; S is
    # drawn from Q (x) standard, so only Q inside S (x) dual standard is open
    def bad_quotients():
        for core in cores:
            for t in range(trivial_cap + 1):
                yield core.add(WeightMultiset.of(n, [(triv, t)])) if t else core
        # pure-trivial quotients are bad as well
        for t in range(1, trivial_cap + 1):
            yield WeightMultiset.of(n, [(triv, t)])

    for q in bad_quotients():
        labels = sorted(tensor_counts(q.entries, std).items())
        caps = [] if max_dim_s is None else [([weyl_dim(w) for w, _ in labels], max_dim_s)]
        for s in _fitting_subs(labels, dstd, q.entries, caps):
            admit(q, WeightMultiset(n, s), TRIGGER_BAD_Q)

    # clause (ii): small submodules; Q runs over sub-multisets of
    # S (x) dual standard, so only S inside Q (x) standard is open, and S
    # over small multisets of small irreducibles.  Q is classified as its
    # nontrivial part is, and that part is bad when it is empty or a bad
    # core.  The cores are every bad multiset over the nontrivial labels
    # whenever badness passes to sub-multisets, as it does generically (a
    # summand can only shrink the stabilizer)
    bad_cores = {core.entries for core in cores}
    universe = irreps_up_to_dim(n, dim_s_cap_small)

    def s_multisets(i: int, dim_left: int, acc: list):
        if i == len(universe):
            yield WeightMultiset.of(n, list(acc))
            return
        w = universe[i]
        d = weyl_dim(w)
        for m in range(dim_left // d + 1):
            if m:
                acc.append((w, m))
            yield from s_multisets(i + 1, dim_left - m * d, acc)
            if m:
                acc.pop()

    for s in s_multisets(0, dim_s_cap_small, []):
        if s.is_empty():
            continue
        labels = sorted(tensor_counts(s.entries, dstd).items())
        # the trivial label sorts first
        caps = [([1] + [0] * (len(labels) - 1), trivial_cap)] if labels[0][0] == triv else []
        for q in _fitting_subs(labels, std, s.entries, caps):
            qm = WeightMultiset(n, q)
            core = nontrivial_part(qm).entries
            bad = not core or core in bad_cores
            admit(qm, s, TRIGGER_BAD_Q if bad else TRIGGER_SMALL_S)

    out = sorted(entries.values(), key=lambda e: (e.Q.entries, e.S.entries))
    return out
