"""Finite catalog of exceptional two-step candidates.

The finiteness clauses bound the search: either the quotient Q is a bad sum
(with fewer than n^2 - 1 trivial summands), or the submodule S is small
(dim S < n^2 + 2n).  Pairs must satisfy the structural containments both
ways; each regime draws one side from a product with the other (S from
Q (x) C^n, or Q from S (x) dual C^n), so only the other containment is
tested.  Enumeration order is canonical, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .config import DEFAULT_SEED, DEFAULT_TRIALS
from .repclass import BAD, bad_list, classify
from .rationality import TwoStepExtension, Verdict, decide_rationality
from .schur import (
    Weight,
    WeightMultiset,
    dual,
    multiset_fits_in_product,
    normalize,
    sub_entries,
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

    Complete because the highest-root string forces dim >= first part + 1,
    so first parts beyond max_dim - 1 cannot occur; the sweep below is
    exhaustive under that cap.  (The dimension is not monotone in the later
    parts, so no further pruning is sound.)
    """
    if max_dim < 1:
        raise ValueError("dimension bound must be >= 1")
    cap = max_dim - 1
    found: list[Weight] = []

    def rec(prefix: list[int]):
        if len(prefix) == n - 1:
            w = Weight(n, tuple(prefix) + (0,))
            if weyl_dim(w) <= max_dim:
                found.append(w)
            return
        hi = prefix[-1] if prefix else cap
        for v in range(hi + 1):
            rec(prefix + [v])

    if n == 1:
        return [Weight(1, (0,))]
    rec([])
    return sorted(found, key=lambda w: (weyl_dim(w), w.parts))


def _nonempty_subs(product: dict[Weight, int]):
    """Every nonempty sub-multiset of a product, as `WeightMultiset` entries
    from count vectors over its sorted labels; `sub_entries` yields the
    empty one first."""
    return itertools.islice(sub_entries(sorted(product.items())), 1, None)


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

    triv = normalize(n, [])
    std = normalize(n, [1])
    dstd = dual(std)
    no_w = WeightMultiset.of(n, [])
    entries: dict[tuple, CatalogEntry] = {}

    def admit(q: WeightMultiset, s: WeightMultiset, trigger: str):
        """Record a pair that passed both containments; the first clause to
        produce a pair sets its trigger."""
        key = (q.entries, s.entries)
        if key in entries:
            return
        ext = TwoStepExtension(n, s, q, no_w)
        verdict = decide_rationality(ext, seed=seed, trials=trials)
        entries[key] = CatalogEntry(n, s, q, trigger, verdict)

    # clause (i): bad quotients, trivial padding below the threshold; S is
    # drawn from Q (x) standard, so only Q inside S (x) dual standard is open
    def bad_quotients():
        for core in _bad_cores(n, seed, trials):
            for t in range(trivial_cap + 1):
                yield core.add(WeightMultiset.of(n, [(triv, t)])) if t else core
        # pure-trivial quotients are bad as well
        for t in range(1, trivial_cap + 1):
            yield WeightMultiset.of(n, [(triv, t)])

    for q in bad_quotients():
        for s in _nonempty_subs(tensor_counts(q.entries, std)):
            if max_dim_s is not None and sum(m * weyl_dim(w) for w, m in s) > max_dim_s:
                continue
            if multiset_fits_in_product(q.entries, s, dstd):
                admit(q, WeightMultiset(n, s), TRIGGER_BAD_Q)

    # clause (ii): small submodules; Q runs over sub-multisets of
    # S (x) dual standard, so only S inside Q (x) standard is open, and S
    # over small multisets of small irreducibles
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
        for q in _nonempty_subs(tensor_counts(s.entries, dstd)):
            # the trivial label sorts first
            if q[0][0] == triv and q[0][1] > trivial_cap:
                continue
            if multiset_fits_in_product(s.entries, q, std):
                qm = WeightMultiset(n, q)
                bad = classify(qm, seed=seed, trials=trials) == BAD
                admit(qm, s, TRIGGER_BAD_Q if bad else TRIGGER_SMALL_S)

    out = sorted(entries.values(), key=lambda e: (e.Q.entries, e.S.entries))
    return out
