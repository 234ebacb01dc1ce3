"""Good/bad classification of SL_n-representations.

The known list of irreducible representations on which no quotient of SL_n
acts generically freely is combined with a Lie-algebra stabilizer engine:
exact kernel ranks of the infinitesimal action at random integer points.
A zero kernel certifies a finite generic stabilizer, which is reported as
`GoodHeuristic` rather than `Good` because a finite stabilizer at the Lie
level does not exclude a finite non-central one at the group level.
The engine runs on the exact matrix models of the irreducibles that
`matmodel.model_for_weight` builds; this module only classifies.

At ranks 2 to `config.MAX_CATALOG_RANK` the engine's answers on the bad
family are tabulated.  A multiset of nontrivial bad labels is a bad core
when its generic stabilizer has positive dimension; a sub-multiset of a
bad core is one too (its image rows at a point are among the core's), so
the bad cores form a down-set, given by its maximal members, the bad
frontier (`bad_frontier`).  `classify` answers from it with no point
drawn: `Bad` inside its down-closure (`bad_cores`), `GoodHeuristic`
outside.  The table is the engine's: each frontier member is engine-`Bad`,
and each border multiset (a minimal one outside the down-closure) has an
engine point where the action has full rank.  Every multiset outside holds
a border multiset, whose full-rank point extends to it (rank is lower
semicontinuous), so a tabled `GoodHeuristic` is as exact as the engine's;
a tabled `Bad` lies under a frontier member and is as trusted as the
engine's `Bad` there.  The tests rebuild the table from the engine.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from math import lcm

from .config import (COORD_BOUND, DEFAULT_SEED, DEFAULT_TRIALS, MAX_STABILIZER_WORK,
                     ResourceCapError)
from .linalg import integer_rank
from .matmodel import model_for_weight, sl_basis_keys
from .schur import (Weight, WeightMultiset, by_dimension, core_entries, dual, rank_labels,
                    weyl_dim)

GOOD = "Good"
BAD = "Bad"
GOOD_HEURISTIC = "GoodHeuristic"


class StabilizerReport(namedtuple("StabilizerReport", "stab_dim trials seed")):
    __slots__ = ()


# asked once per classification; one entry per rank
@lru_cache(maxsize=16)
def bad_list(n: int) -> frozenset[Weight]:
    """Canonical labels of the irreducible representations in the known bad
    family: the named labels of the rank (`schur.rank_labels`) and their
    duals, deduplicated after normalization."""
    labels = rank_labels(n)
    return frozenset(labels + tuple(dual(w) for w in labels))


# the bad frontier at ranks 2 to config.MAX_CATALOG_RANK: one count vector
# per maximal bad core, a digit per nontrivial bad label in sorted order,
# as the engine finds them at the default seed and trials
# (tests/frontier_reference.py rebuilds them)
_BAD_FRONTIER = {
    2: "01 10",
    3: "00010 01001 01100 10001 10100 12000 21000",
    4: "000010 002001 002100 010001 010100 013000 021000 040000 101001 101100 "
       "112000 120000 200001 200100 203000 211000 302000 310000",
    5: "0000010 0003001 0003100 0010001 0010100 0014000 0021000 0100001 0100100 "
       "0111000 0201000 1002001 1002100 1013000 1020000 1103000 1110000 1200000 "
       "2001001 2001100 2012000 2102000 3000001 3000100 3004000 3011000 3101000 "
       "4003000 4100000",
    6: "0000010 0004001 0004100 0010001 0010100 0015000 0021000 0030000 0100001 "
       "0100100 0105000 0111000 0120000 0201000 0210000 0300000 1003001 1003100 "
       "1014000 1020000 1104000 1110000 1200000 2002001 2002100 2013000 2103000 "
       "3001001 3001100 3012000 3102000 4000001 4000100 4005000 4011000 4101000 "
       "5004000 5010000 5100000",
    7: "0000010 0005001 0005100 0010001 0010100 0016000 0021000 0100001 0100100 "
       "0111000 0201000 1004001 1004100 1015000 1020000 1105000 1110000 1200000 "
       "2003001 2003100 2014000 2104000 3002001 3002100 3013000 3103000 4001001 "
       "4001100 4012000 4102000 5000001 5000100 5006000 5011000 5101000 6005000 "
       "6100000",
}


def bad_frontier(n: int) -> list[tuple]:
    """The maximal bad cores at rank n, 2 to config.MAX_CATALOG_RANK, as
    `WeightMultiset` entries tuples in the table's order; any other rank is
    refused."""
    if n not in _BAD_FRONTIER:
        raise ValueError(f"no bad frontier is tabulated at rank {n}; "
                         f"the table covers ranks {', '.join(map(str, sorted(_BAD_FRONTIER)))}")
    labels = sorted(w for w in bad_list(n) if not w.is_trivial())
    return [tuple((w, int(c)) for w, c in zip(labels, vector) if c != "0")
            for vector in _BAD_FRONTIER[n].split()]


# one entry per rank; built once, asked by every classification there
@lru_cache(maxsize=16)
def bad_cores(n: int) -> frozenset[tuple]:
    """The down-closure of the bad frontier at rank n: every multiset of
    nontrivial bad labels under a frontier member, the empty one included,
    as `WeightMultiset` entries tuples."""
    return frozenset(sub.entries for top in bad_frontier(n)
                     for sub, _ in by_dimension(WeightMultiset(n, top)))


# one entry per label the stabilizer draws: `classify`, `check2step` above
# rank 7 and `selftest` send it a handful; the bound caps memory
@lru_cache(maxsize=128)
def _integer_gens(n: int, parts: tuple[int, ...]):
    """(dim, gens): the model's dimension and its generators in sl_basis_keys
    order, each as flat (row, col, value) integer triples, all scaled by one
    common denominator.  A nonzero scalar on a summand's block of coordinates
    does not change the rank of the stacked action, so the kernel is
    unchanged."""
    m = model_for_weight(n, parts)
    gens = [m.sl_gens[k] for k in sl_basis_keys(n)]
    denom = 1
    for g in gens:
        for col in g.cols.values():
            for v in col.values():
                denom = lcm(denom, v.denominator)
    return m.dim, tuple(
        tuple(
            (r, c, v.numerator * (denom // v.denominator))
            for c, col in g.cols.items() for r, v in col.items()
        )
        for g in gens
    )


def _image_rows(models, rng):
    """The images X.v of the sl_n basis elements X, transposed: one row of
    length n^2 - 1 per coordinate of V, summand copy by summand copy.  Each
    copy's coordinates v are drawn from `rng`, in coordinate order, just
    before its rows, so a consumer that stops early leaves the later copies
    undrawn."""
    for dim, gens in models:
        pt = [rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(dim)]
        imgs = []
        for gen in gens:
            img = [0] * dim
            for r, c, a in gen:
                img[r] += a * pt[c]
            imgs.append(img)
        yield from zip(*imgs)


def stabilizer_dimension(
    rep: WeightMultiset,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> StabilizerReport:
    """Minimum over trials of dim{X in sl_n : X.v = 0} at random integer
    points v with coordinates in [-COORD_BOUND, COORD_BOUND], by exact
    rank.  0 certifies a finite generic stabilizer.

    Only the nontrivial summands count: sl_n kills a trivial one, so its
    copies add nothing to the stabilizer and none of their coordinates is
    drawn.  Of each nontrivial label at most n^2 - 1 copies count: if one
    more copy of a label leaves the generic stabilizer h unchanged, then h
    kills a generic vector of that label, hence the whole summand, and no
    later copy changes h; the dimension can drop at most n^2 - 1 times, so
    further copies cannot lower it.

    The trials draw from one generator seeded with `seed`, each the
    coordinates of the counted copies in summand order, a copy's just
    before its rows.  The rank of the images X.v over the basis of sl_n is
    an exact integer rank of their transpose, fed one summand copy at a time
    and stopped at full rank n^2 - 1, which leaves the later copies of that
    trial undrawn.  The rank is at most the number of rows, one per
    coordinate of a counted copy, so no trial can go below
    max(0, n^2 - 1 - that number); the trials stop once the minimum reaches
    it.  Both stops end the call, and the generator is local to it, so every
    trial that can lower the minimum sees the points it would see if each
    trial drew all of its coordinates; the report keeps the requested
    `trials`."""
    n = rep.n
    nkeys = n * n - 1
    counted = [(w, min(mult, nkeys)) for w, mult in rep.entries if not w.is_trivial()]
    # the work of the eliminations, trials x rows x (n^2 - 1) x rank, is
    # bounded before any model is built; a first pass at n rows per copy,
    # the least any nontrivial label has, refuses a large rank before its
    # Weyl dimensions (O(n^2) products each) are computed
    for dim in (lambda w: n, weyl_dim):
        rows = sum(mult * dim(w) for w, mult in counted)
        work = trials * rows * nkeys * min(rows, nkeys)
        if work > MAX_STABILIZER_WORK:
            raise ResourceCapError("max_stabilizer_work", work, MAX_STABILIZER_WORK)
    models = []
    for w, mult in counted:
        models.extend([_integer_gens(n, w.parts)] * mult)
    floor = max(0, nkeys - rows)
    rng = random.Random(seed)
    best = None
    for _ in range(trials):
        stab = nkeys - integer_rank(_image_rows(models, rng), stop_at=nkeys)
        best = stab if best is None else min(best, stab)
        if best == floor:
            break
    return StabilizerReport(stab_dim=best, trials=trials, seed=seed)


# above the tabulated ranks, holds what one decision asks again: the
# freeness gate's Q, asked again as the split W2 = 0, and Q's core, asked
# again for a Q + W2 that adds only trivials.  A larger bound only kept one
# entry per call across requests, whose seeds differ
@lru_cache(maxsize=16)
def classify_with_report(
    rep: WeightMultiset,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
):
    """(classification, StabilizerReport or None), from the engine at
    every rank.

    A summand outside the bad family makes the whole sum good outright.
    Otherwise the stabilizer engine decides: positive kernel dimension means
    no isogenous group can act generically freely; a zero kernel is reported
    as GoodHeuristic (see module docstring).  Trivial summands change
    neither (the engine skips them), so a `rep` with trivial summands gets
    the answer of its nontrivial part, its core, and only the core reaches
    the engine.  The last few answers are memoized (all inputs are
    immutable), enough for one decision's repeats; no answer depends on
    what the memo holds.
    """
    core = core_entries(rep.entries)
    if core != rep.entries:
        return classify_with_report(WeightMultiset(rep.n, core), seed, trials)
    bad = bad_list(rep.n)
    if any(w not in bad for w, _ in core):
        return GOOD, None
    report = stabilizer_dimension(rep, seed=seed, trials=trials)
    return (BAD if report.stab_dim > 0 else GOOD_HEURISTIC), report


def classify(rep: WeightMultiset, seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> str:
    """The class of `rep`, with no report.

    A summand outside the bad family gives `Good`.  At a tabulated rank
    (2 to config.MAX_CATALOG_RANK) the nontrivial part is then `Bad` when
    it is a bad core (`bad_cores`) and `GoodHeuristic` when not, with no
    point drawn, so `seed` and `trials` are unused there.  A tabled
    `GoodHeuristic` is exact: every border multiset of the table has an
    engine full-rank point, and the multiset holds one.  A tabled `Bad`
    is as trusted as the engine's `Bad` on the frontier member above it.
    So the answer can differ from the engine's at this seed only where
    the engine's points would all miss a full-rank point (module
    docstring).  Above the tabulated ranks the engine answers."""
    core = core_entries(rep.entries)
    bad = bad_list(rep.n)
    if any(w not in bad for w, _ in core):
        return GOOD
    if rep.n in _BAD_FRONTIER:
        return BAD if core in bad_cores(rep.n) else GOOD_HEURISTIC
    return classify_with_report(rep, seed, trials)[0]
