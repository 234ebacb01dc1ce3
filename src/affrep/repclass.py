"""Good/bad classification of SL_n-representations.

The known list of irreducible representations on which no quotient of SL_n
acts generically freely is combined with a Lie-algebra stabilizer engine:
exact kernel ranks of the infinitesimal action at random integer points.
A zero kernel certifies a finite generic stabilizer, which is reported as
`GoodHeuristic` rather than `Good` because a finite stabilizer at the Lie
level does not exclude a finite non-central one at the group level.
The engine runs on the exact matrix models of the irreducibles that
`matmodel.model_for_weight` builds; this module only classifies.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import lcm

from .config import (COORD_BOUND, DEFAULT_SEED, DEFAULT_TRIALS, MAX_STABILIZER_WORK,
                     ResourceCapError)
from .linalg import integer_rank
from .matmodel import model_for_weight, sl_basis_keys
from .schur import Value, Weight, WeightMultiset, dual, normalize, weyl_dim

GOOD = "Good"
BAD = "Bad"
GOOD_HEURISTIC = "GoodHeuristic"


class StabilizerReport(Value):
    __slots__ = ("stab_dim", "trials", "seed")

    def __init__(self, stab_dim: int, trials: int, seed: int):
        self.stab_dim = stab_dim
        self.trials = trials
        self.seed = seed

    def __hash__(self) -> int:
        return hash(self._fields())


# asked once per classification; one entry per rank
@lru_cache(maxsize=16)
def bad_list(n: int) -> frozenset[Weight]:
    """Canonical labels of the irreducible representations in the known bad
    family: exterior square, symmetric square, standard, trivial, the
    traceless adjoint, and all duals (deduplicated after normalization)."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    base = [
        normalize(n, [1, 1]),            # exterior square
        normalize(n, [2]),               # symmetric square
        normalize(n, [1]),               # standard
        normalize(n, []),                # trivial
        normalize(n, [2] + [1] * (n - 2)),  # traceless adjoint
    ]
    return frozenset(base + [dual(w) for w in base])


# one entry per label the stabilizer draws (6 in the rank-4 catalog); the
# bound caps memory
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


def nontrivial_part(rep: WeightMultiset) -> WeightMultiset:
    """`rep` without its trivial summand, which is its first entry when
    present (the trivial label sorts first); `rep` itself when it has none."""
    if rep.entries and rep.entries[0][0].is_trivial():
        return WeightMultiset(rep.n, rep.entries[1:])
    return rep


# the rank-4 catalog classifies 9,117 distinct multisets
@lru_cache(maxsize=16384)
def classify_with_report(
    rep: WeightMultiset,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
):
    """(classification, StabilizerReport or None).

    A summand outside the bad family makes the whole sum good outright.
    Otherwise the stabilizer engine decides: positive kernel dimension means
    no isogenous group can act generically freely; a zero kernel is reported
    as GoodHeuristic (see module docstring).  Trivial summands change
    neither (the engine skips them), so a `rep` with trivial summands gets
    the memoized answer of its nontrivial part.  Results are memoized; all
    inputs are immutable.
    """
    core = nontrivial_part(rep)
    if core != rep:
        return classify_with_report(core, seed, trials)
    bad = bad_list(rep.n)
    if any(w not in bad for w in rep.weights()):
        return GOOD, None
    report = stabilizer_dimension(rep, seed=seed, trials=trials)
    return (BAD if report.stab_dim > 0 else GOOD_HEURISTIC), report


def classify(rep: WeightMultiset, seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> str:
    return classify_with_report(rep, seed, trials)[0]
