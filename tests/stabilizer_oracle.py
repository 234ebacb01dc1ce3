"""Reference for the stabilizer engine, by rational elimination.

The same random points as `affrep.repclass.stabilizer_dimension` (the same
`randint` calls in the same order: no trivial summand copies, and at most
n^2 - 1 copies of each label), applied with the rational model matrices and
ranked by inserting the stacked images into an `Echelon`.  Every trial draws
all of its coordinates up front and every requested trial runs, so a draw
that the engine's early stops moved would show as a different answer.
Independent of the integer path, which tests compare against it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from affrep.config import COORD_BOUND, DEFAULT_SEED, DEFAULT_TRIALS
from affrep.linalg import Echelon, Vec
from affrep.matmodel import AffMatrixRep, model_for_weight, sl_basis_keys
from affrep.schur import WeightMultiset


def stabilizer_dimension(
    rep: WeightMultiset,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    coord_bound: int = COORD_BOUND,
) -> int:
    """Minimum over trials of dim{X in sl_n : X.v = 0}."""
    n = rep.n
    keys = sl_basis_keys(n)
    models: list[AffMatrixRep] = []
    for w, mult in rep.entries:
        if not w.is_trivial():
            models.extend([model_for_weight(n, w.parts)] * min(mult, len(keys)))
    rng = random.Random(seed)
    best = None
    for _ in range(trials):
        points = [
            {i: Fraction(rng.randint(-coord_bound, coord_bound)) for i in range(m.dim)}
            for m in models
        ]
        points = [{i: v for i, v in pt.items() if v} for pt in points]
        ech = Echelon()
        r = 0
        for key in keys:
            stacked: Vec = {}
            offset = 0
            for m, pt in zip(models, points):
                img = m.sl_gens[key].apply(pt)
                for i, v in img.items():
                    stacked[offset + i] = v
                offset += m.dim
            if ech.insert(stacked) is not None:
                r += 1
        stab = len(keys) - r
        best = stab if best is None else min(best, stab)
    return best
