"""Socle and radical filtrations of affine-group matrix models.

The ascending chain takes maximal completely reducible subrepresentations of
successive quotients; since the translations act trivially on any completely
reducible piece and the translation subgroup is normal, that submodule is
exactly the common kernel of the translation generators.  The descending
construction iterates sums of translation images instead.  Both are computed
by exact sparse elimination with a fixed pivot rule, so chains are
bit-reproducible, and every chain vector is a torus weight vector, which
reduces layer identification to character bookkeeping.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .linalg import Echelon, Vec, common_kernel
from .matmodel import AffMatrixRep, dual_model, grading_rep
from .oracle import ssyt_contents
from .schur import Value, Weight, WeightMultiset, dual, multiset_fits_in_product, normalize

SOCLE = "socle"
RADICAL = "radical"


class Filtration(Value):
    """A chain of invariant subspaces with identified semisimple layers.

    snapshots[i] holds the basis rows added at step i, so the concatenation
    is a filtration-adapted basis and chain member i is spanned by
    snapshots[0..i].
    """

    __slots__ = ("rep", "kind", "snapshots", "layers")

    def __init__(self, rep: AffMatrixRep, kind: str, snapshots: list[list[Vec]],
                 layers: list[WeightMultiset]):
        self.rep = rep
        self.kind = kind
        self.snapshots = snapshots
        self.layers = layers

    @property
    def length(self) -> int:
        return len(self.snapshots) - 1

    def layer_sizes(self) -> list[int]:
        return [len(s) for s in self.snapshots]

    def chain_dims(self) -> list[int]:
        dims = []
        total = 0
        for s in self.snapshots:
            total += len(s)
            dims.append(total)
        return dims


def _layer_weight_counter(rep: AffMatrixRep, rows: list[Vec]) -> Counter:
    out: Counter = Counter()
    for row in rows:
        idx = min(row)
        out[grading_rep(rep.weight_grading[idx])] += 1
    return out


# one entry per layer label met; bounded for a long-running process
@lru_cache(maxsize=1024)
def _irrep_character(n: int, parts: tuple[int, ...]) -> Counter:
    """Weight multiset of the irreducible with the given normalized label,
    as canonical representatives modulo the diagonal."""
    out: Counter = Counter()
    for content in ssyt_contents(parts, n):
        out[grading_rep(content)] += 1
    return out


def decompose_character(n: int, char: Counter) -> WeightMultiset:
    """Write a character (multiset of normalized torus weights) as a sum of
    irreducible characters by peeling the lexicographically largest weight."""
    work = Counter({k: v for k, v in char.items() if v})
    found: list[tuple[Weight, int]] = []
    while work:
        lead = max(work)
        if any(a < b for a, b in zip(lead, lead[1:])) or lead[-1] != 0 or lead[0] < 0:
            raise ValueError(f"character has non-dominant leading weight {lead}")
        mult = work[lead]
        if mult < 0:
            raise ValueError(f"negative multiplicity at {lead}; grading is inconsistent")
        w = Weight(n, lead)
        for g, c in _irrep_character(n, lead).items():
            work[g] -= mult * c
            if not work[g]:
                del work[g]
        found.append((w, mult))
    return WeightMultiset.of(n, found)


def identify_layers(rep: AffMatrixRep, filtration: Filtration) -> list[WeightMultiset]:
    """Each layer's character, decomposed into irreducible labels."""
    return [decompose_character(rep.n, _layer_weight_counter(rep, step))
            for step in filtration.snapshots]


def socle_filtration(rep: AffMatrixRep) -> Filtration:
    """Ascending chain: each step adds the common kernel of the translation
    generators on the quotient by the previous member."""
    ech = Echelon()
    snapshots: list[list[Vec]] = []
    total = 0
    while total < rep.dim:
        # induced translation action on the quotient (non-pivot coordinates)
        coords = [c for c in range(rep.dim) if c not in ech.rows]
        kernel = common_kernel(rep.trans_gens, coords, ech)
        if not kernel:
            raise RuntimeError("socle of a nonzero quotient is zero; translations not nilpotent?")
        step_rows: list[Vec] = []
        for vec in kernel:
            p = ech.insert(vec)
            if p is not None:
                step_rows.append(dict(ech.rows[p]))
        snapshots.append(step_rows)
        total += len(step_rows)
    filt = Filtration(rep, SOCLE, snapshots, [])
    filt.layers = identify_layers(rep, filt)
    return filt


def radical_filtration(rep: AffMatrixRep) -> Filtration:
    """Descending construction, recorded ascending: member j is the span of
    all products of at least (length - j) translation generators."""
    # level 0 = whole space; level k+1 = sum of translation images of level k
    levels: list[list[Vec]] = [[{i: 1} for i in range(rep.dim)]]
    while True:
        ech = Echelon()
        rows: list[Vec] = []
        for b in levels[-1]:
            for t in rep.trans_gens:
                img = t.apply(b)
                if img:
                    p = ech.insert(img)
                    if p is not None:
                        rows.append(dict(ech.rows[p]))
        if not rows:
            break
        levels.append(rows)
    # assemble ascending nested snapshots: deepest level first
    ech = Echelon()
    snapshots = []
    for level_rows in reversed(levels):
        step: list[Vec] = []
        for vec in level_rows:
            p = ech.insert(vec)
            if p is not None:
                step.append(dict(ech.rows[p]))
        snapshots.append(step)
    filt = Filtration(rep, RADICAL, snapshots, [])
    filt.layers = identify_layers(rep, filt)
    return filt


def dual_multiset(ms: WeightMultiset) -> WeightMultiset:
    return WeightMultiset.of(ms.n, [(dual(w), m) for w, m in ms.entries])


def _require_socle(filtration: Filtration) -> None:
    if filtration.kind != SOCLE:
        raise ValueError(f"expected a socle filtration, got a {filtration.kind} one")


def _layers_fit(filtration: Filtration, i: int, j: int) -> bool:
    """Containment bound between layers i <= j: ascending chains satisfy
    Q_j inside Q_i (x) Sym^(j-i) of the dual standard, descending ones
    Q_i inside Q_j (x) Sym^(j-i) of the standard."""
    layers = filtration.layers
    factor = normalize(filtration.rep.n, [j - i])
    if filtration.kind == SOCLE:
        return multiset_fits_in_product(layers[j].entries, layers[i].entries, dual(factor))
    return multiset_fits_in_product(layers[i].entries, layers[j].entries, factor)


def check_duality(soc: Filtration) -> bool:
    """The radical layers of the dual model must be the duals of the socle
    layers of the model, in reversed order."""
    _require_socle(soc)
    rad = radical_filtration(dual_model(soc.rep))
    return rad.layers[::-1] == [dual_multiset(q) for q in soc.layers]


def check_blocks_containment(filtration: Filtration) -> bool:
    """The containment bound between every pair of layers i <= j."""
    l = filtration.length
    return all(_layers_fit(filtration, i, j) for i in range(l + 1) for j in range(i, l + 1))


def check_embedding_theorem(soc: Filtration) -> bool:
    """Character-level containment of the whole model in (bottom socle layer)
    tensor (degree <= l affine functions): the i = 0 row of the socle
    containment bounds, every layer j inside Q_0 tensor Sym^j of the dual
    standard."""
    _require_socle(soc)
    return all(_layers_fit(soc, 0, j) for j in range(soc.length + 1))
