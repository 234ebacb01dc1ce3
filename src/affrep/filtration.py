"""Socle and radical filtrations of affine-group matrix models.

The ascending chain takes maximal completely reducible subrepresentations of
successive quotients; since the translations act trivially on any completely
reducible piece and the translation subgroup is normal, that submodule is
exactly the common kernel of the translation generators.  The descending
construction iterates sums of translation images instead, one elimination
per level, and takes each layer's rows from that level's own echelon.  Both
are computed by exact sparse elimination with a fixed pivot rule, so chains
are bit-reproducible, and every chain vector is a torus weight vector, which
reduces layer identification to character bookkeeping.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .linalg import Echelon, Vec, common_kernel
from .matmodel import AffMatrixRep, dual_model
from .oracle import decompose_character
from .schur import WeightMultiset, dual, grading_rep, multiset_fits_in_product, normalize

SOCLE = "socle"
RADICAL = "radical"


class Filtration(namedtuple("Filtration", "rep kind snapshots layers")):
    """A chain of invariant subspaces with identified semisimple layers.

    snapshots[i] holds the basis rows added at step i, so the concatenation
    is a filtration-adapted basis and chain member i is spanned by
    snapshots[0..i].
    """

    __slots__ = ()
    __hash__ = None

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


def identify_layers(rep: AffMatrixRep, steps: list[list[Vec]]) -> list[WeightMultiset]:
    """The character of each step's rows (a filtration's snapshots),
    decomposed into irreducible labels."""
    return [decompose_character(rep.n, _layer_weight_counter(rep, step)) for step in steps]


def _insert_new(ech: Echelon, vecs) -> list[Vec]:
    """Insert each nonzero vector into `ech`; the rows it added, in order."""
    return [ech.rows[p] for p in map(ech.insert, filter(None, vecs)) if p is not None]


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
        step_rows = _insert_new(ech, kernel)
        snapshots.append(step_rows)
        total += len(step_rows)
    return Filtration(rep, SOCLE, snapshots, identify_layers(rep, snapshots))


def radical_filtration(rep: AffMatrixRep) -> Filtration:
    """Descending construction, recorded ascending: member j is the span of
    all products of at least (length - j) translation generators.  Level 0
    is the whole space and level k+1 the sum of the translation images of
    level k.  Level k+1 lies in level k, so its pivots are among level k's,
    and the rows of level k's echelon at the other pivots complement it (a
    row's least index is its pivot): they are level k's snapshot."""
    level = {i: {i: 1} for i in range(rep.dim)}  # pivot -> row
    snapshots: list[list[Vec]] = []
    while True:
        below = Echelon()
        for image in filter(None, (t.apply(row) for row in level.values() for t in rep.trans_gens)):
            below.insert(image)
        snapshots.append([row for p, row in level.items() if p not in below.rows])
        if not below.rows:
            break
        level = below.rows
    snapshots.reverse()
    return Filtration(rep, RADICAL, snapshots, identify_layers(rep, snapshots))


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
    rep = soc.rep
    # the radical filtration reads only the translations and the grading, so
    # the dual of the sl_n generators is not built
    rad = radical_filtration(dual_model(
        AffMatrixRep(rep.n, rep.dim, {}, rep.trans_gens, rep.weight_grading)))
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


def verify_degree_bound(filtration: Filtration) -> bool:
    """In a filtration-adapted basis, is the block of exp(sum v_i T_i) from
    layer j to layer i of total degree at most j - i in v (blocks below the
    diagonal vanishing, diagonal blocks identities)?

    Checked as chain containment: every T_i maps chain member j into member
    j - 1.  That is equivalent, because the degree-k part of exp(M), with
    M = sum v_i T_i, is M^k/k!: the linear part is M itself and cannot
    cancel, and a strictly block-triangular M lowers the layer k times in M^k.
    Raises ValueError if the layer sizes do not sum to the model dimension
    or the adapted basis is linearly dependent.
    """
    rep = filtration.rep
    if sum(filtration.layer_sizes()) != rep.dim:
        raise ValueError("filtration does not match the model")
    ech = Echelon()
    holds = True
    for step in filtration.snapshots:
        # ech spans member j - 1 here; keep going after a failure so that a
        # dependent basis is always reported
        holds = holds and all(
            ech.contains(t.apply(vec)) for vec in step for t in rep.trans_gens
        )
        for vec in step:
            if ech.insert(vec) is None:
                raise ValueError("filtration-adapted basis is linearly dependent")
    return holds
