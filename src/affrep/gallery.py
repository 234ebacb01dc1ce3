"""Bundled example models: submodels of function-space tensors whose socle
and radical filtrations differ in an instructive way.

Both are generated submodels of (pure SL_n sum) tensor (degree <= 2 affine
functions).  Seeds are highest weight vectors picked deterministically; where
a highest weight space has dimension > 1 the seed mixes the echelon basis
with coefficients 1, 2, 4, ... so that the generated submodule is the generic
one (the layer structure is asserted by the test suite).
"""

from __future__ import annotations

from .linalg import Vec, vec_add_scaled
from .matmodel import (
    AffMatrixRep,
    generated_submodel,
    highest_weight_vectors,
    model_sym_dual,
    monomial_basis,
    sl_only_sum_model,
    tensor_model,
)
from .schur import WeightMultiset, dual, normalize, rank_labels


def _mix(vectors: list[Vec]) -> Vec:
    out: Vec = {}
    for i, v in enumerate(vectors):
        out = vec_add_scaled(out, v, 2 ** i)
    return out


def _degree_block(a_dim: int, s_n: int, s_l: int, degrees) -> list[int]:
    """Ambient indices of a tensor model (sl-only of dimension a_dim) x
    (functions of degree <= s_l) whose function part has degree in
    `degrees`.  Relies on the degree-then-lex monomial order."""
    mono = monomial_basis(s_n, s_l)
    s_dim = len(mono)
    wanted = [j for j, e in enumerate(mono) if sum(e) in degrees]
    return [a * s_dim + j for a in range(a_dim) for j in wanted]


def cubic_top_submodel(n: int = 3) -> AffMatrixRep:
    """Submodel of (dual standard) x (degree <= 2 functions) generated by the
    dual Sym^3 and dual exterior-square highest weight vectors.

    The exterior square is not in the span of the cubic generator, which is
    what makes the two filtrations of this model place it in different
    layers.
    """
    labels = rank_labels(n)
    amb_a = sl_only_sum_model(WeightMultiset.of(n, [labels.dstd]))
    amb = tensor_model(amb_a, model_sym_dual(n, 2))
    seeds = []
    for label in (normalize(n, [3]), labels.wedge2):
        hw = highest_weight_vectors(amb, dual(label))
        if len(hw) != 1:
            raise RuntimeError(f"expected a unique highest weight vector for dual {label}")
        seeds.append(hw[0])
    return generated_submodel(amb, seeds)


def three_generator_submodel(n: int = 4) -> AffMatrixRep:
    """Submodel of (dual of Sym^3 + hook(2,1) + exterior cube) x (degree <= 2
    functions) generated by three highest weight seeds: dual Sym^5 in the
    degree-2 block plus generic dual hook(3,1) and dual hook(2,1,1) seeds in
    the degree <= 1 block."""
    if n < 4:
        raise ValueError("labels collide below rank 4")
    summands = WeightMultiset.of(
        n,
        [
            dual(normalize(n, [3])),
            dual(normalize(n, [2, 1])),
            dual(normalize(n, [1, 1, 1])),
        ],
    )
    amb_a = sl_only_sum_model(summands)
    sym = model_sym_dual(n, 2)
    amb = tensor_model(amb_a, sym)

    top = highest_weight_vectors(amb, dual(normalize(n, [5])))
    if len(top) != 1:
        raise RuntimeError(f"expected a unique dual-Sym^5 vector, got {len(top)}")
    low_block = _degree_block(amb_a.dim, n, 2, degrees={0, 1})
    seeds = [top[0]]
    for raw in ([3, 1], [2, 1, 1]):
        hw = highest_weight_vectors(amb, dual(normalize(n, raw)), indices=low_block)
        if not hw:
            raise RuntimeError(f"no highest weight vectors of type {raw}")
        seeds.append(_mix(hw))
    return generated_submodel(amb, seeds)
