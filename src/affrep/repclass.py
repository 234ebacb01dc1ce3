"""Good/bad classification of SL_n-representations.

The known list of irreducible representations on which no quotient of SL_n
acts generically freely is combined with a Lie-algebra stabilizer engine:
exact kernel ranks of the infinitesimal action at random integer points.
A zero kernel certifies a finite generic stabilizer, which is reported as
`GoodHeuristic` rather than `Good` because a finite stabilizer at the Lie
level does not exclude a finite non-central one at the group level.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .config import (
    COORD_BOUND,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    MAX_TENSOR_CELLS,
    ResourceCapError,
)
from .linalg import Echelon, SMat, Vec, integer_rank
from .schur import Weight, WeightMultiset, dual, normalize, weyl_dim

GOOD = "Good"
BAD = "Bad"
GOOD_HEURISTIC = "GoodHeuristic"


@dataclass(frozen=True)
class StabilizerReport:
    stab_dim: int
    trials: int
    seed: int


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


# --- sl_n basis bookkeeping -------------------------------------------------

def sl_basis_keys(n: int) -> list[str]:
    """Fixed ordered basis of sl_n: elementary E_i_j (i != j, row-major),
    then Cartan differences H_k = E_k_k - E_(k+1)_(k+1)."""
    keys = [f"E_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    keys += [f"H_{k}" for k in range(1, n)]
    return keys


def sl_defining_matrix(n: int, key: str) -> SMat:
    """The n x n matrix of a basis element in the defining representation."""
    m = SMat(n, n)
    parts = key.split("_")
    if parts[0] == "E":
        i, j = int(parts[1]) - 1, int(parts[2]) - 1
        m.add_entry(i, j, 1)
    elif parts[0] == "H":
        k = int(parts[1]) - 1
        m.add_entry(k, k, 1)
        m.add_entry(k + 1, k + 1, -1)
    else:
        raise ValueError(f"unknown generator key {key!r}")
    return m


def bracket_coefficients(n: int, mat: SMat) -> dict:
    """Expand a traceless n x n matrix in the sl_basis_keys basis."""
    coeffs = {}
    diag = [mat.entry(i, i) for i in range(n)]
    if sum(diag) != 0:
        raise ValueError("matrix has nonzero trace")
    for i in range(n):
        for j in range(n):
            if i != j:
                v = mat.entry(i, j)
                if v:
                    coeffs[f"E_{i + 1}_{j + 1}"] = v
    # telescoping: diag = sum c_k (e_k - e_{k+1}) with c_k = d_1 + ... + d_k
    acc = 0
    for k in range(n - 1):
        acc += diag[k]
        if acc:
            coeffs[f"H_{k + 1}"] = acc
    return coeffs


# --- Schur functor models via Young symmetrizers ----------------------------

@dataclass(frozen=True)
class SlModel:
    """Exact matrix model of sl_n on the irreducible with a given label.

    gens maps sl_basis_keys to dim x dim matrices; grading assigns each basis
    vector its integer torus weight (an n-vector).
    """

    weight: Weight
    dim: int
    gens: dict[str, SMat]
    grading: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.weight.n


def _young_symmetrizer(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Column antisymmetrizer times row symmetrizer of the row-filled standard
    tableau, as a list of (position permutation, sign)."""
    shape = tuple(p for p in shape if p > 0)
    d = sum(shape)
    rows: list[list[int]] = []
    idx = 0
    for width in shape:
        rows.append(list(range(idx, idx + width)))
        idx += width
    ncols = shape[0]
    cols = [[rows[r][c] for r in range(len(shape)) if c < shape[r]] for c in range(ncols)]

    def group_perms(blocks):
        perms = [tuple(range(d))]
        for block in blocks:
            new = []
            for base in perms:
                for sigma in itertools.permutations(block):
                    p = list(base)
                    for src, dst in zip(block, sigma):
                        p[src] = base[dst]
                    new.append(tuple(p))
            perms = new
        return perms

    def sign_of(p):
        seen = [False] * d
        sgn = 1
        for i in range(d):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            if length % 2 == 0:
                sgn = -sgn
        return sgn

    row_perms = group_perms(rows)
    col_perms = group_perms(cols)
    acc: dict[tuple[int, ...], int] = {}
    for q in col_perms:
        sq = sign_of(q)
        for p in row_perms:
            # row symmetrizer first, then the signed column sum; composing
            # index lookups this way keeps the row-sorted word reduction valid
            comp = tuple(p[q[i]] for i in range(d))
            acc[comp] = acc.get(comp, 0) + sq
    return [(p, c) for p, c in acc.items() if c]


def _row_sorted_words(n: int, shape: tuple[int, ...]):
    """Index words sorted inside each row block; one representative per orbit
    of the row stabilizer, enough to span the symmetrizer image."""
    blocks = []
    for width in (p for p in shape if p > 0):
        blocks.append(list(itertools.combinations_with_replacement(range(n), width)))
    for combo in itertools.product(*blocks):
        yield tuple(itertools.chain.from_iterable(combo))


# models and their integer generators: a handful of labels per workload
# (7 in the rank-4 catalog, 16 in 2550 seeded requests); the bound caps memory
@lru_cache(maxsize=128)
def _build_tensor_model(n: int, parts: tuple[int, ...]) -> SlModel:
    w = Weight(n, parts)
    d = w.size
    target_dim = weyl_dim(w)
    if d == 0:
        zero = {k: SMat(1, 1) for k in sl_basis_keys(n)}
        return SlModel(w, 1, zero, ((0,) * n,))
    if n ** d > MAX_TENSOR_CELLS:
        raise ResourceCapError("max_tensor_cells", n ** d, MAX_TENSOR_CELLS)

    symm = _young_symmetrizer(parts)

    def encode(word):
        code = 0
        for c in word:
            code = code * n + c
        return code

    def apply_symmetrizer(word) -> Vec:
        out: Vec = {}
        for perm, coeff in symm:
            # permutation acts on positions: letter at slot perm[i] moves to slot i
            moved = tuple(word[perm[i]] for i in range(d))
            code = encode(moved)
            val = out.get(code, 0) + coeff
            if val:
                out[code] = val
            else:
                del out[code]
        return {c: Fraction(v) for c, v in out.items()}

    def weight_of_code(code):
        g = [0] * n
        for _ in range(d):
            g[code % n] += 1
            code //= n
        return tuple(g)

    joint = Echelon()
    for word in _row_sorted_words(n, parts):
        vec = apply_symmetrizer(word)
        if vec:
            joint.insert(vec)
            if len(joint) == target_dim:
                break
    if len(joint) != target_dim:
        raise RuntimeError(f"symmetrizer image has rank {len(joint)}, expected {target_dim}")

    # the reduced echelon rows are the model basis; every ambient index has a
    # definite torus weight, so rows never mix weights and the row's pivot
    # determines its grading vector
    pivots = sorted(joint.rows)
    basis = [joint.rows[p] for p in pivots]
    grading = [weight_of_code(p) for p in pivots]
    col_of_pivot = {p: i for i, p in enumerate(pivots)}

    def act(key, vec: Vec) -> Vec:
        mat = sl_defining_matrix(n, key)
        out: Vec = {}
        for code, val in vec.items():
            word = []
            c = code
            for _ in range(d):
                word.append(c % n)
                c //= n
            word.reverse()
            for pos in range(d):
                letter = word[pos]
                col = mat.cols.get(letter)
                if not col:
                    continue
                for target, a in col.items():
                    nw = list(word)
                    nw[pos] = target
                    ncode = encode(nw)
                    nv = out.get(ncode, 0) + a * val
                    if nv:
                        out[ncode] = nv
                    else:
                        del out[ncode]
        return out

    gens: dict[str, SMat] = {}
    for key in sl_basis_keys(n):
        m = SMat(target_dim, target_dim)
        for j, vec in enumerate(basis):
            img = act(key, vec)
            coeff = joint.coords(img)
            if coeff is None:
                raise RuntimeError(f"action of {key} leaves the symmetrizer image")
            for p, c in coeff.items():
                m.add_entry(col_of_pivot[p], j, c)
        gens[key] = m
    return SlModel(w, target_dim, gens, tuple(grading))


@lru_cache(maxsize=128)
def model_for_weight(n: int, parts: tuple[int, ...]) -> SlModel:
    """Model of the labeled irreducible, built through the cheaper of the
    label and its dual (the dual of a model is the negated transpose)."""
    w = Weight(n, parts)
    dw = dual(w)
    if dw.size < w.size:
        m = _build_tensor_model(n, dw.parts)
        gens = {k: mat.neg_transpose() for k, mat in m.gens.items()}
        grading = tuple(tuple(-x for x in g) for g in m.grading)
        return SlModel(w, m.dim, gens, grading)
    return _build_tensor_model(n, parts)


@lru_cache(maxsize=128)
def _integer_gens(n: int, parts: tuple[int, ...]):
    """The model's generators in sl_basis_keys order, each as integer columns
    [(row, value), ...] indexed by column, all scaled by one common
    denominator.  A nonzero scalar on a summand's block of coordinates does
    not change the rank of the stacked action, so the kernel is unchanged."""
    m = model_for_weight(n, parts)
    gens = [m.gens[k] for k in sl_basis_keys(n)]
    denom = 1
    for g in gens:
        for col in g.cols.values():
            for v in col.values():
                denom = lcm(denom, v.denominator)
    return tuple(
        tuple(
            tuple((r, v.numerator * (denom // v.denominator)) for r, v in g.cols.get(c, {}).items())
            for c in range(m.dim)
        )
        for g in gens
    )


def _image_rows(models, points):
    """The images X.v of the sl_n basis elements X, transposed: one row of
    length n^2 - 1 per coordinate of V, summand copy by summand copy."""
    for gens, pt in zip(models, points):
        imgs = []
        for gen in gens:
            img = [0] * len(pt)
            for col, x in zip(gen, pt):
                if x:
                    for r, a in col:
                        img[r] += a * x
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

    Each trial draws every coordinate of every counted copy, in summand
    order, from one generator seeded with `seed`.  The rank of the images
    X.v over the basis of sl_n is an exact integer rank of their transpose,
    fed one summand copy at a time and stopped at full rank n^2 - 1.  The
    trials stop once the minimum is 0; the generator is local to the call,
    so the skipped draws are never observed, and the report keeps the
    requested `trials`."""
    n = rep.n
    nkeys = len(sl_basis_keys(n))
    models = []
    for w, mult in rep.entries:
        if not w.is_trivial():
            models.extend([_integer_gens(n, w.parts)] * min(mult, nkeys))
    rng = random.Random(seed)
    best = None
    for _ in range(trials):
        points = [
            [rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(len(gens[0]))]
            for gens in models
        ]
        stab = nkeys - integer_rank(_image_rows(models, points), stop_at=nkeys)
        best = stab if best is None else min(best, stab)
        if best == 0:
            break
    return StabilizerReport(stab_dim=best, trials=trials, seed=seed)


def nontrivial_part(rep: WeightMultiset) -> WeightMultiset:
    """`rep` without its trivial summand, which is its first entry when
    present (the trivial label sorts first); `rep` itself when it has none."""
    if rep.entries and rep.entries[0][0].is_trivial():
        return WeightMultiset(rep.n, rep.entries[1:])
    return rep


# the rank-4 catalog classifies 7,575 distinct multisets
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
