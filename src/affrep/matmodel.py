"""Exact matrix models of representations of the special affine group.

An AffMatrixRep packages matrices for the fixed sl_n basis together with n
commuting nilpotent translation generators T_1..T_n and an integer torus
weight for every basis vector.  This module owns that basis: its key
strings (`E_i_j`, `H_k`) are parsed only by `sl_defining_matrix`, and every
matrix model, the irreducible SL_n-models included, is built here.  All
constructors produce models whose defining relations can be re-verified
exactly with `validate_model`.

Sign conventions, fixed once:
  * functions-of-degree<=l models use X.f = -(Xx).grad(f) for sl_n and
    T_i = d/dx_i for translations, so exp(t T) is the shift f -> f(. + t);
  * on the affine line (n=1, l=1) with ordered basis (1, x) this gives
    T_1 = [[0, 1], [0, 0]], and the dual model's T_1 = [[0, 0], [-1, 0]]
    (negated transpose).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .config import (
    DEFAULT_MAX_MODEL_DIM,
    MAX_TENSOR_CELLS,
    ModelInvariantError,
    ResourceCapError,
)
from .linalg import Echelon, SMat, Vec, closure, common_kernel, restrict
from .schur import Value, Weight, WeightMultiset, dual, weyl_dim


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


def _entries(m: SMat) -> list[tuple[int, int, object]]:
    """The nonzero entries (row, column, value) of a matrix."""
    return [(r, c, v) for c, col in m.cols.items() for r, v in col.items()]


class AffMatrixRep(Value):
    """Matrix model: sl_n generators, translation generators, weight grading."""

    __slots__ = ("n", "dim", "sl_gens", "trans_gens", "weight_grading")

    def __init__(self, n: int, dim: int, sl_gens: dict[str, SMat], trans_gens: list[SMat],
                 weight_grading: list[tuple[int, ...]]):
        self.n = n
        self.dim = dim
        self.sl_gens = sl_gens
        self.trans_gens = trans_gens
        self.weight_grading = weight_grading

    def sl_keys(self) -> list[str]:
        return sl_basis_keys(self.n)

    def all_gens(self) -> list[SMat]:
        return [self.sl_gens[k] for k in self.sl_keys()] + list(self.trans_gens)


def _check_cap(dim: int, max_dim: int):
    if dim > max_dim:
        raise ResourceCapError("max_model_dim", dim, max_dim)


def monomial_basis(n: int, l: int) -> list[tuple[int, ...]]:
    """Exponent vectors of monomials of total degree <= l, ordered by degree
    then lexicographically.  A monomial of degree deg is the multiset of its
    deg variables, so each degree's vectors come straight from those."""
    out = []
    for deg in range(l + 1):
        out.extend(sorted(tuple(map(c.count, range(n)))
                          for c in itertools.combinations_with_replacement(range(n), deg)))
    return out


def model_sym_dual(n: int, l: int, max_dim: int = DEFAULT_MAX_MODEL_DIM) -> AffMatrixRep:
    """The action on polynomial functions of degree <= l in n variables.

    Basis: monomials x^alpha ordered by degree then lex; dimension C(n+l, l).
    The grading of x^alpha is -alpha (coordinates are dual vectors).
    """
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
    _check_cap(comb(n + l, l), max_dim)
    basis = monomial_basis(n, l)
    index = {e: i for i, e in enumerate(basis)}
    N = len(basis)

    sl_gens: dict[str, SMat] = {}
    for key in sl_basis_keys(n):
        m = SMat(N, N)
        entries = _entries(sl_defining_matrix(n, key))
        for e, i in index.items():
            # an entry v at (a, b) acts as -v x_b d/dx_a
            for a, b, v in entries:
                if e[a] > 0:
                    ne = list(e)
                    ne[a] -= 1
                    ne[b] += 1
                    m.add_entry(index[tuple(ne)], i, -v * e[a])
        sl_gens[key] = m

    trans = []
    for t in range(n):
        m = SMat(N, N)
        for e, i in index.items():
            if e[t] > 0:
                ne = list(e)
                ne[t] -= 1
                m.add_entry(index[tuple(ne)], i, e[t])
        trans.append(m)

    grading = [tuple(-x for x in e) for e in basis]
    return AffMatrixRep(n, N, sl_gens, trans, grading)


def dual_model(rep: AffMatrixRep) -> AffMatrixRep:
    """Contragredient model: negated transposes, negated grading."""
    return AffMatrixRep(
        rep.n,
        rep.dim,
        {k: m.neg_transpose() for k, m in rep.sl_gens.items()},
        [m.neg_transpose() for m in rep.trans_gens],
        [tuple(-x for x in g) for g in rep.weight_grading],
    )


def tensor_model(a: AffMatrixRep, b: AffMatrixRep,
                 max_dim: int = DEFAULT_MAX_MODEL_DIM) -> AffMatrixRep:
    """Tensor product with the factorwise (Leibniz) action."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    _check_cap(a.dim * b.dim, max_dim)
    ia = SMat.identity(a.dim)
    ib = SMat.identity(b.dim)

    def leibniz(ma: SMat, mb: SMat) -> SMat:
        return ma.kron(ib).add(ia.kron(mb))

    sl_gens = {k: leibniz(a.sl_gens[k], b.sl_gens[k]) for k in a.sl_keys()}
    trans = [leibniz(ta, tb) for ta, tb in zip(a.trans_gens, b.trans_gens)]
    grading = [
        tuple(x + y for x, y in zip(ga, gb))
        for ga in a.weight_grading
        for gb in b.weight_grading
    ]
    return AffMatrixRep(a.n, a.dim * b.dim, sl_gens, trans, grading)


def direct_sum_model(a: AffMatrixRep, b: AffMatrixRep) -> AffMatrixRep:
    if a.n != b.n:
        raise ValueError("rank mismatch")
    sl_gens = {k: a.sl_gens[k].direct_sum(b.sl_gens[k]) for k in a.sl_keys()}
    trans = [ta.direct_sum(tb) for ta, tb in zip(a.trans_gens, b.trans_gens)]
    return AffMatrixRep(a.n, a.dim + b.dim, sl_gens, trans,
                        list(a.weight_grading) + list(b.weight_grading))


# --- irreducible models generated by a highest weight vector ----------------

def _tensor_op(mat: SMat, places: list[int]):
    """The action of an n x n matrix on a tensor power of C^n, one slot at a
    time (a derivation), as a function on sparse vectors.  A coordinate is a
    word read as a base-n number: the letter in slot s has place value
    places[s]."""
    n = mat.nrows

    def op(vec: Vec) -> Vec:
        out: Vec = {}
        for code, val in vec.items():
            for place in places:
                letter = code // place % n
                for target, a in mat.cols.get(letter, {}).items():
                    key = code + (target - letter) * place
                    out[key] = out.get(key, 0) + a * val
        return {c: v for c, v in out.items() if v}

    return op


def _build_tensor_model(n: int, parts: tuple[int, ...]) -> AffMatrixRep:
    """The irreducible with label `parts` as the submodule of the |parts|-th
    tensor power of C^n generated by its highest weight vector (Weyl's
    construction; Fulton-Harris, Representation Theory, section 6.1), with
    zero translations.

    The seed is the tensor product, over the columns of the row-filled
    diagram, of the wedges e_1 ^ ... ^ e_h of the column heights h: a vector
    of weight `parts` that every raising operator kills, so the lowering
    operators E_i_j (i > j) span the irreducible from it.  The model basis is
    the reduced echelon basis of that span, which depends on the subspace
    alone.  Every tensor coordinate has a definite torus weight, so no row
    mixes weights and a row's grading is that of its pivot."""
    w = Weight(n, parts)
    d = w.size
    target_dim = weyl_dim(w)
    if d == 0:
        gens = {k: SMat(1, 1) for k in sl_basis_keys(n)}
        return AffMatrixRep(n, 1, gens, [SMat(1, 1) for _ in range(n)], [(0,) * n])
    if n ** d > MAX_TENSOR_CELLS:
        raise ResourceCapError("max_tensor_cells", n ** d, MAX_TENSOR_CELLS)

    # first slot most significant
    places = [n ** (d - 1 - slot) for slot in range(d)]
    starts = list(itertools.accumulate(parts, initial=0))
    seed: Vec = {0: 1}
    for c in range(parts[0]):
        # the slots of column c, top to bottom, hold letters 0..h-1 in every order
        slots = [places[starts[r] + c] for r in range(n) if parts[r] > c]
        wedge = {}
        for perm in itertools.permutations(range(len(slots))):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            wedge[sum(x * p for x, p in zip(perm, slots))] = (-1) ** inversions
        seed = {a + b: x * y for a, x in seed.items() for b, y in wedge.items()}

    ops = {key: _tensor_op(sl_defining_matrix(n, key), places) for key in sl_basis_keys(n)}
    lowering = [ops[f"E_{i}_{j}"] for i in range(2, n + 1) for j in range(1, i)]
    span = closure([seed], lowering)
    if len(span) != target_dim:
        raise RuntimeError(f"generated submodule has dimension {len(span)}, expected {target_dim}")
    gens = {key: restrict(span, op) for key, op in ops.items()}
    grading = []
    for code in sorted(span.rows):
        g = [0] * n
        for place in places:
            g[code // place % n] += 1
        grading.append(tuple(g))
    zero = [SMat(target_dim, target_dim) for _ in range(n)]
    return AffMatrixRep(n, target_dim, gens, zero, grading)


# a handful of labels per workload (6 in the rank-4 catalog); the bound
# caps memory
@lru_cache(maxsize=128)
def model_for_weight(n: int, parts: tuple[int, ...]) -> AffMatrixRep:
    """Model of the labeled irreducible with zero translations, built
    through the cheaper of the label and its dual.  The model is shared by
    every caller, so none may mutate it."""
    w = Weight(n, parts)
    dw = dual(w)
    if dw.size < w.size:
        return dual_model(model_for_weight(n, dw.parts))
    return _build_tensor_model(n, parts)


def sl_only_model(w: Weight, max_dim: int = DEFAULT_MAX_MODEL_DIM) -> AffMatrixRep:
    """A pure SL_n-representation viewed as an affine-group model: all
    translation generators are zero."""
    _check_cap(weyl_dim(w), max_dim)
    return model_for_weight(w.n, w.parts)


def shift_grading(rep: AffMatrixRep, c: int) -> AffMatrixRep:
    """Add c to every grading coordinate.  Diagonal shifts carry no
    representation content, so all model relations are preserved."""
    return AffMatrixRep(
        rep.n, rep.dim, rep.sl_gens, rep.trans_gens,
        [tuple(x + c for x in g) for g in rep.weight_grading],
    )


def sl_only_sum_model(ms: WeightMultiset) -> AffMatrixRep:
    """Direct sum of sl-only models over a weight multiset, in canonical order.

    Each irreducible model has a constant grading coordinate-sum; summands
    whose sums are congruent mod n are shifted to a common value, so equal
    sl-weights receive equal stored gradings across the whole sum.
    """
    reps = []
    for w, mult in ms.entries:
        reps.extend([sl_only_model(w)] * mult)
    if not reps:
        raise ValueError("empty multiset")
    n = ms.n
    sums = [sum(r.weight_grading[0]) for r in reps]
    target: dict[int, int] = {}
    for s in sums:
        r = s % n
        target[r] = min(target.get(r, s), s)
    reps = [
        shift_grading(rep, (target[s % n] - s) // n) if s != target[s % n] else rep
        for rep, s in zip(reps, sums)
    ]
    out = reps[0]
    for r in reps[1:]:
        out = direct_sum_model(out, r)
    return out


# --- validation --------------------------------------------------------------

def _bracket_is(a: SMat, b: SMat, terms) -> bool:
    """Is [a, b] = sum of c * m over the (m, c) in `terms`?  Compared one
    column at a time, with no intermediate matrix: column j of xy is
    sum_k y_kj (column k of x)."""
    cols = set(a.cols) | set(b.cols)
    for m, _ in terms:
        cols.update(m.cols)
    products = ((a.cols, b.cols, 1), (b.cols, a.cols, -1))
    negated = [(m.cols, -c) for m, c in terms]
    for j in cols:
        diff: Vec = {}
        for x_cols, y_cols, sign in products:
            y_j = y_cols.get(j)
            if not y_j:
                continue
            for k, c in y_j.items():
                x_k = x_cols.get(k)
                if x_k:
                    c *= sign
                    for r, v in x_k.items():
                        diff[r] = diff.get(r, 0) + c * v
        for m_cols, c in negated:
            m_j = m_cols.get(j)
            if m_j:
                for r, v in m_j.items():
                    diff[r] = diff.get(r, 0) + c * v
        if any(diff.values()):
            return False
    return True


def _chevalley_generators(n: int) -> tuple[list[str], list[str], list[str]]:
    """The keys of e_i = E_i_(i+1), f_i = E_(i+1)_i and h_i = H_i."""
    return ([f"E_{i}_{i + 1}" for i in range(1, n)],
            [f"E_{i + 1}_{i}" for i in range(1, n)],
            [f"H_{i}" for i in range(1, n)])


@lru_cache(maxsize=16)
def relation_pairs(n: int) -> tuple[tuple[str, str, tuple], ...]:
    """The bracket pairs (a, b, [a, b]) that `validate_model` checks, with
    [a, b] as (key, coefficient) terms in the sl_basis_keys basis.  They are
    a generating set of the relations of sl_n, in the order of
    itertools.combinations(keys, 2):

      * every pair of Chevalley generators e_i, f_i, h_i;
      * for each non-simple E_i_j (|i - j| >= 2), the pair (E_i_k, E_k_j)
        with k adjacent to j between i and j, which defines it by roots of
        lower height;
      * the Serre pairs (e_i, [e_i, e_j]) and (f_i, [f_i, f_j]) for
        adjacent i, j.

    If they hold, the generators satisfy the Chevalley-Serre relations, so
    they extend to a Lie homomorphism from sl_n (Serre's theorem; Humphreys,
    GTM 9, 18.3), and by induction on height every stored E_i_j is its image.
    Every other pair then holds too.
    """
    e, f, h = _chevalley_generators(n)
    wanted = {frozenset(p) for p in itertools.combinations(e + f + h, 2)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if abs(i - j) >= 2:
                k = j - 1 if i < j else j + 1
                wanted.add(frozenset((f"E_{i}_{k}", f"E_{k}_{j}")))
    for i in range(1, n - 1):
        # [e_i, e_(i+1)] = E_i_(i+2) and [f_i, f_(i+1)] = -E_(i+2)_i
        for x in e[i - 1:i + 1]:
            wanted.add(frozenset((x, f"E_{i}_{i + 2}")))
        for x in f[i - 1:i + 1]:
            wanted.add(frozenset((x, f"E_{i + 2}_{i}")))
    return tuple(
        (a, b, tuple(bracket_coefficients(
            n, sl_defining_matrix(n, a).commutator(sl_defining_matrix(n, b))).items()))
        for a, b in itertools.combinations(sl_basis_keys(n), 2)
        if frozenset((a, b)) in wanted
    )


def validate_model(rep: AffMatrixRep) -> None:
    """Re-verify the defining relations; raises ModelInvariantError naming
    the first failure.  Brackets are checked on the generating set
    `relation_pairs` and the translation action on the generators e_i, f_i,
    which accepts exactly the models that satisfy every relation."""
    n = rep.n
    keys = rep.sl_keys()
    if sorted(rep.sl_gens) != sorted(keys):
        raise ModelInvariantError("sl generator keys")
    if len(rep.trans_gens) != n:
        raise ModelInvariantError("translation generator count")
    if len(rep.weight_grading) != rep.dim:
        raise ModelInvariantError("grading length")

    sl, trans = rep.sl_gens, rep.trans_gens
    for a, b, terms in relation_pairs(n):
        if not _bracket_is(sl[a], sl[b], [(sl[k], c) for k, c in terms]):
            raise ModelInvariantError(f"[{a},{b}]")

    for i in range(n):
        for j in range(i + 1, n):
            if not _bracket_is(trans[i], trans[j], ()):
                raise ModelInvariantError(f"[T_{i + 1},T_{j + 1}]")

    # [X, T_j] = sum_i X_ij T_i : translations transform like the standard
    # rep.  By the Jacobi identity the X that satisfy it form a subalgebra,
    # and e_i, f_i generate sl_n, so checking them suffices.
    e, f, _ = _chevalley_generators(n)
    for key in [k for k in keys if k in e or k in f]:
        x = sl_defining_matrix(n, key)
        for j in range(n):
            terms = [(trans[i], c) for i, c in x.cols.get(j, {}).items()]
            if not _bracket_is(sl[key], trans[j], terms):
                raise ModelInvariantError(f"[{key},T_{j + 1}]")

    for j, t in enumerate(rep.trans_gens):
        power = t
        for _ in range(rep.dim):
            if power.is_zero():
                break
            power = power.matmul(t)
        if not power.is_zero():
            raise ModelInvariantError(f"T_{j + 1} nilpotency")

    # grading: a root vector E_a_b shifts weights by e_a - e_b, a diagonal
    # generator X acts on a vector of weight g by the scalar sum_i X_ii g_i
    g = rep.weight_grading
    for key in keys:
        mat = rep.sl_gens[key]
        entries = _entries(sl_defining_matrix(n, key))
        if all(a == b for a, b, _ in entries):
            for c, col in mat.cols.items():
                for r, val in col.items():
                    if r != c:
                        raise ModelInvariantError(f"{key} not diagonal")
                    if val != sum(v * g[c][a] for a, _, v in entries):
                        raise ModelInvariantError(f"{key} eigenvalue")
        else:
            [(a, b, _)] = entries
            want = tuple((1 if i == a else 0) - (1 if i == b else 0) for i in range(n))
            for c, col in mat.cols.items():
                for r in col:
                    diff = tuple(x - y for x, y in zip(g[r], g[c]))
                    if diff != want:
                        raise ModelInvariantError(f"grading shift of {key}")
    # nonzero translations shift every weight by the corresponding unit vector
    for j, t in enumerate(rep.trans_gens):
        want = tuple(1 if i == j else 0 for i in range(n))
        for c, col in t.cols.items():
            for r in col:
                diff = tuple(x - y for x, y in zip(g[r], g[c]))
                if diff != want:
                    raise ModelInvariantError(f"grading shift of T_{j + 1}")


# --- highest weight vectors and generated submodels --------------------------

def grading_rep(g: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative of a torus weight modulo the diagonal:
    subtract the last coordinate from all."""
    last = g[-1]
    return tuple(x - last for x in g)


def highest_weight_vectors(rep: AffMatrixRep, label: Weight, indices=None) -> list[Vec]:
    """Echelon-canonical basis of the space of vectors of normalized weight
    `label` killed by all raising operators, optionally restricted to a
    subset of ambient coordinates (which must be sl-stable, e.g. a graded
    block of a tensor factor)."""
    if label.n != rep.n:
        raise ValueError("rank mismatch")
    pool = range(rep.dim) if indices is None else sorted(indices)
    coords = [i for i in pool if grading_rep(rep.weight_grading[i]) == label.parts]
    if not coords:
        return []
    raising = [
        rep.sl_gens[f"E_{i}_{j}"]
        for i in range(1, rep.n + 1)
        for j in range(i + 1, rep.n + 1)
    ]
    return common_kernel(raising, coords, Echelon())


def generated_submodel(rep: AffMatrixRep, seeds: list[Vec]) -> AffMatrixRep:
    """Smallest invariant subspace containing the seed vectors, returned as a
    self-contained model in the echelon basis of the closure.

    Seeds must be weight vectors (supported on a single grading value) so the
    restricted model keeps an exact grading.
    """
    g = rep.weight_grading
    for s in seeds:
        ws = {g[i] for i in s}
        if len(ws) != 1:
            raise ValueError("seed is not a weight vector")
    ech = closure(seeds, [m.apply for m in rep.all_gens()])
    sl_gens = {k: restrict(ech, rep.sl_gens[k].apply) for k in rep.sl_keys()}
    trans = [restrict(ech, t.apply) for t in rep.trans_gens]
    grading = [g[p] for p in sorted(ech.rows)]
    return AffMatrixRep(rep.n, len(ech), sl_gens, trans, grading)


# --- the polynomial degree bound ---------------------------------------------

def verify_degree_bound(rep: AffMatrixRep, filtration) -> bool:
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
