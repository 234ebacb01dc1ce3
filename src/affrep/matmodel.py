"""Exact matrix models of representations of the special affine group.

An AffMatrixRep packages matrices for the fixed sl_n basis together with n
commuting nilpotent translation generators T_1..T_n and an integer torus
weight for every basis vector.  This module owns that basis, and one table,
`affine_basis`, describes it: all n^2 - 1 + n generators, `E_i_j` and `H_k`
for sl_n and `T_j` for the translations, each as its key and its entries in
the affine defining representation.  Everything else takes keys and
matrices from that table, by the place of their entries; no key is parsed.
Every matrix model, the irreducible SL_n-models included, is built here.
All constructors produce models whose defining relations can be
re-verified exactly with `validate_model`.

Sign conventions, fixed once:
  * functions-of-degree<=l models use X.f = -(Xx).grad(f) for sl_n and
    T_i = d/dx_i for translations, so exp(t T) is the shift f -> f(. + t);
  * on the affine line (n=1, l=1) with ordered basis (1, x) this gives
    T_1 = [[0, 1], [0, 0]], and the dual model's T_1 = [[0, 0], [-1, 0]]
    (negated transpose).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from math import comb, prod
from operator import add, mul, sub

from .config import (
    DEFAULT_MAX_MODEL_DIM,
    MAX_TENSOR_CELLS,
    ModelInvariantError,
    ResourceCapError,
    check_model_dim,
)
from .linalg import Echelon, SMat, Vec, closure, common_kernel, restrict
from .schur import Weight, WeightMultiset, dual, grading_rep, weyl_dim


# --- the saff_n basis -------------------------------------------------------

def affine_basis(n: int) -> list[tuple[str, list]]:
    """Every generator of saff_n as (key, entries): its nonzero (row,
    column, value) entries in the affine defining representation on
    C^(n+1), whose block matrices [[X, v], [0, 0]] make column n the
    constant coordinate, of weight 0.  First the sl_n basis in the top left
    n x n block: the elementary E_i_j (i != j, row-major), then the Cartan
    differences H_k = E_k_k - E_(k+1)_(k+1).  Then T_1..T_n with
    T_j = -E_j_(n+1), the sign that makes T_j = d/dx_j under the rule of
    `model_sym_dual`.  The only place a key is written."""
    return ([(f"E_{i + 1}_{j + 1}", [(i, j, 1)]) for i in range(n) for j in range(n) if i != j]
            + [(f"H_{k + 1}", [(k, k, 1), (k + 1, k + 1, -1)]) for k in range(n - 1)]
            + [(f"T_{j + 1}", [(j, n, -1)]) for j in range(n)])


def sl_basis_keys(n: int) -> list[str]:
    """The keys of the sl_n rows of `affine_basis`, its first n^2 - 1."""
    return [key for key, _ in affine_basis(n)[:n * n - 1]]


def _key_at(n: int) -> dict[tuple[int, int], str]:
    """Each key of `affine_basis` by the place of its row's first entry:
    (i, j) gives E_(i+1)_(j+1) for i != j < n, (k, k) gives H_(k+1), and
    (j, n) gives T_(j+1)."""
    return {entries[0][:2]: key for key, entries in affine_basis(n)}


def bracket_coefficients(n: int, table: dict) -> dict:
    """Expand a traceless n x n matrix, given as a {(row, col): value}
    table, in the sl_basis_keys basis."""
    key_at = _key_at(n)
    coeffs = {}
    diag = [table.get((i, i), 0) for i in range(n)]
    if sum(diag) != 0:
        raise ValueError("matrix has nonzero trace")
    for i in range(n):
        for j in range(n):
            if i != j:
                v = table.get((i, j), 0)
                if v:
                    coeffs[key_at[i, j]] = v
    # telescoping: diag = sum c_k (e_k - e_{k+1}) with c_k = d_1 + ... + d_k
    acc = 0
    for k in range(n - 1):
        acc += diag[k]
        if acc:
            coeffs[key_at[k, k]] = acc
    return coeffs


class AffMatrixRep(namedtuple("AffMatrixRep", "n dim sl_gens trans_gens weight_grading")):
    """Matrix model: sl_n generators, translation generators, weight grading."""

    __slots__ = ()
    __hash__ = None

    def sl_keys(self) -> list[str]:
        return sl_basis_keys(self.n)

    def all_gens(self) -> list[SMat]:
        return [self.sl_gens[k] for k in self.sl_keys()] + list(self.trans_gens)


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
    check_model_dim(comb(n + l, l), max_dim)
    basis = monomial_basis(n, l)
    index = {e: i for i, e in enumerate(basis)}
    N = len(basis)

    gens = []
    for _, entries in affine_basis(n):
        m = SMat(N, N)
        for e, i in index.items():
            # an entry v at (a, b) acts as -v x_b d/dx_a, with x_(n+1) = 1
            for a, b, v in entries:
                if e[a] > 0:
                    ne = [*e, 0]
                    ne[a] -= 1
                    ne[b] += 1
                    m.add_entry(index[tuple(ne[:n])], i, -v * e[a])
        gens.append(m)

    grading = [tuple(-x for x in e) for e in basis]
    return AffMatrixRep(n, N, dict(zip(sl_basis_keys(n), gens)), gens[-n:], grading)


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
    """Tensor product with the factorwise (Leibniz) action: each generator
    is X (x) 1 + 1 (x) Y on the basis e_i (x) f_k, at index i * b.dim + k."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    check_model_dim(a.dim * b.dim, max_dim)
    nb = b.dim

    def leibniz(x: SMat, y: SMat) -> SMat:
        # column block i: column k holds column k of Y at rows (i, r), and
        # each entry v of X at (r, i) adds v at row (r, k); the two meet
        # only at row (i, k), where they may cancel
        y_entries = [(k, r, v) for k, y_k in y.cols.items() for r, v in y_k.items()]
        cols = {}
        for i in range(a.dim):
            base = i * nb
            block = [{} for _ in range(nb)]
            for k, r, v in y_entries:
                block[k][base + r] = v
            for r, v in x.cols.get(i, {}).items():
                for row, col in enumerate(block, r * nb):
                    val = col.get(row, 0) + v
                    if val:
                        col[row] = val
                    else:
                        del col[row]
            for k, col in enumerate(block):
                if col:
                    cols[base + k] = col
        return SMat(a.dim * nb, a.dim * nb, cols)

    sl_gens = {k: leibniz(a.sl_gens[k], b.sl_gens[k]) for k in a.sl_keys()}
    trans = [leibniz(ta, tb) for ta, tb in zip(a.trans_gens, b.trans_gens)]
    grading = [tuple(map(add, ga, gb)) for ga in a.weight_grading for gb in b.weight_grading]
    return AffMatrixRep(a.n, a.dim * nb, sl_gens, trans, grading)


def direct_sum_model(a: AffMatrixRep, b: AffMatrixRep) -> AffMatrixRep:
    if a.n != b.n:
        raise ValueError("rank mismatch")
    sl_gens = {k: a.sl_gens[k].direct_sum(b.sl_gens[k]) for k in a.sl_keys()}
    trans = [ta.direct_sum(tb) for ta, tb in zip(a.trans_gens, b.trans_gens)]
    return AffMatrixRep(a.n, a.dim + b.dim, sl_gens, trans,
                        list(a.weight_grading) + list(b.weight_grading))


# --- irreducible models generated by a highest weight vector ----------------

def _wedge_op(n: int, entries: list, columns: list[list[int]]):
    """The action of the n x n matrix with these (row, column, value)
    entries, one letter at a time (a derivation), on the product of the
    columns' exterior powers of C^n, as a function on sparse vectors.  A
    coordinate is a word whose letters increase down each column, read as
    a base-n number; `columns` holds each column's place values, top to
    bottom.  A letter moved onto another in its column gives
    zero; else the column is re-sorted, with sign -1 per row crossed."""
    # a letter b moves to a with an entry at (a, b); no two entries of a
    # basis row share a column
    moves_of = {b: {a: v} for a, b, v in entries}
    slots = [(place, i, col) for col in columns for i, place in enumerate(col)]

    def op(vec: Vec) -> Vec:
        out: Vec = {}
        for code, val in vec.items():
            for place, i, col in slots:
                moves = moves_of.get(code // place % n)
                if not moves:
                    continue
                word = [code // p % n for p in col]
                rest = word[:i] + word[i + 1:]
                base = code - sum(map(mul, word, col))
                for target, a in moves.items():
                    if target in rest:
                        continue
                    j = bisect_left(rest, target)
                    key = base + sum(map(mul, rest[:j] + [target] + rest[j:], col))
                    out[key] = out.get(key, 0) + (-a if (i - j) % 2 else a) * val
        return {c: v for c, v in out.items() if v}

    return op


def _build_tensor_model(n: int, parts: tuple[int, ...]) -> AffMatrixRep:
    """The irreducible with label `parts`, with zero translations, as the
    span of its highest weight vector under the lowering operators E_i_j
    (i > j) in the product of the exterior powers of C^n, one per column of
    the row-filled diagram (Weyl's construction; Fulton, Young Tableaux,
    section 8.1).  The seed is one coordinate: the wedge e_1 ^ ... ^ e_h in
    each column of height h.  The basis is the span's reduced echelon basis,
    the same as in the full tensor power (README, "Irreducible models"), and
    a row's grading is that of its pivot."""
    w = Weight(n, parts)
    target_dim = weyl_dim(w)
    heights = [sum(p > c for p in parts) for c in range(parts[0])]
    cells = prod(comb(n, h) for h in heights)
    if cells > MAX_TENSOR_CELLS:
        raise ResourceCapError("max_tensor_cells", cells, MAX_TENSOR_CELLS)
    # the row-major slots of the diagram, the first slot most significant
    places = [n ** (w.size - 1 - slot) for slot in range(w.size)]
    starts = list(itertools.accumulate(parts, initial=0))
    columns = [[places[starts[r] + c] for r in range(h)] for c, h in enumerate(heights)]
    seed = {sum(r * place for col in columns for r, place in enumerate(col)): 1}

    sl_rows = affine_basis(n)[:n * n - 1]
    ops = {key: _wedge_op(n, entries, columns) for key, entries in sl_rows}
    # E_i_j with i > j, whose single entry lies below the diagonal (an H
    # row's first entry lies on it)
    lowering = [ops[key] for key, entries in sl_rows if entries[0][0] > entries[0][1]]
    span = closure([seed], lowering)
    if len(span) != target_dim:
        raise RuntimeError(f"generated submodule has dimension {len(span)}, expected {target_dim}")
    gens = {key: restrict(span, op) for key, op in ops.items()}
    grading = [tuple(map([code // place % n for place in places].count, range(n)))
               for code in sorted(span.rows)]
    zero = [SMat(target_dim, target_dim) for _ in range(n)]
    return AffMatrixRep(n, target_dim, gens, zero, grading)


# a handful of labels per command: `model sl-only`'s, and the stabilizer's
# for `classify`, `check2step` above rank 7 and `selftest`; the bound caps
# memory
@lru_cache(maxsize=128)
def model_for_weight(n: int, parts: tuple[int, ...]) -> AffMatrixRep:
    """Model of the labeled irreducible with zero translations.  A label
    with more boxes than its dual is the dual model of its dual: both cost
    the same, but the branch fixes the basis model files are written in.
    The model is shared by every caller, so none may mutate it."""
    w = Weight(n, parts)
    dw = dual(w)
    if dw.size < w.size:
        return dual_model(model_for_weight(n, dw.parts))
    return _build_tensor_model(n, parts)


def sl_only_model(w: Weight, max_dim: int = DEFAULT_MAX_MODEL_DIM) -> AffMatrixRep:
    """A pure SL_n-representation viewed as an affine-group model: all
    translation generators are zero."""
    check_model_dim(weyl_dim(w), max_dim)
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

def _bracket(a: SMat, b: SMat, terms=()) -> Vec:
    """[a, b] minus the sum of c * m over the (m, c) in `terms`, as a table
    keyed by r * N + j for its entry (r, j); an entry that cancels stays as
    a zero.  ab - ba - sum c * m is added up in one dict, with no
    intermediate matrix: column j of xy is sum_k y_kj (column k of x).  The
    only product of two matrices in the package."""
    dim = a.nrows
    diff: Vec = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        x_cols = x.cols
        for j, y_j in y.cols.items():
            for k, c in y_j.items():
                x_k = x_cols.get(k)
                if x_k:
                    c *= sign
                    for r, v in x_k.items():
                        key = r * dim + j
                        diff[key] = diff.get(key, 0) + c * v
    for m, c in terms:
        for j, m_j in m.cols.items():
            for r, v in m_j.items():
                key = r * dim + j
                diff[key] = diff.get(key, 0) - c * v
    return diff


@lru_cache(maxsize=16)
def relation_pairs(n: int) -> tuple[tuple[str, str, tuple], ...]:
    """The 2n^2 - 3n + 2 bracket pairs (a, b, [a, b]) that `validate_model`
    checks once the grading holds, with [a, b] as (key, coefficient) terms
    in the keys of `affine_basis`, computed from its matrices by `_bracket`,
    the routine that checks the rows.  With the grading they generate every
    relation of saff_n.  First the sl_n pairs, in the order of
    itertools.combinations(keys, 2): every Chevalley pair (e_i, f_j), and
    for each non-simple E_i_j (|i - j| >= 2) the pair (E_i_k, E_k_j) with k
    adjacent to j between i and j, which defines it by roots of lower
    height.

    No pair holds an h_i, by (a), Cartan brackets: if H_k is diagonal with
    eigenvalue lambda(g) on grading g, and every stored entry (r, c) of an
    off-diagonal X has g_r - g_c = alpha_X, then [H_k, X] = lambda(alpha_X) X
    and [H_k, H_l] = 0.  No Serre pair is, by (d), Serre relations: each
    (e_i, f_i, h_i) is now an sl_2-triple, and in the finite-dimensional
    sl_2-module End(V) under ad, x = (ad e_i)^(1 - a_ij) e_j is killed by
    ad f_i (as in the proof of Serre's theorem, by the kept row
    [f_i, e_j] = 0) but has ad h_i-weight 2 - a_ij > 0, and a vector killed
    by f has weight <= 0; so x = 0, and the f side is symmetric.  So the
    generators extend to a Lie homomorphism from sl_n (Serre's theorem;
    Humphreys, GTM 9, 18.3), whose image every stored E_i_j is by induction
    on height, and every other sl_n pair holds too.

    Then (e_a, T_1) for each a, (f_j, T_j) for each j, and (T_1, T_2), by
    (c), translations: End(V) is now an sl_n-module under ad, so
    [e_a, T_1] = 0 and the weight e_1 that (a) gives T_1 make it a highest
    weight vector, which generates a copy of C^n or 0 (a finite-dimensional
    cyclic highest weight module is irreducible).  [f_j, T_j] = T_(j+1)
    pins every other T_j in that copy, so [X, T_j] = sum_i X_ij T_i for
    every X.  Then e_i ^ e_j -> [T_i, T_j] is equivariant on the
    irreducible Lambda^2 C^n, so [T_1, T_2] = 0 makes all translations
    commute.
    """
    table = affine_basis(n)
    key_at = _key_at(n)
    e = [key_at[i, i + 1] for i in range(n - 1)]
    f = [key_at[i + 1, i] for i in range(n - 1)]
    wanted = {frozenset(p) for p in itertools.product(e, f)}
    for i in range(n):
        for j in range(n):
            if abs(i - j) >= 2:
                k = j - 1 if i < j else j + 1
                wanted.add(frozenset((key_at[i, k], key_at[k, j])))
    keys = [key for key, _ in table[:n * n - 1]]
    trans = [key for key, _ in table[n * n - 1:]]
    pairs = [p for p in itertools.combinations(keys, 2) if frozenset(p) in wanted]
    pairs += [(x, trans[0]) for x in e] + list(zip(f, trans))
    pairs += [tuple(trans[:2])] if n > 1 else []

    mats = {}
    for key, entries in table:
        mats[key] = m = SMat(n + 1, n + 1)
        for a, b, v in entries:
            m.add_entry(a, b, v)

    def expand(diff: Vec) -> tuple:
        # the top left block in the sl_n basis, then column n, with T_j = -E_j_(n+1)
        at = {divmod(key, n + 1): v for key, v in diff.items() if v}
        t = [(key_at[j, n], -v) for (j, c), v in sorted(at.items()) if c == n]
        return tuple(bracket_coefficients(n, at).items()) + tuple(t)

    return tuple((a, b, expand(_bracket(mats[a], mats[b]))) for a, b in pairs)


def validate_model(rep: AffMatrixRep) -> None:
    """Re-verify the defining relations; raises ModelInvariantError naming
    the first failure.  After the keys, the translation count and the
    grading length, the grading of every generator of `affine_basis`, then
    the rows of `relation_pairs`.  The grading alone proves the brackets
    with an H_k (fact (a) of `relation_pairs`) and (b), nilpotency: T_j
    raises grading coordinate j by exactly 1 at every stored entry, so
    T_j^dim = 0; finite dimension proves the Serre relations (d).  So this
    accepts exactly the models that satisfy every relation, with no matrix power."""
    n = rep.n
    table = affine_basis(n)
    if sorted(rep.sl_gens) != sorted(key for key, _ in table[:n * n - 1]):
        raise ModelInvariantError("sl generator keys")
    if len(rep.trans_gens) != n:
        raise ModelInvariantError("translation generator count")
    if len(rep.weight_grading) != rep.dim:
        raise ModelInvariantError("grading length")

    gens = rep.sl_gens | dict(zip([key for key, _ in table[n * n - 1:]], rep.trans_gens))
    # grading: an off-diagonal entry at (a, b) shifts weights by e_a - e_b,
    # where the constant coordinate n has weight 0, so T_j shifts by e_j; a
    # diagonal generator X acts on a vector of weight g by sum_i X_ii g_i,
    # at every coordinate, a coordinate the matrix does not store included
    g = rep.weight_grading
    for key, entries in table:
        mat = gens[key]
        if all(a == b for a, b, _ in entries):
            eigenvalues = [0] * rep.dim
            for c, col in mat.cols.items():
                if len(col) != 1 or c not in col:
                    raise ModelInvariantError(f"{key} not diagonal")
                eigenvalues[c] = col[c]
            if eigenvalues != [sum(v * gc[a] for a, _, v in entries) for gc in g]:
                raise ModelInvariantError(f"{key} eigenvalue")
        else:
            [(a, b, _)] = entries
            want = tuple((1 if i == a else 0) - (1 if i == b else 0) for i in range(n))
            for c, col in mat.cols.items():
                for r in col:
                    if tuple(map(sub, g[r], g[c])) != want:
                        raise ModelInvariantError(f"grading shift of {key}")

    for a, b, terms in relation_pairs(n):
        if any(_bracket(gens[a], gens[b], [(gens[k], c) for k, c in terms]).values()):
            raise ModelInvariantError(f"[{a},{b}]")


# --- highest weight vectors and generated submodels --------------------------

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
    # E_i_j with i < j, whose single entry lies above the diagonal; every
    # T_j row's does too, so only the sl_n rows are read
    raising = [rep.sl_gens[key] for key, entries in affine_basis(rep.n)[:rep.n ** 2 - 1]
               if entries[0][0] < entries[0][1]]
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
