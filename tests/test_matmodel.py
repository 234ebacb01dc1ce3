import copy
import functools
import itertools
import json
import operator
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
import validator_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from affrep import matmodel
from affrep import serialize as ser
from affrep.config import MAX_TENSOR_CELLS, ModelInvariantError, ResourceCapError
from affrep.filtration import verify_degree_bound
from affrep.gallery import cubic_top_submodel, three_generator_submodel
from affrep.linalg import Echelon, SMat, common_kernel
from affrep.matmodel import (
    AffMatrixRep,
    affine_basis,
    bracket_coefficients,
    dual_model,
    generated_submodel,
    highest_weight_vectors,
    model_sym_dual,
    monomial_basis,
    model_for_weight,
    relation_pairs,
    sl_basis_keys,
    sl_only_model,
    sl_only_sum_model,
    tensor_model,
    validate_model,
)
from affrep.oracle import ssyt_contents
from affrep.schur import Weight, WeightMultiset, dual, normalize, weyl_dim
from basis_matrix import basis_matrices
from dense import to_dense
from kron_reference import identity, tensor_model_reference
from matrix_reference import add, commutator, entries, entry, matmul, scale, sub
from model_cases import fractional_model, sweep_labels
from symbolic_oracle import degree_bound_holds, symbolic_unipotent
from tensor_power_reference import tensor_power_model


def W(n, *parts):
    return normalize(n, list(parts))


class TestModelSymDual:
    def test_affine_line_shift(self):
        m = model_sym_dual(1, 1)
        assert m.dim == 2
        # ordered basis (1, x): T = d/dx maps x to 1, so exp(t T) is the
        # shift f(x) -> f(x + t)
        assert to_dense(m.trans_gens[0]) == [[0, 1], [0, 0]]

    def test_dimension(self):
        for n in (1, 2, 3):
            for l in range(5):
                assert model_sym_dual(n, l).dim == comb(n + l, l)

    def test_invariants_hold(self):
        for n in (1, 2, 3):
            for l in range(4):
                validate_model(model_sym_dual(n, l))

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError):
            model_sym_dual(3, 4, max_dim=10)

    def test_translation_nilpotency_order(self):
        # (sum v_i T_i)^(l+1) = 0, and not before, for generic v
        for n, l in [(2, 2), (2, 3), (3, 2)]:
            m = model_sym_dual(n, l)
            t = SMat(m.dim, m.dim)
            for k, tk in enumerate(m.trans_gens):
                t = add(t, scale(tk, k + 2))
            power = identity(m.dim)
            for _ in range(l):
                power = matmul(power, t)
            assert power.cols
            assert not matmul(power, t).cols


@pytest.mark.parametrize("n", range(1, 6))
def test_monomial_basis_matches_filtered_product(n):
    # the basis once filtered every tuple with entries up to the degree
    for l in range(6):
        brute = []
        for deg in range(l + 1):
            brute.extend(sorted(e for e in itertools.product(range(deg + 1), repeat=n)
                                if sum(e) == deg))
        assert monomial_basis(n, l) == brute


class TestUnipotentImage:
    """exp(sum v_i T_i), expanded symbolically by the test oracle."""

    def test_degree_two_block_entries(self):
        # the block mapping degree-2 monomials to constants of model(2,2) is
        # quadratic in v
        m = model_sym_dual(2, 2)
        sym = symbolic_unipotent(m.trans_gens, m.dim)
        # entry (constant row 0, column of x^2): polynomial of degree exactly 2
        basis = monomial_basis(2, 2)
        col_x2 = basis.index((2, 0))
        poly = sym[col_x2][0]
        assert max(sum(e) for e in poly) == 2


class TestDualModel:
    def test_involution(self):
        m = model_sym_dual(2, 2)
        d2 = dual_model(dual_model(m))
        assert all(d2.sl_gens[k] == m.sl_gens[k] for k in m.sl_keys())
        assert all(a == b for a, b in zip(d2.trans_gens, m.trans_gens))
        assert d2.weight_grading == m.weight_grading

    def test_dual_of_affine_line_lower_triangular(self):
        m = dual_model(model_sym_dual(1, 1))
        assert to_dense(m.trans_gens[0]) == [[0, 0], [-1, 0]]

    def test_invariants_hold(self):
        validate_model(dual_model(model_sym_dual(3, 2)))


TENSOR_FACTORS = (
    [("cubic_top_submodel(3)", lambda: cubic_top_submodel(3)),
     ("three_generator_submodel(4)", lambda: three_generator_submodel(4)),
     ("fraction -5/7", fractional_model)]
    + [(f"sym-dual({n},{l})", functools.partial(model_sym_dual, n, l))
       for n in (1, 2, 3) for l in range(4)]
    + [(f"sl-only{w.parts}", functools.partial(sl_only_model, w)) for w in sweep_labels()]
)


class TestTensorModel:
    def test_trivial_factor_is_identity(self):
        triv = sl_only_model(W(2, 0))
        m = model_sym_dual(2, 2)
        t = tensor_model(triv, m)
        assert all(t.sl_gens[k] == m.sl_gens[k] for k in m.sl_keys())
        assert all(a == b for a, b in zip(t.trans_gens, m.trans_gens))

    def test_dimension_and_grading(self):
        a = sl_only_model(dual(W(3, 1)))
        b = model_sym_dual(3, 2)
        t = tensor_model(a, b)
        assert t.dim == 3 * 10
        assert t.weight_grading[0] == tuple(
            x + y for x, y in zip(a.weight_grading[0], b.weight_grading[0])
        )
        validate_model(t)

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError):
            tensor_model(model_sym_dual(3, 2), model_sym_dual(3, 2), max_dim=50)

    @pytest.mark.parametrize("build", [f for _, f in TENSOR_FACTORS],
                             ids=[name for name, _ in TENSOR_FACTORS])
    def test_equals_two_kron_reference(self, build):
        # each factor and its dual, on both sides of the two rank-n partners
        # of dimension n + 1, and beside its own dual when that stays small
        for m in (build(), dual_model(build())):
            sym = model_sym_dual(m.n, 1)
            partners = (sym, dual_model(sym))
            pairs = [(m, p) for p in partners] + [(p, m) for p in partners]
            if m.dim <= 12:
                pairs.append((m, dual_model(m)))
            for a, b in pairs:
                got, want = tensor_model(a, b), tensor_model_reference(a, b)
                assert (got.n, got.dim, got.weight_grading) == (want.n, want.dim, want.weight_grading)
                assert got.sl_gens == want.sl_gens
                assert got.trans_gens == want.trans_gens
                for mat in got.all_gens():
                    assert all(col and all(col.values()) for col in mat.cols.values())

    def test_cancelled_diagonal_entries_are_not_stored(self):
        # H_1 on m (x) dual(m) is x_ii - x_ii = 0 at row and column (i, i)
        m = model_sym_dual(2, 2)
        x = m.sl_gens["H_1"]
        h = tensor_model(m, dual_model(m)).sl_gens["H_1"]
        cancelled = [i * m.dim + i for i in range(m.dim) if entry(x, i, i)]
        assert cancelled
        assert not any(entry(h, c, c) for c in cancelled)
        assert h == tensor_model_reference(m, dual_model(m)).sl_gens["H_1"]


class TestSlOnly:
    def test_trivial(self):
        m = sl_only_model(W(3, 0))
        assert m.dim == 1
        assert all(not mat.cols for mat in m.sl_gens.values())
        assert all(not t.cols for t in m.trans_gens)

    def test_standard_with_zero_translations(self):
        m = sl_only_model(W(3, 1))
        assert m.dim == 3
        assert all(not t.cols for t in m.trans_gens)
        validate_model(m)

    def test_sum_model_aligns_gradings(self):
        ms = WeightMultiset.of(
            4, [dual(W(4, 3)), dual(W(4, 2, 1)), dual(W(4, 1, 1, 1))]
        )
        m = sl_only_sum_model(ms)
        sums = {sum(g) for g in m.weight_grading}
        assert len(sums) == 1


class TestSlBasis:
    def test_defining_brackets_expand(self):
        n = 3
        mats = basis_matrices(n, n)
        for a in sl_basis_keys(n):
            for b in sl_basis_keys(n):
                ma, mb = mats[a], mats[b]
                coeffs = bracket_coefficients(n, entries(commutator(ma, mb)))
                recon = SMat(n, n)
                for key, c in coeffs.items():
                    recon = add(recon, scale(mats[key], c))
                assert recon == commutator(ma, mb)


class TestIrreducibleModel:
    def test_sl2_defining(self):
        m = matmodel._build_tensor_model(2, (1, 0))
        assert m.dim == 2
        h = to_dense(m.sl_gens["H_1"])
        # defining matrices up to basis order: check brackets and traces instead
        assert [[h[i][j] for j in range(2)] for i in range(2)] in (
            [[1, 0], [0, -1]],
            [[-1, 0], [0, 1]],
        )
        comm = commutator(m.sl_gens["E_1_2"], m.sl_gens["E_2_1"])
        assert comm == m.sl_gens["H_1"]

    def test_trivial_weight(self):
        m = matmodel._build_tensor_model(3, (0, 0, 0))
        assert m.dim == 1
        assert all(not mat.cols for mat in m.all_gens())

    def test_sym2_character(self):
        # the multiset of grading vectors must match the tableau contents
        m = matmodel._build_tensor_model(3, (2, 0, 0))
        assert m.dim == 6
        assert Counter(m.weight_grading) == Counter(ssyt_contents((2, 0, 0), 3))

    def test_adjoint_is_bracket_equivariant(self):
        # the 8-dimensional model must act like the adjoint representation:
        # check all bracket relations hold exactly
        n = 3
        m = matmodel._build_tensor_model(n, (2, 1, 0))
        assert m.dim == 8
        keys = sl_basis_keys(n)
        mats = basis_matrices(n, n)
        for a in keys:
            for b in keys:
                lhs = commutator(m.sl_gens[a], m.sl_gens[b])
                coeffs = bracket_coefficients(n, entries(commutator(mats[a], mats[b])))
                rhs = SMat(m.dim, m.dim)
                for key, c in coeffs.items():
                    rhs = add(rhs, scale(m.sl_gens[key], c))
                assert lhs == rhs, (a, b)

    def test_dimensions_match_weyl(self):
        for n, parts in [(2, (3, 0)), (3, (2, 2, 0)), (4, (1, 1, 0, 0)), (4, (2, 1, 1, 0))]:
            w = Weight(n, parts)
            assert matmodel._build_tensor_model(w.n, w.parts).dim == weyl_dim(w)

    def test_grading_shifts(self):
        m = matmodel._build_tensor_model(3, (2, 1, 0))
        e12 = m.sl_gens["E_1_2"]
        for c, col in e12.cols.items():
            for r in col:
                diff = tuple(a - b for a, b in zip(m.weight_grading[r], m.weight_grading[c]))
                assert diff == (1, -1, 0)

    def test_resource_cap(self):
        # a row of 10 boxes at rank 4 has 10 one-box columns, 4^10 cells, and
        # its dual's 10 columns of height 3 have C(4, 3)^10 = 4^10 too, so
        # neither is built, directly or through the other
        w = W(4, 10)
        assert dual(w) == W(4, 10, 10, 10)
        for parts in (w.parts, dual(w).parts):
            for build in (matmodel._build_tensor_model, model_for_weight):
                with pytest.raises(ResourceCapError) as exc:
                    build(4, parts)
                assert (exc.value.needed, exc.value.cap) == (4 ** 10, MAX_TENSOR_CELLS)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_the_tensor_power_reference(self, n):
        # every label with n^|parts| <= 1,024, the trivial one included:
        # the same basis, matrices and grading as inside the full tensor power
        labels = [parts + (0,) for d in range(11) if n ** d <= 1024
                  for parts in itertools.product(range(d + 1), repeat=n - 1)
                  if sum(parts) == d and list(parts) == sorted(parts, reverse=True)]
        for parts in labels:
            assert matmodel._build_tensor_model(n, parts) == tensor_power_model(n, parts), parts


class TestGeneratedSubmodel:
    def test_whole_space_from_standard_basis(self):
        m = model_sym_dual(2, 1)
        seeds = [{i: Fraction(1)} for i in range(m.dim)]
        sub = generated_submodel(m, seeds)
        assert sub.dim == m.dim

    def test_socle_seed_generates_socle(self):
        m = model_sym_dual(2, 2)
        # the constant function spans an invariant line
        sub = generated_submodel(m, [{0: Fraction(1)}])
        assert sub.dim == 1

    def test_highest_weight_vector_of_top_type(self):
        m = model_sym_dual(3, 2)
        hw = highest_weight_vectors(m, dual(W(3, 2)))
        assert len(hw) == 1
        sub = generated_submodel(m, hw)
        assert sub.dim == m.dim  # the top type generates everything
        validate_model(sub)

    def test_rejects_mixed_weight_seed(self):
        m = model_sym_dual(2, 1)
        with pytest.raises(ValueError):
            generated_submodel(m, [{0: Fraction(1), 1: Fraction(1)}])


class TestValidator:
    def test_detects_broken_bracket(self):
        m = model_sym_dual(2, 1)
        m.sl_gens["E_1_2"] = scale(m.sl_gens["E_1_2"], 2)
        with pytest.raises(ModelInvariantError):
            validate_model(m)

    def test_names_first_broken_bracket(self):
        # doubling E_2_3 keeps the grading, and [e_1, e_2] = E_1_3 is the
        # first relation of either check order that it breaks
        m = model_sym_dual(3, 2)
        m.sl_gens["E_2_3"] = scale(m.sl_gens["E_2_3"], 2)
        for validate in (validate_model, validator_oracle.validate_model):
            with pytest.raises(ModelInvariantError) as exc:
                validate(m)
            assert exc.value.relation == "[E_1_2,E_2_3]"
        # doubling H_2 breaks its eigenvalues, which the grading check reads
        # before any bracket
        m = model_sym_dual(3, 2)
        m.sl_gens["H_2"] = scale(m.sl_gens["H_2"], 2)
        with pytest.raises(ModelInvariantError) as exc:
            validate_model(m)
        assert exc.value.relation == "H_2 eigenvalue"

    def test_detects_broken_grading(self):
        m = model_sym_dual(2, 1)
        m.weight_grading[1] = (5, 5)
        with pytest.raises(ModelInvariantError):
            validate_model(m)

    def test_names_noncommuting_translations(self):
        # negating the second factor's part of each T_j on the first
        # factor's degree-1 vectors keeps the grading and every [X, T_j]
        # (the sign commutes with sl_n), but the factors' parts of T_1 and
        # T_2 now anticommute
        m = _anticommuting_translations_model(2)
        for validate in (validate_model, validator_oracle.validate_model):
            with pytest.raises(ModelInvariantError) as exc:
                validate(m)
            assert exc.value.relation == "[T_1,T_2]"
        # adding H_1 gives T_1 diagonal entries, which shift no weight
        m = model_sym_dual(2, 2)
        m.trans_gens[0] = add(m.trans_gens[0], m.sl_gens["H_1"])
        with pytest.raises(ModelInvariantError) as exc:
            validate_model(m)
        assert exc.value.relation == "grading shift of T_1"

    def test_names_broken_translation_action(self):
        # doubling T_2 keeps the grading and [T_1, T_2] = 0, but breaks
        # [f_1, T_1] = T_2, the first of the checked rows, and
        # [E_1_2, T_2] = T_1, the first of all [X, T_j]
        m = model_sym_dual(2, 1)
        m.trans_gens[1] = scale(m.trans_gens[1], 2)
        with pytest.raises(ModelInvariantError) as exc:
            validate_model(m)
        assert exc.value.relation == "[E_2_1,T_1]"
        with pytest.raises(ModelInvariantError) as exc:
            validator_oracle.validate_model(m)
        assert exc.value.relation == "[E_1_2,T_2]"

    def test_names_a_first_translation_that_is_no_highest_weight_vector(self):
        # a trivial summand u beside Sym^3 C^2 graded (2,-1) .. (-1,2): T_1
        # sends u to the vector graded (1, 0), which E_1_2 does not kill,
        # and T_2 = [f_1, T_1], so [f_1, T_1] = T_2 and [T_1, T_2] = 0 hold
        # and only [e_1, T_1] = 0 fails
        m = _highest_weight_translation_model(2, 1)
        for validate in (validate_model, validator_oracle.validate_model):
            with pytest.raises(ModelInvariantError) as exc:
                validate(m)
            assert exc.value.relation == "[E_1_2,T_1]"

    def test_checks_the_eigenvalue_where_a_cartan_generator_is_zero(self):
        # every generator zero on two coordinates graded (1, 0) and (0, 1):
        # H_1 must act by 1 and -1 there, which no stored entry says
        m = AffMatrixRep(2, 2, {k: SMat(2, 2) for k in sl_basis_keys(2)},
                         [SMat(2, 2), SMat(2, 2)], [(1, 0), (0, 1)])
        for validate in (validate_model, validator_oracle.validate_model):
            with pytest.raises(ModelInvariantError) as exc:
                validate(m)
            assert exc.value.relation == "H_1 eigenvalue"
        # graded (0, 0) twice it is two trivial summands, and valid
        validate_model(m._replace(weight_grading=[(0, 0), (0, 0)]))

    def test_names_broken_translation_grading(self):
        # on the affine line T_1 sends x, of weight -1, to 1, of weight 0
        m = model_sym_dual(1, 1)
        m.weight_grading[1] = (0,)
        with pytest.raises(ModelInvariantError) as exc:
            validate_model(m)
        assert exc.value.relation == "grading shift of T_1"


def _anticommuting_translations_model(n):
    """sym-dual(n,1) (x) sym-dual(n,1) with the second factor's part of each
    T_j negated on the first factor's degree-1 vectors: the sign commutes
    with sl_n, so the grading and every [X, T_j] hold, but the factors'
    parts of T_i and T_j anticommute, so [T_i, T_j] != 0."""
    a = model_sym_dual(n, 1)
    m = tensor_model(a, a)
    for t in m.trans_gens:
        for c, col in t.cols.items():
            for r in col:
                if r // a.dim == c // a.dim != 0:
                    col[r] = -col[r]
    return m


def _highest_weight_translation_model(n, a):
    """A trivial summand u beside the irreducible (3, 1^(n-2), 0) graded down
    by 1, whose vectors graded (1, 0, .., 0) have sl_n-weight omega_1.  T_1
    sends u to the one such vector v that every e_b with b != a kills (e_a
    does not), and T_(j+1) = [f_j, T_j]: every translation maps u into the
    irreducible and kills it, so the translations commute, and of the
    translation rows only [e_a, T_1] = 0 fails."""
    top = matmodel.shift_grading(sl_only_model(W(n, 3, *[1] * (n - 2))), -1)
    m = matmodel.direct_sum_model(sl_only_model(W(n)), top)
    coords = [i for i, g in enumerate(m.weight_grading) if g == (1,) + (0,) * (n - 1)]
    others = [m.sl_gens[f"E_{b}_{b + 1}"] for b in range(1, n) if b != a]
    [v] = common_kernel(others, coords, Echelon())
    m = m._replace(trans_gens=[SMat(m.dim, m.dim, {0: v})]
                   + [SMat(m.dim, m.dim) for _ in range(n - 1)])
    _rederive_translations(m, 0)
    return m


def _scaled(rep, keys, c):
    """A copy of `rep` with the generators of these keys (T_j included)
    times c."""
    rep = copy.deepcopy(rep)
    for key in keys:
        if key.startswith("T_"):
            j = int(key[2:]) - 1
            rep.trans_gens[j] = scale(rep.trans_gens[j], c)
        else:
            rep.sl_gens[key] = scale(rep.sl_gens[key], c)
    return rep


# the diagonal matrices, by their entries other than 1, that conjugate
# E_2_3 and E_3_2 in the sl_3 adjoint so that one (e_i, f_j) row with
# i != j fails; its zero weight space is coordinates 3 and 4, and a
# conjugation constant on each weight space fails both rows or neither
ADJOINT_CONJUGATIONS = {("E_1_2", "E_3_2"): {4: -1, 6: 3}, ("E_2_1", "E_2_3"): {4: 3, 0: -1}}


def _conjugated_adjoint(phi):
    """The sl_3 adjoint with E_2_3 and E_3_2 conjugated by diag(phi) (1 off
    phi's keys) and each non-simple E_p_q re-derived from its defining
    pair: the grading, each (e_i, f_i) row ([e_2, f_2] = h_2 is conjugated
    to itself) and each defining pair still hold."""
    rep = copy.deepcopy(sl_only_model(W(3, 2, 1)))
    for key in ("E_2_3", "E_3_2"):
        rep.sl_gens[key] = SMat(3 * 3 - 1, 3 * 3 - 1, {
            c: {r: Fraction(v * phi.get(r, 1), phi.get(c, 1)) for r, v in col.items()}
            for c, col in rep.sl_gens[key].cols.items()})
    for a, b, terms in relation_pairs(3):
        if len(terms) == 1 and terms[0][0].startswith("E_"):
            [(key, c)] = terms
            rep.sl_gens[key] = scale(commutator(rep.sl_gens[a], rep.sl_gens[b]), c)
    return rep


def _row_witness(n, a, b, terms):
    """A model that passes the grading and every row of relation_pairs(n)
    except (a, b), or None for an (e_i, f_j) row with i != j at n >= 4."""
    if a == "T_1":
        return _anticommuting_translations_model(n)
    x, y = map(int, a.split("_")[1:])
    if b.startswith("T_"):
        if y == x + 1:
            # (e_x, T_1)
            return _highest_weight_translation_model(n, x)
        # (f_y, T_y): T_(y+1) .. T_n doubled keeps every later (f_j, T_j)
        return _scaled(model_sym_dual(n, 1), [f"T_{j}" for j in range(y + 1, n + 1)], 2)
    if terms and terms[0][0].startswith("H_"):
        # (e_x, f_x): e_x doubled with every E_p_q (p < q) whose root
        # alpha_p + .. + alpha_(q-1) holds alpha_x; every other row is
        # homogeneous in that scaling, and [e_x, f_x] = 2 h_x
        return _scaled(model_sym_dual(n, 1), [f"E_{p}_{q}" for p in range(1, x + 1)
                                              for q in range(x + 1, n + 1)], 2)
    if not terms:
        # (e_i, f_j) with i != j
        return _conjugated_adjoint(ADJOINT_CONJUGATIONS[a, b]) if n == 3 else None
    # the defining pair of a non-simple E_p_q: E_p_q doubled with each E_p_r
    # that the rows define from it, r beyond q
    [(key, _)] = terms
    p, q = map(int, key.split("_")[1:])
    beyond = range(q, n + 1) if p < q else range(1, q + 1)
    return _scaled(model_sym_dual(n, 1), [f"E_{p}_{r}" for r in beyond], 2)


def _row_holds(rep, a, b, terms):
    gens = rep.sl_gens | {f"T_{j + 1}": t for j, t in enumerate(rep.trans_gens)}
    diff = commutator(gens[a], gens[b])
    for k, c in terms:
        diff = sub(diff, scale(gens[k], c))
    return not any(v for col in diff.cols.values() for v in col.values())


# the (e_i, f_j) rows with i != j at n = 4: kept without a witness and
# without a proof that they follow from the other rows.  At n = 3 the
# conjugated adjoint witnesses both.  At n = 4, 5,600 draws on the labels
# (2,1,1), (2,1), (2,2) and (3,1) that conjugated one or more pairs
# (E_i_(i+1), E_(i+1)_i) by random diagonals and re-derived the non-simple
# E_p_q found none: every draw failed none of these rows or two or more
UNWITNESSED_ROWS = {
    2: [],
    3: [],
    4: [("E_1_2", "E_3_2"), ("E_1_2", "E_4_3"), ("E_2_1", "E_2_3"), ("E_2_1", "E_3_4"),
        ("E_2_3", "E_4_3"), ("E_3_2", "E_3_4")],
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_row_has_a_witness_but_the_known_gap(n):
    # a witness passes the grading and every other row, fails its row, and
    # the full check refuses it: no row can be dropped
    rows = relation_pairs(n)
    unwitnessed = []
    for a, b, terms in rows:
        rep = _row_witness(n, a, b, terms)
        if rep is None:
            unwitnessed.append((a, b))
            continue
        validator_oracle.check_grading(rep)
        assert [r[:2] for r in rows if not _row_holds(rep, *r)] == [(a, b)]
        assert _failure(validate_model, rep) == f"[{a},{b}]"
        assert _failure(validator_oracle.validate_model, rep) is not None
    assert unwitnessed == UNWITNESSED_ROWS[n]


def _entries_named_by(n, key):
    """The entries a key names, read from the key alone (1-based): E_i_j is
    the matrix unit at (i, j), H_k = E_k_k - E_(k+1)_(k+1), and
    T_j = -E_j_(n+1), so the constant coordinate is column n."""
    kind, *places = key.split("_")
    places = [int(p) - 1 for p in places]
    if kind == "E":
        i, j = places
        return [(i, j, 1)]
    if kind == "H":
        (k,) = places
        return [(k, k, 1), (k + 1, k + 1, -1)]
    assert kind == "T", key
    (j,) = places
    return [(j, n, -1)]


class TestAffineBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_keys_and_translations(self, n):
        keys = [k for k, _ in affine_basis(n)]
        assert keys == ([f"E_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
                        + [f"H_{k}" for k in range(1, n)] + [f"T_{j}" for j in range(1, n + 1)])
        assert len(set(keys)) == len(keys) == n * n - 1 + n
        assert sl_basis_keys(n) == keys[:n * n - 1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_entries_are_the_ones_each_key_names(self, n):
        for key, entries in affine_basis(n):
            assert entries == _entries_named_by(n, key), key

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_relations_are_commutators_of_the_table(self, n):
        # each row's terms, in order, are the sl_n expansion of the top left
        # block of the reference commutator, then -v T_(j+1) for each entry
        # v at (j, n), by row; and they sum back to that commutator
        mats = basis_matrices(n, n + 1)
        for a, b, terms in relation_pairs(n):
            comm = commutator(mats[a], mats[b])
            at = entries(comm)
            t = [(f"T_{j + 1}", -v) for (j, c), v in sorted(at.items()) if c == n]
            assert terms == tuple(bracket_coefficients(n, at).items()) + tuple(t), (a, b)
            expect = SMat(n + 1, n + 1)
            for k, c in terms:
                expect = add(expect, scale(mats[k], c))
            assert comm == expect, (a, b, terms)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sl_rows_are_the_chevalley_pairs_and_one_defining_pair_each(self, n):
        # every (e_i, f_j), and for each non-simple E_i_j the pair
        # (E_i_k, E_k_j) with k next to j; no Serre pair
        e = [f"E_{i}_{i + 1}" for i in range(1, n)]
        f = [f"E_{i + 1}_{i}" for i in range(1, n)]
        defining = [(f"E_{i}_{j - 1 if i < j else j + 1}", f"E_{j - 1 if i < j else j + 1}_{j}")
                    for i in range(1, n + 1) for j in range(1, n + 1) if abs(i - j) >= 2]
        want = {frozenset(p) for p in itertools.product(e, f)} | {frozenset(p) for p in defining}
        rows = [p[:2] for p in relation_pairs(n) if not p[1].startswith("T_")]
        assert {frozenset(p) for p in rows} == want
        assert len(rows) == (n - 1) ** 2 + (n - 1) * (n - 2)
        assert len(relation_pairs(n)) == 2 * n * n - 3 * n + 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_translation_rows_follow_the_standard_rep(self, n):
        # [X, T_j] = sum_i X_ij T_i for (e_a, T_1) and (f_j, T_j), then
        # [T_1, T_2] = 0
        rows = [p for p in relation_pairs(n) if p[1].startswith("T_")]
        e = [(f"E_{i}_{i + 1}", 1) for i in range(1, n)]
        f = [(f"E_{j + 1}_{j}", j) for j in range(1, n)]
        mats = basis_matrices(n, n)
        want = [(x, f"T_{j}", tuple((f"T_{i + 1}", c) for i, c in mats[x].cols.get(j - 1, {}).items()))
                for x, j in e + f]
        assert rows == want + [("T_1", "T_2", ())]


def _read_back(rep):
    return ser.model_from_json(json.loads(ser.dumps(ser.model_to_json(rep))))


def _entry_types(rep):
    return {type(v) for m in rep.all_gens() for col in m.cols.values() for v in col.values()}


@functools.lru_cache(maxsize=None)
def _base_models():
    """Small models of each kind the CLI writes, and read-back ones, at n = 1..4.
    sym-dual(n,1) (x) sym-dual(n,1) has two translation paths to the
    constants, so a twist of it can fail [T_1, T_2] alone."""
    out = []
    for n, l, label in [(1, 2, (1,)), (2, 2, (2,)), (3, 1, (2, 1)), (4, 1, (1, 1))]:
        sym, sym1 = model_sym_dual(n, l), model_sym_dual(n, 1)
        sl = sl_only_model(W(n, *label))
        tensor = tensor_model(sl, sym1)
        out += [sym, sl, dual_model(sym), tensor, _read_back(tensor), _read_back(dual_model(sym)),
                tensor_model(sym1, sym1)]
    return out


def _gens(rep):
    """Every generator as (getter key, matrix): sl keys, then translation indices."""
    return [(k, rep.sl_gens[k]) for k in rep.sl_keys()] + list(enumerate(rep.trans_gens))


def _set_gen(rep, key, m):
    if isinstance(key, str):
        rep.sl_gens[key] = m
    else:
        rep.trans_gens[key] = m


def _rederive_translations(rep, j):
    """Set each translation after the one at index j to [f_k, T_k] of the one
    before it, so the (f_k, T_k) rows from there on hold; the grading is
    kept."""
    for k in range(j, rep.n - 1):
        rep.trans_gens[k + 1] = commutator(rep.sl_gens[f"E_{k + 2}_{k + 1}"], rep.trans_gens[k])


@st.composite
def perturbed_models(draw):
    """A base model with one perturbation: add to one entry, scale a
    generator by 0, 2 or -1, swap two generators, add a multiple of
    another generator to a translation, rescale one or two stored
    entries by 2, -1, 1/2 or 3, or twist a translation.  A twist adds 1, -1
    or 2 at one or two places with T_1's grading shift, or with a random
    T_j's (re-derive), then sets each later T_(k+1) = [f_k, T_k].  The
    rescale and the twists keep the grading, so they reach the brackets and
    translation rows the other kinds mostly stop before, and a twist keeps
    the (f_k, T_k) rows after T_j, so it reaches the (e_a, T_1) rows and,
    rarely, [T_1, T_2]."""
    rep = copy.deepcopy(draw(st.sampled_from(_base_models())))
    gens = _gens(rep)
    kind = draw(st.sampled_from(["entry", "scale", "swap", "translation", "rescale",
                                 "twist", "re-derive"]))
    if kind == "entry":
        key, m = draw(st.sampled_from(gens))
        r, c = draw(st.integers(0, rep.dim - 1)), draw(st.integers(0, rep.dim - 1))
        m.add_entry(r, c, draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])))
    elif kind == "scale":
        key, m = draw(st.sampled_from(gens))
        _set_gen(rep, key, scale(m, draw(st.sampled_from([0, 2, -1]))))
    elif kind == "swap" and len(gens) > 1:
        (k1, m1), (k2, m2) = draw(st.permutations(gens))[:2]
        _set_gen(rep, k1, m2)
        _set_gen(rep, k2, m1)
    elif kind == "translation":
        j = draw(st.integers(0, rep.n - 1))
        _, other = draw(st.sampled_from(gens))
        c = draw(st.sampled_from([1, -1, 2]))
        rep.trans_gens[j] = add(rep.trans_gens[j], scale(other, c))
    elif kind == "rescale":
        stored = [(m.cols[c], r) for _, m in gens for c in m.cols for r in m.cols[c]]
        if stored:
            picks = st.lists(st.integers(0, len(stored) - 1), min_size=1, max_size=2, unique=True)
            for i in draw(picks):
                col, r = stored[i]
                col[r] *= draw(st.sampled_from([2, -1, Fraction(1, 2), 3]))
    elif kind in ("twist", "re-derive"):
        j = 0 if kind == "twist" else draw(st.integers(0, rep.n - 1))
        g = rep.weight_grading
        shift = tuple(int(i == j) for i in range(rep.n))
        places = [(r, c) for c in range(rep.dim) for r in range(rep.dim)
                  if tuple(map(operator.sub, g[r], g[c])) == shift]
        if places:
            picks = st.lists(st.sampled_from(places), min_size=1, max_size=2, unique=True)
            for r, c in draw(picks):
                rep.trans_gens[j].add_entry(r, c, draw(st.sampled_from([1, -1, 2])))
            _rederive_translations(rep, j)
    return rep


def _failure(validate, rep):
    try:
        validate(rep)
    except ModelInvariantError as exc:
        return exc.relation
    return None


def _check_position(n: int, message: str):
    """(stage, position) of a failure message in the oracle's check order;
    messages of the later, shared checks are compared whole."""
    keys = sl_basis_keys(n)
    if message.startswith("[T_"):
        return 2, message
    if message.startswith("["):
        a, b = message[1:-1].split(",")
        if b.startswith("T_"):
            return 3, (keys.index(a), int(b[2:]))
        return 1, list(itertools.combinations(keys, 2)).index((a, b))
    return 0, message


class TestValidatorAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(perturbed_models())
    def test_accepts_and_rejects_like_all_pairs(self, rep):
        new = _failure(validate_model, rep)
        old = _failure(validator_oracle.validate_model, rep)
        assert (new is None) == (old is None), (new, old)
        if new is None:
            return
        stage, pos = _check_position(rep.n, new)
        old_stage, old_pos = _check_position(rep.n, old)
        # the reduced checks run in the oracle's order, so the oracle fails
        # at the same kind of check, no later; the shared checks agree
        assert old_stage == stage
        if stage in (1, 3):
            assert old_pos <= pos
        else:
            assert old == new
        # and the new message names a relation of the reduced set
        a, _, b = new[1:-1].partition(",")
        if stage == 1:
            assert (a, b) in [p[:2] for p in relation_pairs(rep.n)]
        if stage == 3:
            assert a in {f"E_{i}_{i + 1}" for i in range(1, rep.n)} | {
                f"E_{i + 1}_{i}" for i in range(1, rep.n)}

    def test_unperturbed_models_pass_both(self):
        for rep in _base_models():
            validate_model(rep)
            validator_oracle.validate_model(rep)

    @pytest.mark.parametrize("n,brackets,actions", [(3, 6, 4), (4, 15, 6)])
    def test_relation_set_size(self, monkeypatch, n, brackets, actions):
        # pins the rows the grading and finite dimension leave open: every
        # (e_i, f_j) and one defining pair per non-simple E_i_j, so
        # (n - 1)(2n - 3) brackets, where the full set is 105 brackets, 60
        # [X, T] checks and 6 [T_i, T_j] at n = 4, and 28, 24 and 3 at n = 3
        rep = model_sym_dual(n, 2)
        sl = {id(m) for m in rep.sl_gens.values()}
        calls = Counter()
        bracket = matmodel._bracket

        def counting(a, b, terms=()):
            if id(a) in sl:
                calls["bracket" if id(b) in sl else "action"] += 1
            return bracket(a, b, terms)

        monkeypatch.setattr(matmodel, "_bracket", counting)
        validate_model(rep)
        assert calls["bracket"] == brackets
        assert calls["action"] == actions
        # the translation relations are rows of the same table: the one pair
        # [T_1, T_2] is not a call on an sl generator
        assert len(relation_pairs(n)) == brackets + 1 + actions


def _check_grading_facts(rep):
    """What the grading check proves: (b) T_j^dim = 0, and (a)
    [H_k, X] = lambda_k(alpha_X) X for every off-diagonal generator X, the
    T_j included, where alpha_X is X's shift e_a - e_b (e_n = 0) and
    lambda_k(alpha) = alpha_k - alpha_(k+1)."""
    n = rep.n
    for t in rep.trans_gens:
        power = t
        for _ in range(rep.dim - 1):
            power = matmul(power, t)
        assert not power.cols
    gens = rep.sl_gens | {f"T_{j + 1}": t for j, t in enumerate(rep.trans_gens)}
    for key, x in gens.items():
        entries = _entries_named_by(n, key)
        if len(entries) != 1:
            continue
        [(a, b, _)] = entries
        alpha = [(i == a) - (i == b) for i in range(n)]
        for k in range(n - 1):
            h = rep.sl_gens[f"H_{k + 1}"]
            assert commutator(h, x) == scale(x, alpha[k] - alpha[k + 1]), (key, k)


class TestGradingFacts:
    def test_base_models(self):
        for rep in _base_models():
            _check_grading_facts(rep)

    @settings(max_examples=300, deadline=None)
    @given(perturbed_models())
    def test_perturbations_that_keep_the_grading(self, rep):
        try:
            validator_oracle.check_grading(rep)
        except ModelInvariantError:
            return
        _check_grading_facts(rep)


@st.composite
def small_sparse_matrices(draw, dim):
    """A dim x dim matrix with a few int or Fraction entries."""
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    m = SMat(dim, dim)
    for (r, c), v in draw(st.dictionaries(cells, entry, max_size=2 * dim)).items():
        m.add_entry(r, c, v)
    return m


@st.composite
def bracket_cases(draw):
    """Matrices a, b and terms (m, c); half the time one more term makes the
    terms sum to [a, b] exactly, and sometimes one entry is then moved."""
    dim = draw(st.integers(1, 5))
    a, b = draw(small_sparse_matrices(dim)), draw(small_sparse_matrices(dim))
    coeff = st.sampled_from([1, -1, 2, Fraction(1, 2)])
    terms = [(draw(small_sparse_matrices(dim)), draw(coeff))
             for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        rest = commutator(a, b)
        for m, c in terms:
            rest = sub(rest, scale(m, c))
        terms.append((rest, 1))
        if draw(st.booleans()):
            rest.add_entry(draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)),
                           draw(st.sampled_from([1, Fraction(-1, 3)])))
    return a, b, terms


@settings(max_examples=300, deadline=None)
@given(bracket_cases())
def test_bracket_agrees_with_the_commutator(case):
    # the table holds ab - ba - sum c m, zeros aside, keyed by r * N + j
    a, b, terms = case
    want = commutator(a, b)
    for m, c in terms:
        want = sub(want, scale(m, c))
    got = {key: v for key, v in matmodel._bracket(a, b, terms).items() if v}
    assert got == {r * a.nrows + j: v for (r, j), v in entries(want).items()}


def test_integral_entries_stay_int():
    sym = model_sym_dual(3, 2)
    a = _read_back(sl_only_model(W(3, 2, 1)))
    b = _read_back(sym)
    assert _entry_types(sym) == _entry_types(a) == _entry_types(b) == {int}
    assert _entry_types(dual_model(b)) == {int}
    assert _entry_types(tensor_model(a, b)) == {int}


def test_generated_models_store_no_integral_fraction():
    # `restrict` stores an integral coordinate as int, however the echelon
    # rows it was read from came to hold it
    models = [model_for_weight(w.n, w.parts) for w in sweep_labels()]
    models += [cubic_top_submodel(3), three_generator_submodel(4)]
    for rep in models:
        assert not any(isinstance(v, Fraction) and v.denominator == 1
                       for m in rep.all_gens() for col in m.cols.values() for v in col.values())


class TestDegreeBound:
    def test_sym_dual_models(self):
        from affrep.filtration import socle_filtration

        for n, l in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            m = model_sym_dual(n, l)
            assert verify_degree_bound(socle_filtration(m))

    def test_sl_only_trivially(self):
        from affrep.filtration import socle_filtration

        m = sl_only_model(W(3, 2, 1))
        assert verify_degree_bound(socle_filtration(m))

    def test_dual_with_radical_filtration(self):
        from affrep.filtration import radical_filtration

        m = dual_model(model_sym_dual(3, 2))
        assert verify_degree_bound(radical_filtration(m))

    @pytest.mark.parametrize("reorder", [
        lambda s: s[::-1],
        lambda s: [s[1], s[3], s[0], s[2]],
        lambda s: [[row for step in s for row in step]],
    ], ids=["reversed", "shuffled", "merged"])
    def test_reordered_layers_fail(self, reorder):
        from affrep.filtration import Filtration, socle_filtration

        m = model_sym_dual(2, 3)
        f = socle_filtration(m)
        g = Filtration(f.rep, f.kind, reorder(f.snapshots), f.layers)
        assert verify_degree_bound(g) is False

    def test_sizes_must_sum_to_dimension(self):
        from affrep.filtration import Filtration, socle_filtration

        m = model_sym_dual(2, 2)
        f = socle_filtration(m)
        with pytest.raises(ValueError):
            verify_degree_bound(Filtration(f.rep, f.kind, f.snapshots[:-1], f.layers))

    def test_dependent_basis_rejected(self):
        from affrep.filtration import Filtration, socle_filtration

        m = model_sym_dual(2, 2)
        f = socle_filtration(m)
        top = f.snapshots[-1]
        snapshots = f.snapshots[:-1] + [top[:-1] + [dict(top[0])]]
        with pytest.raises(ValueError):
            verify_degree_bound(Filtration(f.rep, f.kind, snapshots, f.layers))

    def test_agrees_with_symbolic_expansion(self):
        from affrep.filtration import Filtration, radical_filtration, socle_filtration
        from affrep.selftest import _model_sweep

        rng = random.Random(5)
        outcomes = set()
        for name, m in _model_sweep():
            for f in (socle_filtration(m), radical_filtration(m)):
                shuffled = list(f.snapshots)
                rng.shuffle(shuffled)
                for snapshots in (f.snapshots, f.snapshots[::-1], shuffled):
                    g = Filtration(f.rep, f.kind, snapshots, f.layers)
                    got = verify_degree_bound(g)
                    assert got == degree_bound_holds(m, g), (name, f.kind, g.layer_sizes())
                    outcomes.add(got)
        assert outcomes == {True, False}
