import copy
import functools
import itertools
import json
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
from affrep.linalg import SMat
from affrep.matmodel import (
    bracket_coefficients,
    dual_model,
    generated_submodel,
    highest_weight_vectors,
    model_sym_dual,
    monomial_basis,
    model_for_weight,
    relation_pairs,
    sl_basis_keys,
    sl_defining_matrix,
    sl_only_model,
    sl_only_sum_model,
    tensor_model,
    validate_model,
    verify_degree_bound,
)
from affrep.oracle import schur_monomials
from affrep.schur import Weight, WeightMultiset, dual, normalize, weyl_dim
from dense import to_dense
from symbolic_oracle import degree_bound_holds, symbolic_unipotent


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
                t = t.add(tk.scale(k + 2))
            power = SMat.identity(m.dim)
            for _ in range(l):
                power = power.matmul(t)
            assert not power.is_zero()
            assert power.matmul(t).is_zero()


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


class TestSlOnly:
    def test_trivial(self):
        m = sl_only_model(W(3, 0))
        assert m.dim == 1
        assert all(mat.is_zero() for mat in m.sl_gens.values())
        assert all(t.is_zero() for t in m.trans_gens)

    def test_standard_with_zero_translations(self):
        m = sl_only_model(W(3, 1))
        assert m.dim == 3
        assert all(t.is_zero() for t in m.trans_gens)
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
        for a in sl_basis_keys(n):
            for b in sl_basis_keys(n):
                ma, mb = sl_defining_matrix(n, a), sl_defining_matrix(n, b)
                coeffs = bracket_coefficients(n, ma.commutator(mb))
                recon = SMat(n, n)
                for key, c in coeffs.items():
                    recon = recon.add(sl_defining_matrix(n, key).scale(c))
                assert recon == ma.commutator(mb)


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
        comm = m.sl_gens["E_1_2"].commutator(m.sl_gens["E_2_1"])
        assert comm == m.sl_gens["H_1"]

    def test_trivial_weight(self):
        m = matmodel._build_tensor_model(3, (0, 0, 0))
        assert m.dim == 1
        assert all(mat.is_zero() for mat in m.all_gens())

    def test_sym2_character(self):
        # the multiset of grading vectors must match the monomial expansion
        m = matmodel._build_tensor_model(3, (2, 0, 0))
        assert m.dim == 6
        expected = Counter()
        for e, c in schur_monomials((2, 0, 0), 3).items():
            expected[e] += c
        assert Counter(m.weight_grading) == expected

    def test_adjoint_is_bracket_equivariant(self):
        # the 8-dimensional model must act like the adjoint representation:
        # check all bracket relations hold exactly
        n = 3
        m = matmodel._build_tensor_model(n, (2, 1, 0))
        assert m.dim == 8
        keys = sl_basis_keys(n)
        for a in keys:
            for b in keys:
                lhs = m.sl_gens[a].commutator(m.sl_gens[b])
                coeffs = bracket_coefficients(
                    n, sl_defining_matrix(n, a).commutator(sl_defining_matrix(n, b))
                )
                rhs = SMat(m.dim, m.dim)
                for key, c in coeffs.items():
                    rhs = rhs.add(m.sl_gens[key].scale(c))
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
        # a self-dual size-10 label at rank 4 needs 4^10 cells, so neither
        # it nor its dual is built
        w = W(4, 5, 3, 2)
        assert dual(w) == w
        for build in (lambda: matmodel._build_tensor_model(4, w.parts),
                      lambda: model_for_weight(4, w.parts)):
            with pytest.raises(ResourceCapError) as exc:
                build()
            assert (exc.value.needed, exc.value.cap) == (4 ** 10, MAX_TENSOR_CELLS)


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
        m.sl_gens["E_1_2"] = m.sl_gens["E_1_2"].scale(2)
        with pytest.raises(ModelInvariantError):
            validate_model(m)

    def test_names_first_broken_bracket(self):
        m = model_sym_dual(3, 2)
        m.sl_gens["H_2"] = m.sl_gens["H_2"].scale(2)
        with pytest.raises(ModelInvariantError, match=r"\[E_1_2,H_2\]"):
            validate_model(m)

    def test_detects_broken_grading(self):
        m = model_sym_dual(2, 1)
        m.weight_grading[1] = (5, 5)
        with pytest.raises(ModelInvariantError):
            validate_model(m)


def _read_back(rep):
    return ser.model_from_json(json.loads(ser.dumps(ser.model_to_json(rep))))


def _entry_types(rep):
    return {type(v) for m in rep.all_gens() for col in m.cols.values() for v in col.values()}


@functools.lru_cache(maxsize=None)
def _base_models():
    """Small models of each kind the CLI writes, and read-back ones, at n = 1..4."""
    out = []
    for n, l, label in [(1, 2, (1,)), (2, 2, (2,)), (3, 1, (2, 1)), (4, 1, (1, 1))]:
        sym = model_sym_dual(n, l)
        sl = sl_only_model(W(n, *label))
        tensor = tensor_model(sl, model_sym_dual(n, 1))
        out += [sym, sl, dual_model(sym), tensor, _read_back(tensor), _read_back(dual_model(sym))]
    return out


def _gens(rep):
    """Every generator as (getter key, matrix): sl keys, then translation indices."""
    return [(k, rep.sl_gens[k]) for k in rep.sl_keys()] + list(enumerate(rep.trans_gens))


def _set_gen(rep, key, m):
    if isinstance(key, str):
        rep.sl_gens[key] = m
    else:
        rep.trans_gens[key] = m


@st.composite
def perturbed_models(draw):
    """A base model with one perturbation: add to one entry, scale a
    generator by 0, 2 or -1, swap two generators, or add a multiple of
    another generator to a translation."""
    rep = copy.deepcopy(draw(st.sampled_from(_base_models())))
    gens = _gens(rep)
    kind = draw(st.sampled_from(["entry", "scale", "swap", "translation"]))
    if kind == "entry":
        key, m = draw(st.sampled_from(gens))
        r, c = draw(st.integers(0, rep.dim - 1)), draw(st.integers(0, rep.dim - 1))
        m.add_entry(r, c, draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])))
    elif kind == "scale":
        key, m = draw(st.sampled_from(gens))
        _set_gen(rep, key, m.scale(draw(st.sampled_from([0, 2, -1]))))
    elif kind == "swap" and len(gens) > 1:
        (k1, m1), (k2, m2) = draw(st.permutations(gens))[:2]
        _set_gen(rep, k1, m2)
        _set_gen(rep, k2, m1)
    elif kind == "translation":
        j = draw(st.integers(0, rep.n - 1))
        _, other = draw(st.sampled_from(gens))
        c = draw(st.sampled_from([1, -1, 2]))
        rep.trans_gens[j] = rep.trans_gens[j].add(other.scale(c))
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

    @pytest.mark.parametrize("n,brackets,actions", [(3, 19, 12), (4, 46, 24)])
    def test_relation_set_size(self, monkeypatch, n, brackets, actions):
        # pins the generating set: at n = 4 the full set is 105 brackets and
        # 60 [X, T] checks, at n = 3 it is 28 and 24
        rep = model_sym_dual(n, 2)
        sl = {id(m) for m in rep.sl_gens.values()}
        calls = Counter()
        bracket_is = matmodel._bracket_is

        def counting(a, b, terms):
            if id(a) in sl:
                calls["bracket" if id(b) in sl else "action"] += 1
            return bracket_is(a, b, terms)

        monkeypatch.setattr(matmodel, "_bracket_is", counting)
        validate_model(rep)
        assert calls["bracket"] == brackets
        assert calls["action"] == actions
        assert len(relation_pairs(n)) == brackets


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
        rest = a.commutator(b)
        for m, c in terms:
            rest = rest.sub(m.scale(c))
        terms.append((rest, 1))
        if draw(st.booleans()):
            rest.add_entry(draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)),
                           draw(st.sampled_from([1, Fraction(-1, 3)])))
    return a, b, terms


@settings(max_examples=300, deadline=None)
@given(bracket_cases())
def test_bracket_is_agrees_with_the_commutator(case):
    a, b, terms = case
    want = SMat(a.nrows, a.ncols)
    for m, c in terms:
        want = want.add(m.scale(c))
    assert matmodel._bracket_is(a, b, terms) == (a.commutator(b) == want)


def test_integral_entries_stay_int():
    sym = model_sym_dual(3, 2)
    a = _read_back(sl_only_model(W(3, 2, 1)))
    b = _read_back(sym)
    assert _entry_types(sym) == _entry_types(a) == _entry_types(b) == {int}
    assert _entry_types(dual_model(b)) == {int}
    assert _entry_types(tensor_model(a, b)) == {int}


class TestDegreeBound:
    def test_sym_dual_models(self):
        from affrep.filtration import socle_filtration

        for n, l in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            m = model_sym_dual(n, l)
            assert verify_degree_bound(m, socle_filtration(m))

    def test_sl_only_trivially(self):
        from affrep.filtration import socle_filtration

        m = sl_only_model(W(3, 2, 1))
        assert verify_degree_bound(m, socle_filtration(m))

    def test_dual_with_radical_filtration(self):
        from affrep.filtration import radical_filtration

        m = dual_model(model_sym_dual(3, 2))
        assert verify_degree_bound(m, radical_filtration(m))

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
        assert verify_degree_bound(m, g) is False

    def test_sizes_must_sum_to_dimension(self):
        from affrep.filtration import Filtration, socle_filtration

        m = model_sym_dual(2, 2)
        f = socle_filtration(m)
        with pytest.raises(ValueError):
            verify_degree_bound(m, Filtration(f.rep, f.kind, f.snapshots[:-1], f.layers))

    def test_dependent_basis_rejected(self):
        from affrep.filtration import Filtration, socle_filtration

        m = model_sym_dual(2, 2)
        f = socle_filtration(m)
        top = f.snapshots[-1]
        snapshots = f.snapshots[:-1] + [top[:-1] + [dict(top[0])]]
        with pytest.raises(ValueError):
            verify_degree_bound(m, Filtration(f.rep, f.kind, snapshots, f.layers))

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
                    got = verify_degree_bound(m, g)
                    assert got == degree_bound_holds(m, g), (name, f.kind, g.layer_sizes())
                    outcomes.add(got)
        assert outcomes == {True, False}
