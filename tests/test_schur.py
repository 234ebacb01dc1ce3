import itertools
import os
import subprocess
import sys

import pytest
from cli_process import SRC
from hypothesis import given, settings
from hypothesis import strategies as st

from affrep.catalog import irreps_up_to_dim
from affrep.oracle import product_as_multiset
from affrep.schur import (
    Weight,
    WeightMultiset,
    check_lr_gap_bound,
    contains,
    dual,
    horizontal_strips,
    lr_decompose,
    lr_outer_shapes,
    multiset_fits_in_product,
    normalize,
    pieri_sym,
    tensor_counts,
    weyl_dim,
)


def W(n, *parts):
    return normalize(n, list(parts))


def small_weights(n, max_size):
    """All normalized weights of rank n with at most max_size boxes."""
    out = []
    for parts in itertools.product(range(max_size + 1), repeat=n - 1):
        if all(a >= b for a, b in zip(parts, parts[1:])) and sum(parts) <= max_size:
            out.append(Weight(n, parts + (0,)))
    return sorted(set(out))


class TestNormalize:
    def test_determinant_is_trivial(self):
        assert normalize(3, [1, 1, 1]).parts == (0, 0, 0)

    def test_strip_one_column(self):
        assert normalize(3, [2, 1, 1]).parts == (1, 0, 0)
        assert normalize(4, [3, 2, 2, 1]).parts == (2, 1, 1, 0)

    def test_pads_short_input(self):
        assert normalize(4, [3, 2, 2]).parts == (3, 2, 2, 0)

    def test_idempotent(self):
        for n in (2, 3, 4):
            for w in small_weights(n, 4):
                assert normalize(n, w.parts) == w

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            normalize(3, [1, 2, 0])

    def test_rejects_too_long(self):
        with pytest.raises(ValueError):
            normalize(2, [1, 1, 1])

    def test_rejects_negative_below_padding(self):
        with pytest.raises(ValueError):
            normalize(3, [1, -1])


class TestWeightHash:
    def test_equal_weights_hash_equal(self):
        for n in (1, 2, 3, 4):
            for w in small_weights(n, 4):
                twin = Weight(n, tuple(w.parts))
                assert twin == w and twin is not w
                assert hash(twin) == hash(w)
                assert {w: 1}[twin] == 1
                ms, ms_twin = WeightMultiset(n, ((w, 2),)), WeightMultiset(n, ((twin, 2),))
                assert ms_twin == ms and hash(ms_twin) == hash(ms)
                assert {ms: 1}[ms_twin] == 1

    def test_hash_is_the_tuple_hash(self):
        for w in small_weights(3, 4) + [normalize(2, [5]), normalize(1, [])]:
            assert hash(w) == hash((w.n, w.parts))
            ms = WeightMultiset.of(w.n, [w, w, normalize(w.n, [])])
            assert hash(ms) == hash((ms.n, ms.entries))

    def test_order_is_the_tuple_order(self):
        labels = [w for n in (2, 3, 4) for w in irreps_up_to_dim(n, 64)]
        for a in labels:
            for b in labels:
                ta, tb = (a.n, a.parts), (b.n, b.parts)
                assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
                assert (a == b) == (ta == tb)

    def test_hash_ignores_the_hash_seed(self):
        # a multiset and an extension are cache keys through their tuple hash
        code = ("from affrep.schur import normalize; "
                "from affrep.rationality import TwoStepExtension; "
                "ext = TwoStepExtension.of(3, [normalize(3, [1])], [normalize(3, [])]); "
                "print(hash(normalize(4, [2, 1])), hash(normalize(3, [])), "
                "hash(ext.S), hash(ext))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        outs = set()
        for hashseed in ("0", "1", "12345"):
            env["PYTHONHASHSEED"] = hashseed
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        s = (3, (((3, (1, 0, 0)), 1),))
        q = (3, (((3, (0, 0, 0)), 1),))
        ext = (3, s, q, (3, ()), False)
        assert outs == {f"{hash((4, (2, 1, 0, 0)))} {hash((3, (0, 0, 0)))} "
                        f"{hash(s)} {hash(ext)}\n"}


class TestWeightMultiset:
    def test_of_merges_repeats(self):
        ms = WeightMultiset.of(3, [W(3, 1), W(3, 1), (W(3, 2), 2)])
        assert ms.count(W(3, 1)) == 2
        assert ms.count(W(3, 2)) == 2
        assert ms.dim() == 2 * 3 + 2 * 6

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(ValueError):
            WeightMultiset(3, ((W(3, 2), 1), (W(3, 1), 1)))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            WeightMultiset.of(3, [Weight(2, (1, 0))])

    @pytest.mark.parametrize("entries,message", [
        (((Weight(2, (1, 0)), 1),), r"weight \[1,0\] has rank 2, expected 3"),
        (((W(3, 1), 0),), r"multiplicity of \[1,0,0\] must be >= 1, got 0"),
        (((W(3, 1), 1), (W(3, 1), 2)), r"duplicate entry for \[1,0,0\]"),
        (((W(3, 0), 1), (W(3, 2), 1), (W(3, 1), 1)),
         r"entries not in canonical order; use WeightMultiset\.of"),
    ])
    def test_direct_construction_names_each_fault(self, entries, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightMultiset(3, entries)


class TestDual:
    def test_dual_of_standard(self):
        assert dual(W(3, 1)).parts == (1, 1, 0)

    def test_traceless_adjoint_self_dual(self):
        assert dual(W(4, 2, 1, 1)).parts == (2, 1, 1, 0)

    def test_dual_of_sym2(self):
        assert dual(W(3, 2)).parts == (2, 2, 0)

    def test_involutive_and_dim_preserving(self):
        for n in (2, 3, 4):
            for w in small_weights(n, 5):
                assert dual(dual(w)) == w
                assert weyl_dim(dual(w)) == weyl_dim(w)


class TestWeylDim:
    def test_standard(self):
        assert weyl_dim(W(3, 1)) == 3

    def test_traceless_adjoint(self):
        assert weyl_dim(W(3, 2, 1)) == 8

    def test_sym3(self):
        assert weyl_dim(W(3, 3)) == 10

    def test_sym_powers_binomial(self):
        from math import comb

        for n in (2, 3, 4):
            for k in range(6):
                assert weyl_dim(W(n, k)) == comb(n + k - 1, k)

    def test_rank_one(self):
        assert weyl_dim(Weight(1, (0,))) == 1


class TestPieri:
    def test_one_box_on_sym3(self):
        got = pieri_sym(W(3, 3), 1)
        assert got == WeightMultiset.of(3, [W(3, 4), W(3, 3, 1)])

    def test_trivial_times_sym2(self):
        assert pieri_sym(W(3, 0), 2) == WeightMultiset.of(3, [W(3, 2)])

    def test_sl2_standard_squared(self):
        got = pieri_sym(W(2, 1), 1)
        assert got == WeightMultiset.of(2, [W(2, 2), W(2, 0)])

    def test_dimension_additivity(self):
        for n in (2, 3, 4):
            for w in small_weights(n, 4):
                for k in range(4):
                    total = pieri_sym(w, k).dim()
                    assert total == weyl_dim(w) * weyl_dim(W(n, k))

    def test_agrees_with_lr_on_sym(self):
        for n in (2, 3, 4):
            for w in small_weights(n, 4):
                for k in range(4):
                    assert pieri_sym(w, k) == lr_decompose(w, W(n, k))

    def test_strips_match_unpruned_enumeration(self):
        # every non-increasing row sequence with parts <= 4 at 1-5 rows
        cases = 0
        for nrows in range(1, 6):
            for parts in itertools.combinations_with_replacement(range(4, -1, -1), nrows):
                for k in range(9):
                    got = list(horizontal_strips(parts, k, nrows))
                    assert got == list(unpruned_strips(parts, k, nrows)), (parts, k)
                    cases += 1
        assert cases == 2259


def unpruned_strips(parts, k, nrows):
    """Reference: the horizontal-strip scan without the lower bound from the
    rows below, which tries every value of a row up to `base[i] + remaining`."""
    base = list(parts) + [0] * (nrows - len(parts))

    def rec(i, remaining, prev):
        if i == nrows:
            if remaining == 0:
                yield ()
            return
        lo = base[i]
        hi = min(prev, base[i] + remaining) if i > 0 else base[i] + remaining
        if i > 0:
            hi = min(hi, base[i - 1])
        for v in range(lo, hi + 1):
            for rest in rec(i + 1, remaining - (v - base[i]), v):
                yield (v,) + rest

    yield from rec(0, k, None)


class TestLR:
    def test_standard_squared(self):
        got = lr_decompose(W(3, 1), W(3, 1))
        assert got == WeightMultiset.of(3, [W(3, 2), W(3, 1, 1)])

    def test_adjoint_times_standard(self):
        got = lr_decompose(W(3, 2, 1), W(3, 1))
        assert got == WeightMultiset.of(3, [W(3, 3, 1), W(3, 2, 2), W(3, 1)])

    def test_adjoint_squared_contains_adjoint_twice(self):
        got = lr_decompose(W(3, 2, 1), W(3, 2, 1))
        assert got.count(W(3, 2, 1)) == 2
        assert got.dim() == 64

    def test_symmetric(self):
        for n in (2, 3):
            ws = small_weights(n, 3)
            for a in ws:
                for b in ws:
                    assert lr_decompose(a, b) == lr_decompose(b, a)

    def test_dimension_additivity(self):
        for n in (2, 3, 4):
            ws = small_weights(n, 3)
            for a in ws:
                for b in ws:
                    assert lr_decompose(a, b).dim() == weyl_dim(a) * weyl_dim(b)

    def test_rank_one(self):
        t = Weight(1, (0,))
        assert lr_decompose(t, t) == WeightMultiset.of(1, [t])

    def test_outer_shapes_are_the_sweep(self):
        # every shape contains the larger factor (the first on a tie), has
        # both factors' boxes in at most n rows, and every summand is one
        for n in (2, 3):
            ws = small_weights(n, 3)
            for a in ws:
                for b in ws:
                    outer = b if b.size > a.size else a
                    shapes = list(lr_outer_shapes(a, b))
                    assert len(set(shapes)) == len(shapes)
                    for nu in shapes:
                        assert len(nu) == n and sum(nu) == a.size + b.size
                        assert all(x >= y for x, y in zip(nu, outer.parts))
                    labels = {normalize(n, nu) for nu in shapes}
                    assert labels >= {w for w, _ in lr_decompose(a, b).entries}


class TestContains:
    def test_pieri_arrow(self):
        assert contains(W(3, 4), W(3, 3), W(3, 1)) == 1

    def test_degree_mismatch(self):
        assert contains(W(3, 5), W(3, 3), W(3, 1)) == 0

    def test_adjoint_multiplicity(self):
        assert contains(W(3, 2, 1), W(3, 2, 1), W(3, 2, 1)) == 2


# --- multiset (x) irrep against independent references ----------------------

SMALL = {n: small_weights(n, 4) for n in (2, 3, 4)}


def fits_by_contains(inner, outer, factor):
    """Reference: the per-weight `contains` sums `multiset_fits_in_product`
    used before it compared against one product."""
    for w, m in inner.entries:
        avail = sum(mu * contains(w, u, factor) for u, mu in outer.entries)
        if avail < m:
            return False
    return True


def oracle_tensor(ms, factor):
    """(ms) (x) (irrep factor) through the monomial oracle, one label at a time."""
    return WeightMultiset.of(ms.n, [
        (w, m * c) for u, m in ms.entries for w, c in product_as_multiset(u, factor).entries
    ])


@st.composite
def multisets(draw, n):
    labels = draw(st.lists(st.sampled_from(SMALL[n]), max_size=3, unique=True))
    return WeightMultiset.of(n, [(w, draw(st.integers(1, 4))) for w in labels])


@st.composite
def products(draw):
    """(outer, factor) with labels of size <= 4 at ranks 2-4."""
    n = draw(st.integers(2, 4))
    return draw(multisets(n)), draw(st.sampled_from(SMALL[n]))


@settings(max_examples=100, deadline=None)
@given(products())
def test_tensor_matches_monomial_oracle(case):
    outer, factor = case
    got = WeightMultiset.of(outer.n, tensor_counts(outer.entries, factor).items())
    assert got == oracle_tensor(outer, factor)


@settings(max_examples=100, deadline=None)
@given(products(), st.data())
def test_fits_in_product_matches_contains_sums(case, data):
    outer, factor = case
    n = outer.n
    product = oracle_tensor(outer, factor)
    # a sub-multiset of the product, maybe with one multiplicity pushed over
    counts = [data.draw(st.integers(0, m)) for _, m in product.entries]
    if counts and data.draw(st.booleans()):
        counts[data.draw(st.integers(0, len(counts) - 1))] += 1
    sub = WeightMultiset.of(n, [(w, c) for (w, _), c in zip(product.entries, counts)])
    for inner in (sub, product, data.draw(multisets(n))):
        assert multiset_fits_in_product(inner.entries, outer.entries, factor) == (
            fits_by_contains(inner, outer, factor))
    assert multiset_fits_in_product(product.entries, outer.entries, factor)


@st.composite
def larger_pairs(draw):
    """(a, b) at ranks 2-3 with |a| in 5..6 and |b| <= 6."""
    n = draw(st.integers(2, 3))
    ws = small_weights(n, 6)
    a = draw(st.sampled_from([w for w in ws if w.size >= 5]))
    return a, draw(st.sampled_from(ws))


@settings(max_examples=60, deadline=None)
@given(larger_pairs())
def test_lr_matches_monomial_oracle_beyond_size_4(pair):
    a, b = pair
    assert lr_decompose(a, b) == product_as_multiset(a, b)


class TestGapBound:
    def test_trivial_weight(self):
        for k in range(6):
            assert check_lr_gap_bound(W(3, 0), k)

    def test_adjoint_k4(self):
        assert check_lr_gap_bound(W(3, 2, 1), 4)

    def test_vacuous_bound(self):
        assert check_lr_gap_bound(W(3, 3, 3), 1)

    def test_brute_force_strips(self):
        # independent re-enumeration of strip additions for one instance
        w = W(3, 2, 1)
        k = 4
        bound = k - w.parts[0]
        seen = 0
        for n1 in range(w.parts[0], w.parts[0] + k + 1):
            for n2 in range(w.parts[1], min(n1, w.parts[0]) + 1):
                for n3 in range(w.parts[2], min(n2, w.parts[1]) + 1):
                    if n1 + n2 + n3 == w.size + k:
                        seen += 1
                        assert n1 - n2 >= bound
        assert seen == len(list(horizontal_strips(w.parts, k, 3)))
