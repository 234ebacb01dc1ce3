import itertools
from collections import Counter

from affrep.oracle import (
    decompose_character,
    irrep_character,
    poly_mul,
    product_as_multiset,
    ssyt_contents,
)
from affrep.schur import Weight, WeightMultiset, grading_rep, lr_decompose, normalize, weyl_dim


def W(n, *parts):
    return normalize(n, list(parts))


def test_ssyt_count_is_dimension():
    for n in (2, 3, 4):
        for shape in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1)]:
            count = len(ssyt_contents(shape, n))
            if len(shape) > n:
                assert count == 0
            else:
                # Weyl dimension only sees part differences, so the normalized
                # SL_n label has the same dimension as the GL_n module
                assert count == weyl_dim(normalize(n, list(shape)))
            assert count == sum(irrep_character(n, shape).values())


def test_two_var_product():
    s1 = irrep_character(2, (1, 0))
    prod = poly_mul(s1, s1)
    assert decompose_character(2, prod) == WeightMultiset.of(2, [W(2, 2), W(2)])


def test_specialization_matches_weyl_dim():
    for n in (3, 4):
        for shape in [(0,) * n, (1,) + (0,) * (n - 1), (2, 1) + (0,) * (n - 2), (2, 2) + (0,) * (n - 2)]:
            w = Weight(n, shape)
            assert sum(irrep_character(n, shape).values()) == weyl_dim(w)


def test_reduced_characters_multiply_like_monomials():
    # product_as_multiset multiplies characters modulo the diagonal: the
    # product of the reduced characters is the reduced monomial product
    for a, b in [((2, 1, 0), (1, 0, 0)), ((2, 0, 0), (1, 1, 0)), ((1, 1, 0), (1, 1, 0))]:
        monomials = poly_mul(Counter(ssyt_contents(a, 3)), Counter(ssyt_contents(b, 3)))
        reduced = Counter()
        for e, c in monomials.items():
            reduced[grading_rep(e)] += c
        assert poly_mul(irrep_character(3, a), irrep_character(3, b)) == reduced


def test_product_expansion_matches_lr():
    a = W(3, 2, 1)
    b = W(3, 1)
    assert product_as_multiset(a, b) == lr_decompose(a, b)


def test_oracle_lr_sweep_small():
    # the full |a|,|b| <= 4 sweep is in the acceptance suite; spot-check here
    weights = [W(3, 1), W(3, 1, 1), W(3, 2), W(3, 2, 1)]
    for a, b in itertools.product(weights, repeat=2):
        assert product_as_multiset(a, b) == lr_decompose(a, b)
