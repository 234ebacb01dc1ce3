import itertools

import pytest

from affrep.oracle import (
    monomials_to_schur,
    poly_mul,
    product_as_multiset,
    schur_monomials,
    ssyt_contents,
)
from affrep.schur import Weight, lr_decompose, normalize, weyl_dim


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
            assert count == sum(schur_monomials(shape, n).values())


def test_two_var_product():
    s1 = schur_monomials((1, 0), 2)
    prod = poly_mul(s1, s1)
    assert monomials_to_schur(prod, 2) == {(2, 0): 1, (1, 1): 1}


def test_specialization_matches_weyl_dim():
    for n in (3, 4):
        for shape in [(0,) * n, (1,) + (0,) * (n - 1), (2, 1) + (0,) * (n - 2), (2, 2) + (0,) * (n - 2)]:
            w = Weight(n, shape)
            assert sum(schur_monomials(shape, n).values()) == weyl_dim(w)


def test_product_expansion_matches_lr():
    a = W(3, 2, 1)
    b = W(3, 1)
    assert product_as_multiset(a, b) == lr_decompose(a, b)


def test_monomials_to_schur_rejects_asymmetric():
    with pytest.raises(ValueError):
        monomials_to_schur({(0, 1): 1}, 2)


def test_oracle_lr_sweep_small():
    # the full |a|,|b| <= 4 sweep is in the acceptance suite; spot-check here
    weights = [W(3, 1), W(3, 1, 1), W(3, 2), W(3, 2, 1)]
    for a, b in itertools.product(weights, repeat=2):
        assert product_as_multiset(a, b) == lr_decompose(a, b)
