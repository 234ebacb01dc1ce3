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


def unpruned_ssyt_contents(shape, num_vars):
    """`ssyt_contents` without its column bound: every cell tries each
    entry from its row and column lower bound up to num_vars, so a branch
    may end with no tableau."""
    shape = tuple(p for p in shape if p > 0)
    if not shape:
        return ((0,) * num_vars,)
    if len(shape) > num_vars:
        return ()
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid, out, content = {}, [], [0] * num_vars

    def rec(idx):
        if idx == len(cells):
            out.append(tuple(content))
            return
        r, c = cells[idx]
        lo = grid[(r, c - 1)] if c > 0 else 1
        if (r - 1, c) in grid:
            lo = max(lo, grid[(r - 1, c)] + 1)
        for v in range(lo, num_vars + 1):
            grid[(r, c)] = v
            content[v - 1] += 1
            rec(idx + 1)
            content[v - 1] -= 1
            del grid[(r, c)]

    rec(0)
    return tuple(out)


def test_ssyt_contents_equal_the_unpruned_enumeration():
    # every shape with parts <= 4 and up to num_vars + 1 rows at 1-5
    # variables: the same tableaux in the same order
    shapes = 0
    for num_vars in range(1, 6):
        for rows in range(num_vars + 2):
            for shape in itertools.combinations_with_replacement(range(4, 0, -1), rows):
                assert ssyt_contents(shape, num_vars) == unpruned_ssyt_contents(shape, num_vars), (
                    shape, num_vars)
                shapes += 1
    assert shapes == 456


def test_tall_columns_are_enumerated_without_dead_branches():
    # a column one short of num_vars omits one value; unpruned, the walk
    # visits about 2^num_vars partial columns (2^32 here)
    got = ssyt_contents((1,) * 31, 32)
    assert sorted(got) == sorted(tuple(int(i != j) for i in range(32)) for j in range(32))
    for shape, num_vars in [((2,) * 10, 12), ((3, 3, 2, 2, 1, 1, 1), 8)]:
        assert len(ssyt_contents(shape, num_vars)) == weyl_dim(normalize(num_vars, list(shape)))
