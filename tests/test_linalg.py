from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affrep.config import ModelInvariantError
from affrep.linalg import Echelon, SMat, closure, integer_rank, nullspace, restrict, vec_add_scaled

NCOLS = 12
ENTRY = st.integers(-10**6, 10**6)


@st.composite
def integer_rows(draw):
    """Up to 15 sparse integer rows; some are integer combinations of earlier
    rows, so dependent rows with large entries occur often."""
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, 15))):
        if rows and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(range(len(rows))), min_size=1, max_size=3))
            row = [0] * NCOLS
            for i in picks:
                c = draw(st.integers(-50, 50))
                row = [x + c * y for x, y in zip(row, rows[i])]
        else:
            support = draw(st.sets(st.integers(0, NCOLS - 1), max_size=4))
            row = [0] * NCOLS
            for j in support:
                row[j] = draw(ENTRY)
        rows.append(row)
    return rows


def echelon_rank(rows) -> int:
    ech = Echelon()
    for row in rows:
        ech.insert({j: Fraction(x) for j, x in enumerate(row) if x})
    return len(ech)


@settings(max_examples=300, deadline=None)
@given(integer_rows())
def test_integer_rank_equals_echelon_rank(rows):
    assert integer_rank(rows) == echelon_rank(rows)


@settings(max_examples=300, deadline=None)
@given(integer_rows(), st.integers(1, NCOLS + 1))
def test_integer_rank_stops_at_kept_rows(rows, k):
    pulled = []

    def feed():
        for row in rows:
            pulled.append(row)
            yield row

    got = integer_rank(feed(), stop_at=k)
    assert got == min(k, integer_rank(rows))
    if got == k:
        # the last row drawn is the k-th one kept
        assert integer_rank(pulled) == k
        assert integer_rank(pulled[:-1]) == k - 1
    else:
        assert len(pulled) == len(rows)


def test_integer_rank_small_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[2, 4], [3, 6]]) == 1
    assert integer_rank([[0, 3], [5, 0], [7, 7]]) == 2
    assert integer_rank(iter([[1, 0], [0, 1], [1, 1]]), stop_at=2) == 2
    # does not mutate its input
    rows = [[6, 4], [3, 5]]
    assert integer_rank(rows) == 2
    assert rows == [[6, 4], [3, 5]]


def test_integer_rank_stop_at_zero_draws_no_row():
    def nothing():
        raise AssertionError("no row may be drawn")
        yield

    assert integer_rank(nothing(), stop_at=0) == 0


HUGE = st.integers(2**64, 2**80)


@st.composite
def huge_integer_rows(draw):
    """Up to 10 rows with entries above 2^64 in absolute value: a few base
    rows and integer combinations of them with coefficients that large."""
    base = draw(st.lists(
        st.lists(st.one_of(st.just(0), HUGE, HUGE.map(lambda x: -x)),
                 min_size=NCOLS, max_size=NCOLS),
        min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = [0] * NCOLS
        for b in draw(st.lists(st.sampled_from(base), min_size=1, max_size=3)):
            c = draw(st.one_of(st.integers(-3, 3), HUGE))
            row = [x + c * y for x, y in zip(row, b)]
        rows.append(row)
    return rows


@settings(max_examples=100, deadline=None)
@given(huge_integer_rows())
def test_integer_rank_of_huge_entries_equals_echelon_rank(rows):
    assert integer_rank(rows) == echelon_rank(rows)


def back_substitution_nullspace(equations, variables):
    """The kernel by a full back-substitution over every entry of each
    reduced row, the reference for the read-off in `nullspace`."""
    ech = Echelon()
    for eq in equations:
        ech.insert(eq)
    pivots = set(ech.rows)
    free = [v for v in variables if v not in pivots]
    basis = []
    for f in free:
        sol = {f: Fraction(1)}
        # back-substitute: pivot variable p satisfies x_p = -sum_{j>p} row[j] x_j
        for p in sorted(ech.rows, reverse=True):
            row = ech.rows[p]
            s = Fraction(0)
            for j, c in row.items():
                if j == p:
                    continue
                if j in sol:
                    s += c * sol[j]
            if s:
                sol[p] = -s
        basis.append(sol)
    return basis


@st.composite
def equation_sets(draw):
    """Sparse equations over a sorted subset of the columns, with `int` or
    `Fraction` entries; some rows combine earlier ones, so the rank drops."""
    variables = sorted(draw(st.sets(st.integers(0, NCOLS - 1), min_size=1)))
    entry = st.one_of(st.integers(-30, 30),
                      st.fractions(min_value=-30, max_value=30, max_denominator=12))
    equations: list[dict] = []
    for _ in range(draw(st.integers(0, 10))):
        if equations and draw(st.booleans()):
            row: dict = {}
            for i in draw(st.lists(st.sampled_from(range(len(equations))), min_size=1, max_size=3)):
                c = draw(st.integers(-5, 5))
                for j, x in equations[i].items():
                    row[j] = row.get(j, 0) + c * x
            row = {j: x for j, x in row.items() if x}
        else:
            support = draw(st.lists(st.sampled_from(variables), max_size=4, unique=True))
            row = {j: draw(entry) for j in support}
            row = {j: x for j, x in row.items() if x}
        equations.append(row)
    return equations, variables


@settings(max_examples=300, deadline=None)
@given(equation_sets())
def test_nullspace_matches_back_substitution(case):
    equations, variables = case
    got = nullspace(equations, variables)
    # the same vectors with the same key order: model files built from
    # kernel vectors keep their bytes
    assert [list(v.items()) for v in got] == [
        list(v.items()) for v in back_substitution_nullspace(equations, variables)]
    ech = Echelon()
    for eq in equations:
        ech.insert(eq)
    assert len(got) == len(variables) - len(ech)
    for vec in got:
        assert set(vec) <= set(variables)
        for eq in equations:
            assert sum(c * vec.get(j, 0) for j, c in eq.items()) == 0


# the ascending-pivot elimination that `Echelon.reduce` and `coords` replace,
# kept as their reference

def ascending_reduce(ech, v):
    out, coeff = dict(v), {}
    for p in sorted(ech.rows):
        c = out.get(p)
        if c:
            coeff[p] = c
            out = vec_add_scaled(out, ech.rows[p], -c)
    return out, coeff


@st.composite
def echelons_and_vectors(draw):
    """An echelon built from sparse equations, and vectors to reduce: free
    ones, and combinations of its rows with or without a free part."""
    equations, variables = draw(equation_sets())
    ech = Echelon()
    for eq in equations:
        ech.insert(eq)
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=5))
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        vec = {j: draw(entry) for j in draw(st.lists(st.integers(0, NCOLS - 1),
                                                      max_size=4, unique=True))}
        vec = {j: x for j, x in vec.items() if x}
        if ech.rows and draw(st.booleans()):
            if draw(st.booleans()):
                vec = {}
            for p in draw(st.lists(st.sampled_from(sorted(ech.rows)), max_size=3)):
                vec = vec_add_scaled(vec, ech.rows[p], draw(entry))
        vectors.append(vec)
    return ech, vectors


@settings(max_examples=300, deadline=None)
@given(echelons_and_vectors())
def test_reduce_and_coords_match_ascending_elimination(case):
    ech, vectors = case
    for vec in vectors:
        residue, coeff = ascending_reduce(ech, vec)
        assert ech.reduce(vec) == residue
        assert ech.coords(vec) == (None if residue else coeff)
        assert ech.contains(vec) == (not residue)


def test_insert_keeps_int_rows_for_unit_pivots():
    ech = Echelon()
    assert ech.insert({1: -1, 3: 4}) == 1
    assert ech.insert({0: 1, 1: 2, 2: 5}) == 0
    assert ech.rows == {1: {1: 1, 3: -4}, 0: {0: 1, 2: 5, 3: 8}}
    assert {type(x) for row in ech.rows.values() for x in row.values()} == {int}
    # a pivot that does not divide every entry of its row, and only that,
    # makes a Fraction
    assert ech.insert({2: 2, 3: 1}) == 2
    assert ech.rows[2] == {2: 1, 3: Fraction(1, 2)}
    assert ech.rows[0] == {0: 1, 3: Fraction(11, 2)}
    assert type(ech.rows[1][3]) is int


class ReferenceEchelon:
    """`Echelon.insert` by the book: reduce by the kept rows in ascending
    pivot order, divide the row by its pivot as a `Fraction`, and clear the
    new pivot from every kept row that holds it, scanning them all."""

    def __init__(self):
        self.rows = {}

    def insert(self, v):
        row, _ = ascending_reduce(self, v)
        if not row:
            return None
        p = min(row)
        inv = 1 / Fraction(row[p])
        row = {i: x * inv for i, x in row.items()}
        for q, r in self.rows.items():
            if p in r:
                self.rows[q] = vec_add_scaled(r, row, -r[p])
        self.rows[p] = row
        return p


@st.composite
def insert_sequences(draw):
    """Sparse vectors to insert in order: integer ones with small and large
    entries, often scaled so that the pivot divides every entry, some with
    fractions (integral ones among them), and combinations of earlier ones,
    so that dependent vectors are common."""
    entry = st.one_of(st.integers(-9, 9), ENTRY, st.fractions(-9, 9, max_denominator=6))
    vecs = []
    for _ in range(draw(st.integers(1, 12))):
        if vecs and draw(st.booleans()):
            vec = {}
            for i in draw(st.lists(st.sampled_from(range(len(vecs))), min_size=1, max_size=3)):
                vec = vec_add_scaled(vec, vecs[i], draw(st.integers(-5, 5)))
        else:
            support = draw(st.lists(st.integers(0, NCOLS - 1), max_size=5, unique=True))
            vec = {j: x for j in support if (x := draw(entry))}
        scale = draw(st.sampled_from([1, -1, 2, -3, 6]))
        vecs.append({j: x * scale for j, x in vec.items()})
    return vecs


@settings(max_examples=500, deadline=None)
@given(insert_sequences())
@example([{0: 2, 3: 4}])
# clearing pivot 1 from the first row leaves its entry 1/2 + 1/2
@example([{0: 2, 1: 1, 2: 1}, {1: 1, 2: -1}])
def test_insert_matches_the_fraction_reference(vecs):
    ech, ref = Echelon(), ReferenceEchelon()
    for vec in vecs:
        assert ech.insert(vec) == ref.insert(vec)
        assert ech.rows == ref.rows
        assert not [x for row in ech.rows.values() for x in row.values()
                    if type(x) is Fraction and x.denominator == 1]


def test_insert_divides_a_row_its_pivot_divides_in_integers():
    ech = Echelon()
    assert ech.insert({0: 2, 3: 4}) == 0
    assert [(i, type(x), x) for i, x in ech.rows[0].items()] == [(0, int, 1), (3, int, 2)]
    # a pivot that divides some entries only: those stay int
    assert ech.insert({1: 4, 2: 6, 3: 8}) == 1
    assert [(i, type(x), x) for i, x in ech.rows[1].items()] == [
        (1, int, 1), (2, Fraction, Fraction(3, 2)), (3, int, 2)]


def test_insert_never_mutates_a_stored_row():
    # the filtrations keep `ech.rows[p]` itself in their snapshots, so a
    # later insert that clears p's row from a pivot column must replace
    # the row with a fresh dict, not edit it
    ech = Echelon()
    vec = {0: 1, 1: 2, 2: 3}
    p = ech.insert(vec)
    stored, copy = ech.rows[p], dict(ech.rows[p])
    assert ech.insert({1: 1, 3: 1}) == 1
    assert ech.insert({2: 2, 3: 5}) == 2
    assert ech.rows[p] == {0: 1, 3: Fraction(-19, 2)}
    assert ech.rows[p] is not stored
    assert stored == copy and vec == {0: 1, 1: 2, 2: 3}


DIM = 5
# mostly zeros, so that proper invariant subspaces are common
SPARSE_ENTRY = st.sampled_from([0, 0, 0, 0, 1, -1, 2])


@st.composite
def ops_and_seeds(draw):
    """One to three sparse integer DIM x DIM matrices and one or two integer
    seed vectors (possibly zero)."""
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        m = SMat(DIM, DIM)
        for r in range(DIM):
            for c in range(DIM):
                m.add_entry(r, c, draw(SPARSE_ENTRY))
        mats.append(m)
    seeds = [{i: x for i, x in enumerate(draw(st.lists(SPARSE_ENTRY, min_size=DIM, max_size=DIM)))
              if x} for _ in range(draw(st.integers(1, 2)))]
    return mats, seeds


def krylov_dim(mats, seeds) -> int:
    """dim of the span of all words in the matrices applied to the seeds,
    grown one word length at a time until the integer rank stops growing."""
    words, frontier = list(seeds), list(seeds)
    rank = None
    while True:
        new = integer_rank([v.get(i, 0) for i in range(DIM)] for v in words)
        if new == rank:
            return rank
        rank = new
        frontier = [m.apply(v) for m in mats for v in frontier]
        words += frontier


@settings(max_examples=200, deadline=None)
@given(ops_and_seeds())
def test_closure_is_the_smallest_invariant_span(case):
    mats, seeds = case
    ech = closure(seeds, [m.apply for m in mats])
    assert all(ech.contains(s) for s in seeds)
    assert all(ech.contains(m.apply(row)) for m in mats for row in ech.rows.values())
    assert len(ech) == krylov_dim(mats, seeds)


@settings(max_examples=200, deadline=None)
@given(ops_and_seeds())
def test_restrict_is_the_matrix_on_the_pivot_ordered_rows(case):
    mats, seeds = case
    ech = closure(seeds, [m.apply for m in mats])
    rows = [ech.rows[p] for p in sorted(ech.rows)]
    for m in mats:
        res = restrict(ech, m.apply)
        assert (res.nrows, res.ncols) == (len(rows), len(rows))
        for j, row in enumerate(rows):
            image: dict = {}
            for i, c in res.cols.get(j, {}).items():
                image = vec_add_scaled(image, rows[i], c)
            assert image == m.apply(row)


@settings(max_examples=200, deadline=None)
@given(ops_and_seeds())
def test_restrict_refuses_a_span_that_is_not_invariant(case):
    mats, seeds = case
    ech = Echelon()
    for s in seeds:
        ech.insert(s)
    for m in mats:
        if all(ech.contains(m.apply(row)) for row in ech.rows.values()):
            restrict(ech, m.apply)
        else:
            with pytest.raises(ModelInvariantError):
                restrict(ech, m.apply)


def test_restrict_refuses_a_line_that_is_moved():
    # e_1 -> e_2 moves the line through e_1 off itself
    shift = SMat(2, 2, {0: {1: 1}})
    ech = Echelon()
    ech.insert({0: 1})
    with pytest.raises(ModelInvariantError):
        restrict(ech, shift.apply)
    assert len(closure([{0: 1}], [shift.apply])) == 2
