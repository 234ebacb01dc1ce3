from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from affrep.linalg import Echelon, integer_rank

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

    def nothing():
        raise AssertionError("no row may be drawn")
        yield

    assert integer_rank(nothing(), stop_at=0) == 0
    # does not mutate its input
    rows = [[6, 4], [3, 5]]
    assert integer_rank(rows) == 2
    assert rows == [[6, 4], [3, 5]]
