import functools
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affrep import serialize as ser
from affrep.gallery import cubic_top_submodel, three_generator_submodel
from affrep.linalg import SMat
from affrep.matmodel import (
    AffMatrixRep, dual_model, model_sym_dual, sl_basis_keys, sl_only_model, tensor_model)
from affrep.rationality import TwoStepExtension, decide_rationality
from affrep.schur import WeightMultiset, normalize
from dense import to_dense
from model_cases import fractional_model, sweep_labels


def W(n, *parts):
    return normalize(n, list(parts))


def test_fraction_strings():
    assert ser.fraction_from_str("3") == 3
    assert ser.fraction_from_str("-5/7") == Fraction(-5, 7)
    for bad in (None, True, 1.5, "1/0"):
        with pytest.raises(ValueError):
            ser.fraction_from_str(bad)
    # integral values are stored as int, all others as Fraction
    for integral in (3, "3", "6/2", "-0"):
        assert type(ser.fraction_from_str(integral)) is int
    assert type(ser.fraction_from_str("-5/7")) is Fraction
    for bad in (False, [], {}, Fraction(1, 2), "", "abc", "1/", "1//2", "0/0", "nan", "inf"):
        with pytest.raises(ValueError):
            ser.fraction_from_str(bad)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text("0123456789-+/. e_\t\u0663\u00b2", max_size=8),
                 st.integers(-10**6, 10**6)))
def test_fraction_from_str_is_fraction_on_int_and_str(s):
    """Accepts exactly what Fraction accepts (a ZeroDivisionError refused as
    ValueError) and returns the same value, as int when it is integral."""
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            ser.fraction_from_str(s)
        return
    got = ser.fraction_from_str(s)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


# the dense codec the matrix helpers replace, kept as their reference

def reference_rows(m: SMat) -> list[list[str]]:
    return [[str(x) for x in row] for row in to_dense(m)]


def reference_matrix(rows, dim: int) -> SMat:
    m = SMat(dim, dim)
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            m.add_entry(r, c, ser.fraction_from_str(x))
    return m


def layout(m: SMat):
    """Stored entries in storage order, which later iteration follows."""
    return [(c, list(col.items())) for c, col in m.cols.items()]


NONZERO = st.fractions(-1000, 1000, max_denominator=60).filter(bool)
ZERO_SPELLINGS = ["0", 0, "-0", "0/5"]


@st.composite
def sparse_matrices(draw):
    dim = draw(st.integers(1, 10))
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    m = SMat(dim, dim)
    for (r, c), v in draw(st.dictionaries(cells, NONZERO, max_size=2 * dim)).items():
        m.add_entry(r, c, v)
    return m


def spell(x: Fraction, k: int):
    """The k-th way a model file may spell x: a zero spelling, the canonical
    string, an unreduced fraction, or an integer."""
    if not x:
        return ZERO_SPELLINGS[k % len(ZERO_SPELLINGS)]
    options = [str(x), f"{2 * x.numerator}/{2 * x.denominator}"]
    if x.denominator == 1:
        options.append(x.numerator)
    return options[k % len(options)]


@st.composite
def spelled_matrices(draw):
    m = draw(sparse_matrices())
    cells = m.nrows * m.ncols
    picks = iter(draw(st.lists(st.integers(0, 11), min_size=cells, max_size=cells)))
    return m, [[spell(x, next(picks)) for x in row] for row in to_dense(m)]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_matrix_writer_matches_dense_reference(m):
    assert ser._matrix_to_json(m) == reference_rows(m)


@settings(max_examples=200, deadline=None)
@given(spelled_matrices())
def test_matrix_reader_matches_dense_reference(case):
    m, rows = case
    got = ser._matrix_from_json(rows, m.nrows, "m")
    want = reference_matrix(rows, m.nrows)
    assert got == want == m
    assert layout(got) == layout(want)
    assert all(v for col in got.cols.values() for v in col.values())
    assert got == ser._matrix_from_json(ser._matrix_to_json(m), m.nrows, "m")


def row_loop_reference(data, dim: int, field: str) -> SMat:
    """The reader's earlier row loop, which scans every cell of a row that
    holds any cell other than "0"; the reader stops after the last one."""
    cols: dict[int, dict] = {}
    for r, row in enumerate(data):
        if row.count("0") == dim:
            continue
        for c, x in enumerate(row):
            if x != "0":
                try:
                    v = ser.fraction_from_str(x)
                except ValueError as exc:
                    raise ValueError(f"field {field!r}: {exc}") from None
                if v:
                    cols.setdefault(c, {})[r] = v
    return SMat(dim, dim, cols)


def read_or_error(read, rows):
    try:
        return layout(read(rows, len(rows), "sl_gens.H_1"))
    except ValueError as exc:
        return str(exc)


MATRIX_CASES = {
    "last column": [["0", "0", "0"], ["0", "0", "5"], ["0", "0", "0"]],
    "two in a row": [["0", "3", "0"], ["-1/2", "0", "7"], ["0", "0", "12/4"]],
    "bad after a nonzero": [["0", "0", "0"], ["2", "0", "abc"], ["0", "x", "0"]],
    "first bad in row-major order": [["0", "0", "1/0"], ["x", "0", "0"], ["0", "0", "0"]],
    "zero spellings": [["-0", "0", "0/3"], [0, "0", "0"], ["0", "4", 0]],
    "only zero spellings": [["-0", "0", "0"], ["0", "0/3", "0"], ["0", "0", 0]],
    "true": [["0", "1", "0"], ["0", "0", True], ["0", "0", "0"]],
    "1.5": [["0", "0", "0"], ["0", "2", "0"], ["0", "0", 1.5]],
    "[]": [["0", "0", "0"], [[], "0", "0"], ["0", "0", "0"]],
    "null": [["0", "-7", "0"], ["0", None, "0"], ["0", "0", "0"]],
    "all zero": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    "canonical": [["0", "-5/7", "0"], ["12", "0", "0"], ["0", "0", "-3"]],
    "leading zero, tab, unreduced": [["05", "0", "1\t"], ["0", "6/2", "0"], ["0", "0", "0"]],
    "brackets in a cell": [["0", "1]]", "0"], ["0", "0", "0"], ["0", "0", "0"]],
}


@pytest.mark.parametrize("rows", MATRIX_CASES.values(), ids=MATRIX_CASES)
def test_matrix_reader_matches_row_loop(rows):
    """Same stored entries, in the same order, or the same error text."""
    assert read_or_error(ser._matrix_from_json, rows) == read_or_error(row_loop_reference, rows)


@settings(max_examples=200, deadline=None)
@given(spelled_matrices())
def test_matrix_reader_matches_row_loop_on_spelled_matrices(case):
    _, rows = case
    assert read_or_error(ser._matrix_from_json, rows) == read_or_error(row_loop_reference, rows)


def scanned_matrix(rows):
    """What `scan_model` reads as the one translation matrix of a rank-1
    model file that writes it as `rows`, or None if it declines the file."""
    dim = len(rows)
    text = (f'{{"N":{dim},"n":1,"sl_gens":{{}},"trans_gens":[{ser.dumps(rows)}],'
            f'"weight_grading":{ser.dumps([[0]] * dim)}}}\n').encode()
    data = ser.scan_model(text)
    return None if data is None else data["trans_gens"][0]


def canonical(x) -> bool:
    """Whether x is a string the writer writes: `str` of its value."""
    try:
        return isinstance(x, str) and str(ser.fraction_from_str(x)) == x
    except ValueError:
        return False


def typed_layout(m: SMat):
    return [(c, [(r, repr(v)) for r, v in col.items()]) for c, col in m.cols.items()]


def assert_scanned_as_read(rows):
    """The scanner reads exactly the matrices whose cells are all canonical,
    and reads them as `_matrix_from_json` does, value types included."""
    got = scanned_matrix(rows)
    assert (got is not None) == all(canonical(x) for row in rows for x in row)
    if got is not None:
        assert typed_layout(got) == typed_layout(ser._matrix_from_json(rows, len(rows), "m"))


@pytest.mark.parametrize("rows", MATRIX_CASES.values(), ids=MATRIX_CASES)
def test_scanner_reads_a_matrix_as_the_reader_does(rows):
    assert_scanned_as_read(rows)


@settings(max_examples=200, deadline=None)
@given(spelled_matrices())
def test_scanner_reads_spelled_matrices_as_the_reader_does(case):
    assert_scanned_as_read(case[1])


@st.composite
def sparse_models(draw):
    """Models in shape only (neither writer validates): rank 1 to 3, N from
    1, every matrix sparse and often empty, its rows often holding several
    entries, often in the first or the last column, with negative,
    multi-digit and fractional values."""
    n, dim = draw(st.integers(1, 3)), draw(st.integers(1, 10))
    column = st.one_of(st.sampled_from([0, dim - 1]), st.integers(0, dim - 1))
    values = st.one_of(NONZERO, st.integers(-10**6, 10**6).filter(bool))
    cells = st.dictionaries(st.tuples(st.integers(0, dim - 1), column), values, max_size=3 * dim)

    def matrix():
        m = SMat(dim, dim)
        for (r, c), v in draw(cells).items():
            m.add_entry(r, c, v)
        return m

    sl = {k: matrix() for k in sl_basis_keys(n)}
    trans = [matrix() for _ in range(n)]
    grading = draw(st.lists(st.tuples(*[st.integers(-20, 20)] * n), min_size=dim, max_size=dim))
    return AffMatrixRep(n, dim, sl, trans, grading)


@settings(max_examples=300, deadline=None)
@given(sparse_models())
@example(AffMatrixRep(1, 1, {}, [SMat(1, 1)], [(0,)]))
@example(AffMatrixRep(1, 1, {}, [SMat(1, 1, {0: {0: -7}})], [(-3,)]))
@example(AffMatrixRep(2, 5, {k: SMat(5, 5) for k in sl_basis_keys(2)},
                      [SMat(5, 5), SMat(5, 5)], [(0, 0)] * 5))
# one row with entries in the last, first and a middle column, stored out of
# column order, and a row whose only entry is in the first column
@example(AffMatrixRep(1, 4, {}, [SMat(4, 4, {3: {2: -300}, 0: {2: Fraction(-5, 7), 1: 12345},
                                             1: {2: 10}})], [(1,), (0,), (0,), (-1,)]))
def test_model_dumps_is_dumps_of_model_to_json_on_sparse_models(rep):
    assert ser.model_dumps(rep) == ser.dumps(ser.model_to_json(rep))


@pytest.mark.parametrize("build,digest", [
    (lambda: cubic_top_submodel(3),
     "5753811efe44d3feb51f7ec3c7a0f5449897ce3357995e820ddef188863dd491"),
    (lambda: three_generator_submodel(4),
     "10b436970fe41f5f1b8f7940014ad0a0928ac7724e1b21cf5bd75298c9c038c2"),
], ids=["cubic_top_submodel(3)", "three_generator_submodel(4)"])
def test_gallery_model_bytes_pinned(build, digest):
    text = ser.dumps(ser.model_to_json(build())) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert ser.dumps(ser.model_to_json(ser.model_from_json(json.loads(text)))) + "\n" == text


def test_sl_only_model_bytes_pinned_over_label_sweep():
    labels = sweep_labels()
    assert len(labels) == 34
    text = "".join(ser.dumps(ser.model_to_json(sl_only_model(w))) + "\n" for w in labels)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "094937bb903256d78251064f6f1d9cc4b3817cffadbc297aa680ff9aeee06278")


def _dumps_cases():
    """The models `model_dumps` is compared on, each with an id fixed to it.
    These 45 keep the ids pytest once gave them by position, which lists of
    test names kept across changes already hold: build0-build3 are
    `model_sym_dual(n, 2)` for n = 1-4, build4-build37 `sl_only_model` over
    `sweep_labels()`, <lambda>0 and <lambda>1 a tensor model and a dual
    tensor model, and build41-build44 `model_sym_dual(n, 1)` for n = 9-12
    (from rank 10 the sorted keys leave basis order).  A case added later is
    named after the model it builds, so inserting one moves no id."""
    labels = sweep_labels()
    assert len(labels) == 34
    return [
        *(pytest.param(functools.partial(model_sym_dual, n, 2), id=f"build{n - 1}")
          for n in (1, 2, 3, 4)),
        *(pytest.param(functools.partial(sl_only_model, w), id=f"build{4 + i}")
          for i, w in enumerate(labels)),
        pytest.param(lambda: tensor_model(sl_only_model(W(3, 2, 1)), model_sym_dual(3, 1)),
                     id="<lambda>0"),
        pytest.param(lambda: dual_model(tensor_model(sl_only_model(W(4, 1, 1)),
                                                     model_sym_dual(4, 1))), id="<lambda>1"),
        pytest.param(fractional_model, id="_fractional_model"),
        *(pytest.param(functools.partial(model_sym_dual, n, 1), id=f"build{32 + n}")
          for n in (9, 10, 11, 12)),
    ]


@pytest.mark.parametrize("build", _dumps_cases())
def test_model_dumps_is_dumps_of_model_to_json(build):
    rep = build()
    assert ser.model_dumps(rep) == ser.dumps(ser.model_to_json(rep))


@pytest.mark.parametrize("build,digest", [
    (lambda: tensor_model(sl_only_model(W(3, 2, 1)), model_sym_dual(3, 3)),
     "f20df993280068545bae56f36888ccbaa34eed7def3f49c10186344816da21d7"),
    (lambda: tensor_model(sl_only_model(W(4, 2)), model_sym_dual(4, 2)),
     "f7fbdf1b9d2073126b139d844cc37ddeaee3c25febe558e5b635ed4af437fee5"),
], ids=["N=160", "N=150"])
def test_model_dumps_pinned_on_largest_workload_shapes(build, digest):
    """The largest model shapes of the `models` benchmark workload, pinned
    as the dense writer wrote them."""
    text = ser.model_dumps(build()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_model_dumps_cases_cover_a_fraction_and_empty_sl_gens():
    assert '"-5/7"' in ser.model_dumps(fractional_model())
    assert model_sym_dual(1, 2).sl_gens == {}


def test_multiset_round_trip():
    ms = WeightMultiset.of(3, [(W(3, 2, 1), 2), W(3, 1)])
    data = json.loads(ser.dumps(ser.multiset_to_json(ms)))
    assert ser.multiset_from_json(data) == ms


def test_multiset_json_shape():
    ms = WeightMultiset.of(3, [W(3, 2, 1)])
    assert ser.multiset_to_json(ms) == {
        "n": 3,
        "summands": [{"lambda": [2, 1, 0], "mult": 1}],
    }


def test_model_round_trip_bit_exact():
    m = model_sym_dual(2, 2)
    text = ser.dumps(ser.model_to_json(m))
    back = ser.model_from_json(json.loads(text))
    assert ser.dumps(ser.model_to_json(back)) == text


def test_model_from_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        ser.model_from_json({"n": 2})


def test_extension_round_trip():
    ext = TwoStepExtension(
        3,
        WeightMultiset.of(3, [(W(3, 1), 8)]),
        WeightMultiset.of(3, [(W(3, 0), 8)]),
        WeightMultiset.of(3, []),
        True,
    )
    data = {
        "n": 3,
        "S": {"n": 3, "summands": [{"lambda": [1, 0, 0], "mult": 8}]},
        "Q": {"n": 3, "summands": [{"lambda": [0, 0, 0], "mult": 8}]},
        "W": {"n": 3, "summands": []},
        "assume_generically_free": True,
    }
    back = ser.extension_from_json(json.loads(ser.dumps(data)))
    assert back == ext


def test_verdict_serialization_has_seed():
    ext = TwoStepExtension(
        3,
        WeightMultiset.of(3, [(W(3, 1), 8)]),
        WeightMultiset.of(3, [(W(3, 0), 8)]),
        WeightMultiset.of(3, []),
        True,
    )
    v = decide_rationality(ext, seed=99)
    data = ser.verdict_to_json(v)
    assert data["seed"] == 99
    assert data["outcome"] == "RationalByB"
    assert data["evidence"]


def test_dumps_canonical():
    assert ser.dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
