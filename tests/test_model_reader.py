"""The model-file reader.  `serialize.scan_model` reads the text the writer
produces, and `cli.read_model_file` reads any other text with `json`.  Each
file here is read through `cli.main` twice, once as the program reads it and
once with the scanner declining everything; both must give the same model,
or the same exit code and `error:` line."""

import contextlib
import io
import json
import tracemalloc
from unittest import mock

import pytest
from byte_mutations import mutated
from hypothesis import given, settings
from hypothesis import strategies as st

from affrep import cli
from affrep import serialize as ser
from affrep.cli import main
from affrep.config import DEFAULT_MAX_MODEL_DIM
from affrep.gallery import cubic_top_submodel, three_generator_submodel
from affrep.matmodel import direct_sum_model, model_sym_dual, sl_only_model, tensor_model
from affrep.schur import normalize

# a 3-dim model with a nonzero cell in every generator:
# {"N":3,"n":2,"sl_gens":{"E_1_2":[["0","0","0"],["0","0","-1"],["0","0","0"]],...
TEXT = (ser.model_dumps(model_sym_dual(2, 1)) + "\n").encode()
FIRST = TEXT.index(b'"E_1_2":') + 8, TEXT.index(b',"E_2_1"')  # E_1_2's matrix
GRADING = TEXT.index(b'"weight_grading":') + 17


def layout(rep):
    """A model as plain data: its generators' stored entries in storage
    order, with the type of each value."""
    mats = [*rep.sl_gens.items(), *enumerate(rep.trans_gens)]
    return (rep.n, rep.dim, rep.weight_grading,
            [(k, m.nrows, m.ncols,
              [(c, [(r, type(v).__name__, v) for r, v in col.items()])
               for c, col in m.cols.items()]) for k, m in mats])


def read_through_main(path, scan: bool) -> tuple:
    """(exit code, stdout, stderr, layouts of the models read) of `model
    dual --in path`, with the scanner or with `json` alone."""
    models, real = [], ser.model_from_json

    def keep(data):
        rep = real(data)
        models.append(layout(rep))
        return rep

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(ser, "model_from_json", keep))
        if not scan:
            stack.enter_context(mock.patch.object(ser, "scan_model", lambda raw: None))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        rc = main(["model", "dual", "--in", str(path)])
    return rc, out.getvalue(), err.getvalue(), models


def assert_read_alike(path):
    fast, slow = read_through_main(path, True), read_through_main(path, False)
    assert fast == slow
    return fast


def test_the_base_text_reads_both_ways(tmp_path):
    f = tmp_path / "m.json"
    f.write_bytes(TEXT)
    rc, out, err, models = assert_read_alike(f)
    assert (rc, err, len(models)) == (0, "", 1)
    assert ser.scan_model(TEXT) is not None


def _cell(spelling: bytes):
    # the first nonzero cell, "-1" in E_1_2
    return lambda t: t.replace(b'"-1"', b'"' + spelling + b'"', 1)


ZERO_ROWS = b"[" + b",".join([b'["0","0","0"]'] * 3) + b"]"
# (name, edit of TEXT, whether the scanner reads the edited text)
NAMED = [
    ("space after a separator", lambda t: t.replace(b",", b", ", 1), False),
    ("n before N", lambda t: t.replace(b'{"N":3,"n":2,', b'{"n":2,"N":3,'), False),
    # json keeps the later value: E_1_2 is then zero and the model invalid
    ("duplicated sl_gens key", lambda t: t[:FIRST[1]] + b',"E_1_2":' + ZERO_ROWS + t[FIRST[1]:],
     False),
    ("duplicated sl_gens key, same matrix",
     lambda t: t[:FIRST[1]] + b',"E_1_2":' + t[FIRST[0]:FIRST[1]] + t[FIRST[1]:], False),
    ("cell -0", _cell(b"-0"), False),
    ("cell 6/2", _cell(b"6/2"), False),
    ("cell 05", _cell(b"05"), False),
    # canonical, so read by the scanner, and refused by validation
    ("cell 1", _cell(b"1"), True),
    ("cell -5/7", _cell(b"-5/7"), True),
    ("cell 1 and a raw tab", _cell(b"1\t"), False),
    ("cell 1 and an escaped tab", _cell(b"1\\t"), False),
    ("cell 1]]", _cell(b"1]]"), False),
    ("cell 1/0", _cell(b"1/0"), False),
    ("cell with a non-ASCII digit", _cell("٣".encode()), False),
    ("UTF-8 BOM", lambda t: b"\xef\xbb\xbf" + t, False),
    ("trailing x", lambda t: t + b"x", False),
    ("no final newline", lambda t: t[:-1], True),
    ("CRLF ending", lambda t: t[:-1] + b"\r\n", False),
    ("weight_grading nested 10,000 deep",
     lambda t: t[:GRADING] + b"[" * 10_000 + b"]" * 10_000 + b"}\n", False),
    ("a row fewer than N", lambda t: t.replace(b',["0","0","0"]],"E_2_1"', b'],"E_2_1"', 1),
     False),
    ("a row more than N", lambda t: t.replace(b']],"E_2_1"', b'],["0","0","0"]],"E_2_1"', 1),
     False),
    ("N larger than the rows", lambda t: t.replace(b'"N":3', b'"N":4', 1), False),
    ("a control character in a key", lambda t: t.replace(b"E_1_2", b"E_1\x01_2", 1), False),
    ("an escaped key", lambda t: t.replace(b"E_1_2", b"E_1\\u005f2", 1), False),
    ("a row's bracket spelled as a cell", lambda t: t.replace(b'[["0"', b'[1"0"', 1), False),
    ("no comma between generators", lambda t: t.replace(b']],"E_2_1"', b']]"E_2_1"', 1), False),
    ("no comma between translations", lambda t: t.replace(b"]],[[", b"]][[", 1), False),
    ("a space in the grading", lambda t: t.replace(b"[[0,0],", b"[[0, 0],", 1), False),
    ("a bracket for the final brace", lambda t: t[:-2] + b"]\n", False),
    ("truncated in a matrix", lambda t: t[:len(t) // 2], False),
    ("truncated before the last brace", lambda t: t[:-2], False),
]


@pytest.mark.parametrize("edit,scanned", [case[1:] for case in NAMED],
                         ids=[case[0] for case in NAMED])
def test_named_edits_read_alike(tmp_path, edit, scanned):
    text = edit(TEXT)
    assert text != TEXT
    f = tmp_path / "m.json"
    f.write_bytes(text)
    assert_read_alike(f)
    assert (ser.scan_model(text) is not None) == scanned


def test_named_edits_end_as_expected(tmp_path):
    # a sample of the cases above, so that "read alike" is not "both crash alike"
    results = {}
    for name, edit, _ in NAMED:
        f = tmp_path / "m.json"
        f.write_bytes(edit(TEXT))
        rc, out, err, _ = read_through_main(f, True)
        results[name] = (rc, err)
    assert results["space after a separator"] == (0, "")
    assert results["n before N"] == (0, "")
    assert results["no final newline"] == (0, "")
    assert results["CRLF ending"] == (0, "")
    assert results["duplicated sl_gens key, same matrix"] == (0, "")
    assert results["an escaped key"] == (0, "")
    assert results["a space in the grading"] == (0, "")
    assert results["cell 05"][0] == 1
    assert results["cell 1/0"] == (
        1, "error: field 'sl_gens.E_1_2': rational '1/0' has a zero denominator\n")
    assert results["UTF-8 BOM"][1].startswith("error: invalid JSON in ")
    assert results["weight_grading nested 10,000 deep"][1].endswith(": nested too deeply\n")
    assert results["a row fewer than N"] == (
        1, "error: field 'sl_gens.E_1_2' must be a list of 3 lists of 3 entries\n")


@settings(max_examples=300, deadline=None)
@given(mutated(TEXT))
def test_mutated_files_read_alike(tmp_path_factory, text):
    f = tmp_path_factory.mktemp("mutated") / "m.json"
    f.write_bytes(text)
    assert_read_alike(f)


@st.composite
def respelled(draw, text: bytes) -> bytes:
    """`text` with one quoted cell spelled another way, often canonically."""
    cells = text.split(b'"')
    # the pieces at odd indices are quoted; the first few are keys
    at = draw(st.sampled_from([i for i in range(1, len(cells), 2)
                               if cells[i][:1] in b"-0123456789"]))
    cells[at] = draw(st.one_of(
        st.integers(-12, 12).map(str),
        st.fractions(-3, 3, max_denominator=4).map(str),
        st.text("0123456789-/ \t]", min_size=1, max_size=4),
    )).encode()
    return b'"'.join(cells)


@settings(max_examples=200, deadline=None)
@given(respelled(TEXT))
def test_respelled_cells_read_alike(tmp_path_factory, text):
    f = tmp_path_factory.mktemp("respelled") / "m.json"
    f.write_bytes(text)
    assert_read_alike(f)


def _written_by_model(tmp_path):
    """The files `affrep model` writes, one of each kind, the rank-1 one
    with empty `sl_gens`."""
    a, b, s, t, d = (tmp_path / f"{x}.json" for x in "abstd")
    for argv in (["sl-only", "--n", "3", "--lambda", "2,1,0", "--out", a],
                 ["sym-dual", "--n", "3", "--l", "2", "--out", b],
                 ["sym-dual", "--n", "1", "--l", "3", "--out", s],
                 ["tensor", "--a", a, "--b", b, "--out", t],
                 ["dual", "--in", t, "--out", d]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["model", *map(str, argv)]) == 0
    assert json.loads(s.read_text())["sl_gens"] == {}
    return [a, b, s, t, d]


def _written_by_model_dumps(tmp_path):
    """The bundled models, the two largest `models` workload shapes (N 160
    and N 150) and a direct sum."""
    models = [
        cubic_top_submodel(3),
        three_generator_submodel(4),
        tensor_model(sl_only_model(normalize(3, [2, 1])), model_sym_dual(3, 3)),
        tensor_model(sl_only_model(normalize(4, [2])), model_sym_dual(4, 2)),
        direct_sum_model(model_sym_dual(2, 2), sl_only_model(normalize(2, [1]))),
    ]
    files = [tmp_path / f"m{i}.json" for i in range(len(models))]
    for f, rep in zip(files, models):
        f.write_text(ser.model_dumps(rep) + "\n", encoding="utf-8")
    return files


@pytest.mark.parametrize("written", [_written_by_model, _written_by_model_dumps],
                         ids=["affrep model", "model_dumps"])
def test_every_file_the_program_writes_is_scanned(tmp_path, monkeypatch, written):
    """A writer change that sent every read back to `json` fails here."""
    files = written(tmp_path)
    want = [layout(ser.model_from_json(json.loads(f.read_bytes()))) for f in files]

    def no_json(text, path):
        raise AssertionError(f"{path} was read with json")

    monkeypatch.setattr(cli, "_parse_json", no_json)
    assert [layout(cli.read_model_file(str(f), DEFAULT_MAX_MODEL_DIM)) for f in files] == want


def test_a_short_file_claiming_a_huge_n_builds_no_template(tmp_path):
    # the all-zero text of N 5,000 would take 100 MB
    text = b'{"N":5000,"n":2,"sl_gens":{},"trans_gens":[],"weight_grading":[]}\n'
    f = tmp_path / "m.json"
    f.write_bytes(text)
    tracemalloc.start()
    try:
        assert ser.scan_model(text) is None
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["filtrate", str(f)]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert err.getvalue() == "error: field 'trans_gens' must be a list of 2 matrices\n"
