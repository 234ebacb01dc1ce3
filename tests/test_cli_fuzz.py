"""Command-line fuzzing: random argv for the weight commands and malformed
multiset, extension and model files (model files also as byte-level
mutations of the writer's text), run through `cli.main` in process so
that an escaping exception fails the test with its own traceback.  Every run
must return an exit code from 0 to 3; a usage error returns 1 like any other
error, so a `SystemExit` escaping `main` fails the test.
"""

import argparse
import contextlib
import io
import json

import pytest
from byte_mutations import mutated
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affrep import serialize as ser
from affrep.cli import build_parser, main
from affrep.matmodel import model_sym_dual

MALFORMED_TOKENS = ["", "x", "1.5", "-", ",", "1,,2", "1 2", "٣", "0x10", "1e3", "nan",
                    "--n", "99999999999999999999", "-99999999999999999999"]


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            raise AssertionError(f"SystemExit({exc.code!r}) escaped main for {argv}") from None


def _one_in(k):
    """True about once in k draws.  Hypothesis draws zero, its simplest
    integer, far more often than one time in k, so the rare case is an
    interior value."""
    return st.integers(0, k - 1).map(lambda x: x == k // 2)


def _or_malformed(values):
    # malformed once in eight: a malformed int-typed flag ends the run at
    # argparse, before any weight is parsed
    return _one_in(8).flatmap(lambda bad: st.sampled_from(MALFORMED_TOKENS) if bad else values)


RANKS = _or_malformed(st.integers(-2, 6).map(str))
WEIGHTS = _or_malformed(
    st.lists(st.integers(-3, 6), min_size=1, max_size=7).map(lambda xs: ",".join(map(str, xs))))
DEGREES = _or_malformed(st.integers(-2, 8).map(str))
COMMAND_FLAGS = {
    "dim": {"--n": RANKS, "--lambda": WEIGHTS},
    "dual": {"--n": RANKS, "--lambda": WEIGHTS},
    "tensor": {"--n": RANKS, "--a": WEIGHTS, "--b": WEIGHTS},
    "pieri": {"--n": RANKS, "--lambda": WEIGHTS, "--k": DEGREES},
}
# the flags every weight command takes besides its own; a flag its parser
# refuses would end the run at argparse, before any weight is parsed
COMMON_FLAGS = {
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--seed": _or_malformed(st.integers(-5, 5).map(str)),
}


def test_draws_exactly_the_flags_each_parser_takes():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, flags in COMMAND_FLAGS.items():
        taken = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert set(flags) | set(COMMON_FLAGS) == taken - {"-h", "--help"}, command


@st.composite
def weight_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag, values in COMMAND_FLAGS[command].items():
        if not draw(_one_in(8)):  # a required flag is sometimes missing
            argv += [flag, draw(values)]
    for flag, values in COMMON_FLAGS.items():
        if not draw(st.integers(0, 3)):
            argv += [flag, draw(values)]
    if draw(_one_in(6)):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(MALFORMED_TOKENS)))
    return argv


@settings(max_examples=300, deadline=None)
@given(weight_argv())
# huge k at rank 6: astronomically many horizontal strips, refused by a cap
@example(["pieri", "--n", "6", "--lambda", "99999999999999999999",
          "--k", "99999999999999999999"])
def test_weight_commands_never_raise(argv):
    assert _exit_code(argv) in (0, 1, 2, 3)


# valid files, each then broken by replacing or deleting one or two values
VALID_FILES = {
    "classify": {"n": 3, "summands": [{"lambda": [1, 0, 0], "mult": 2},
                                      {"lambda": [2, 1, 0], "mult": 1}]},
    "check2step": {"n": 3, "S": {"n": 3, "summands": [{"lambda": [4, 3, 0]}]},
                   "Q": {"n": 3, "summands": [{"lambda": [3, 3, 0]}]},
                   "W": {"n": 3, "summands": [{"lambda": [1, 0, 0], "mult": 2}]},
                   "assume_generically_free": False},
    "filtrate": ser.model_to_json(model_sym_dual(2, 1)),
}
MODEL_TEXT = (ser.model_dumps(model_sym_dual(2, 1)) + "\n").encode()
# integers stay small: a huge multiplicity of a bad-family label is a
# well-formed input the classifier has no cap for
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.text(max_size=4), st.sampled_from(["0", "1", "-1", "1/2", "1/0"]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "N", "summands", "lambda", "mult", "S", "Q", "W"]),
        children, max_size=4),
    max_leaves=10)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def broken_document(draw, doc):
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return doc


@pytest.mark.parametrize("command", sorted(VALID_FILES))
def test_valid_file_runs(tmp_path, command):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(VALID_FILES[command]))
    assert _exit_code([command, str(f)]) in (0, 2, 3)


@pytest.mark.parametrize("command", sorted(VALID_FILES))
def test_broken_files_never_raise(tmp_path, command):
    f = tmp_path / "input.json"

    # each broken document as `json.dumps` writes it (", " separators, keys
    # in their order) and as the program's writers do (sorted keys, no
    # spaces), which for a model is the text the model scanner reads
    contents = [
        broken_document(VALID_FILES[command]).flatmap(
            lambda doc: st.sampled_from([json.dumps(doc), ser.dumps(doc)])),
        st.text(max_size=20), st.binary(max_size=20),
    ]
    if command == "filtrate":
        contents.append(mutated(MODEL_TEXT))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(contents))
    def check(content):
        if isinstance(content, bytes):
            f.write_bytes(content)
        else:
            f.write_text(content, encoding="utf-8")
        assert _exit_code([command, str(f)]) in (0, 1, 2, 3)

    check()
