import argparse
import hashlib
import json
import time
from collections import Counter

import pytest
from cli_process import run_affrep

from affrep import cli
from affrep import serialize as ser
from affrep.cli import main
from affrep.matmodel import model_sym_dual
from affrep.repclass import stabilizer_dimension


# sl-only and sym-dual factors at n = 4, their tensor and its dual
PINNED_MODEL_SHA256 = [
    "cb35296a63460bf5ee80e61a4cc5b2849d5cab6fe86d7509555f8473adc09be2",
    "db10979e92bb79b60b0de4bfc89ce52eab5fc92630add89779a51f0666ea4cd4",
    "f7fbdf1b9d2073126b139d844cc37ddeaee3c25febe558e5b635ed4af437fee5",
    "f4e3c83e76971306df04f4be50b268e6772fcffad1750599709256d48b4a12db",
]


def pinned_model_commands(a, b, t, d) -> list[list[str]]:
    """`affrep model` arguments writing the files of PINNED_MODEL_SHA256."""
    return [list(map(str, argv)) for argv in (
        ["sl-only", "--n", "4", "--lambda", "2,0,0,0", "--out", a],
        ["sym-dual", "--n", "4", "--l", "2", "--out", b],
        ["tensor", "--a", a, "--b", b, "--out", t],
        ["dual", "--in", t, "--out", d])]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestWeightCommands:
    def test_dim(self, capsys):
        rc, out, _ = run(capsys, "dim", "--n", "3", "--lambda", "2,1,0")
        assert rc == 0
        assert out.splitlines() == ["8", "seed: 1729"]

    def test_dim_json_echoes_seed(self, capsys):
        rc, out, _ = run(capsys, "dim", "--n", "3", "--lambda", "2,1,0",
                         "--format", "json", "--seed", "7")
        assert rc == 0
        data = json.loads(out)
        assert data == {"dim": 8, "lambda": [2, 1, 0], "seed": 7}

    def test_tensor(self, capsys):
        rc, out, _ = run(capsys, "tensor", "--n", "3", "--a", "1,0,0", "--b", "1,0,0")
        assert rc == 0
        assert out.splitlines()[0] == "[1,1,0] + [2,0,0]"

    def test_pieri(self, capsys):
        rc, out, _ = run(capsys, "pieri", "--n", "3", "--lambda", "3,0,0", "--k", "1")
        assert rc == 0
        assert out.splitlines()[0] == "[3,1,0] + [4,0,0]"

    def test_pieri_huge_k_is_fast(self, capsys):
        # the strip scan starts where the rows below can absorb the rest
        t0 = time.perf_counter()
        rc, out, _ = run(capsys, "pieri", "--n", "3", "--lambda", "1", "--k", "100000000")
        assert time.perf_counter() - t0 < 1.0
        assert rc == 0
        assert out.splitlines()[0] == "[100000000,1,0] + [100000001,0,0]"

    def test_dual(self, capsys):
        rc, out, _ = run(capsys, "dual", "--n", "4", "--lambda", "2,1,1,0")
        assert rc == 0
        assert out.splitlines()[0] == "[2,1,1,0]"

    def test_parse_error_names_token(self, capsys):
        rc, out, err = run(capsys, "dim", "--n", "3", "--lambda", "2,x,0")
        assert rc == 1
        assert "'x'" in err

    @pytest.mark.parametrize("argv,first", [
        (["dim", "--n", "3", "--lambda", "-1,-1,-2"], "3"),
        (["dim", "--n", "3", "--lambda=-1,-1,-2"], "3"),
        (["dual", "--n", "3", "--lambda", "-1,-1,-2"], "[1,0,0]"),
        (["pieri", "--n", "3", "--lambda", "-1,-1,-2", "--k", "1"], "[0,0,0] + [2,1,0]"),
        (["tensor", "--n", "3", "--a", "0,0,-1", "--b", "-1,-1,-2"], "[1,0,0] + [2,2,0]"),
        (["tensor", "--n", "3", "--a=0,0,-1", "--b=-1,-1,-2"], "[1,0,0] + [2,2,0]"),
    ], ids=["dim", "dim-joined", "dual", "pieri", "tensor", "tensor-joined"])
    def test_weight_with_a_leading_minus(self, capsys, argv, first):
        # a separate value with a leading minus is read as the flag's value,
        # as the joined form is
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert out.splitlines() == [first, "seed: 1729"]

    @pytest.mark.parametrize("argv,message", [
        (["dim", "--n", "3", "--lambda"], "argument --lambda: expected one argument"),
        (["dim", "--lambda", "--n", "3"], "argument --lambda: expected one argument"),
        (["dim", "--n", "3", "--lambda", "-x"], "argument --lambda: expected one argument"),
        (["tensor", "--n", "3", "--a", "-1,0,0", "--b"], "argument --b: expected one argument"),
        (["dim", "--n", "3", "--lambda", "-1,-1,-2", "-3"], "unrecognized arguments: -3"),
        (["dim", "--n", "3", "--lambda", "1,0,0", "--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["missing-last", "missing-before-flag", "flag-like", "missing-b", "stray-number",
            "unknown-flag"])
    def test_weight_flag_usage_errors(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert message in err

    def test_missing_model_arguments(self, capsys):
        rc, _, err = run(capsys, "model", "sym-dual", "--n", "2")
        assert rc == 1
        assert "--l" in err

    @pytest.mark.parametrize("command,flag", [
        ("classify", "--trials"),
        ("filtrate", "--max-model-dim"),
    ], ids=["--trials", "--max-model-dim"])
    def test_invalid_config_rejected(self, capsys, command, flag):
        # refused by the flag's type before the file is opened
        rc, _, err = run(capsys, command, "in.json", flag, "0")
        assert rc == 1
        assert f"argument {flag}: must be at least 1, got 0" in err


# the options of every command path; 49 slots, each read by its command
COMMAND_FLAGS = {
    ("dim",): {"--seed", "--format", "--n", "--lambda"},
    ("dual",): {"--seed", "--format", "--n", "--lambda"},
    ("tensor",): {"--seed", "--format", "--n", "--a", "--b"},
    ("pieri",): {"--seed", "--format", "--n", "--lambda", "--k"},
    ("classify",): {"--seed", "--format", "--trials"},
    ("check2step",): {"--seed", "--format", "--trials"},
    ("filtrate",): {"--seed", "--format", "--max-model-dim", "--kind"},
    ("enumerate",): {"--seed", "--trials", "--n", "--max-trivials", "--max-dim-s", "--out"},
    ("model", "sym-dual"): {"--max-model-dim", "--out", "--n", "--l"},
    ("model", "dual"): {"--max-model-dim", "--out", "--in"},
    ("model", "tensor"): {"--max-model-dim", "--out", "--a", "--b"},
    ("model", "sl-only"): {"--max-model-dim", "--out", "--n", "--lambda"},
    ("selftest",): set(),
}


def _command_paths(parser, path=()):
    """(command path, option strings) for every leaf parser below `parser`."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _command_paths(child, path + (name,))


def test_each_command_takes_only_the_flags_it_reads():
    paths = dict(_command_paths(cli.build_parser()))
    assert paths == COMMAND_FLAGS
    assert sum(map(len, paths.values())) == 49


@pytest.mark.parametrize("argv,message", [
    (["check2step", "--bogus", "ext.json"], "unrecognized arguments: --bogus"),
    (["check2step"], "the following arguments are required: ext_file"),
    # a message names what the user types, not a dest or a type function
    (["model"], "the following arguments are required: {sym-dual,dual,tensor,sl-only}"),
    (["classify", "rep.json", "--trials", "abc"], "argument --trials: expected an integer, got 'abc'"),
], ids=["unknown-flag", "missing-file", "missing-model-kind", "non-integer-trials"])
def test_usage_error_exits_1_not_2(capsys, argv, message):
    # exit 2 is check2step's Exceptional verdict, so a usage error must not give it
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert message in err


class TestClassify:
    def test_bad_file(self, capsys, tmp_path):
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({"n": 10, "summands": [{"lambda": [1, 1] + [0] * 8, "mult": 1}]}))
        rc, out, _ = run(capsys, "classify", str(f))
        assert rc == 0
        assert out.splitlines()[0] == "Bad"

    def test_good_by_list(self, capsys, tmp_path):
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({"n": 3, "summands": [{"lambda": [3, 0, 0], "mult": 1}]}))
        rc, out, _ = run(capsys, "classify", str(f), "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["classification"] == "Good"
        assert "stabilizer" not in data

    def test_heuristic_includes_report(self, capsys, tmp_path):
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({"n": 3, "summands": [{"lambda": [1, 0, 0], "mult": 3}]}))
        rc, out, _ = run(capsys, "classify", str(f), "--format", "json")
        data = json.loads(out)
        assert data["classification"] == "GoodHeuristic"
        assert data["stabilizer"]["stab_dim"] == 0

    def test_trials_line_keeps_requested_count_after_early_stop(self, capsys, tmp_path):
        # the first trial already gives 0, so the engine stops there; the
        # report still names the 3 trials asked for
        rep = {"n": 3, "summands": [{"lambda": [1, 0, 0], "mult": 3}]}
        ms = ser.multiset_from_json(rep)
        assert stabilizer_dimension(ms, trials=1).stab_dim == 0
        f = tmp_path / "rep.json"
        f.write_text(json.dumps(rep))
        rc, out, _ = run(capsys, "classify", str(f))
        assert rc == 0
        assert out.splitlines() == ["GoodHeuristic", "stab_dim: 0 (trials 3)", "seed: 1729"]
        rc, out, _ = run(capsys, "classify", str(f), "--format", "json")
        assert json.loads(out)["stabilizer"]["trials"] == 3

    def test_huge_multiplicities_answer_within_a_second(self, tmp_path):
        # trivial copies draw nothing and at most n^2 - 1 copies of a label
        # count, so a multiplicity of 10^9 costs what 8 copies cost
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({"n": 3, "summands": [{"lambda": [0, 0, 0], "mult": 10 ** 9},
                                                      {"lambda": [1, 0, 0], "mult": 10 ** 9}]}))
        t0 = time.perf_counter()
        proc = run_affrep("classify", str(f), timeout=30)
        assert time.perf_counter() - t0 < 1.0
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["GoodHeuristic", "stab_dim: 0 (trials 3)", "seed: 1729"]

    @pytest.mark.parametrize("n,summand,needed", [
        # three exterior squares at rank 13: 234 rows, 4.4 s when it ran
        (13, {"lambda": [1, 1] + [0] * 11, "mult": 3}, 3 * 234 * 168 * 168),
        # refused on the first pass, before its Weyl dimension is computed
        (1000, {"lambda": [1] + [0] * 999}, 3 * 1000 * 999_999 * 1000),
    ], ids=["rank-13", "rank-1000"])
    def test_stabilizer_work_cap(self, capsys, tmp_path, n, summand, needed):
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({"n": n, "summands": [summand]}))
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "classify", str(f))
        assert time.perf_counter() - t0 < 1.0
        assert (rc, out) == (1, "")
        assert f"max_stabilizer_work needs {needed}, cap is 2500000" in err

    def test_rank8_adjoint_is_answered(self, capsys, tmp_path):
        # the rank-8 adjoint is in the bad list; its model needs 8 x 8
        # cells, Lambda^7 (x) C^8, of its columns' exterior powers
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({"n": 8, "summands": [{"lambda": [2, 1, 1, 1, 1, 1, 1, 0]}]}))
        rc, out, _ = run(capsys, "classify", str(f))
        assert rc == 0
        assert out.splitlines()[:2] == ["Bad", "stab_dim: 7 (trials 3)"]

    def test_tensor_cell_cap(self, capsys):
        # a row of 12 boxes has 12 one-box columns, 3^12 cells at rank 3
        rc, out, err = run(capsys, "model", "sl-only", "--n", "3", "--lambda", "12")
        assert (rc, out) == (1, "")
        assert "max_tensor_cells needs 531441" in err


class TestModelAndFiltrate:
    def test_model_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "m.json"
        rc, _, _ = run(capsys, "model", "sym-dual", "--n", "2", "--l", "2",
                       "--out", str(out_file))
        assert rc == 0
        first = out_file.read_text()
        # feeding the file through the dual command twice reproduces it
        dual1 = tmp_path / "d1.json"
        dual2 = tmp_path / "d2.json"
        rc, _, _ = run(capsys, "model", "dual", "--in", str(out_file), "--out", str(dual1))
        assert rc == 0
        rc, _, _ = run(capsys, "model", "dual", "--in", str(dual1), "--out", str(dual2))
        assert rc == 0
        assert dual2.read_text() == first

    def test_sl_only_through_the_dual_equals_model_dual(self, capsys, tmp_path):
        # [2,2,2,0] has 6 boxes and its dual [2,0,0,0] 2, so sl-only builds
        # it as the dual of the [2,0,0,0] model
        sym, dual_file, built = tmp_path / "s.json", tmp_path / "d.json", tmp_path / "b.json"
        for argv in (["sl-only", "--n", "4", "--lambda", "2,0,0,0", "--out", sym],
                     ["dual", "--in", sym, "--out", dual_file],
                     ["sl-only", "--n", "4", "--lambda", "2,2,2,0", "--out", built]):
            rc, _, err = run(capsys, "model", *map(str, argv))
            assert rc == 0, err
        assert built.read_bytes() == dual_file.read_bytes()

    def test_tensor_model_files(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        t = tmp_path / "t.json"
        run(capsys, "model", "sl-only", "--n", "2", "--lambda", "1,0", "--out", str(a))
        run(capsys, "model", "sym-dual", "--n", "2", "--l", "1", "--out", str(b))
        rc, _, _ = run(capsys, "model", "tensor", "--a", str(a), "--b", str(b), "--out", str(t))
        assert rc == 0
        data = json.loads(t.read_text())
        assert data["N"] == 2 * 3
        rc, out, _ = run(capsys, "filtrate", str(t), "--format", "json")
        assert rc == 0
        assert json.loads(out)["chain_dims"] == [2, 6]

    def test_filtrate_canonical(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        run(capsys, "model", "sym-dual", "--n", "2", "--l", "2", "--out", str(f))
        rc, out, _ = run(capsys, "filtrate", str(f), "--kind", "socle", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["chain_dims"] == [1, 3, 6]
        assert data["checks"] == {"blocks": True, "duality": True, "embedding": True}
        assert [ms["summands"][0]["lambda"] for ms in data["layers"]] == [
            [0, 0], [1, 0], [2, 0],
        ]

    def test_filtrate_sl_only_single_layer(self, capsys, tmp_path):
        f = tmp_path / "adj.json"
        run(capsys, "model", "sl-only", "--n", "3", "--lambda", "2,1,0", "--out", str(f))
        rc, out, _ = run(capsys, "filtrate", str(f), "--kind", "radical", "--format", "json")
        assert rc == 0
        assert json.loads(out)["chain_dims"] == [8]

    @pytest.mark.parametrize("command", [
        ["filtrate"], ["model", "dual", "--in"], ["model", "tensor", "--b", "{f}", "--a"],
    ], ids=["filtrate", "model-dual", "model-tensor"])
    def test_rejects_broken_model(self, capsys, tmp_path, command):
        f = tmp_path / "m.json"
        run(capsys, "model", "sym-dual", "--n", "2", "--l", "1", "--out", str(f))
        data = json.loads(f.read_text())
        data["sl_gens"]["E_1_2"][0][1] = "17"
        f.write_text(json.dumps(data))
        rc, out, err = run(capsys, *(a.format(f=f) for a in command), str(f))
        assert rc == 1
        assert out == ""
        assert "E_1_2" in err

    def test_rejects_a_translation_among_the_sl_generators(self, capsys, tmp_path):
        # the validator's one key table holds sl_gens and T_j; a file may
        # not supply a translation under an sl key
        f = tmp_path / "m.json"
        run(capsys, "model", "sym-dual", "--n", "2", "--l", "1", "--out", str(f))
        data = json.loads(f.read_text())
        data["sl_gens"]["T_1"] = data["trans_gens"][0]
        f.write_text(json.dumps(data))
        rc, out, err = run(capsys, "filtrate", str(f))
        assert (rc, out) == (1, "")
        assert err == "error: model invariant violated: sl generator keys\n"

    def test_rejects_a_grading_that_no_stored_entry_contradicts(self, capsys, tmp_path):
        # all generators zero: H_1 acts by 0, not by the grading's 1 and -1,
        # so this is not the model of one standard summand it claims to be
        zero = [["0", "0"], ["0", "0"]]
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"n": 2, "N": 2,
                                 "sl_gens": {"E_1_2": zero, "E_2_1": zero, "H_1": zero},
                                 "trans_gens": [zero, zero],
                                 "weight_grading": [[1, 0], [0, 1]]}))
        rc, out, err = run(capsys, "filtrate", "--kind", "socle", str(f))
        assert (rc, out) == (1, "")
        assert err == "error: model invariant violated: H_1 eigenvalue\n"

    @pytest.mark.parametrize("which,flags", [
        ("sym-dual", ["--n", "3", "--l", "4"]),          # dim 35
        ("sl-only", ["--n", "3", "--lambda", "2,1,0"]),  # dim 8
    ], ids=["sym-dual", "sl-only"])
    def test_model_cap(self, capsys, tmp_path, which, flags):
        out_file = tmp_path / "m.json"
        rc, _, err = run(capsys, "model", which, *flags, "--max-model-dim", "4",
                         "--out", str(out_file))
        assert rc == 1
        assert "max_model_dim" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("command", [
        ["filtrate", "{f}"],
        ["model", "dual", "--in", "{f}"],
        ["model", "tensor", "--a", "{f}", "--b", "{f}"],
    ], ids=["filtrate", "model-dual", "model-tensor"])
    def test_model_cap_on_read(self, capsys, tmp_path, command):
        f = tmp_path / "adj.json"
        rc, _, err = run(capsys, "model", "sl-only", "--n", "3", "--lambda", "2,1,0",
                         "--out", str(f))
        assert rc == 0, err
        rc, out, err = run(capsys, *(a.format(f=f) for a in command), "--max-model-dim", "4")
        assert rc == 1
        assert out == ""
        # the 8-dim file itself is refused, not only a 64-dim product
        assert "max_model_dim needs 8" in err

    @pytest.mark.parametrize("command", [
        ["filtrate", "{f}"],
        ["model", "dual", "--in", "{f}"],
        ["model", "tensor", "--a", "{f}", "--b", "{f}"],
    ], ids=["filtrate", "model-dual", "model-tensor"])
    def test_model_cap_on_read_reads_no_further_than_the_header(self, capsys, tmp_path,
                                                                command):
        # what follows the canonical header is neither JSON nor UTF-8, so
        # reading it would fail with another error
        f = tmp_path / "big.json"
        f.write_bytes(b'{"N":9,"n":2,"sl_gens":{' + b"\xff garbage" * 1000)
        rc, out, err = run(capsys, *(a.format(f=f) for a in command), "--max-model-dim", "4")
        assert (rc, out) == (1, "")
        assert err == "error: resource cap exceeded: max_model_dim needs 9, cap is 4\n"

    def test_files_pinned(self, capsys, tmp_path):
        files = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "t.json", tmp_path / "d.json"
        for argv in pinned_model_commands(*files):
            rc, _, err = run(capsys, "model", *argv)
            assert rc == 0, err
        assert [hashlib.sha256(f.read_bytes()).hexdigest() for f in files] == PINNED_MODEL_SHA256

    @pytest.mark.parametrize("hashseed", ["0", "1"])
    def test_files_pinned_in_fresh_processes(self, tmp_path, hashseed):
        # the writer's key order and the echelon's reduction order must not
        # depend on the hash seed or on anything a process shares
        files = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "t.json", tmp_path / "d.json"
        for argv in pinned_model_commands(*files):
            proc = run_affrep("model", *argv, hashseed=hashseed)
            assert proc.returncode == 0, proc.stderr
        assert [hashlib.sha256(f.read_bytes()).hexdigest() for f in files] == PINNED_MODEL_SHA256

    @pytest.mark.parametrize("kind,radical_calls", [("socle", 1), ("radical", 2)])
    def test_filtrate_computes_each_filtration_once(self, capsys, tmp_path, monkeypatch,
                                                    kind, radical_calls):
        # the socle filtration serves the printed chain (for --kind socle) and
        # both socle checks; the radical one of the dual model is the duality
        # check's own
        from affrep import cli, filtration
        from affrep.gallery import cubic_top_submodel

        calls = Counter()
        for name in ("socle_filtration", "radical_filtration"):
            def counted(rep, real=getattr(filtration, name), name=name):
                calls[name] += 1
                return real(rep)

            monkeypatch.setattr(filtration, name, counted)
            monkeypatch.setattr(cli, name, counted)
        f = tmp_path / "example.json"
        f.write_text(ser.dumps(ser.model_to_json(cubic_top_submodel(3))))
        rc, out, _ = run(capsys, "filtrate", str(f), "--kind", kind)
        assert rc == 0
        assert out.splitlines()[0] == f"kind: {kind}"
        assert calls == {"socle_filtration": 1, "radical_filtration": radical_calls}

    @pytest.mark.parametrize("n,l,lam,kind,digest", [
        (3, 2, "3,0,0", "socle", "cae65cb8c347ff98c4af09c62d220b20ecc6e283d375cfdcf33895bd37163ec1"),
        (3, 2, "3,0,0", "radical", "f5120651d17bfd28c477facd51373d468130b0d8e7177289df0cef00c8a5ae17"),
        (3, 3, "2,1,0", "socle", "6b97094c674f44226ce9f8e1715947493dd5808833a49ef8ccf97fbf69a0a8e0"),
        (3, 3, "2,1,0", "radical", "ca3baf6f6be7078cee1ce35df0034d84617c8009efb8fafdf57b0620152c5b7a"),
        (4, 2, "1,1,0,0", "socle", "4b29d70a9c3964bf9662a8aaa185a5646eb724f9fba8a1f7c03b7a2bfa00820e"),
        (4, 2, "1,1,0,0", "radical", "cf59d738aca8ffa2a2aafb5f4dae384b1c5ac08ca83ad2eae1c5d532733b4014"),
        (4, 1, "2,1,0,0", "socle", "16a3411467870f23afb43ddbebf2a03cb85c9c78971b2906235569aad04c91cd"),
        (4, 1, "2,1,0,0", "radical", "5aa97300dae29fb60318d4faa36c6bebfb8a09e0a1a7bd82f200ae9d425020f0"),
        (4, 2, "2,0,0,0", "socle", "a479daa35d64be7a613e31c0346a679928e6a2c620a80c8080013b6c25d4eebd"),
        (4, 2, "2,0,0,0", "radical", "4704e0acc85f9a3f7bfdfe8dc3747602f6650117935d93a16ebbbc89cc96ffb6"),
    ])
    def test_filtrate_output_pinned_on_workload_shapes(self, capsys, tmp_path, n, l, lam, kind,
                                                       digest):
        # the five model shapes of the `models` benchmark workload, each with
        # the first label of its slot, written by `model` and read back
        a, b, t = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "t.json"
        for argv in (["sl-only", "--n", n, "--lambda", lam, "--out", a],
                     ["sym-dual", "--n", n, "--l", l, "--out", b],
                     ["tensor", "--a", a, "--b", b, "--out", t]):
            rc, _, err = run(capsys, "model", *map(str, argv))
            assert rc == 0, err
        rc, out, _ = run(capsys, "filtrate", str(t), "--kind", kind, "--format", "json")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_filtrate_bundled_example(self, capsys, tmp_path):
        from affrep.gallery import cubic_top_submodel

        f = tmp_path / "example.json"
        f.write_text(ser.dumps(ser.model_to_json(cubic_top_submodel(3))))
        rc, out, _ = run(capsys, "filtrate", str(f), "--kind", "radical", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert [ms["summands"] for ms in data["layers"]] == [
            [{"lambda": [1, 1, 0], "mult": 1}],
            [{"lambda": [2, 2, 0], "mult": 1}],
            [{"lambda": [1, 0, 0], "mult": 1}, {"lambda": [3, 3, 0], "mult": 1}],
        ]

    def test_filtrate_of_a_rank_32_model_finishes(self, tmp_path):
        # the 33-dim model of functions of degree <= 1 at the largest rank:
        # naming its top layer enumerates the tableaux of a 31-cell column,
        # which once took about 2^32 steps (over 300 s)
        f = tmp_path / "m.json"
        proc = run_affrep("model", "sym-dual", "--n", "32", "--l", "1", "--out", str(f),
                          timeout=120)
        assert proc.returncode == 0, proc.stderr
        proc = run_affrep("filtrate", str(f), "--format", "json", timeout=120)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["chain_dims"] == [1, 33]
        assert data["checks"] == {"blocks": True, "duality": True, "embedding": True}
        assert [ms["summands"] for ms in data["layers"]] == [
            [{"lambda": [0] * 32, "mult": 1}],
            [{"lambda": [1] * 31 + [0], "mult": 1}],
        ]


    @pytest.mark.parametrize("n,error", [
        (32, "model invariant violated: sl generator keys"),
        (33, "field 'n' 33 exceeds the largest supported rank 32"),
        (3000, "field 'n' 3000 exceeds the largest supported rank 32"),
    ])
    def test_model_file_rank_is_capped_before_validation(self, tmp_path, n, error):
        # validation builds the saff_n basis of the file's rank first; at
        # rank 3,000 that took 23 s and 2.8 GB before the keys were refused.
        # Rank 32 passes the cap and fails on its missing sl generators
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"n": n, "N": 1, "sl_gens": {}, "trans_gens": [[["0"]]] * n,
                                 "weight_grading": [[0] * n]}))
        proc = run_affrep("filtrate", str(f), timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [f"error: {error}"]


class TestCheck2Step:
    def write_ext(self, tmp_path, n, S, Q, W=(), free=False):
        f = tmp_path / "ext.json"
        f.write_text(json.dumps({
            "n": n,
            "S": {"n": n, "summands": [{"lambda": list(w), "mult": m} for w, m in S]},
            "Q": {"n": n, "summands": [{"lambda": list(w), "mult": m} for w, m in Q]},
            "W": {"n": n, "summands": [{"lambda": list(w), "mult": m} for w, m in W]},
            "assume_generically_free": free,
        }))
        return f

    def test_b_instance_exit_0(self, capsys, tmp_path):
        f = self.write_ext(tmp_path, 3, [((1, 0, 0), 8)], [((0, 0, 0), 8)], free=True)
        rc, out, _ = run(capsys, "check2step", str(f))
        assert rc == 0
        assert "RationalByB" in out

    def test_exceptional_exit_2(self, capsys, tmp_path):
        f = self.write_ext(
            tmp_path, 10,
            [((1, 1, 1, 0, 0, 0, 0, 0, 0, 0), 1)],
            [((1, 1, 0, 0, 0, 0, 0, 0, 0, 0), 1)],
            free=True,
        )
        rc, out, _ = run(capsys, "check2step", str(f))
        assert rc == 2

    def test_not_free_exit_3(self, capsys, tmp_path):
        f = self.write_ext(tmp_path, 3, [((2, 0, 0), 1)], [((1, 0, 0), 1)])
        rc, out, _ = run(capsys, "check2step", str(f))
        assert rc == 3

    def test_structural_failure_exit_1(self, capsys, tmp_path):
        f = self.write_ext(tmp_path, 3, [((2, 0, 0), 1)], [((0, 0, 0), 1)])
        rc, _, err = run(capsys, "check2step", str(f))
        assert rc == 1
        assert "structural" in err

    def test_split_cap_exits_1_naming_it(self, tmp_path):
        # every W2 of trivials leaves Q + W2 bad, so all 40,001 would be tried
        f = self.write_ext(tmp_path, 3, [((2, 1, 0), 1)], [((2, 0, 0), 1)],
                           W=[((0, 0, 0), 40000)], free=True)
        t0 = time.perf_counter()
        proc = run_affrep("check2step", str(f), timeout=60)
        assert time.perf_counter() - t0 < 5.0
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [
            "error: resource cap exceeded: max_split_candidates needs more than 32768, "
            "cap is 32768"]

    @pytest.mark.parametrize("n", [33, 1500])
    def test_rank_above_the_cap_exits_1_naming_it(self, tmp_path, n):
        # the structural check's LR sweep recurses one frame per row, and at
        # rank 1,500 it overflowed the stack
        f = self.write_ext(tmp_path, n, [((1,) + (0,) * (n - 1), 1)], [((0,) * n, 1)],
                           free=True)
        proc = run_affrep("check2step", str(f), timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [
            f"error: field 'n' {n} exceeds the largest supported rank 32"]

    def test_rank_at_the_cap_is_answered(self, tmp_path):
        f = self.write_ext(tmp_path, 32, [((1,) + (0,) * 31, 1)], [((0,) * 32, 1)], free=True)
        proc = run_affrep("check2step", str(f), timeout=60)
        assert proc.returncode == 2
        assert proc.stdout.splitlines()[0] == "outcome: Exceptional"

    @pytest.mark.parametrize("S,Q", [
        ([40], [39]), ([40, 20], [40, 19]), ([40, 30, 20, 10], [40, 30, 20, 9]),
        ([60, 50, 40, 30, 20, 10], [60, 50, 40, 30, 20, 9]),
    ], ids=["1-row", "2-row", "4-row", "6-row"])
    def test_lr_sweep_above_the_shape_cap_exits_1(self, tmp_path, S, Q):
        # S times the dual standard at rank 32 has more than MAX_LR_SHAPES
        # candidate shapes: the 1-row case took 3.6 s to answer, the 2-row
        # one 13 s, the others ran past 100 s
        def label(parts):
            return tuple(parts) + (0,) * (32 - len(parts))

        f = self.write_ext(tmp_path, 32, [(label(S), 1)], [(label(Q), 1)])
        proc = run_affrep("check2step", str(f), timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [
            "error: resource cap exceeded: max_lr_shapes needs more than 3000, cap is 3000"]

    def test_split_order_ignores_the_hash_seed(self, tmp_path):
        # 10 trivials tie with [3] and [2] with [2,2] in dimension, so the
        # tried W2 follow the ties' order on the entries
        f = self.write_ext(tmp_path, 3, [((2, 1, 0), 1)], [((2, 0, 0), 1)],
                           W=[((0, 0, 0), 10), ((3, 0, 0), 1), ((2, 2, 0), 1), ((2, 0, 0), 1)],
                           free=True)
        procs = [run_affrep("check2step", str(f), hashseed=h) for h in ("0", "1")]
        assert [p.returncode for p in procs] == [0, 0]
        assert procs[0].stdout == procs[1].stdout
        assert "witness: W1=" in procs[0].stdout


def _malformed_models():
    """(model file object, field named in the error), each a small edit of
    the 3-dim model of functions of degree <= 1 in two variables (basis 1,
    x_1, x_2)."""
    base = ser.model_to_json(model_sym_dual(2, 1))

    def edit(change):
        data = json.loads(ser.dumps(base))
        change(data)
        return data

    def zero_rows_as_strings(d):
        for m in [*d["sl_gens"].values(), *d["trans_gens"]]:
            m[:] = ["000" if row == ["0"] * 3 else row for row in m]

    def empty(d):
        d.update(N=0, sl_gens={k: [] for k in d["sl_gens"]}, trans_gens=[[], []],
                 weight_grading=[])

    return [
        (edit(lambda d: d.update(sl_gens=[])), "sl_gens"),
        (edit(lambda d: d.update(trans_gens=5)), "trans_gens"),
        (edit(zero_rows_as_strings), "sl_gens.E_1_2"),
        # d/dx_1 sends x_1 to 1, the only nonzero entry of T_1
        (edit(lambda d: d["trans_gens"][0][0].__setitem__(1, True)), "trans_gens[0]"),
        (edit(lambda d: d["weight_grading"][0].__setitem__(0, 0.7)), "weight_grading"),
        (edit(lambda d: d["weight_grading"][0].append(0)), "weight_grading"),
        (edit(empty), "N"),
    ]


MALFORMED_INPUT = [
    ("classify", {"n": 3, "summands": [{"mult": 1}]}, "lambda"),
    ("classify", {"n": 3, "summands": [{"lambda": [1, 0, 0], "mult": True}]}, "mult"),
    ("classify", {"n": 3, "summands": [{"lambda": [1, 0, 0], "mult": "2"}]}, "mult"),
    ("classify", {"n": 3, "summands": [[1, 0, 0]]}, "summands"),
    ("classify", {"n": 3, "summands": [{"lambda": [True, 0, 0]}]}, "lambda"),
    ("check2step", {"n": 3, "S": [], "Q": {"n": 3, "summands": []},
                    "W": {"n": 3, "summands": []}}, "S"),
    ("check2step", {"n": True, "S": {"n": 3, "summands": []}, "Q": {"n": 3, "summands": []},
                    "W": {"n": 3, "summands": []}}, "n"),
    ("check2step", {"n": 3, "S": {"n": 3, "summands": [{"lambda": [2, 0, 0]}]},
                    "Q": {"n": 3, "summands": [{"lambda": [1, 0, 0]}]},
                    "W": {"n": 3, "summands": []}, "assume_generically_free": "false"},
     "assume_generically_free"),
] + [
    (command, payload, field)
    for command in ("filtrate", "model dual --in")
    for payload, field in _malformed_models()
] + [
    # ranks below 2 are refused at the field, not from deep inside the
    # decision procedure or the classifier (appended last: ids are positions)
    ("check2step", {"n": 1, "S": {"n": 1, "summands": []}, "Q": {"n": 1, "summands": []},
                    "W": {"n": 1, "summands": []}}, "n"),
    ("check2step", {"n": 0, "S": {"n": 0, "summands": []}, "Q": {"n": 0, "summands": []},
                    "W": {"n": 0, "summands": []}}, "n"),
    ("classify", {"n": 1, "summands": [{"lambda": [0]}]}, "n"),
    ("classify", {"n": -3, "summands": []}, "n"),
]


@pytest.mark.parametrize("command,payload,field", MALFORMED_INPUT,
                         ids=[f"{c.split()[0]}-{i}" for i, (c, _, _) in enumerate(MALFORMED_INPUT)])
def test_malformed_file_exits_1_naming_the_field(tmp_path, command, payload, field):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(payload))
    proc = run_affrep(*command.split(), str(f))
    assert proc.returncode == 1, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert f"'{field}'" in proc.stderr


@pytest.mark.parametrize("command", [["filtrate"], ["model", "dual", "--in"]],
                         ids=["filtrate", "model-dual"])
def test_non_nilpotent_translation_exits_1_naming_its_grading(tmp_path, command):
    # a diagonal entry of T_1 shifts no weight; the grading check, which is
    # what proves the translations nilpotent, names it
    data = ser.model_to_json(model_sym_dual(2, 1))
    data["trans_gens"][0][1][1] = "1"
    f = tmp_path / "m.json"
    f.write_text(ser.dumps(data))
    proc = run_affrep(*command, str(f), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: model invariant violated: grading shift of T_1\n"


@pytest.mark.parametrize("command", ["classify", "check2step", "filtrate"])
def test_deeply_nested_json_exits_1_naming_the_file(tmp_path, command):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    proc = run_affrep(command, str(f))
    assert proc.returncode == 1, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert str(f) in proc.stderr


# above the rank ceiling each of these ran for seconds to minutes (the Weyl
# dimension's O(n^2) Fractions, the LR sweep's rows); now none starts work
OVER_RANK_CEILING = {
    "dim": ("dim", "--n", "3000", "--lambda", "1"),
    "dual": ("dual", "--n", "3000", "--lambda", "1"),
    "tensor": ("tensor", "--n", "40", "--a", "9,9,9,9,9", "--b", "9,9,9,9"),
    "pieri": ("pieri", "--n", "3000", "--lambda", "1", "--k", "2"),
}


@pytest.mark.parametrize("command", sorted(OVER_RANK_CEILING))
def test_rank_above_ceiling_exits_1_naming_n(command):
    t0 = time.perf_counter()
    proc = run_affrep(*OVER_RANK_CEILING[command], timeout=30)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --n ")
    assert "Traceback" not in proc.stderr


def test_rank_ceiling_is_inclusive(capsys):
    from affrep.config import MAX_WEIGHT_RANK

    n = str(MAX_WEIGHT_RANK)
    rc, out, _ = run(capsys, "dim", "--n", n, "--lambda", "1")
    assert (rc, out.splitlines()[0]) == (0, n)
    rc, _, err = run(capsys, "dual", "--n", str(MAX_WEIGHT_RANK + 1), "--lambda", "1")
    assert rc == 1
    assert f"--n {MAX_WEIGHT_RANK + 1}" in err


def test_sym_dual_rank_ceiling(capsys):
    # the monomial basis used to filter (deg + 1)^n exponent tuples per
    # degree, so --n 24 --l 1 took seconds and --n 30 did not finish
    from affrep.config import MAX_WEIGHT_RANK

    n = MAX_WEIGHT_RANK
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "model", "sym-dual", "--n", str(n), "--l", "1")
    assert time.perf_counter() - t0 < 5.0
    assert rc == 0
    assert json.loads(out)["N"] == n + 1
    rc, out, err = run(capsys, "model", "sym-dual", "--n", str(n + 1), "--l", "1")
    assert (rc, out) == (1, "")
    assert f"--n {n + 1} exceeds the largest supported rank {n}" in err



# the smaller weight's size is capped before the LR decomposition: the first
# case crashed with a RecursionError (one frame per box), the second ran for
# seconds (and 43 s at --n 12)
OVER_LR_CONTENT = {
    "recursion": ("tensor", "--n", "2", "--a", "1200", "--b", "990"),
    "runaway": ("tensor", "--n", "8", "--a", "9,9,9,9,9", "--b", "9,9,9,9"),
}


@pytest.mark.parametrize("case", sorted(OVER_LR_CONTENT))
def test_tensor_above_content_cap_exits_1_naming_it(case):
    t0 = time.perf_counter()
    proc = run_affrep(*OVER_LR_CONTENT[case], timeout=30)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: resource cap exceeded: max_lr_content")
    assert "Traceback" not in proc.stderr


def test_tensor_content_cap_is_inclusive(capsys):
    from affrep.config import MAX_LR_CONTENT

    k = str(MAX_LR_CONTENT)
    rc, out, _ = run(capsys, "tensor", "--n", "2", "--a", k, "--b", k)
    assert rc == 0
    assert len(out.splitlines()[0].split(" + ")) == MAX_LR_CONTENT + 1
    rc, _, err = run(capsys, "tensor", "--n", "2", "--a", "100", "--b", str(MAX_LR_CONTENT + 1))
    assert rc == 1
    assert f"max_lr_content needs {MAX_LR_CONTENT + 1}, cap is {MAX_LR_CONTENT}" in err


STAIRCASE_32 = ",".join(str(31 - i) for i in range(32))


# below the content cap the outer shapes set the cost: the rank-32 staircase
# with 4 boxes sweeps 37,388 shapes (about 2 s), and with 8 boxes over
# 200,000 (still running after 6 s)
@pytest.mark.parametrize("b", ["4", "4,4"])
def test_tensor_above_shape_cap_exits_1_naming_it(b):
    t0 = time.perf_counter()
    proc = run_affrep("tensor", "--n", "32", "--a", STAIRCASE_32, "--b", b, timeout=30)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: resource cap exceeded: max_lr_shapes")
    assert "Traceback" not in proc.stderr


def test_tensor_shape_cap_is_inclusive(capsys, monkeypatch):
    # the rank-8 staircase with [2,2] sweeps 142 outer shapes
    argv = ("tensor", "--n", "8", "--a", "7,6,5,4,3,2,1", "--b", "2,2")
    monkeypatch.setattr(cli, "MAX_LR_SHAPES", 142)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert len(out.splitlines()[0].split(" + ")) == 134
    monkeypatch.setattr(cli, "MAX_LR_SHAPES", 141)
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert "max_lr_shapes needs more than 141, cap is 141" in err


# at rank 6 a 20-digit k has astronomically many horizontal strips; the
# strip sweep ran without end before it was counted against the cap
def test_pieri_above_strip_cap_exits_1_naming_it():
    huge = "99999999999999999999"
    t0 = time.perf_counter()
    proc = run_affrep("pieri", "--n", "6", "--lambda", huge, "--k", huge, timeout=30)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: resource cap exceeded: max_pieri_strips")
    assert "Traceback" not in proc.stderr


def test_pieri_strip_cap_is_inclusive(capsys, monkeypatch):
    argv = ("pieri", "--n", "3", "--lambda", "3,0,0", "--k", "2")
    monkeypatch.setattr(cli, "MAX_PIERI_STRIPS", 3)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out.splitlines()[0] == "[3,2,0] + [4,1,0] + [5,0,0]"
    monkeypatch.setattr(cli, "MAX_PIERI_STRIPS", 2)
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert "max_pieri_strips needs more than 2, cap is 2" in err


class TestEnumerate:
    def test_deterministic_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        rc, _, _ = run(capsys, "enumerate", "--n", "2", "--out", str(a))
        assert rc == 0
        rc, _, _ = run(capsys, "enumerate", "--n", "2", "--out", str(b))
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_counts_match_lines(self, capsys, tmp_path):
        out_file = tmp_path / "cat.jsonl"
        rc, out, _ = run(capsys, "enumerate", "--n", "2", "--out", str(out_file))
        assert rc == 0
        lines = out_file.read_text().splitlines()
        summary = dict(
            line.split(": ") for line in out.splitlines() if ": " in line
        )
        assert int(summary["entries"]) == len(lines)

    def test_stdout_holds_the_file_bytes_and_stderr_the_summary(self, capsys, tmp_path):
        out_file = tmp_path / "cat.jsonl"
        rc, summary, err = run(capsys, "enumerate", "--n", "2", "--out", str(out_file))
        assert rc == 0 and err == ""
        rc, out, err = run(capsys, "enumerate", "--n", "2")
        assert rc == 0
        assert out == out_file.read_text(encoding="utf-8")
        assert err == summary
        assert err.splitlines()[0] == f"entries: {len(out.splitlines())}"

    @pytest.mark.parametrize("flags", [["--n", "8"], ["--n", "3", "--max-trivials", "99"]],
                             ids=["rank", "max-trivials"])
    def test_refused_catalog_creates_no_file(self, capsys, tmp_path, flags):
        out_file = tmp_path / "cat.jsonl"
        rc, out, err = run(capsys, "enumerate", *flags, "--out", str(out_file))
        assert rc == 1
        assert out == ""
        assert "cap" in err
        assert not out_file.exists()

    def test_dim_s_cap(self, capsys, tmp_path):
        out_file = tmp_path / "cat.jsonl"
        rc, _, _ = run(capsys, "enumerate", "--n", "2", "--max-dim-s", "4",
                       "--out", str(out_file))
        assert rc == 0
        from affrep.schur import Weight, weyl_dim

        for line in out_file.read_text().splitlines():
            e = json.loads(line)
            dim_s = sum(
                s["mult"] * weyl_dim(Weight(2, tuple(s["lambda"])))
                for s in e["S"]["summands"]
            )
            assert dim_s <= 4

    def test_cap_violation_exit_1(self, capsys):
        rc, _, err = run(capsys, "enumerate", "--n", "3", "--max-trivials", "99")
        assert rc == 1
        assert "cap" in err

    @pytest.mark.parametrize("flag,value,name", [
        ("--max-trivials", "-1", "max_trivials"),
        ("--max-dim-s", "0", "max_dim_s"),
    ], ids=["max-trivials", "max-dim-s"])
    def test_cap_below_range_exit_1(self, capsys, flag, value, name):
        rc, out, err = run(capsys, "enumerate", "--n", "2", flag, value)
        assert rc == 1
        assert out == ""
        assert f"cap violated: {name} {value}" in err
