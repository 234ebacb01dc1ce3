"""Command-line interface.

Every subcommand is deterministic given the run configuration; the seed is
echoed in every report.  Exit codes: 0 success (including both rational
outcomes of check2step), 1 usage/parse/validation/resource errors, 2
exceptional two-step instance, 3 possibly-not-generically-free instance.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import nullcontext

from . import catalog as catalog_mod
from . import serialize as ser
from .config import (
    DEFAULT_MAX_MODEL_DIM,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    MAX_LR_CONTENT,
    MAX_LR_SHAPES,
    MAX_PIERI_STRIPS,
    ModelInvariantError,
    ResourceCapError,
    check_model_dim,
    check_rank,
    check_sweep,
)
from .filtration import (
    check_blocks_containment,
    check_duality,
    check_embedding_theorem,
    radical_filtration,
    socle_filtration,
)
from .matmodel import dual_model, model_sym_dual, sl_only_model, tensor_model
from .rationality import (
    EXCEPTIONAL,
    POSSIBLY_NOT_GENERICALLY_FREE,
    decide_rationality,
)
from .repclass import classify_with_report
from .schur import (
    dual,
    horizontal_strips,
    lr_decompose,
    lr_outer_shapes,
    normalize,
    pieri_sym,
    weyl_dim,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXCEPTIONAL = 2
EXIT_NOT_FREE = 3


def parse_weight_arg(n: int, text: str):
    check_rank(n, "--n")
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            parts.append(int(token))
        except ValueError:
            raise ValueError(f"invalid weight entry {token!r} in {text!r}")
    return normalize(n, parts)


def emit(args, payload: dict, text_lines) -> None:
    """Print `payload` as JSON, or else the lines of the iterable
    `text_lines`, which is read only for text output."""
    if args.format == "json":
        payload = dict(payload)
        payload["seed"] = args.seed
        print(ser.dumps(payload))
    else:
        for line in text_lines:
            print(line)
        print(f"seed: {args.seed}")


def read_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read(), path)


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}")
    except RecursionError:
        # the decoder recurses once per open array or object
        raise ValueError(f"invalid JSON in {path}: nested too deeply")


def read_model_file(path: str, max_dim: int):
    with open(path, "rb") as fh:
        # a file whose canonical header names an N above the cap is refused
        # before the rest of it is read
        head = fh.read(ser.MODEL_HEAD_BYTES)
        found = ser.MODEL_HEAD.match(head)
        if found:
            check_model_dim(int(found[1]), max_dim)
        raw = head + fh.read()
    data = ser.scan_model(raw)
    if data is None:
        # text the writer did not produce is decoded as `read_json_file`
        # decodes it and read with `json`, with the same errors; the bytes
        # are not kept while json builds its lists
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        del raw
        data = _parse_json(text, path)
    # refuse an oversized model before its O(N^2) entries are converted and
    # validated; a malformed N is left to model_from_json, which names the field
    dim = data.get("N") if isinstance(data, dict) else None
    if type(dim) is int:
        check_model_dim(dim, max_dim)
    return ser.model_from_json(data)


def write_or_print(args, text: str) -> None:
    if args.out:
        # two writes, so a model file's megabytes are not copied to add "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


# --- subcommands ---------------------------------------------------------------

def cmd_dim(args) -> int:
    w = parse_weight_arg(args.n, args.lam)
    emit(args, {"lambda": list(w.parts), "dim": weyl_dim(w)}, [str(weyl_dim(w))])
    return EXIT_OK


def cmd_dual(args) -> int:
    w = dual(parse_weight_arg(args.n, args.lam))
    emit(args, {"dual": list(w.parts)}, [str(w)])
    return EXIT_OK


def cmd_tensor(args) -> int:
    a = parse_weight_arg(args.n, args.a)
    b = parse_weight_arg(args.n, args.b)
    content = min(a.size, b.size)
    if content > MAX_LR_CONTENT:
        raise ResourceCapError("max_lr_content", content, MAX_LR_CONTENT)
    # the shapes the decomposition sweeps
    check_sweep("max_lr_shapes", lr_outer_shapes(a, b), MAX_LR_SHAPES)
    ms = lr_decompose(a, b)
    emit(args, {"decomposition": ser.multiset_to_json(ms)}, [str(ms)])
    return EXIT_OK


def cmd_pieri(args) -> int:
    w = parse_weight_arg(args.n, args.lam)
    # one summand per strip
    check_sweep("max_pieri_strips", horizontal_strips(w.parts, args.k, w.n), MAX_PIERI_STRIPS)
    ms = pieri_sym(w, args.k)
    emit(args, {"decomposition": ser.multiset_to_json(ms)}, [str(ms)])
    return EXIT_OK


def cmd_classify(args) -> int:
    rep = ser.multiset_from_json(read_json_file(args.rep_file))
    verdict, report = classify_with_report(rep, seed=args.seed, trials=args.trials)
    payload = {"classification": verdict}
    if report is not None:
        payload["stabilizer"] = ser.stabilizer_report_to_json(report)
    emit(args, payload, _classify_lines(verdict, report))
    return EXIT_OK


def _classify_lines(verdict: str, report):
    yield verdict
    if report is not None:
        yield f"stab_dim: {report.stab_dim} (trials {report.trials})"


def cmd_model(args) -> int:
    if args.which == "sym-dual":
        check_rank(args.n, "--n")
        rep = model_sym_dual(args.n, args.l, max_dim=args.max_model_dim)
    elif args.which == "dual":
        rep = dual_model(read_model_file(args.infile, args.max_model_dim))
    elif args.which == "tensor":
        a = read_model_file(args.a, args.max_model_dim)
        b = read_model_file(args.b, args.max_model_dim)
        rep = tensor_model(a, b, max_dim=args.max_model_dim)
    else:
        rep = sl_only_model(parse_weight_arg(args.n, args.lam), max_dim=args.max_model_dim)
    write_or_print(args, ser.model_dumps(rep))
    return EXIT_OK


def cmd_filtrate(args) -> int:
    rep = read_model_file(args.model_file, args.max_model_dim)
    soc = socle_filtration(rep)
    filt = soc if args.kind == "socle" else radical_filtration(rep)
    checks = {
        "duality": check_duality(soc),
        "blocks": check_blocks_containment(filt),
        "embedding": check_embedding_theorem(soc),
    }
    payload = ser.filtration_report(filt, checks)
    emit(args, payload, ser.filtration_text(filt, checks).splitlines())
    return EXIT_OK


def cmd_check2step(args) -> int:
    ext = ser.extension_from_json(read_json_file(args.ext_file))
    verdict = decide_rationality(ext, seed=args.seed, trials=args.trials)
    emit(args, ser.verdict_to_json(verdict), _verdict_lines(verdict))
    if verdict.outcome == EXCEPTIONAL:
        return EXIT_EXCEPTIONAL
    if verdict.outcome == POSSIBLY_NOT_GENERICALLY_FREE:
        return EXIT_NOT_FREE
    return EXIT_OK


def _verdict_lines(verdict):
    yield f"outcome: {verdict.outcome}"
    if verdict.witness is not None:
        yield f"witness: W1={verdict.witness['W1']} W2={verdict.witness['W2']}"
    for ev in verdict.evidence:
        desc = {k: v for k, v in ev.items() if k not in ("condition", "paper_clause")}
        yield f"  [{ev['condition']}/{ev['paper_clause']}] {desc}"


def cmd_enumerate(args) -> int:
    catalog = catalog_mod.enumerate_exceptional_candidates(
        args.n,
        max_trivials=args.max_trivials,
        max_dim_s=args.max_dim_s,
        seed=args.seed,
        trials=args.trials,
    )
    # the file is opened only now, so a refused catalog leaves none
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        by_trigger, by_verdict = ser.write_catalog(catalog, fh)
    stream = sys.stdout if args.out else sys.stderr
    print(f"entries: {len(catalog)}", file=stream)
    for k in sorted(by_trigger):
        print(f"trigger {k}: {by_trigger[k]}", file=stream)
    for k in sorted(by_verdict):
        print(f"verdict {k}: {by_verdict[k]}", file=stream)
    print(f"seed: {args.seed}", file=stream)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    ok = run_all()
    print(f"seed: {DEFAULT_SEED}")
    return EXIT_OK if ok else EXIT_ERROR


# --- argument wiring -------------------------------------------------------------

def positive(text: str) -> int:
    """argparse type of --trials and --max-model-dim: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # each command takes only the flags it reads
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for all randomized subsystems (echoed in reports)")
    report = argparse.ArgumentParser(add_help=False, parents=[seeded])
    report.add_argument("--format", choices=("text", "json"), default="text")
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--trials", type=positive, default=DEFAULT_TRIALS,
                        help="random points tried by the stabilizer engine")
    models = argparse.ArgumentParser(add_help=False)
    models.add_argument("--max-model-dim", type=positive, default=DEFAULT_MAX_MODEL_DIM,
                        help="refuse to build or read matrix models above this dimension")

    p = argparse.ArgumentParser(
        prog="affrep",
        description="Exact toolkit for special-affine-group representations: "
        "weight calculus, matrix models, filtrations, and two-step "
        "rationality decisions.",
        epilog="check2step exit codes: 0 rational (either criterion), "
        "2 exceptional, 3 possibly not generically free; other commands "
        "exit 0 on success; every command exits 1 on errors, usage errors too.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dim", parents=[report], help="dimension of an irreducible")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA",
                    help="weight, e.g. 2,1,0")
    sp.set_defaults(fn=cmd_dim)

    sp = sub.add_parser("dual", parents=[report], help="dual weight")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA")
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("tensor", parents=[report], help="tensor product decomposition")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", required=True, metavar="LAMBDA")
    sp.add_argument("--b", required=True, metavar="LAMBDA")
    sp.set_defaults(fn=cmd_tensor)

    sp = sub.add_parser("pieri", parents=[report],
                        help="decomposition of (irrep) x Sym^k(standard)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_pieri)

    sp = sub.add_parser("classify", parents=[report, engine],
                        help="good/bad classification of a semisimple representation")
    sp.add_argument("rep_file", help="JSON weight multiset file")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("model", help="emit matrix model files")
    sp.set_defaults(fn=cmd_model)
    kinds = sp.add_subparsers(dest="which", required=True)
    written = argparse.ArgumentParser(add_help=False, parents=[models])
    written.add_argument("--out", help="output path (default stdout)")
    kp = kinds.add_parser("sym-dual", parents=[written], help="functions of degree <= l")
    kp.add_argument("--n", type=int, required=True)
    kp.add_argument("--l", type=int, required=True)
    kp = kinds.add_parser("dual", parents=[written], help="dual of a model file")
    kp.add_argument("--in", dest="infile", required=True, help="input model file")
    kp = kinds.add_parser("tensor", parents=[written], help="tensor product of two model files")
    kp.add_argument("--a", required=True, help="first factor model file")
    kp.add_argument("--b", required=True, help="second factor model file")
    kp = kinds.add_parser("sl-only", parents=[written], help="an irreducible, zero translations")
    kp.add_argument("--n", type=int, required=True)
    kp.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA")
    # a missing kind is named by the kinds, as the usage line lists them
    kinds.metavar = "{" + ",".join(kinds.choices) + "}"

    sp = sub.add_parser("filtrate", parents=[report, models],
                        help="compute a filtration of a model file and run the checks")
    sp.add_argument("model_file")
    sp.add_argument("--kind", choices=("socle", "radical"), default="socle")
    sp.set_defaults(fn=cmd_filtrate)

    sp = sub.add_parser("check2step", parents=[report, engine],
                        help="decide the two-step rationality criteria")
    sp.add_argument("ext_file", help="JSON extension file with fields n, S, Q, W")
    sp.set_defaults(fn=cmd_check2step)

    sp = sub.add_parser("enumerate", parents=[seeded, engine],
                        help="stream the finite catalog of exceptional candidates")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-trivials", type=int, default=None,
                    help="cap on trivial summands in Q (at most n^2-2)")
    sp.add_argument("--max-dim-s", type=int, default=None,
                    help="cap on dim S (at most n^2+2n-1)")
    sp.add_argument("--out", help="write JSON lines here; summary goes to stdout")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("selftest", help="run the acceptance suite (one line per criterion)")
    sp.set_defaults(fn=cmd_selftest)
    return p


def _join_weight_values(argv: list[str] | None) -> list[str]:
    """`--lambda -1,-1,-2` as `--lambda=-1,-1,-2`: argparse takes -1,-1,-2 for a flag."""
    out: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if (out and out[-1] in ("--lambda", "--a", "--b")
                and token[:1] == "-" and token[1:2].isdigit()):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_join_weight_values(argv))
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code check2step gives an
        # exceptional instance; --help exits 0
        return EXIT_ERROR if exc.code == 2 else exc.code
    except (ValueError, ResourceCapError, ModelInvariantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
