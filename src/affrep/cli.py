"""Command-line interface.

Every subcommand is deterministic given the run configuration; the seed is
echoed in every report.  Exit codes: 0 success (including both rational
outcomes of check2step), 1 parse/validation/resource errors, 2 exceptional
two-step instance, 3 possibly-not-generically-free instance.
"""

from __future__ import annotations

import argparse
import itertools
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
    MAX_WEIGHT_RANK,
    ModelInvariantError,
    ResourceCapError,
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
    _candidate_outer_shapes,
    dual,
    horizontal_strips,
    lr_decompose,
    normalize,
    pieri_sym,
    weyl_dim,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXCEPTIONAL = 2
EXIT_NOT_FREE = 3


def _check_rank(n: int) -> None:
    if n > MAX_WEIGHT_RANK:
        raise ValueError(f"--n {n} exceeds the largest supported rank {MAX_WEIGHT_RANK}")


def parse_weight_arg(n: int, text: str):
    _check_rank(n)
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            parts.append(int(token))
        except ValueError:
            raise ValueError(f"invalid weight entry {token!r} in {text!r}")
    return normalize(n, parts)


def emit(args, payload: dict, text_lines: list[str]) -> None:
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
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}")
        except RecursionError:
            # the decoder recurses once per open array or object
            raise ValueError(f"invalid JSON in {path}: nested too deeply")


def read_model_file(path: str, max_dim: int):
    data = read_json_file(path)
    # refuse an oversized model before its O(N^2) entries are converted and
    # validated; a malformed N is left to model_from_json, which names the field
    dim = data.get("N") if isinstance(data, dict) else None
    if type(dim) is int and dim > max_dim:
        raise ResourceCapError("max_model_dim", dim, max_dim)
    return ser.model_from_json(data)


def write_or_print(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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
    # the shapes the decomposition sweeps, around the larger weight as
    # lr_decompose picks it; counted no further than one past the cap
    outer = b if b.size > a.size else a
    shapes = _candidate_outer_shapes(outer.parts, a.size + b.size, args.n)
    if sum(1 for _ in itertools.islice(shapes, MAX_LR_SHAPES + 1)) > MAX_LR_SHAPES:
        raise ResourceCapError("max_lr_shapes", f"more than {MAX_LR_SHAPES}", MAX_LR_SHAPES)
    ms = lr_decompose(a, b)
    emit(args, {"decomposition": ser.multiset_to_json(ms)}, [str(ms)])
    return EXIT_OK


def cmd_pieri(args) -> int:
    w = parse_weight_arg(args.n, args.lam)
    # one summand per strip; counted no further than one past the cap
    strips = horizontal_strips(w.parts, args.k, w.n)
    if sum(1 for _ in itertools.islice(strips, MAX_PIERI_STRIPS + 1)) > MAX_PIERI_STRIPS:
        raise ResourceCapError("max_pieri_strips", f"more than {MAX_PIERI_STRIPS}", MAX_PIERI_STRIPS)
    ms = pieri_sym(w, args.k)
    emit(args, {"decomposition": ser.multiset_to_json(ms)}, [str(ms)])
    return EXIT_OK


def cmd_classify(args) -> int:
    rep = ser.multiset_from_json(read_json_file(args.rep_file))
    verdict, report = classify_with_report(rep, seed=args.seed, trials=args.trials)
    payload = {"classification": verdict}
    lines = [verdict]
    if report is not None:
        payload["stabilizer"] = ser.stabilizer_report_to_json(report)
        lines.append(f"stab_dim: {report.stab_dim} (trials {report.trials})")
    emit(args, payload, lines)
    return EXIT_OK


def _require(args, **needed):
    for flag, value in needed.items():
        if value is None:
            raise ValueError(f"model {args.which} requires --{flag}")


def cmd_model(args) -> int:
    if args.which == "sym-dual":
        _require(args, n=args.n, l=args.l)
        _check_rank(args.n)
        rep = model_sym_dual(args.n, args.l, max_dim=args.max_model_dim)
    elif args.which == "dual":
        _require(args, **{"in": args.infile})
        rep = dual_model(read_model_file(args.infile, args.max_model_dim))
    elif args.which == "tensor":
        _require(args, a=args.a, b=args.b)
        a = read_model_file(args.a, args.max_model_dim)
        b = read_model_file(args.b, args.max_model_dim)
        rep = tensor_model(a, b, max_dim=args.max_model_dim)
    else:
        _require(args, n=args.n, **{"lambda": args.lam})
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
    payload = ser.verdict_to_json(verdict)
    lines = [f"outcome: {verdict.outcome}"]
    if verdict.witness is not None:
        lines.append(f"witness: W1={verdict.witness['W1']} W2={verdict.witness['W2']}")
    for ev in verdict.evidence:
        desc = {k: v for k, v in ev.items() if k not in ("condition", "paper_clause")}
        lines.append(f"  [{ev['condition']}/{ev['paper_clause']}] {desc}")
    emit(args, payload, lines)
    if verdict.outcome == EXCEPTIONAL:
        return EXIT_EXCEPTIONAL
    if verdict.outcome == POSSIBLY_NOT_GENERICALLY_FREE:
        return EXIT_NOT_FREE
    return EXIT_OK


def cmd_enumerate(args) -> int:
    entries = catalog_mod.enumerate_exceptional_candidates(
        args.n,
        max_trivials=args.max_trivials,
        max_dim_s=args.max_dim_s,
        seed=args.seed,
        trials=args.trials,
    )
    # the file is opened only now, so a refused catalog leaves none; each
    # line is written as it is serialized
    by_trigger: dict[str, int] = {}
    by_verdict: dict[str, int] = {}
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        for e in entries:
            fh.write(ser.dumps(ser.catalog_entry_to_json(e)) + "\n")
            by_trigger[e.trigger] = by_trigger.get(e.trigger, 0) + 1
            by_verdict[e.verdict.outcome] = by_verdict.get(e.verdict.outcome, 0) + 1
    stream = sys.stdout if args.out else sys.stderr
    print(f"entries: {len(entries)}", file=stream)
    for k in sorted(by_trigger):
        print(f"trigger {k}: {by_trigger[k]}", file=stream)
    for k in sorted(by_verdict):
        print(f"verdict {k}: {by_verdict[k]}", file=stream)
    print(f"seed: {args.seed}", file=stream)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    ok = run_all()
    print(f"seed: {args.seed}")
    return EXIT_OK if ok else EXIT_ERROR


# --- argument wiring -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for all randomized subsystems (echoed in reports)")
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="random points tried by the stabilizer engine")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--max-model-dim", type=int, default=DEFAULT_MAX_MODEL_DIM,
                        help="refuse to build matrix models above this dimension")

    p = argparse.ArgumentParser(
        prog="affrep",
        description="Exact toolkit for special-affine-group representations: "
        "weight calculus, matrix models, filtrations, and two-step "
        "rationality decisions.",
        epilog="check2step exit codes: 0 rational (either criterion), "
        "2 exceptional, 3 possibly not generically free; all other "
        "commands exit 0 on success and 1 on errors.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dim", parents=[common], help="dimension of an irreducible")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA",
                    help="weight, e.g. 2,1,0")
    sp.set_defaults(fn=cmd_dim)

    sp = sub.add_parser("dual", parents=[common], help="dual weight")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA")
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("tensor", parents=[common], help="tensor product decomposition")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", required=True, metavar="LAMBDA")
    sp.add_argument("--b", required=True, metavar="LAMBDA")
    sp.set_defaults(fn=cmd_tensor)

    sp = sub.add_parser("pieri", parents=[common],
                        help="decomposition of (irrep) x Sym^k(standard)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_pieri)

    sp = sub.add_parser("classify", parents=[common],
                        help="good/bad classification of a semisimple representation")
    sp.add_argument("rep_file", help="JSON weight multiset file")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("model", parents=[common], help="emit matrix model files")
    sp.add_argument("which", choices=("sym-dual", "dual", "tensor", "sl-only"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--lambda", dest="lam", metavar="LAMBDA")
    sp.add_argument("--in", dest="infile", help="input model file (for dual)")
    sp.add_argument("--a", help="first factor model file (for tensor)")
    sp.add_argument("--b", help="second factor model file (for tensor)")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(fn=cmd_model)

    sp = sub.add_parser("filtrate", parents=[common],
                        help="compute a filtration of a model file and run the checks")
    sp.add_argument("model_file")
    sp.add_argument("--kind", choices=("socle", "radical"), default="socle")
    sp.set_defaults(fn=cmd_filtrate)

    sp = sub.add_parser("check2step", parents=[common],
                        help="decide the two-step rationality criteria")
    sp.add_argument("ext_file", help="JSON extension file with fields n, S, Q, W")
    sp.set_defaults(fn=cmd_check2step)

    sp = sub.add_parser("enumerate", parents=[common],
                        help="stream the finite catalog of exceptional candidates")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-trivials", type=int, default=None,
                    help="cap on trivial summands in Q (at most n^2-2)")
    sp.add_argument("--max-dim-s", type=int, default=None,
                    help="cap on dim S (at most n^2+2n-1)")
    sp.add_argument("--out", help="write JSON lines here; summary goes to stdout")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("selftest", parents=[common],
                        help="run the acceptance suite (one line per criterion)")
    sp.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        if args.max_model_dim < 1:
            raise ValueError(f"--max-model-dim must be at least 1, got {args.max_model_dim}")
        return args.fn(args)
    except (ValueError, ResourceCapError, ModelInvariantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
