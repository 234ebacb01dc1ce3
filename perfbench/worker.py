"""The measured process of the benchmark.

    python3 perfbench/worker.py OPS_JSON RESULT_JSON --trace 0|1
    python3 perfbench/worker.py --setup-only

A fresh single-threaded interpreter, so the program's module-level caches
start cold as they do for a CLI invocation.  It times the import of
`affrep.cli` (which loads every module a command path uses), then runs each
operation by calling the CLI's own command function with the arguments the
CLI parser would have produced; only that call is timed.  Output checks that
need the program (the model round trip) run after the timed call, through
the unwrapped functions.  Times are normalized to the host's speed (see
speed.py); raw times are kept beside them.  The result file holds
per-operation times, exit codes and outputs, peak RSS and, with --trace 1,
the per-layer metrics.
"""

import sys
import time

_t0 = time.perf_counter()
from affrep import cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from affrep import config, serialize  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

# errors cli.main turns into exit code 1
CLI_ERRORS = (ValueError, config.ResourceCapError, config.ModelInvariantError, OSError)


def _args(**kw) -> argparse.Namespace:
    base = dict(seed=config.DEFAULT_SEED, trials=config.DEFAULT_TRIALS, format="json",
                max_model_dim=config.DEFAULT_MAX_MODEL_DIM)
    base.update(kw)
    return argparse.Namespace(**base)


def _model_args(which: str, **kw) -> argparse.Namespace:
    base = dict(which=which, n=None, l=None, lam=None, infile=None, a=None, b=None, out=None)
    base.update(kw)
    return _args(**base)


def _commands(op: dict) -> list:
    """(command function, parsed arguments) for one benchmark operation."""
    kind = op["kind"]
    if kind == "enumerate":
        return [(cli.cmd_enumerate, _args(n=op["n"], max_trivials=None, max_dim_s=None,
                                          out=op["file"]))]
    if kind == "check2step":
        return [(cli.cmd_check2step, _args(ext_file=op["file"], seed=op["seed"]))]
    if kind == "classify":
        return [(cli.cmd_classify, _args(rep_file=op["file"], seed=op["seed"]))]
    if kind == "model":
        lam = ",".join(str(p) for p in op["lambda"])
        return [
            (cli.cmd_model, _model_args("sl-only", n=op["n"], lam=lam, out=op["a"])),
            (cli.cmd_model, _model_args("sym-dual", n=op["n"], l=op["l"], out=op["b"])),
            (cli.cmd_model, _model_args("tensor", a=op["a"], b=op["b"], out=op["file"])),
        ]
    if kind == "filtrate":
        return [(cli.cmd_filtrate, _args(model_file=op["file"], kind=op["filtration"]))]
    raise ValueError(f"unknown operation kind {kind!r}")


def _file_digest(path: str) -> tuple[int, str]:
    data = Path(path).read_bytes()
    return len(data), hashlib.sha256(data).hexdigest()


def _keep_parsed_models():
    """Make `serialize.model_from_json` remember what it returns, for the
    round-trip check; returns that list and the unwrapped writers, bound
    here before a tracer can wrap them."""
    model_to_json, dumps, model_from_json = (
        serialize.model_to_json, serialize.dumps, serialize.model_from_json)
    parsed = []

    def keep_parsed(data):
        rep = model_from_json(data)
        parsed.append(rep)
        return rep

    serialize.model_from_json = keep_parsed
    return parsed, model_to_json, dumps


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ops", nargs="?")
    p.add_argument("result", nargs="?")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    # the import's speed factor, from reference timings right after it
    setup_factor = speed.NOMINAL_REF_S / speed.trimmed_mean(
        speed.time_reference()[1] for _ in range(10))
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S * setup_factor, "raw_setup_s": SETUP_S}))
        return 0

    ops = json.loads(Path(args.ops).read_text(encoding="utf-8"))
    parsed, model_to_json, dumps = _keep_parsed_models()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    records, spans_at = [], []
    with speed.SpeedProbe() as probe:
        for op in ops:
            records.append(_run_op(op, parsed, model_to_json, dumps, spans_at))
    for rec, (t0, t1) in zip(records, spans_at):
        rec["raw_s"] = t1 - t0 - probe.inside(t0, t1)
        rec["s"] = rec["raw_s"] * probe.factor(t0, t1)

    per_layer = None
    if tracer:
        per_layer = tracer.metrics()
        factor = probe.overall_factor()
        for name, unit in spans.PER_LAYER:
            if unit == "s" and name in per_layer:
                per_layer[name] *= factor
    result = {
        "setup_s": SETUP_S * setup_factor,
        "raw_setup_s": SETUP_S,
        "ops": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "per_layer": per_layer,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _run_op(op: dict, parsed: list, model_to_json, dumps, spans_at: list) -> dict:
    """Run one operation; its [start, end] goes to spans_at, untimed checks
    into the returned record."""
    commands = _commands(op)
    buf = io.StringIO()
    rc, error = 0, None
    del parsed[:]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            for fn, cmd_args in commands:
                rc = fn(cmd_args)
                if rc == cli.EXIT_ERROR:
                    break
        except CLI_ERRORS as exc:
            rc, error = cli.EXIT_ERROR, f"error: {exc}"
        except Exception:  # a traceback is a failed operation, not a crash of the run
            rc, error = None, traceback.format_exc()
    spans_at.append((t0, time.perf_counter()))
    rec = {"kind": op["kind"], "rc": rc, "stdout": buf.getvalue(), "error": error}
    if rc == 0 and op["kind"] in ("enumerate", "model"):
        rec["file_bytes"], rec["file_sha256"] = _file_digest(op["file"])
        if op["kind"] == "model":
            rec["file_bytes"] += sum(Path(op[k]).stat().st_size for k in ("a", "b"))
    if rc == 0 and op["kind"] == "filtrate" and parsed:
        text = Path(op["file"]).read_text(encoding="utf-8")
        rec["round_trip"] = dumps(model_to_json(parsed[-1])) + "\n" == text
    return rec


if __name__ == "__main__":
    sys.exit(main())
