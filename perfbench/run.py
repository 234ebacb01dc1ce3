"""Benchmark of the affrep commands: end-to-end metrics, checked outputs, and
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload catalog|requests|models \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the program is imported from `src/` beside this
directory.  Every human-readable line goes first; the last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# a run must end within 180 s; leave room for input generation and cleanup
DEADLINE_S = 170.0
# fresh interpreters that only import the program, for the setup_s median
SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

OUTCOME_EXIT = {"RationalByA": 0, "RationalByB": 0, "Exceptional": 2,
                "PossiblyNotGenericallyFree": 3}
CLASSES = ("Good", "Bad", "GoodHeuristic")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left


def _spawn(args: list[str], deadline: Deadline) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish before the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def measure_setup(deadline: Deadline) -> list[dict]:
    """Import times in fresh interpreters; the first, which may compile
    bytecode, is discarded."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = _spawn([str(WORKER), "--setup-only"], deadline)
        if i:
            samples.append(json.loads(out))
    return samples


def run_worker(ops_path: Path, trace: bool, deadline: Deadline) -> dict:
    result_path = ops_path.with_name(f"result-{int(trace)}.json")
    _spawn([str(WORKER), str(ops_path), str(result_path), "--trace", str(int(trace))], deadline)
    return json.loads(result_path.read_text(encoding="utf-8"))


# --- output checks ---------------------------------------------------------------

def check_op(op: dict, rec: dict, expected_catalog: dict) -> str | None:
    """Why the operation failed, or None when its output is correct."""
    if rec["rc"] is None:
        return "raised: " + rec["error"].strip().splitlines()[-1]
    if rec["rc"] == 1:
        return rec["error"] or "exit 1"
    kind = op["kind"]
    if kind == "enumerate":
        count, sha = expected_catalog[op["n"]]
        if f"entries: {count}" not in rec["stdout"].splitlines():
            return f"entry count differs from {count}"
        if rec.get("file_sha256") != sha:
            return "catalog bytes differ from the recorded sha256"
        return None
    if kind == "model":
        return None if rec["rc"] == 0 and rec.get("file_sha256") else "no model file"
    try:
        data = json.loads(rec["stdout"])
    except ValueError:
        return "output is not JSON"
    if kind == "check2step":
        outcome = data["outcome"]
        if OUTCOME_EXIT.get(outcome) != rec["rc"]:
            return f"exit code {rec['rc']} does not match outcome {outcome}"
        if (outcome == "RationalByA") != (data["witness"] is not None):
            return "witness present without RationalByA, or missing with it"
        if not data["evidence"]:
            return "empty evidence"
        return None
    if kind == "classify":
        cls = data["classification"]
        if rec["rc"] != 0 or cls not in CLASSES:
            return f"unexpected classification {cls!r}"
        if (cls == "Good") != ("stabilizer" not in data):
            return "stabilizer report present iff not Good"
        if cls != "Good" and (data["stabilizer"]["stab_dim"] > 0) != (cls == "Bad"):
            return "stabilizer dimension disagrees with the classification"
        return None
    if kind == "filtrate":
        if rec["rc"] != 0 or not all(data["checks"].values()):
            return f"checks failed: {data['checks']}"
        if data["chain_dims"][-1] != op["N"]:
            return f"chain ends at {data['chain_dims'][-1]}, not N={op['N']}"
        if rec.get("round_trip") is not True:
            return "model file does not round-trip byte-identically"
        return None
    return f"unknown kind {kind}"


def output_digest(records: list[dict]) -> str:
    outputs = [[r["kind"], r["rc"], r["stdout"], r.get("file_sha256")] for r in records]
    return hashlib.sha256(json.dumps(outputs).encode("utf-8")).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Quantile q, interpolated linearly between the order statistics; with
    few operations of unequal cost this jumps less than the nearest rank."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def tail_quantile(n: int) -> float:
    """The highest quantile up to 0.99 with at least ten samples beyond it;
    runs with fewer than twenty operations report the median."""
    return max(0.5, min(0.99, 1 - 10 / n))


def end_to_end(result: dict, setup_samples: list[dict]) -> tuple[dict, dict]:
    samples = setup_samples + [result]
    times = [r["s"] for r in result["ops"]]
    q = tail_quantile(len(times))
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_s": sum(times),
        "op_p50_ms": percentile(times, 0.5) * 1000,
        "op_p99_ms": percentile(times, q) * 1000,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    by_kind: dict[str, float] = {}
    for r in result["ops"]:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0.0) + r["s"]
    extra = {
        "tail_quantile": q,
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in samples),
        "raw_wall_s": sum(r["raw_s"] for r in result["ops"]),
        "model_write_s": by_kind.get("model", 0.0),
        "filtrate_s": by_kind.get("filtrate", 0.0),
        "model_file_mb": sum(r.get("file_bytes", 0) for r in result["ops"]
                             if r["kind"] == "model") / 1e6,
    }
    return metrics, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (rank-2 catalog, a few dozen requests, one small model)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "affrep" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'affrep'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    deadline = Deadline(DEADLINE_S)
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_samples = measure_setup(deadline)
        ops = workloads.generate(args.workload, args.seed, args.seconds, workdir, args.smoke)
        ops_path = workdir / "ops.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        plain = run_worker(ops_path, False, deadline)
        traced = run_worker(ops_path, True, deadline) if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    e2e, extra = end_to_end(plain, setup_samples)
    kinds: dict[str, int] = {}
    for op in ops:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"ops {len(ops)} {kinds}")

    failures = []
    for i, op in enumerate(ops):
        for result in filter(None, (plain, traced)):
            why = check_op(op, result["ops"][i], workloads.CATALOG_EXPECTED)
            if why:
                failures.append(f"op {i} ({op['kind']}): {why}")
                break
    for why in failures[:20]:
        print("FAILED", why)
    correct = not failures
    digest = output_digest(plain["ops"])
    print(f"output digest {digest}")
    recorded = None
    if args.seed == workloads.DEFAULT_WORKLOAD_SEED:
        recorded = workloads.RECORDED_DIGESTS.get((args.workload, len(ops)))
    if recorded is not None and recorded != digest:
        correct = False
        print(f"FAILED output digest differs from the recorded {recorded}")
    if traced is not None:
        traced_digest = output_digest(traced["ops"])
        print(f"traced output digest {traced_digest}")
        if traced_digest != digest:
            correct = False
            print("FAILED traced outputs differ from untraced outputs")

    for name, unit in END_TO_END:
        print(f"{name:<24} {e2e[name]:.6g} {unit}")
    print(f"{'failed_frac':<24} {len(failures) / len(ops):.6g}")
    print(f"{'op_p99_ms quantile':<24} {extra['tail_quantile']:.4g} of {len(ops)} ops")
    for name in ("raw_setup_s", "raw_wall_s"):
        print(f"{name:<24} {extra[name]:.6g} s (not normalized to host speed)")
    if args.workload == "models":
        for name, unit in (("model_write_s", "s"), ("filtrate_s", "s"), ("model_file_mb", "MB")):
            print(f"{name:<24} {extra[name]:.6g} {unit}")

    if traced is not None:
        import spans

        metrics = dict(traced["per_layer"])
        metrics["trace_overhead_frac"] = sum(r["s"] for r in traced["ops"]) / e2e["wall_s"] - 1
        units = dict(spans.PER_LAYER)
        for name, unit in spans.PER_LAYER:
            print(f"{name:<44} {metrics[name]:.6g} {unit}")
    else:
        metrics, units = e2e, dict(END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
