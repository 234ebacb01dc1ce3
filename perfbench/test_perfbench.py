"""Tests of the benchmark itself, on its tiny-size smoke mode.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seed", "1", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_untraced_reports_every_end_to_end_metric(workload):
    _, res = _result(_bench("--workload", workload, "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_traced_outputs_equal_untraced(workload):
    lines, res = _result(_bench("--workload", workload, "--trace", "1", "--smoke"))
    assert res["correct"] and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    plain = [l.split()[-1] for l in lines if l.startswith("output digest")]
    traced = [l.split()[-1] for l in lines if l.startswith("traced output digest")]
    assert len(plain) == 1 and plain == traced


# Counts every call of a few functions by their code objects, through the
# interpreter's profile hook: independent of how the tracer wraps names.
_PROFILE_COUNT = r"""
import json, sys
from affrep import catalog, cli, linalg, rationality, repclass, schur
codes = {
    "rationality.check_structural.calls": rationality.check_structural.__code__,
    "schur.lr_decompose.calls": schur.lr_decompose.__code__,
    "schur.contains.calls": schur.contains.__code__,
    "repclass.stabilizer_dimension.calls": repclass.stabilizer_dimension.__code__,
    "linalg.Echelon.insert.calls": linalg.Echelon.insert.__code__,
}
counts = dict.fromkeys(codes, 0)
by_code = {c: k for k, c in codes.items()}
def hook(frame, event, arg):
    if event == "call" and frame.f_code in by_code:
        counts[by_code[frame.f_code]] += 1
sys.setprofile(hook)
entries = catalog.enumerate_exceptional_candidates(2)
sys.setprofile(None)
counts["catalog.entries"] = len(entries)
print(json.dumps(counts))
"""


def test_traced_rank2_counts_match_independent_count():
    proc = subprocess.run([sys.executable, "-c", _PROFILE_COUNT], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env={"PYTHONPATH": str(SRC), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    counted = json.loads(proc.stdout)
    assert counted["catalog.entries"] == 215
    _, res = _result(_bench("--workload", "catalog", "--trace", "1", "--smoke"))
    traced = {k: res["metrics"][k]["value"] for k in counted}
    assert traced == counted


_GENERATE_COLD = r"""
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
out = Path(sys.argv[2])
for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
    d = out / sub
    d.mkdir()
    workloads.generate("requests", seed, 1, d, smoke=True)
    workloads.generate("models", seed, 1, d)
from affrep import repclass, schur
print(json.dumps([repclass.classify_with_report.cache_info().currsize,
                  repclass.model_for_weight.cache_info().currsize,
                  schur._weyl_dim.cache_info().currsize]))
"""


def test_generation_is_seeded_and_leaves_program_caches_cold(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _GENERATE_COLD, str(HERE), str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(SRC), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 0]

    def files(sub):
        return {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}

    assert files("a") == files("b")
    assert files("a") != files("c")


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "catalog", "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
