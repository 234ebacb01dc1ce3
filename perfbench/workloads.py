"""Seeded inputs for the benchmark's workloads.

Each generator turns (seed, seconds) into a list of operations, writes the
input files those operations read, and returns the list.  The same seed and
run length always give the same operations and the same file bytes.

Generation runs in the orchestrating process, before the measured process
starts.  It calls only `affrep.oracle` (the independent monomial oracle) and
constructs `Weight` values; it never calls `affrep.schur`, `affrep.repclass`
or `affrep.rationality`, so none of the program's caches is warm when the
first timed operation starts, and the measured process sees only the files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from affrep import oracle
from affrep.schur import Weight

WORKLOADS = ("catalog", "requests", "models")

CATALOG_RANK = 3
SMOKE_CATALOG_RANK = 2
# Expected `enumerate --out` bytes: entry count and sha256 of the file
# (JSON lines, each ending in a newline) at the default seed and trials.
CATALOG_EXPECTED = {
    3: (3015, "ee468af4e7741556cd0f17c661e95f9dd00caddd95f7037da656ce1e16b8748e"),
    2: (215, "cc126f7a8ad28a8e9e938d38bc866608e9ae63706c53cf6b2eea0dc6cc7be685"),
}

# Requests per second of run length on the calibration host (2-core x86 VM,
# CPython 3.11).  The count is fixed by (seed, seconds), not by the clock, so
# two versions of the program always answer the same requests.
REQUESTS_PER_SECOND = 85
SMOKE_REQUESTS = 36

DEFAULT_WORKLOAD_SEED = 1
# Digest of every output of the `requests` and `models` workloads at the
# default workload seed, keyed by (workload, number of operations): the
# smoke size and the size at --seconds 30.
RECORDED_DIGESTS = {
    ("requests", 36): "6f103b5e5d8e60c41cbf9f9622a278ba657d5c3589e7b1eb6890d6301b9083ee",
    ("requests", 2550): "6834bb431ef24a68d875d7b28dbe8b103be226d4d40c652da67f2a8c0bf77d5a",
    ("models", 2): "31afe2325e5b43aa2e0577f4cbe5f02e3b434b52e625a63ba6219f8cb42dc236",
    ("models", 30): "36ab6738a647cac6c2d0056f7295a7259cdf83d4c479dc3d94f5d7d9c2452da4",
}


# --- weight labels as plain tuples ---------------------------------------------

def _norm(n: int, raw) -> tuple[int, ...]:
    raw = list(raw) + [0] * (n - len(raw))
    return tuple(p - raw[-1] for p in raw)


def _dual(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(lam[0] - p for p in reversed(lam))


def _bad_labels(n: int) -> list[tuple[int, ...]]:
    """The known bad family: exterior and symmetric square, standard,
    trivial, traceless adjoint, and their duals."""
    base = [_norm(n, p) for p in ([1, 1], [2], [1], [], [2] + [1] * (n - 2))]
    return sorted(set(base + [_dual(w) for w in base]))


def _dim(n: int, lam: tuple[int, ...]) -> int:
    return len(oracle.ssyt_contents(lam, n))


def _small_labels(n: int, max_dim: int) -> list[tuple[int, ...]]:
    """Nontrivial normalized labels with first part <= 3 and dim <= max_dim."""
    out = []

    def rec(prefix):
        if len(prefix) == n - 1:
            lam = tuple(prefix) + (0,)
            if lam[0] and _dim(n, lam) <= max_dim:
                out.append(lam)
            return
        for v in range((prefix[-1] if prefix else 3) + 1):
            rec(prefix + [v])

    rec([])
    return sorted(out)


class _Products:
    """Tensor products with an irreducible, through the monomial oracle."""

    def __init__(self):
        self._cache: dict = {}

    def times(self, n: int, ms: dict, factor: tuple[int, ...]) -> dict:
        out: dict = {}
        for lam, m in ms.items():
            key = (n, lam, factor)
            if key not in self._cache:
                prod = oracle.product_as_multiset(Weight(n, lam), Weight(n, factor))
                self._cache[key] = {w.parts: c for w, c in prod.entries}
            for nu, c in self._cache[key].items():
                out[nu] = out.get(nu, 0) + m * c
        return out


def _fits(inner: dict, outer: dict) -> bool:
    return all(outer.get(lam, 0) >= m for lam, m in inner.items())


def _multiset_json(n: int, ms: dict) -> dict:
    return {"n": n, "summands": [{"lambda": list(lam), "mult": m} for lam, m in sorted(ms.items())]}


# --- requests --------------------------------------------------------------------

def _draw(rng: random.Random, bad: list, other: list, draws: int, max_mult: int) -> dict:
    """A multiset drawn mostly from the bad family, so the stabilizer runs."""
    ms: dict = {}
    for _ in range(draws):
        lam = rng.choice(bad) if rng.random() < 0.85 else rng.choice(other)
        ms[lam] = ms.get(lam, 0) + rng.randint(1, max_mult)
    return ms


def _stabilizer_dim(n: int, ms: dict) -> int | None:
    """Dimension the stabilizer engine works on for ms (its nontrivial
    part), or None when a label outside the bad family short-cuts it."""
    bad = set(_bad_labels(n))
    if any(lam not in bad for lam in ms):
        return None
    return sum(m * _dim(n, lam) for lam, m in ms.items() if lam[0])


# Per-rank sizes: (Q draws, Q multiplicity, W draws, W multiplicity) for
# check2step and (draws, multiplicity) for classify.  Rank 4 is kept smaller
# because the stabilizer's cost grows with dimension times the square of
# dim sl_n; larger rank-4 inputs would make a few requests most of the run.
EXTENSION_SIZES = {2: (3, 2, 3, 2), 3: (3, 2, 3, 2), 4: (2, 2, 2, 1)}
CLASSIFY_SIZES = {3: (3, 3), 4: (2, 2)}
# One cycle of request kinds and ranks; every run answers whole shuffled
# cycles, so the mix of kinds and ranks is the same for every seed and only
# the instances differ.  Three quarters are check2step.
REQUEST_CYCLE = (
    ("check2step", 2), ("check2step", 3), ("check2step", 3), ("check2step", 3),
    ("check2step", 4), ("check2step", 4), ("classify", 3), ("classify", 4),
)
# Size tiers per rank: the stabilizer dimension of Q (check2step) or of the
# representation (classify) lies in the range; None means a label outside
# the bad family.  Each (kind, rank) deals its tiers from a shuffled deck, in
# about the proportions free draws give, so every run has the same number of
# large instances.  They set the tail, and their count would otherwise swing
# by a fifth between seeds.
_GOOD = None
SIZE_TIERS = {
    2: (_GOOD,) * 3 + ((0, 9),) * 6 + ((10, 99),),
    3: (_GOOD,) * 3 + ((0, 9),) * 3 + ((10, 19),) * 2 + ((20, 29), (30, 99)),
    4: (_GOOD,) * 4 + ((0, 9),) * 5 + ((10, 19),) * 5 + ((20, 29),) * 3 + ((30, 39),) * 2
    + ((40, 99),),
}


def _in_tier(n: int, ms: dict, tier) -> bool:
    dim = _stabilizer_dim(n, ms)
    if tier is _GOOD or dim is None:
        return tier is _GOOD and dim is None
    return tier[0] <= dim <= tier[1]


def _extension(rng: random.Random, n: int, tier, prods: _Products) -> dict:
    """A two-step instance whose structural containments hold: Q mostly from
    the bad family and in the size tier, S a sub-multiset of Q (x) std that
    also satisfies Q inside S (x) dual std, and a small detached W."""
    std = _norm(n, [1])
    dstd = _dual(std)
    bad = _bad_labels(n)
    other = [w for w in _small_labels(n, 20) if w not in bad]
    q_draws, q_mult, w_draws, w_mult = EXTENSION_SIZES[n]
    while True:
        q = _draw(rng, bad, other, rng.randint(1, q_draws), q_mult)
        if not _in_tier(n, q, tier):
            continue
        prod = prods.times(n, q, std)
        s = {}
        for lam, m in sorted(prod.items()):
            keep = m if rng.random() < 0.7 else rng.randint(0, m)
            if keep:
                s[lam] = keep
        if s and _fits(q, prods.times(n, s, dstd)):
            break
    w = _draw(rng, bad, other, rng.randint(0, w_draws), w_mult)
    return {
        "n": n,
        "S": _multiset_json(n, s),
        "Q": _multiset_json(n, q),
        "W": _multiset_json(n, w),
        "assume_generically_free": rng.random() < 0.5,
    }


def _classify_rep(rng: random.Random, n: int, tier) -> dict:
    bad = _bad_labels(n)
    other = [w for w in _small_labels(n, 20) if w not in bad]
    draws, mult = CLASSIFY_SIZES[n]
    while True:
        ms = _draw(rng, bad, other, rng.randint(1, draws), mult)
        if _in_tier(n, ms, tier):
            return _multiset_json(n, ms)


def requests_ops(seed: int, count: int, workdir: Path) -> list[dict]:
    """The `requests` workload: independent `check2step` requests (three
    quarters, ranks 2-4) and `classify` requests at ranks 3 and 4, in one
    closed loop.

    Why: each request is a cold, distinct input with its own seed, so the
    stabilizer engine runs with little shared work, and rank 4 is included.  A cache or
    kernel change that helps `catalog` but costs on distinct inputs shows up
    here.
    """
    rng = random.Random(seed)
    prods = _Products()
    ops = []
    cycle: list = []
    decks: dict = {}

    def deal(deck: list, full) -> object:
        if not deck:
            deck.extend(full)
            rng.shuffle(deck)
        return deck.pop()

    for i in range(count):
        kind, n = deal(cycle, REQUEST_CYCLE)
        tier = deal(decks.setdefault((kind, n), []), SIZE_TIERS[n])
        path = workdir / f"req{i:05d}.json"
        if kind == "check2step":
            data = _extension(rng, n, tier, prods)
        else:
            data = _classify_rep(rng, n, tier)
        path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        # a seed per request, as separate CLI invocations would pass: the
        # classify cache is keyed by seed, so no request reuses another's work
        ops.append({"kind": kind, "file": str(path), "seed": rng.randrange(1, 1 << 30)})
    return ops


# --- models ----------------------------------------------------------------------

# Model slots for `sl-only(lambda) (x) functions(n, <=l)`: (n, l, a label
# and its dual).  The seed picks the label or its dual, and the order.  A
# dual model is the negated transpose, built through the same tensor model,
# so every seed does the same work on different matrices; with only 30
# operations a run, a choice among labels of unequal cost moved the tail
# quantile by 15% between seeds.
MODEL_SLOTS = (
    (3, 2, ((3, 0, 0), (3, 3, 0))),                              # N = 100
    (3, 3, ((2, 1, 0),)),                                        # N = 160
    (4, 2, ((1, 1, 0, 0),)),                                     # N = 90
    (4, 1, ((2, 1, 0, 0), (2, 2, 1, 0))),                        # N = 100
    (4, 2, ((2, 0, 0, 0), (2, 2, 2, 0))),                        # N = 150
)
# Seconds one round over MODEL_SLOTS takes at calibration.
MODEL_ROUND_SECONDS = 10.0
SMOKE_MODEL_SLOTS = ((3, 1, ((1, 0, 0), (1, 1, 0))),)


def models_ops(seed: int, rounds: int, workdir: Path, slots=MODEL_SLOTS) -> list[dict]:
    """The `models` workload: `model` then `filtrate` pairs over seeded
    `sl-only(lambda) (x) functions(n, <=l)` models of dimension 90-160.

    Why: it runs `serialize`, `matmodel` and `filtration`, with file writes
    beside reads, and barely touches `schur` or `repclass`, so it is the
    workload on which a model-I/O change shows and a classification change
    should not.
    """
    rng = random.Random(seed)
    ops = []
    for p in range(rounds):
        order = list(range(len(slots)))
        rng.shuffle(order)
        for j in order:
            n, l, labels = slots[j]
            lam = rng.choice(labels)
            stem = workdir / f"m{p:02d}_{j:02d}"
            dim = _dim(n, lam) * len(oracle.ssyt_contents((l,), n + 1))
            ops.append({
                "kind": "model", "n": n, "l": l, "lambda": list(lam),
                "a": f"{stem}_a.json", "b": f"{stem}_b.json", "file": f"{stem}_t.json",
            })
            # kinds alternate by round and slot: they differ in cost, and a
            # seeded choice would move the median between seeds
            ops.append({
                "kind": "filtrate", "file": f"{stem}_t.json", "N": dim,
                "filtration": ("socle", "radical")[(p + j) % 2],
            })
    return ops


def catalog_ops(rank: int, workdir: Path) -> list[dict]:
    """The `catalog` workload: `enumerate --n 3 --out FILE` once.

    Why: it is the flagship output and shares much work across inputs
    (about half in structural containment through LR decomposition, half in
    the stabilizer, with a classify cache that mostly hits), so it is the
    workload on which memoization and the stabilizer kernel pay.  Its input
    is fixed: the seed does not change it.  The rank-4 catalog (about ten
    minutes) is too long to repeat and stays outside this benchmark.
    """
    return [{"kind": "enumerate", "n": rank, "file": str(workdir / "catalog.jsonl")}]


def generate(workload: str, seed: int, seconds: int, workdir: Path, smoke: bool = False) -> list[dict]:
    """The operations of one run, with their input files written."""
    if workload == "catalog":
        return catalog_ops(SMOKE_CATALOG_RANK if smoke else CATALOG_RANK, workdir)
    if workload == "requests":
        count = SMOKE_REQUESTS if smoke else max(1, REQUESTS_PER_SECOND * seconds)
        return requests_ops(seed, count, workdir)
    if workload == "models":
        if smoke:
            return models_ops(seed, 1, workdir, SMOKE_MODEL_SLOTS)
        return models_ops(seed, max(1, round(seconds / MODEL_ROUND_SECONDS)), workdir)
    raise ValueError(f"unknown workload {workload!r}")
