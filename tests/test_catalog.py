import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from cli_process import SRC, run_affrep
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affrep import rationality, repclass
from affrep.catalog import (
    TRIGGER_BAD_Q,
    TRIGGER_SMALL_S,
    _fitting_subs,
    _grown,
    enumerate_exceptional_candidates,
    irreps_up_to_dim,
)
from affrep.config import DEFAULT_SEED, DEFAULT_TRIALS
from affrep.rationality import TwoStepExtension, check_structural
from affrep.repclass import BAD, bad_list, classify, classify_with_report, stabilizer_dimension
from affrep.schur import (
    Weight,
    WeightMultiset,
    dual,
    multiset_fits_in_product,
    normalize,
    sub_entries,
    tensor_counts,
    weyl_dim,
)


def W(n, *parts):
    return normalize(n, list(parts))


class TestIrrepsUpToDim:
    def test_sl2_tower(self):
        got = irreps_up_to_dim(2, 5)
        assert got == [W(2, k) for k in range(5)]

    def test_n3_d8(self):
        got = irreps_up_to_dim(3, 8)
        assert got == [W(3, 0), W(3, 1), W(3, 1, 1), W(3, 2), W(3, 2, 2), W(3, 2, 1)]

    def test_n3_d9_same_as_d8(self):
        assert irreps_up_to_dim(3, 9) == irreps_up_to_dim(3, 8)

    def test_sorted_by_dim_then_label(self):
        for n in (2, 3, 4):
            ws = irreps_up_to_dim(n, 30)
            keys = [(weyl_dim(w), w.parts) for w in ws]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("n,bound", [(2, 50), (3, 50), (4, 50), (5, 40), (6, 21)])
    def test_complete_against_brute_force(self, n, bound):
        # every weight with first part <= bound has dimension >= first part,
        # so the brute-force sweep below is exhaustive for dims <= bound; it
        # runs over every non-increasing tuple of parts up to bound
        brute = set()
        for parts in itertools.combinations_with_replacement(range(bound, -1, -1), n - 1):
            w = Weight(n, parts + (0,))
            if weyl_dim(w) <= bound:
                brute.add(w)
        assert set(irreps_up_to_dim(n, bound)) == brute


@pytest.mark.parametrize("n,bound", [(2, 9), (3, 10), (4, 12)])
def test_grown_reaches_each_bounded_multiset_once(n, bound):
    # the monotone bound of clause (ii): every nonempty multiset of the
    # irreducibles with total dimension <= bound, against all count vectors
    labels = irreps_up_to_dim(n, bound)
    tried = []

    def keep(ms):
        tried.append(ms.entries)
        return ms.dim() <= bound

    got = [ms.entries for ms in _grown(n, labels, keep)]
    most = WeightMultiset.of(n, [(w, bound // weyl_dim(w)) for w in labels])
    brute = {e for e in itertools.islice(sub_entries(most.entries), 1, None)
             if WeightMultiset(n, e).dim() <= bound}
    assert len(got) == len(set(got))
    assert set(got) == brute
    # keep sees each grown multiset once, and each accepted one is kept
    assert len(tried) == len(set(tried))
    assert [e for e in tried if WeightMultiset(n, e).dim() <= bound] == got


# --- the candidate filter against the one it replaced ------------------------

def fitting_subs_oracle(labels, factor, inner, caps=()):
    """The catalog's filter before containment columns: every nonempty
    sub-multiset, dropped by its caps ((weight of each label, bound) pairs),
    then one `multiset_fits_in_product` on each."""
    for s in itertools.islice(sub_entries(labels), 1, None):
        if any(sum(c * weight[w] for w, c in s) > bound for weight, bound in caps):
            continue
        if multiset_fits_in_product(inner, s, factor):
            yield s


# the labels of size <= 3 at ranks 2-4, all of dimension at most 20
SMALL_LABELS = {n: [w for w in irreps_up_to_dim(n, 20) if w.size <= 3] for n in (2, 3, 4)}


@st.composite
def small_multisets(draw, n):
    """At most 3 labels of size <= 3, each with multiplicity <= 3."""
    labels = draw(st.lists(st.sampled_from(SMALL_LABELS[n]), min_size=1, max_size=3, unique=True))
    return WeightMultiset.of(n, [(w, draw(st.integers(1, 3))) for w in labels])


@st.composite
def filter_cases(draw):
    """(sorted labels of M (x) f, test factor, inner, caps) at ranks 2-4,
    with f and the test factor each the standard or its dual.  The inner side
    is M itself, as in the catalog, or an unrelated small multiset."""
    n = draw(st.integers(2, 4))
    std = normalize(n, [1])
    outer = draw(small_multisets(n))
    labels = sorted(tensor_counts(outer.entries, draw(st.sampled_from([std, dual(std)]))).items())
    # the oracle forms a product per candidate; keep it to a few thousand
    assume(math.prod(m + 1 for _, m in labels) <= 4096)
    factor = draw(st.sampled_from([std, dual(std)]))
    inner = draw(st.one_of(st.just(outer), small_multisets(n)))
    caps = []
    if draw(st.booleans()):
        caps.append(({w: weyl_dim(w) for w, _ in labels}, draw(st.integers(1, 40))))
    if draw(st.booleans()):
        caps.append(({w: int(w.is_trivial()) for w, _ in labels}, draw(st.integers(0, 3))))
    return labels, factor, inner.entries, caps


@settings(max_examples=150, deadline=None)
@given(filter_cases())
def test_fitting_subs_match_oracle(case):
    labels, factor, inner, caps = case
    columns = [([weight[w] for w, _ in labels], bound) for weight, bound in caps]
    got = list(_fitting_subs(labels, factor, inner, columns))
    assert got == list(fitting_subs_oracle(labels, factor, inner, caps))


def test_fitting_subs_keep_equality_and_drop_empty():
    # S = standard gives standard (x) dual standard = trivial + adjoint: the
    # fixed side is met with equality, the empty candidate never appears, and
    # the count vectors run in lexicographic order
    n = 3
    std, dstd = W(n, 1), dual(W(n, 1))
    labels = sorted(tensor_counts([(std, 1)], dstd).items())
    got = list(_fitting_subs(labels, std, [(std, 1)]))
    assert got == [((W(n, 2, 1), 1),), ((W(n, 0), 1),), ((W(n, 0), 1), (W(n, 2, 1), 1))]
    assert list(_fitting_subs(labels, std, [(std, 2)])) == [
        ((W(n, 0), 1), (W(n, 2, 1), 1))]


class TestEnumerate:
    def test_deterministic(self):
        from affrep.serialize import catalog_entry_to_json, dumps

        a = enumerate_exceptional_candidates(2)
        b = enumerate_exceptional_candidates(2)
        assert [dumps(catalog_entry_to_json(e)) for e in a] == [
            dumps(catalog_entry_to_json(e)) for e in b
        ]

    def test_entries_satisfy_clauses(self):
        # the catalog decides without checking the containments again and
        # takes its clause-(ii) triggers from the bad cores; both must agree
        # with the full checks on every entry, a trigger Q-bad exactly when
        # Q classifies as bad
        for n, seed, trials in ((2, DEFAULT_SEED, DEFAULT_TRIALS), (3, DEFAULT_SEED, DEFAULT_TRIALS),
                                (2, 42, 5), (3, 42, 5)):
            entries = enumerate_exceptional_candidates(n, seed=seed, trials=trials)
            assert entries
            # the clauses are disjoint, so no pair is produced twice
            assert len({(e.Q.entries, e.S.entries) for e in entries}) == len(entries)
            triv = W(n, 0)
            for e in entries:
                assert check_structural(TwoStepExtension(n, e.S, e.Q, WeightMultiset.of(n, [])))
                assert e.Q.count(triv) < n * n - 1
                bad = classify(e.Q, seed=seed, trials=trials) == BAD
                assert (e.trigger == TRIGGER_BAD_Q) == bad, (n, seed, str(e.Q), str(e.S))
                if not bad:
                    assert e.trigger == TRIGGER_SMALL_S
                    assert e.S.dim() < n * n + 2 * n

    def test_dim_s_cap_flag(self):
        entries = enumerate_exceptional_candidates(2, max_dim_s=4)
        assert entries
        assert all(e.S.dim() <= 4 for e in entries)

    def test_cap_violations_refused(self):
        with pytest.raises(ValueError):
            enumerate_exceptional_candidates(3, max_dim_s=15)
        with pytest.raises(ValueError):
            enumerate_exceptional_candidates(3, max_trivials=8)
        with pytest.raises(ValueError):
            enumerate_exceptional_candidates(5)

    def test_affine_restriction_pattern_present(self):
        # the degree <= 1 function model restricted from rank 4 realizes the
        # pair (S, Q) = (trivial, dual standard); it must be in the catalog,
        # flagged as possibly not generically free
        entries = enumerate_exceptional_candidates(3)
        hits = [
            e
            for e in entries
            if e.Q.entries == ((dual(W(3, 1)), 1),)
            and e.S.entries == ((W(3, 0), 1),)
        ]
        assert len(hits) == 1
        assert hits[0].verdict.outcome == "PossiblyNotGenericallyFree"

    def test_verdicts_never_rational(self):
        # every admitted candidate fails both rationality criteria by design
        entries = enumerate_exceptional_candidates(2)
        assert all(
            e.verdict.outcome in ("Exceptional", "PossiblyNotGenericallyFree")
            for e in entries
        )


# --- clause (i) against the construction it replaced ---------------------------

def bad_cores(n, seed, trials):
    """The nonempty multisets over the nontrivial bad labels that `classify`
    still calls bad, grown label by label."""
    labels = sorted(w for w in bad_list(n) if not w.is_trivial())
    return _grown(n, labels, lambda ms: classify(ms, seed=seed, trials=trials) == BAD)


def bad_quotients_reference(n, trivial_cap, seed, trials):
    """Clause (i)'s quotients as the catalog once built them: every bad core
    padded with 0 to `trivial_cap` trivial summands, and the pure-trivial
    multisets with 1 to `trivial_cap` summands."""
    pads = [WeightMultiset.of(n, [(W(n, 0), t)]) for t in range(trivial_cap + 1)]
    return [core.add(pad) for core in bad_cores(n, seed, trials) for pad in pads] + pads[1:]


@pytest.mark.parametrize("n,max_trivials,seed,trials", [
    (2, None, DEFAULT_SEED, DEFAULT_TRIALS), (3, None, DEFAULT_SEED, DEFAULT_TRIALS),
    (2, 0, DEFAULT_SEED, DEFAULT_TRIALS), (3, 0, DEFAULT_SEED, DEFAULT_TRIALS),
    (2, 2, DEFAULT_SEED, DEFAULT_TRIALS), (3, 2, DEFAULT_SEED, DEFAULT_TRIALS),
    (2, None, 42, 5), (3, None, 42, 5),
])
def test_bad_quotients_match_padded_cores(n, max_trivials, seed, trials):
    # the grown bad quotients are the padded cores: a quotient classifies as
    # its nontrivial part, and a pure-trivial one is bad; with no cap on
    # dim S every bad quotient has some S, so each one is in the catalog
    entries = enumerate_exceptional_candidates(n, max_trivials=max_trivials, seed=seed,
                                               trials=trials)
    cap = n * n - 2 if max_trivials is None else max_trivials
    want = {q.entries for q in bad_quotients_reference(n, cap, seed, trials)}
    assert {e.Q.entries for e in entries if e.trigger == TRIGGER_BAD_Q} == want


def test_trivial_padding_of_a_core_changes_no_classification():
    # clause (i) holds every bad core with up to n^2 - 2 trivial summands;
    # the padded quotient is answered by the core's memoized result, and a
    # stabilizer run on it draws and returns what the core's run does
    n = 3
    triv = W(n, 0)
    for core in bad_cores(n, DEFAULT_SEED, DEFAULT_TRIALS):
        want = classify_with_report(core)
        want_dim = stabilizer_dimension(core).stab_dim
        for t in range(8):
            padded = core.add(WeightMultiset.of(n, [(triv, t)]))
            assert classify_with_report(padded) == want, (str(core), t)
            assert stabilizer_dimension(padded).stab_dim == want_dim, (str(core), t)


def test_rank3_catalog_repeats_no_work(monkeypatch):
    # a count of calls, not a time: the rank-3 catalog runs the stabilizer
    # once per distinct nontrivial quotient part it classifies (364 runs; it
    # took 917 when Q and Q + trivials each had their own run) and never
    # checks the containments again (it took 3,015 checks, one per entry)
    calls = {"stabilizer_dimension": 0, "check_structural": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(repclass, "stabilizer_dimension")
    counted(rationality, "check_structural")
    repclass.classify_with_report.cache_clear()
    assert len(enumerate_exceptional_candidates(3)) == 3015
    assert calls["stabilizer_dimension"] <= 364
    assert calls["check_structural"] == 0


CATALOG_SHA256 = {
    2: "cc126f7a8ad28a8e9e938d38bc866608e9ae63706c53cf6b2eea0dc6cc7be685",
    3: "ee468af4e7741556cd0f17c661e95f9dd00caddd95f7037da656ce1e16b8748e",
    4: "e4732dbdc81778736e4586f28f3802eea984d19e46853b561ec963797631b0fe",
}

# catalogs under caps and other seeds, which take other paths through both
# clauses (the dim-S filter of clause (i), the trivial filter of clause (ii))
CAPPED_SHA256 = {
    "--n 3 --max-trivials 2":
        "f0b68892345dc1ff897ec16c04959715698a57cd8979b141ed2968e7e99ce660",
    "--n 3 --max-dim-s 5":
        "25641ff0b9a60bdd2f9f1e906b973c7176ecb059f1e1a945bc75a1ab49040c1e",
    "--n 3 --max-trivials 0 --max-dim-s 8":
        "7134cecf90c2803854581b92ad8ec846a68a37b5a824c0a6df781f97e8476747",
    "--n 2 --max-dim-s 3":
        "68ba8bd7eeed36308ddfd9eea2758c866c323b71688e8f0cf43804660133eca3",
    "--n 3 --seed 42 --trials 5":
        "76de251e72a9218d238e3367a4c3465fcae6eb24b9fcbb3f7ebcbc3699e3c71a",
}


@pytest.mark.parametrize("n", sorted(CATALOG_SHA256))
def test_catalog_bytes_pinned(tmp_path, n):
    from affrep.cli import main

    out = tmp_path / "catalog.jsonl"
    assert main(["enumerate", "--n", str(n), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CATALOG_SHA256[n]


@pytest.mark.parametrize("args", sorted(CAPPED_SHA256))
def test_capped_catalog_bytes_pinned(tmp_path, args):
    from affrep.cli import main

    out = tmp_path / "catalog.jsonl"
    assert main(["enumerate", *args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CAPPED_SHA256[args]


def test_catalog_bytes_equal_across_processes_and_hash_seeds(tmp_path):
    outputs = []
    for hashseed in ("0", "12345"):
        out = tmp_path / f"catalog-{hashseed}.jsonl"
        proc = run_affrep("enumerate", "--n", "3", "--out", str(out), hashseed=hashseed)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# every bounded cache a catalog run fills, as module.function
CATALOG_CACHES = (
    "schur._weyl_dim",
    "schur._lr_decompose",
    "matmodel.model_for_weight",
    "repclass._integer_gens",
    "repclass.classify_with_report",
    "repclass.bad_list",
    "rationality.rank_labels",
)


def test_rank4_catalog_evicts_no_cache_entry(tmp_path):
    # in a fresh process, so the counts and the peak memory are the
    # catalog's alone; a cache evicted nothing when it still holds every
    # miss.  The lines are written as they are made, so the peak holds the
    # entries but not the file's 14 MB of text twice over (95 MB when it
    # did, 56 MB since), and the entries, their verdicts and multisets
    # carry no per-instance __dict__ (52 MB).  The peak is the process's
    # own VmHWM in KiB: its ru_maxrss would also count the test process,
    # whose peak a child inherits through exec on Linux
    code = (
        "import contextlib, importlib, json, sys\n"
        "from affrep.cli import main\n"
        "with contextlib.redirect_stdout(sys.stderr):\n"
        "    assert main(['enumerate', '--n', '4', '--out', sys.argv[1]]) == 0\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = next(line for line in fh if line.startswith('VmHWM:'))\n"
        "info = {'peak_kib': int(hwm.split()[1])}\n"
        "for name in sys.argv[2:]:\n"
        "    mod, fn = name.split('.')\n"
        "    info[name] = getattr(importlib.import_module('affrep.' + mod), fn)"
        ".cache_info()._asdict()\n"
        "print(json.dumps(info))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = tmp_path / "catalog.jsonl"
    proc = subprocess.run([sys.executable, "-c", code, str(out), *CATALOG_CACHES], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CATALOG_SHA256[4]
    assert info.pop("peak_kib") < 54 * 1024
    for name, cache in info.items():
        assert cache["misses"] == cache["currsize"] < cache["maxsize"], name
