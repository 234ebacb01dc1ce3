import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from cli_process import SRC, run_affrep
from frontier_reference import engine_bad_cores
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from submultiset_oracle import grown_reference, sub_entries

from affrep import rationality, repclass
from affrep.catalog import (
    TRIGGER_BAD_Q,
    TRIGGER_SMALL_S,
    Catalog,
    QuotientGroup,
    _padded_partners,
    _partners,
    _walk,
    enumerate_exceptional_candidates,
    irreps_up_to_dim,
)
from affrep.config import DEFAULT_SEED, DEFAULT_TRIALS
from affrep.rationality import TwoStepExtension, check_structural, decide_pair, decision_signature
from affrep.repclass import (
    BAD,
    GOOD,
    GOOD_HEURISTIC,
    bad_list,
    classify,
    classify_with_report,
    stabilizer_dimension,
)
from affrep.schur import (
    Weight,
    WeightMultiset,
    core_entries,
    dominant_weights,
    dual,
    lr_decompose,
    multiset_fits_in_product,
    normalize,
    tensor_counts,
    weyl_dim,
)


def W(n, *parts):
    return normalize(n, list(parts))


def dual_multiset(ms):
    """The dual of a multiset: each label through `schur.dual`, re-sorted."""
    return WeightMultiset.of(ms.n, [(dual(w), m) for w, m in ms.entries])


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

    @pytest.mark.parametrize("n,bound,measure", [
        *(pytest.param(n, bound, "dim", id=f"{n}-{bound}")
          for n, bound in [(2, 50), (3, 50), (4, 50), (5, 40), (6, 21)]),
        (2, 30, "size"), (3, 9, "size"), (4, 6, "size"), (6, 5, "size"),
        (2, 30, "first part"), (3, 8, "first part"), (4, 5, "first part"), (6, 3, "first part"),
    ])
    def test_complete_against_brute_force(self, n, bound, measure):
        # the walker under a dimension, size or first-part bound; each is at
        # least the first part (a dimension is more), so the brute-force
        # sweep over every non-increasing tuple of parts up to bound is
        # exhaustive
        of = {"dim": weyl_dim, "size": lambda w: w.size, "first part": lambda w: w.parts[0]}
        brute = [Weight(n, parts + (0,)) for parts in
                 itertools.combinations_with_replacement(range(bound, -1, -1), n - 1)]
        brute = sorted(w for w in brute if of[measure](w) <= bound)
        assert dominant_weights(n, lambda w: of[measure](w) <= bound) == brute
        if measure == "dim":
            assert irreps_up_to_dim(n, bound) == sorted(brute, key=lambda w: (weyl_dim(w), w.parts))


@pytest.mark.parametrize("n,bound", [(2, 9), (3, 10), (4, 12)])
def test_grown_reaches_each_bounded_multiset_once(n, bound):
    # the bound of clause (ii): every nonempty multiset of the irreducibles
    # with total dimension <= bound, against all count vectors in their
    # order; the walk meets the bound as a linear cap, the reference grower
    # as a test, and the grower reaches each multiset once
    labels = sorted(irreps_up_to_dim(n, bound))
    dims = [weyl_dim(w) for w in labels]
    most = [(w, bound // d) for w, d in zip(labels, dims)]
    got = _walk(most, caps=[(dims, bound)])
    brute = [e for e in itertools.islice(sub_entries(most), 1, None)
             if WeightMultiset(n, e).dim() <= bound]
    assert got == brute
    grown = [ms.entries for ms in grown_reference(n, labels, lambda ms: ms.dim() <= bound)]
    assert len(grown) == len(set(grown))
    assert sorted(grown) == sorted(got)


# --- the bad quotients, grown by the reference --------------------------------

def grown_bad_quotients(n, trivial_cap, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """The entries of every multiset of bad labels, with at most
    `trivial_cap` trivials and n^2 - 1 copies of each other label, that the
    engine calls bad, grown label by label and sorted.  The engine is asked
    once per nontrivial part, which every padding of it classifies as
    (`test_trivial_padding_of_a_core_changes_no_classification`); the
    classifier's own memo spans one decision, not a sweep."""
    triv, answers = W(n, 0), {}

    def is_bad(q):
        if any(m > (trivial_cap if w == triv else n * n - 1) for w, m in q.entries):
            return False
        core = core_entries(q.entries)
        if core not in answers:
            answers[core] = classify_with_report(q, seed, trials)[0] == BAD
        return answers[core]

    return sorted(q.entries for q in grown_reference(n, sorted(bad_list(n)), is_bad))


@pytest.mark.parametrize("labels", [
    [(W(2, 0), 2), (W(2, 1), 3), (W(2, 2), 3)],   # the rank-2 bad sweep's bounds
    [(W(3, 1), 4), (W(3, 1, 1), 4)],              # fundamentals under dimension 4
])
def test_walk_keeping_everything_stops_at_most(labels):
    assert _walk(labels) == list(itertools.islice(sub_entries(labels), 1, None))


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
    """(n, M, f, test factor, inner, caps) at ranks 2-4, with f and the
    test factor each the standard or its dual; the labels are those of
    M (x) f.  The inner side is M itself, as in the catalog, or an
    unrelated small multiset."""
    n = draw(st.integers(2, 4))
    std = normalize(n, [1])
    outer = draw(small_multisets(n))
    f = draw(st.sampled_from([std, dual(std)]))
    labels = sorted(tensor_counts(outer.entries, f).items())
    # the oracle forms a product per candidate; keep it to a few thousand
    assume(math.prod(m + 1 for _, m in labels) <= 4096)
    factor = draw(st.sampled_from([std, dual(std)]))
    inner = draw(st.one_of(st.just(outer), small_multisets(n)))
    caps = []
    if draw(st.booleans()):
        caps.append(({w: weyl_dim(w) for w, _ in labels}, draw(st.integers(1, 40))))
    if draw(st.booleans()):
        caps.append(({w: int(w.is_trivial()) for w, _ in labels}, draw(st.integers(0, 3))))
    return n, outer, f, factor, inner.entries, caps


@settings(max_examples=150, deadline=None)
@given(filter_cases())
def test_fitting_subs_match_oracle(case):
    # the walk, given one need column per label of the inner side; and the
    # partner search, which builds those columns, wherever the case is the
    # catalog's (inner = M, the test factor the dual of f)
    n, outer, f, factor, inner, caps = case
    labels = sorted(tensor_counts(outer.entries, f).items())
    want = list(fitting_subs_oracle(labels, factor, inner, caps))
    prods = [dict(lr_decompose(u, factor).entries) for u, _ in labels]
    needs = [([p.get(w, 0) for p in prods], m) for w, m in inner]
    columns = [([weight[w] for w, _ in labels], bound) for weight, bound in caps]
    assert _walk(labels, needs, columns) == want
    if inner == outer.entries and factor == dual(f):
        assert _partners(n, inner, f, [(weight.get, bound) for weight, bound in caps]) == want


def test_fitting_subs_keep_equality_and_drop_empty():
    # S = standard gives standard (x) dual standard = trivial + adjoint: the
    # fixed side is met with equality, the empty candidate never appears, and
    # the count vectors run in lexicographic order
    n = 3
    std, dstd = W(n, 1), dual(W(n, 1))
    got = _partners(n, [(std, 1)], dstd)
    assert got == [((W(n, 2, 1), 1),), ((W(n, 0), 1),), ((W(n, 0), 1), (W(n, 2, 1), 1))]
    # two copies of the standard need both labels: each product holds it once
    labels = sorted(tensor_counts([(std, 1)], dstd).items())
    assert _walk(labels, [([1, 1], 2)]) == [((W(n, 0), 1), (W(n, 2, 1), 1))]


class TestEnumerate:
    def test_deterministic(self):
        a = enumerate_exceptional_candidates(2)
        b = enumerate_exceptional_candidates(2)
        assert a.groups == b.groups
        assert _written(a) == _written(b)

    def test_entries_satisfy_clauses(self):
        # the catalog decides without checking the containments again and
        # takes its clause-(ii) triggers from the tabled bad cores; both
        # must agree with the full checks on every entry, a trigger Q-bad
        # exactly when the engine classifies Q as bad
        for n, seed, trials in ((2, DEFAULT_SEED, DEFAULT_TRIALS), (3, DEFAULT_SEED, DEFAULT_TRIALS),
                                (2, 42, 5), (3, 42, 5)):
            catalog = enumerate_exceptional_candidates(n)
            assert catalog
            # the clauses are disjoint, so no pair is produced twice
            assert len({(g.Q.entries, s) for g in catalog.groups for s in g.subs}) == len(catalog)
            triv = W(n, 0)
            for group in catalog.groups:
                Q = group.Q
                assert Q.count(triv) < n * n - 1
                bad = classify_with_report(Q, seed, trials)[0] == BAD
                assert (group.trigger == TRIGGER_BAD_Q) == bad, (n, seed, str(Q))
                for s in group.subs:
                    S = WeightMultiset(n, s)
                    assert check_structural(TwoStepExtension(n, S, Q, WeightMultiset.of(n, [])))
                    if not bad:
                        assert group.trigger == TRIGGER_SMALL_S
                        assert S.dim() < n * n + 2 * n, (n, seed, str(Q), str(S))

    def test_dim_s_cap_flag(self):
        catalog = enumerate_exceptional_candidates(2, max_dim_s=4)
        assert catalog
        assert all(WeightMultiset(2, s).dim() <= 4 for g in catalog.groups for s in g.subs)

    def test_cap_violations_refused(self):
        with pytest.raises(ValueError):
            enumerate_exceptional_candidates(3, max_dim_s=15)
        with pytest.raises(ValueError):
            enumerate_exceptional_candidates(3, max_trivials=8)
        with pytest.raises(ValueError):
            enumerate_exceptional_candidates(8)

    def test_affine_restriction_pattern_present(self):
        # the degree <= 1 function model restricted from rank 4 realizes the
        # pair (S, Q) = (trivial, dual standard); it must be in the catalog,
        # flagged as possibly not generically free
        catalog = enumerate_exceptional_candidates(3)
        hits = [
            (group, s)
            for group in catalog.groups
            for s in group.subs
            if group.Q.entries == ((dual(W(3, 1)), 1),)
            and s == ((W(3, 0), 1),)
        ]
        assert len(hits) == 1
        assert _verdict(*hits[0]).outcome == "PossiblyNotGenericallyFree"

    def test_verdicts_never_rational(self):
        # every admitted candidate fails both rationality criteria by design
        catalog = enumerate_exceptional_candidates(2)
        assert all(
            _verdict(group, s).outcome in ("Exceptional", "PossiblyNotGenericallyFree")
            for group in catalog.groups
            for s in group.subs
        )


# --- clause (i) against the construction it replaced ---------------------------

def bad_quotients_reference(n, trivial_cap, seed, trials):
    """Clause (i)'s quotients as the catalog once built them: every bad core
    padded with 0 to `trivial_cap` trivial summands, and the pure-trivial
    multisets with 1 to `trivial_cap` summands."""
    pads = [WeightMultiset.of(n, [(W(n, 0), t)]) for t in range(trivial_cap + 1)]
    return [core.add(pad) for core in engine_bad_cores(n, seed, trials) for pad in pads] + pads[1:]


@pytest.mark.parametrize("n,max_trivials,seed,trials", [
    (2, None, DEFAULT_SEED, DEFAULT_TRIALS), (3, None, DEFAULT_SEED, DEFAULT_TRIALS),
    (2, 0, DEFAULT_SEED, DEFAULT_TRIALS), (3, 0, DEFAULT_SEED, DEFAULT_TRIALS),
    (2, 2, DEFAULT_SEED, DEFAULT_TRIALS), (3, 2, DEFAULT_SEED, DEFAULT_TRIALS),
    (2, None, 42, 5), (3, None, 42, 5), (4, None, DEFAULT_SEED, DEFAULT_TRIALS),
])
def test_bad_quotients_match_padded_cores(n, max_trivials, seed, trials):
    # the grown bad quotients are the padded cores: a quotient classifies as
    # its nontrivial part, and a pure-trivial one is bad; with no cap on
    # dim S every bad quotient has some S, so each one is in the catalog.
    # The reference sweep asks the engine about every multiset it reaches,
    # at the seed and trials asked for, so the tabled cores change no class
    catalog = enumerate_exceptional_candidates(n, max_trivials=max_trivials)
    cap = n * n - 2 if max_trivials is None else max_trivials
    want = {q.entries for q in bad_quotients_reference(n, cap, seed, trials)}
    assert {g.Q.entries for g in catalog.groups if g.trigger == TRIGGER_BAD_Q} == want


def test_trivial_padding_of_a_core_changes_no_classification():
    # clause (i) holds every bad core with up to n^2 - 2 trivial summands;
    # the padded quotient is answered by the core's memoized result, and a
    # stabilizer run on it draws and returns what the core's run does
    n = 3
    triv = W(n, 0)
    for core in engine_bad_cores(n):
        want = classify_with_report(core)
        want_dim = stabilizer_dimension(core).stab_dim
        for t in range(8):
            padded = core.add(WeightMultiset.of(n, [(triv, t)]))
            assert classify_with_report(padded) == want, (str(core), t)
            assert stabilizer_dimension(padded).stab_dim == want_dim, (str(core), t)


# --- the trivially padded partners are a shift of one walk per core -------------

def _adjoint(n):
    return normalize(n, [2] + [1] * (n - 2))


def _shifted(entries, label, k):
    """`entries` with k more copies of `label`."""
    return tuple((w, m + k if w == label else m) for w, m in entries)


def _assert_shifts(n, core, top, factor, caps):
    """Past the base max(m_ad, 1), the sorted `_partners` of each padding
    of `core` are the base's, in the same order, each with the difference
    added to its `factor` count, those over a cap (f, most) (the sum of
    f over its summands above most) dropped; and `_padded_partners` yields
    every padding's own walk.  The number of shifted entries checked."""
    triv = W(n, 0)
    padded = {p: ((triv, p),) + core if p else core for p in range(top + 1) if p or core}
    walks = {p: sorted(_partners(n, q, factor, caps)) for p, q in padded.items()}
    assert dict(_padded_partners(n, core, top, factor, caps)) == {
        padded[p]: walk for p, walk in walks.items()}
    base = max(dict(core).get(_adjoint(n), 0), 1)
    shifted = 0
    for p in range(base + 1, top + 1):
        got = [_shifted(s, factor, p - base) for s in walks[base]]
        got = [s for s in got if all(sum(m * f(w) for w, m in s) <= most for f, most in caps)]
        assert got == walks[p], (core, p)
        shifted += len(got)
    return shifted


@pytest.mark.parametrize("n,max_dim_s", [(2, None), (2, 6), (3, None), (3, 8), (3, 11),
                                         (4, None), (4, 12)])
def test_padded_bad_core_partners_are_the_shifted_base_list(n, max_dim_s):
    # clause (i): every S of t trivials + core C is t copies of C^n plus an
    # S'' inside C (x) C^n, and Q lies in S (x) dual C^n exactly when C lies
    # in S'' (x) dual C^n + t ad, so past the base the S'' are fixed
    caps = [] if max_dim_s is None else [(weyl_dim, max_dim_s)]
    cores = [()] + [core.entries for core in engine_bad_cores(n)]
    assert sum(_assert_shifts(n, core, n * n - 2, W(n, 1), caps) for core in cores)


@pytest.mark.parametrize("n,max_dim_s,max_trivials", [(2, None, None), (2, 3, None),
                                                      (3, None, None), (3, 8, None),
                                                      (3, None, 2), (4, None, None),
                                                      (4, 12, None)])
def test_padded_small_s_partners_are_the_shifted_base_list(n, max_dim_s, max_trivials):
    # clause (ii), the mirror: every Q of a trivials + S' is a copies of
    # dual C^n plus a Q'' inside S' (x) dual C^n, with the trivials of Q'',
    # and S lies in Q (x) C^n exactly when S' lies in Q'' (x) C^n + a ad;
    # so every small S' has the shifted partners at each padding under the
    # dim-S cap
    dim_cap = n * n + 2 * n - 1 if max_dim_s is None else max_dim_s
    caps = [(Weight.is_trivial, n * n - 2 if max_trivials is None else max_trivials)]
    small = sorted(w for w in irreps_up_to_dim(n, dim_cap) if not w.is_trivial())
    dims = [weyl_dim(w) for w in small]
    cores = [()] + _walk([(w, dim_cap // d) for w, d in zip(small, dims)],
                         caps=[(dims, dim_cap)])
    assert sum(_assert_shifts(n, core, dim_cap - WeightMultiset(n, core).dim(), dual(W(n, 1)), caps)
               for core in cores)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ads,standards", [(2, 0), (3, 0), (2, 1)])
def test_the_shift_base_is_the_adjoint_count(n, ads, standards):
    # no core the catalog shifts holds two adjoints at ranks 2-7, so the
    # base's m_ad term is checked here: with m_ad copies the partners are
    # fixed from padding m_ad on, and not yet from m_ad - 1
    triv, std = W(n, 0), W(n, 1)
    core = WeightMultiset.of(n, [(_adjoint(n), ads), (std, standards)]).entries
    for factor in (std, dual(std)):
        assert _assert_shifts(n, core, ads + 3, factor, ())
        walk = {p: sorted(_partners(n, ((triv, p),) + core, factor)) for p in (ads - 1, ads)}
        assert [_shifted(s, factor, 1) for s in walk[ads - 1]] != walk[ads]


@pytest.mark.parametrize("n,walks", [(2, 30), (3, 111)])
def test_partner_walks_pinned(monkeypatch, n, walks):
    # each core of either clause is walked for its paddings up to its base
    # and shifted beyond it (52 and 330 walks at ranks 2 and 3 when each
    # padding had a walk of its own); ranks 4 and 5 are pinned in a fresh
    # process (`FRESH_CATALOG`)
    from affrep import catalog

    walked = []
    partners = catalog._partners
    monkeypatch.setattr(catalog, "_partners", lambda *args: walked.append(args) or partners(*args))
    enumerate_exceptional_candidates(n)
    assert len(walked) == walks


def test_rank3_catalog_repeats_no_work(monkeypatch):
    # a count of calls, not a time: the rank-3 catalog takes its bad cores
    # from the table and runs no stabilizer (14 runs when a sweep asked the
    # engine about the cores above the row-count floor, holding no Good
    # sub-multiset and not the dual of one it had asked about; 30 before
    # the floor and the sub-multisets, 50 when it asked about both duals,
    # 364 when every clause-(ii) quotient was classified, 917 when Q and
    # Q + trivials each had their own run) and never checks the
    # containments again (it took 3,015 checks, one per entry)
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
    assert calls["stabilizer_dimension"] == 0
    assert calls["check_structural"] == 0


@pytest.mark.parametrize("n,stabilizer_args,hits,misses", [(2, 0, 0, 0), (3, 0, 0, 0),
                                                           (4, 0, 0, 0)],
                         ids=["rank2", "rank3", "rank4"])
def test_catalog_engine_calls_pinned(monkeypatch, n, stabilizer_args, hits, misses):
    # from a cleared cache the catalog asks the stabilizer about so many
    # distinct multisets, once each, and the classifier's cache reads so
    # many hits and misses: the bad cores come from the table, so none.
    # At ranks 2-4 a sweep of the cores made 4 / 14 / 34 misses when it
    # asked the classifier once about each multiset it reached above the
    # row-count floor, holding no Good multiset or its dual, and whose
    # dual it had not asked about; 6 / 30 / 101 before the floor and the
    # Good sub-multisets, 6 / 50 / 167 when it also asked about the duals,
    # and at ranks 3 and 4 349 / 2,337 hits and 400 / 2,505 misses when it
    # walked the cores once per trivial count.  A catalog that asks the
    # engine anything moves these counts
    seen = _stabilizer_args(monkeypatch)
    repclass.classify_with_report.cache_clear()
    enumerate_exceptional_candidates(n)
    info = repclass.classify_with_report.cache_info()
    assert len(seen) == len(set(seen)) == stabilizer_args
    assert (info.hits, info.misses) == (hits, misses)


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
    "--n 3 --seed 42":
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


@pytest.mark.parametrize("n", [2, 3])
def test_catalog_depends_on_the_seed_only_through_its_seed_field(tmp_path, n):
    # the seed picks the random stabilizer points; where they are generic
    # no verdict depends on them, and the seed shows only where each
    # verdict writes it
    from affrep.cli import main

    stripped = []
    for seed in (DEFAULT_SEED, 1, 2):
        out = tmp_path / f"catalog-{seed}.jsonl"
        assert main(["enumerate", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        field = f'"seed":{seed},'
        assert text.count(field) == text.count("\n") > 0
        stripped.append(text.replace(field, ""))
    assert stripped[0] == stripped[1] == stripped[2]


def test_catalog_bytes_equal_across_processes_and_hash_seeds(tmp_path):
    outputs = []
    for hashseed in ("0", "12345"):
        out = tmp_path / f"catalog-{hashseed}.jsonl"
        proc = run_affrep("enumerate", "--n", "3", "--out", str(out), hashseed=hashseed)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _stabilizer_args(monkeypatch):
    """The multisets every later stabilizer call is asked about, in order."""
    seen = []
    original = repclass.stabilizer_dimension

    def wrapper(rep, *args, **kwargs):
        seen.append(rep)
        return original(rep, *args, **kwargs)

    monkeypatch.setattr(repclass, "stabilizer_dimension", wrapper)
    return seen


def test_clause_ii_quotients_outside_the_bad_sweep_get_no_stabilizer_call(monkeypatch):
    # the catalog classifies no quotient: a bad core is in the table's
    # down-closure, and any other quotient of bad labels holds a border
    # multiset of the table.  So the whole catalog sends nothing to the
    # stabilizer, though a sweep of the bad quotients themselves (grown
    # over all bad labels, each answered by its core)
    # sends each of its 50 cores once, and the GoodHeuristic clause-(ii)
    # quotients beyond that boundary would each run it if classified alone
    n = 3
    seen = _stabilizer_args(monkeypatch)
    triv = W(n, 0)
    repclass.classify_with_report.cache_clear()
    grown_bad_quotients(n, n * n - 2)
    swept = set(seen)
    assert len(seen) == len(swept) == 50
    assert all(not q.count(triv) for q in swept)
    seen.clear()
    repclass.classify_with_report.cache_clear()
    catalog = enumerate_exceptional_candidates(n)
    assert seen == []
    bad = bad_list(n)
    unasked = {WeightMultiset(n, core_entries(g.Q.entries)) for g in catalog.groups
               if g.trigger == TRIGGER_SMALL_S and all(w in bad for w, _ in g.Q.entries)}
    unasked -= swept
    assert len(unasked) > 100
    for core in unasked:
        assert classify_with_report(core)[1] is not None


# --- duality: the outer automorphism of SL_n carries each module to its dual ----

@pytest.mark.parametrize("n,count", [(2, 2), (3, 14), (4, 44)])
def test_reference_bad_cores_are_closed_under_duality(n, count):
    cores = set(engine_bad_cores(n))
    assert len(cores) == count
    assert {dual_multiset(core) for core in cores} == cores


@pytest.mark.parametrize("args,pairs", [("--n 2", 79), ("--n 3", 265), ("--n 4", 423),
                                        ("--n 3 --max-trivials 2", 228),
                                        ("--n 3 --max-dim-s 5", 4),
                                        ("--n 3 --max-trivials 0 --max-dim-s 8", 8),
                                        ("--n 2 --max-dim-s 3", 5),
                                        ("--n 3 --seed 42", 265)])
def test_catalog_pairs_within_both_bounds_are_closed_under_duality(args, pairs):
    # (S, Q) -> (Q*, S*) keeps both containments: S inside Q (x) C^n exactly
    # when S* lies inside Q* (x) dual C^n, and likewise for the other.  The
    # catalog admits every pair that meets them with dim S and the trivials
    # of Q within its bounds, so the pairs whose both sides are within both
    # bounds map onto each other.  This reads only the catalog and `dual`,
    # and shares no code with the walk, the partners or the shift; a pair
    # that maps outside is a defect of the catalog
    kwargs, _ = _catalog_kwargs(args)
    catalog = enumerate_exceptional_candidates(**kwargs)
    n = catalog.n
    trivial_cap = kwargs.get("max_trivials", n * n - 2)
    dim_cap = kwargs.get("max_dim_s", n * n + 2 * n - 1)

    def within(ms):
        return ms.dim() <= dim_cap and ms.count(W(n, 0)) <= trivial_cap

    region = {(WeightMultiset(n, s), g.Q) for g in catalog.groups if within(g.Q)
              for s in g.subs if within(WeightMultiset(n, s))}
    assert len(region) == pairs
    assert {(dual_multiset(Q), dual_multiset(S)) for S, Q in region} == region


@st.composite
def structural_pairs(draw):
    """(S, Q) at ranks 2-4: a small Q and an S drawn inside Q (x) standard,
    so that the other containment holds in some draws and fails in others."""
    n = draw(st.integers(2, 4))
    Q = draw(small_multisets(n))
    labels = sorted(tensor_counts(Q.entries, W(n, 1)).items())
    counts = [draw(st.integers(0, m)) for _, m in labels]
    assume(any(counts))
    return WeightMultiset(n, tuple((w, c) for (w, _), c in zip(labels, counts) if c)), Q


@settings(max_examples=150, deadline=None)
@given(st.one_of(structural_pairs(), st.integers(2, 4).flatmap(
    lambda n: st.tuples(small_multisets(n), small_multisets(n)))))
def test_structural_check_agrees_on_the_dual_pair(pair):
    S, Q = pair
    n, empty = S.n, WeightMultiset(S.n, ())
    assert check_structural(TwoStepExtension(n, S, Q, empty)) == check_structural(
        TwoStepExtension(n, dual_multiset(Q), dual_multiset(S), empty))


@pytest.mark.parametrize("args", ["--n 2", "--n 3", "--n 4", *sorted(CAPPED_SHA256)])
def test_written_verdicts_equal_lone_decisions(tmp_path, args):
    # every line's verdict, decided once per decision signature, is the one
    # a lone check2step of the W = 0 instance gives.  At rank 4
    # a fixed sample is checked: the first line of each signature, where
    # the writer decides, and every 50th line, most of which take the
    # verdict of an earlier line
    from affrep.cli import main
    from affrep.rationality import decide_rationality
    from affrep.serialize import multiset_from_json, verdict_to_json

    out = tmp_path / "catalog.jsonl"
    assert main(["enumerate", *args.split(), "--out", str(out)]) == 0
    argv = args.split()
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else DEFAULT_SEED
    lines = out.read_text().splitlines()
    assert lines
    if args == "--n 4":
        first = {}
        for i, signature in enumerate(_line_signatures(enumerate_exceptional_candidates(4))):
            first.setdefault(signature, i)
        assert len(first) == 4 + 129
        lines = [lines[i] for i in sorted(set(first.values()) | set(range(0, len(lines), 50)))]
        assert len(lines) == 568
    for line in lines:
        data = json.loads(line)
        S, Q = multiset_from_json(data["S"]), multiset_from_json(data["Q"])
        ext = TwoStepExtension(data["n"], S, Q, WeightMultiset.of(data["n"], []))
        lone = decide_rationality(ext, seed=seed)
        assert data["verdict"] == json.loads(json.dumps(verdict_to_json(lone))), line


def test_writing_the_catalog_makes_no_engine_call(monkeypatch, tmp_path):
    # the counts at the return of the enumeration equal those after the
    # whole command: deciding and writing the lines asks neither the
    # classifier nor the stabilizer anything
    from affrep import catalog
    from affrep.cli import main

    seen = _stabilizer_args(monkeypatch)
    at_return = {}
    original = catalog.enumerate_exceptional_candidates

    def counted(*args, **kwargs):
        entries = original(*args, **kwargs)
        info = classify_with_report.cache_info()
        at_return.update(stabilizer=len(seen), classify=info.hits + info.misses)
        return entries

    monkeypatch.setattr(catalog, "enumerate_exceptional_candidates", counted)
    classify_with_report.cache_clear()
    assert main(["enumerate", "--n", "3", "--out", str(tmp_path / "catalog.jsonl")]) == 0
    info = classify_with_report.cache_info()
    assert at_return == {"stabilizer": len(seen), "classify": info.hits + info.misses}
    assert at_return == {"stabilizer": 0, "classify": 0}


@pytest.mark.parametrize("n,clause_i,clause_ii", [(2, 3, 24), (3, 3, 59), (4, 4, 129)])
def test_enumerate_decides_and_encodes_once_per_signature(monkeypatch, tmp_path, n, clause_i,
                                                          clause_ii):
    # the clause-(ii) lines share verdicts too: the signature drops Q, whose
    # class, trivial count and freeness gate are all it reads of Q.  Each
    # signature is decided once and its verdict encoded once; the table
    # lives for one call, so a second run decides again
    from affrep import serialize
    from affrep.cli import main

    decided, encoded = [], []
    decide, dumps = rationality._decide, serialize.dumps
    monkeypatch.setattr(rationality, "_decide", lambda *a: decided.append(a[0]) or decide(*a))
    monkeypatch.setattr(serialize, "dumps", lambda obj: encoded.append(obj) or dumps(obj))
    catalog = enumerate_exceptional_candidates(n)
    by_trigger = {TRIGGER_BAD_Q: set(), TRIGGER_SMALL_S: set()}
    for group, signatures in zip(catalog.groups, _group_signatures(catalog)):
        by_trigger[group.trigger].update(signatures)
    assert len(by_trigger[TRIGGER_BAD_Q]) == clause_i
    assert len(by_trigger[TRIGGER_SMALL_S]) == clause_ii
    for _ in range(2):
        decided.clear()
        encoded.clear()
        assert main(["enumerate", "--n", str(n), "--out", str(tmp_path / "catalog.jsonl")]) == 0
        assert len(decided) == len(encoded) == clause_i + clause_ii


def test_selftest_catalog_criterion_writes_as_enumerate_does(monkeypatch):
    # criterion 10 writes both rank-3 runs with `serialize.write_catalog`,
    # the writer of `enumerate`, so it decides once per decision signature
    from affrep import selftest

    decided = []
    decide = rationality._decide
    monkeypatch.setattr(rationality, "_decide", lambda *a: decided.append(a[0]) or decide(*a))
    passed, detail = selftest.criterion_10_catalog()
    assert passed, detail
    assert len(decided) == 2 * (3 + 59)


def test_selftest_catalog_criterion_classifies_each_bad_core_once(monkeypatch):
    # neither enumeration sends anything to the stabilizer; the Q-bad check
    # sends each of the 15 Q-bad cores to the engine once, not once per
    # trivial count (217 calls when it classified every Q-bad Q,
    # 2 * 50 + 15 with 50 distinct when the catalog's sweep sent the duals
    # too, 2 * 30 + 13 with 36 distinct before its row-count floor and
    # Good sub-multisets, 2 * 14 + 14 with 25 distinct before the table)
    from affrep import selftest

    seen = _stabilizer_args(monkeypatch)
    classify_with_report.cache_clear()
    passed, detail = selftest.criterion_10_catalog()
    assert passed, detail
    assert len(seen) == len(set(seen)) == 15


# every bounded cache a catalog run fills, as module.function
CATALOG_CACHES = (
    "schur._weyl_dim",
    "schur._lr_decompose",
    "matmodel.model_for_weight",
    "repclass._integer_gens",
    "repclass.classify_with_report",
    "repclass.bad_list",
    "repclass.bad_cores",
    "schur.rank_labels",
)

# run in a fresh process, so the counts and the peak memory are the
# catalog's alone: the catalog of rank argv[2] written to argv[1], then its
# peak, the multisets it sent to the stabilizer, its number of partner
# walks, and the `cache_info()` of each cache in argv[3:].  The peak is the
# process's own VmHWM in KiB: its ru_maxrss would also count the test
# process, whose peak a child inherits through exec on Linux
FRESH_CATALOG = (
    "import contextlib, importlib, json, sys\n"
    "from affrep import catalog, repclass\n"
    "from affrep.cli import main\n"
    "seen, stabilizer = [], repclass.stabilizer_dimension\n"
    "def counted(rep, **kwargs):\n"
    "    seen.append(rep)\n"
    "    return stabilizer(rep, **kwargs)\n"
    "repclass.stabilizer_dimension = counted\n"
    "walks, partners = [0], catalog._partners\n"
    "def walked(*args):\n"
    "    walks[0] += 1\n"
    "    return partners(*args)\n"
    "catalog._partners = walked\n"
    "with contextlib.redirect_stdout(sys.stderr):\n"
    "    assert main(['enumerate', '--n', sys.argv[2], '--out', sys.argv[1]]) == 0\n"
    "with open('/proc/self/status') as fh:\n"
    "    hwm = next(line for line in fh if line.startswith('VmHWM:'))\n"
    "info = {'peak_kib': int(hwm.split()[1]), 'stabilizer': [len(seen), len(set(seen))],\n"
    "        'partner_walks': walks[0]}\n"
    "for name in sys.argv[3:]:\n"
    "    mod, fn = name.split('.')\n"
    "    info[name] = getattr(importlib.import_module('affrep.' + mod), fn)"
    ".cache_info()._asdict()\n"
    "print(json.dumps(info))\n"
)


def _fresh_catalog(tmp_path, n):
    """The rank-n catalog's bytes and `FRESH_CATALOG`'s report of its run."""
    out = tmp_path / "catalog.jsonl"
    proc = subprocess.run([sys.executable, "-c", FRESH_CATALOG, str(out), str(n),
                           *CATALOG_CACHES], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes(), json.loads(proc.stdout)


def _assert_no_work_repeated(info, stabilizer_args):
    """No bounded cache evicted an entry it was asked for again.  The
    classifier's memo spans one decision, not the catalog, so for it that
    means no multiset asked twice: no hit, and one miss per distinct
    stabilizer argument, each sent once (none since the bad cores come from
    the table).  Every other cache evicted nothing: it still holds every
    miss."""
    assert info.pop("stabilizer") == [stabilizer_args, stabilizer_args]
    classifier = info.pop("repclass.classify_with_report")
    assert (classifier["hits"], classifier["misses"]) == (0, stabilizer_args)
    for name, cache in info.items():
        assert cache["misses"] == cache["currsize"] < cache["maxsize"], name


def test_rank4_catalog_evicts_no_cache_entry(tmp_path):
    # the lines are written as they are made, so the peak holds the
    # entries but not the file's 14 MB of text twice over (95 MB when it
    # did, 56 MB since), and the entries and multisets carry no
    # per-instance __dict__ (52 MB).  An entry holds no verdict: each is
    # decided as its line is written and dropped with it (33 MB).  The
    # catalog is kept by quotient, each S a bare entries tuple, with no
    # object per line and no global sort (26 MB before, 23 MB since).  Each
    # core is walked for its paddings up to its base and shifted beyond it:
    # 261 partner walks (1,270 when each padding had its own)
    data, info = _fresh_catalog(tmp_path, 4)
    assert hashlib.sha256(data).hexdigest() == CATALOG_SHA256[4]
    assert info.pop("peak_kib") < 30 * 1024
    assert info.pop("partner_walks") == 261
    _assert_no_work_repeated(info, 0)


RANK5_SHA256 = "be7e0d150a59c1ff2e1efd770920080299fa7d6283af3cb2778b73e533aa1a9d"


def test_rank5_catalog_pinned_evicts_no_cache_entry(tmp_path):
    # rank 5 is the largest rank tier-1 runs: in a fresh process its bytes are
    # pinned, nothing reaches the stabilizer or the classifier's memo (57
    # multisets when a sweep of the cores skipped their duals, those below
    # the row-count floor and those over a Good sub-multiset or its dual,
    # 186 before the floor and the sub-multisets, 332 when it sent the
    # duals too, 7,968 misses when the memo held 16,384 answers and the
    # sweep walked the cores once per trivial count), no other bounded
    # cache evicts, and the peak stays under 50 MiB
    # (61 MiB before the catalog was kept by quotient, 43 MiB since), with
    # 411 partner walks (3,325 when each padding had its own)
    data, info = _fresh_catalog(tmp_path, 5)
    assert data.count(b"\n") == 96612
    assert hashlib.sha256(data).hexdigest() == RANK5_SHA256
    assert info.pop("peak_kib") < 50 * 1024
    assert info.pop("partner_walks") == 411
    _assert_no_work_repeated(info, 0)


@pytest.mark.parametrize("args", [*(pytest.param(f"--n {n}", id=str(n))
                                    for n in sorted(CATALOG_SHA256)), *sorted(CAPPED_SHA256)])
def test_written_verdict_follows_trigger(tmp_path, args):
    # with W = 0 the clause decides the verdict: a clause-(i) Q is Bad, so
    # the freeness gate fails; a clause-(ii) Q is good with fewer than
    # n^2 - 1 trivials (criterion B fails) and dim S < n^2 + 2n (the split
    # at W2 = 0 fails); the translation-stabilized shapes are padded bad
    # cores, admitted by clause (i), so every clause-(ii) Q passes the gate,
    # under the caps too, as `serialize.write_catalog` relies on.  `_decide`
    # still makes the decision, with its trail
    from affrep.cli import main

    out = tmp_path / "catalog.jsonl"
    assert main(["enumerate", *args.split(), "--out", str(out)]) == 0
    follows = {TRIGGER_BAD_Q: "PossiblyNotGenericallyFree", TRIGGER_SMALL_S: "Exceptional"}
    texts = out.read_text().splitlines()
    lines = [json.loads(line) for line in texts]
    assert {data["trigger"] for data in lines} == set(follows)
    for data in lines:
        assert data["verdict"]["outcome"] == follows[data["trigger"]], data
    # a clause-(i) verdict depends on Q alone: every line of one Q carries
    # the same verdict text, byte for byte (keys are sorted, so the line
    # starts with Q and ends with the verdict)
    bad_q = [text for text, data in zip(texts, lines) if data["trigger"] == TRIGGER_BAD_Q]
    verdict_of_q = {}
    for text in bad_q:
        q_text = text[:text.index(',"S":')]
        verdict_text = text[text.index(',"verdict":'):]
        assert verdict_of_q.setdefault(q_text, verdict_text) == verdict_text, q_text
    # some Q has several lines in every uncapped catalog; a dim-S cap can
    # leave each Q one
    if args not in CAPPED_SHA256:
        assert len(verdict_of_q) < len(bad_q)


def _line_by_general_encoder(catalog, group, s, seed=DEFAULT_SEED) -> str:
    def multiset(entries):
        return {"n": catalog.n,
                "summands": [{"lambda": list(w.parts), "mult": m} for w, m in entries]}

    v = _verdict(group, s, seed)
    verdict = {"outcome": v.outcome, "witness": v.witness, "evidence": v.evidence,
               "seed": v.seed}
    return json.dumps({"n": catalog.n, "S": multiset(s), "Q": multiset(group.Q.entries),
                       "trigger": group.trigger, "verdict": verdict},
                      sort_keys=True, separators=(",", ":"))


def _lines(catalog) -> list[tuple]:
    """Every line of `catalog` as (group, S entries), in file order."""
    return [(group, s) for group in catalog.groups for s in group.subs]


@pytest.mark.parametrize("args", ["--n 2", "--n 3", *sorted(CAPPED_SHA256)])
def test_catalog_line_equals_the_general_encoder(args):
    kwargs, seed = _catalog_kwargs(args)
    catalog = enumerate_exceptional_candidates(**kwargs)
    assert catalog
    lines = _written(catalog, seed).splitlines()
    assert len(lines) == len(catalog)
    for (group, s), line in zip(_lines(catalog), lines):
        assert line == _line_by_general_encoder(catalog, group, s, seed)


def test_catalog_line_writes_multi_digit_parts_and_multiplicities():
    n = 3
    S = WeightMultiset.of(n, [(W(n, 12, 5), 11), (W(n, 1), 2)])
    Q = WeightMultiset.of(n, [(W(n, 0), 10), (W(n, 10, 3), 12)])
    catalog = Catalog(n, [QuotientGroup(Q, TRIGGER_SMALL_S, [S.entries])])
    ((group, s),) = _lines(catalog)
    assert (group.Q, WeightMultiset(n, s)) == (Q, S)
    line = _written(catalog, 20231)
    assert '"lambda":[12,5,0],"mult":11' in line and '"mult":12' in line
    assert '"seed":20231' in line
    assert line == _line_by_general_encoder(catalog, group, s, 20231) + "\n"


def test_catalog_line_on_interleaved_quotients_matches_multiset_text():
    """A group's `Q` text is written once for its lines; groups whose `Q`s
    interleave, or repeat one `Q` as a different object, each get their
    own `Q` text, and each line its own `S` text."""
    from affrep.serialize import _multiset_text

    n, summands = 3, {}
    first, second = WeightMultiset.of(n, [(W(n, 1), 3)]), WeightMultiset.of(n, [(W(n, 1, 1), 3)])
    again = WeightMultiset.of(n, [(W(n, 1), 3)])
    groups = [QuotientGroup(Q, TRIGGER_SMALL_S, [((w, m),) for w, m in subs]) for Q, subs in [
        (first, [(W(n, 2, 1), 1)]),
        (second, [(W(n, 2), 2), (W(n, 2, 1), 1)]),
        (first, [(W(n, 3), 1)]),
        (again, [(W(n, 2, 1), 2)])]]
    catalog = Catalog(n, groups)
    lines = _written(catalog).splitlines()
    assert len(lines) == len(catalog) == 5
    for (group, s), line in zip(_lines(catalog), lines):
        text = (f'{{"Q":{_multiset_text(n, group.Q.entries, summands)},'
                f'"S":{_multiset_text(n, s, summands)},')
        assert line.startswith(text + '"n":3,')
        assert line == _line_by_general_encoder(catalog, group, s)


# --- the catalog by quotient ---------------------------------------------------

def _written(catalog, seed=DEFAULT_SEED) -> str:
    from affrep.serialize import write_catalog

    fh = io.StringIO()
    write_catalog(catalog, fh, seed)
    return fh.getvalue()


def _verdict(group, s, seed=DEFAULT_SEED):
    """The verdict `enumerate` writes on the line (Q of `group`, S = `s`)."""
    return decide_pair(WeightMultiset(group.Q.n, s), group.Q, seed)


def _group_signatures(catalog):
    """For each group of `catalog`, in order, its lines' decision
    signatures: the group's shared signature, extended by each line's dim S
    when the group's freeness gate passes."""
    for group in catalog.groups:
        shared, per_s = decision_signature(group.Q)
        yield [shared + (WeightMultiset(catalog.n, s).dim(),) if per_s else shared
               for s in group.subs]


def _line_signatures(catalog) -> list[tuple]:
    """The decision signature of every line of `catalog`, in file order."""
    return [sig for signatures in _group_signatures(catalog) for sig in signatures]


def flat_catalog_reference(n, max_trivials=None, max_dim_s=None, seed=DEFAULT_SEED):
    """The catalog as one list with a (Q, S, trigger, class of Q) entry per
    pair, each with its own `S` (and, in clause (ii), its own `Q`), sorted
    once at the end by (Q, S): the construction the grouped build replaced."""
    trivial_cap = n * n - 2 if max_trivials is None else max_trivials
    dim_s_cap = n * n + 2 * n - 1 if max_dim_s is None else max_dim_s
    std = W(n, 1)
    bad = bad_list(n)
    bad_qs = grown_bad_quotients(n, trivial_cap, seed)
    dim_caps = [] if max_dim_s is None else [(weyl_dim, max_dim_s)]
    entries = [(WeightMultiset(n, q), WeightMultiset(n, s), TRIGGER_BAD_Q, BAD)
               for q in bad_qs for s in _partners(n, q, std, dim_caps)]
    bad_set = set(bad_qs)
    small = sorted(irreps_up_to_dim(n, dim_s_cap))
    dims = [weyl_dim(w) for w in small]
    for s in _walk([(w, dim_s_cap // d) for w, d in zip(small, dims)],
                   caps=[(dims, dim_s_cap)]):
        for q in _partners(n, s, dual(std), [(Weight.is_trivial, trivial_cap)]):
            if q not in bad_set:
                cls = GOOD_HEURISTIC if all(w in bad for w, _ in q) else GOOD
                entries.append((WeightMultiset(n, q), WeightMultiset(n, s), TRIGGER_SMALL_S,
                                cls))
    entries.sort(key=lambda e: (e[0].entries, e[1].entries))
    return entries


CATALOG_ARGS = ["--n 2", "--n 3", "--n 4", *sorted(CAPPED_SHA256)]


def _catalog_kwargs(args):
    """The `enumerate_exceptional_candidates` keyword arguments of the
    `enumerate` flags `args`, and the seed they ask its verdicts for."""
    argv = args.split()
    kwargs = {flag[2:].replace("-", "_"): int(value) for flag, value in zip(argv[::2], argv[1::2])}
    seed = kwargs.pop("seed", DEFAULT_SEED)
    return kwargs, seed


@pytest.mark.parametrize("args", CATALOG_ARGS)
def test_each_quotient_is_one_group_in_increasing_order(args):
    catalog = enumerate_exceptional_candidates(**_catalog_kwargs(args)[0])
    qs = [group.Q.entries for group in catalog.groups]
    # strictly increasing, so each Q heads exactly one group
    assert all(a < b for a, b in zip(qs, qs[1:]))
    for group in catalog.groups:
        assert group.subs
        assert all(a < b for a, b in zip(group.subs, group.subs[1:])), str(group.Q)
        # one trigger per group, and the class of Q is the one it fixes
        assert group.trigger in (TRIGGER_BAD_Q, TRIGGER_SMALL_S)
        assert (group.trigger == TRIGGER_BAD_Q) == (classify(group.Q) == BAD)
        assert classify(group.Q) in (BAD, GOOD, GOOD_HEURISTIC)


@pytest.mark.parametrize("args", CATALOG_ARGS)
def test_length_is_the_summary_and_the_file_line_count(tmp_path, capsys, args):
    from affrep.cli import main

    catalog = enumerate_exceptional_candidates(**_catalog_kwargs(args)[0])
    out = tmp_path / "catalog.jsonl"
    capsys.readouterr()
    assert main(["enumerate", *args.split(), "--out", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert summary[0] == f"entries: {len(catalog)}"
    lines = sum(map(len, _group_signatures(catalog)))
    assert out.read_bytes().count(b"\n") == len(catalog) == lines


@pytest.mark.parametrize("args", CATALOG_ARGS)
def test_iterating_gives_the_flat_sorted_entries(args):
    kwargs, seed = _catalog_kwargs(args)
    catalog = enumerate_exceptional_candidates(**kwargs)
    lines = [(group.Q, WeightMultiset(catalog.n, s), group.trigger, classify(group.Q))
             for group, s in _lines(catalog)]
    assert lines == flat_catalog_reference(**kwargs, seed=seed)
