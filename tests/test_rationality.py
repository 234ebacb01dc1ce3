import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from submultiset_oracle import sub_entries

from affrep.config import DEFAULT_SEED, DEFAULT_TRIALS, MAX_SPLIT_CANDIDATES, ResourceCapError
from affrep.filtration import Filtration
from affrep.matmodel import AffMatrixRep
from affrep.rationality import (
    EXCEPTIONAL,
    FREE,
    POSSIBLY_NOT_FREE,
    POSSIBLY_NOT_GENERICALLY_FREE,
    RATIONAL_BY_A,
    RATIONAL_BY_B,
    TwoStepExtension,
    Verdict,
    check_generic_freeness,
    check_structural,
    decide_rationality,
)
from affrep.repclass import GOOD, GOOD_HEURISTIC, StabilizerReport, classify
from affrep.schur import (
    RankLabels,
    WeightMultiset,
    by_dimension,
    dominant_weights,
    dual,
    lr_decompose,
    normalize,
    weyl_dim,
)


def W(n, *parts):
    return normalize(n, list(parts))


class TestStructural:
    def test_sym_tower(self):
        # canonical chain piece: translations map the dual cubic layer onto
        # the dual quadratic one, so the quadratic side is the submodule
        ext = TwoStepExtension.of(3, S=[W(3, 2, 2)], Q=[W(3, 3, 3)])
        assert check_structural(ext)

    def test_full_product(self):
        q = W(3, 2, 1)
        from affrep.schur import lr_decompose

        s = lr_decompose(q, W(3, 1))
        ext = TwoStepExtension.of(3, S=list(s.entries), Q=[q])
        assert check_structural(ext)

    def test_sym2_not_in_trivial_times_standard(self):
        ext = TwoStepExtension.of(3, S=[W(3, 2)], Q=[W(3, 0)])
        assert not check_structural(ext)

    def test_lr_shapes_are_counted_only_above_the_cap_bound(self, monkeypatch):
        # at rank 32 an S label of size 2 has at most C(33, 31) = 528 shapes
        # times the dual standard and is not counted; one of size 3 (bound
        # 5,984) is counted and has few; one of size 40 has more than the cap
        from affrep import rationality

        counted = []
        monkeypatch.setattr(rationality, "check_sweep",
                            lambda name, sweep, cap: counted.append(sum(1 for _ in sweep)))
        assert check_structural(TwoStepExtension.of(32, S=[W(32, 2)], Q=[W(32, 1)]))
        assert counted == []
        assert check_structural(TwoStepExtension.of(32, S=[W(32, 3)], Q=[W(32, 2)]))
        assert counted == [5]
        monkeypatch.undo()
        with pytest.raises(ResourceCapError, match="max_lr_shapes"):
            check_structural(TwoStepExtension.of(32, S=[W(32, 40)], Q=[W(32, 39)]))
        # a failed first containment is answered without a sweep
        assert not check_structural(TwoStepExtension.of(32, S=[W(32, 40)], Q=[W(32, 1)]))


class TestFreeness:
    def test_good_quotient_free(self):
        ext = TwoStepExtension.of(3, S=[W(3, 4, 3)], Q=[W(3, 3, 3)])
        status, detail = check_generic_freeness(ext.Q)
        assert status == FREE

    def test_standard_is_r1(self):
        ext = TwoStepExtension.of(3, S=[W(3, 2)], Q=[W(3, 1)])
        assert check_generic_freeness(ext.Q) == (POSSIBLY_NOT_FREE, "R1")

    def test_r3_mixed_sum(self):
        n = 5
        ext = TwoStepExtension.of(
            n,
            S=[(normalize(n, [1]), 2)],
            Q=[(normalize(n, []), 2), (dual(normalize(n, [1])), 2)],
        )
        assert check_generic_freeness(ext.Q) == (POSSIBLY_NOT_FREE, "R3")

    def test_r3_bound_excludes_n_summands(self):
        n = 5
        # five summands exceed the n-1 bound, so the shape test passes;
        # the classifier still reports the sum as bad
        ext = TwoStepExtension.of(
            n,
            S=[(normalize(n, [1]), 3)],
            Q=[(normalize(n, []), 2), (dual(normalize(n, [1])), 3)],
        )
        status, detail = check_generic_freeness(ext.Q)
        assert (status, detail) != (POSSIBLY_NOT_FREE, "R3")

    def test_bad_quotient(self):
        ext = TwoStepExtension.of(3, S=[W(3, 2), W(3, 1, 1)], Q=[W(3, 2, 1)])
        assert check_generic_freeness(ext.Q) == (POSSIBLY_NOT_FREE, "bad-quotient")


class TestDecide:
    def test_rational_by_b(self):
        ext = TwoStepExtension.of(
            3, S=[(W(3, 1), 8)], Q=[(W(3, 0), 8)], assume_generically_free=True
        )
        v = decide_rationality(ext)
        assert v.outcome == RATIONAL_BY_B
        assert v.witness is None

    def test_b_stable_under_added_trivials(self):
        # grow S alongside so the structural containments stay valid
        for extra in (1, 3):
            ext = TwoStepExtension.of(
                3,
                S=[(W(3, 1), 8 + extra)],
                Q=[(W(3, 0), 8 + extra)],
                assume_generically_free=True,
            )
            assert decide_rationality(ext).outcome == RATIONAL_BY_B

    def test_rational_by_a_empty_witness(self):
        ext = TwoStepExtension.of(3, S=[W(3, 4, 3)], Q=[W(3, 3, 3)])
        v = decide_rationality(ext)
        assert v.outcome == RATIONAL_BY_A
        assert v.witness == {"W1": [], "W2": [], "heuristic_goodness": False}

    def test_rational_by_a_with_split(self):
        # S too small on its own; a W summand must stay on the W1 side
        ext = TwoStepExtension.of(3, S=[W(3, 4, 3)], Q=[W(3, 3, 3)], W=[W(3, 3)])
        v = decide_rationality(ext)
        assert v.outcome == RATIONAL_BY_A
        assert v.witness["W2"] == []
        assert v.witness["W1"] == [[[3, 0, 0], 1]]

    def test_exceptional_small_bad(self):
        ext = TwoStepExtension.of(
            10,
            S=[normalize(10, [1, 1, 1])],
            Q=[normalize(10, [1, 1])],
            assume_generically_free=True,
        )
        assert decide_rationality(ext).outcome == EXCEPTIONAL

    def test_exceptional_evidence_covers_splits(self):
        ext = TwoStepExtension.of(
            3,
            S=[W(3, 2, 1)],
            Q=[W(3, 1, 1)],
            W=[W(3, 3)],
            assume_generically_free=True,
        )
        v = decide_rationality(ext)
        assert v.outcome == EXCEPTIONAL
        split_evidence = [e for e in v.evidence if e["condition"] == "split"]
        # both sub-multisets of W must carry a certificate
        assert len(split_evidence) == 2
        assert all(e["result"] is False for e in split_evidence)

    def test_possibly_not_free_gate(self):
        ext = TwoStepExtension.of(3, S=[W(3, 2)], Q=[W(3, 1)])
        v = decide_rationality(ext)
        assert v.outcome == POSSIBLY_NOT_GENERICALLY_FREE

    def test_structural_precondition(self):
        ext = TwoStepExtension.of(3, S=[W(3, 2)], Q=[W(3, 0)])
        with pytest.raises(ValueError):
            decide_rationality(ext)

    def test_deterministic(self):
        ext = TwoStepExtension.of(3, S=[W(3, 4, 3)], Q=[W(3, 3, 3)], W=[W(3, 3), W(3, 1)])
        a = decide_rationality(ext, seed=5)
        b = decide_rationality(ext, seed=5)
        assert a.outcome == b.outcome and a.witness == b.witness and a.evidence == b.evidence


def _past_old_cap(trivials):
    # Q + W2 is good only once W2 holds [3], which ties in dimension with
    # 10 trivials and sorts after them
    return TwoStepExtension.of(3, S=[W(3, 2, 1)], Q=[W(3, 2)], W=[(W(3), trivials), W(3, 3)],
                               assume_generically_free=True)


class TestSplitSearch:
    def test_finds_a_split_in_a_w_over_the_cap(self):
        # 2 * 16,384 sub-multisets for 16,383 trivials and [3], and 2 * 16,385,
        # over MAX_SPLIT_CANDIDATES, for one more; both accept [3] as the
        # twelfth candidate, after W2 = 0 and 1-10 trivials
        a, b = (decide_rationality(_past_old_cap(k)) for k in (16383, 16384))
        for v in (a, b):
            assert v.outcome == RATIONAL_BY_A
            assert v.witness["W2"] == [[[3, 0, 0], 1]]
            assert [e["w2"] for e in v.evidence if e["condition"] == "split"] == (
                [[]] + [[[[0, 0, 0], k]] for k in range(1, 11)] + [[[[3, 0, 0], 1]]])

        def plain(ev):
            return {k: v for k, v in ev.items() if k != "dim_S_W1"}

        # the one more trivial moves only dim(S + W1), by its dimension 1
        assert [plain(e) for e in a.evidence] == [plain(e) for e in b.evidence]
        assert [e["dim_S_W1"] + 1 for e in a.evidence if "dim_S_W1" in e] == [
            e["dim_S_W1"] for e in b.evidence if "dim_S_W1" in e]

    @pytest.mark.parametrize("count", [17, 20])
    def test_many_distinct_labels_answer_at_the_first_candidate(self, count):
        # 2^17 and 2^20 sub-multisets; the empty split already works, and
        # nothing beyond it is made
        labels = [W(3, a, b) for a in range(1, 6) for b in range(a + 1)][:count]
        assert len(set(labels)) == count
        ext = TwoStepExtension.of(3, S=[W(3, 4, 3)], Q=[W(3, 3, 3)], W=labels)
        t0 = time.perf_counter()
        v = decide_rationality(ext)
        assert time.perf_counter() - t0 < 1.0
        assert v.outcome == RATIONAL_BY_A and v.witness["W2"] == []
        assert [e["condition"] for e in v.evidence] == [
            "structural-containments", "generic-freeness", "trivial-summands-in-Q", "split"]

    def test_over_the_cap_is_refused(self):
        # Q + W2 is bad for every W2 of trivials, so all 40,001 would be tried
        ext = TwoStepExtension.of(3, S=[W(3, 2, 1)], Q=[W(3, 2)], W=[(W(3), 40000)],
                                  assume_generically_free=True)
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError) as info:
            decide_rationality(ext)
        assert time.perf_counter() - t0 < 2.0
        assert info.value.cap_name == "max_split_candidates"
        assert str(info.value) == (
            f"resource cap exceeded: max_split_candidates needs more than "
            f"{MAX_SPLIT_CANDIDATES}, cap is {MAX_SPLIT_CANDIDATES}")

    def test_cap_is_inclusive(self):
        ext = TwoStepExtension.of(3, S=[W(3, 2, 1)], Q=[W(3, 2)],
                                  W=[(W(3), MAX_SPLIT_CANDIDATES - 1)],
                                  assume_generically_free=True)
        v = decide_rationality(ext)
        assert v.outcome == EXCEPTIONAL
        assert sum(e["condition"] == "split" for e in v.evidence) == MAX_SPLIT_CANDIDATES


def _small_multisets(n):
    labels = dominant_weights(n, lambda w: weyl_dim(w) <= 15)
    return st.dictionaries(st.sampled_from(labels), st.integers(1, 4), max_size=4).map(
        lambda d: WeightMultiset.of(n, d.items()))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(_small_multisets))
@example(WeightMultiset.of(3, [(W(3), 10), W(3, 3)]))
def test_by_dimension_matches_sorted_brute_force(ms):
    brute = sorted((WeightMultiset(ms.n, e) for e in sub_entries(ms.entries)),
                   key=lambda s: (s.dim(), s.entries))
    pairs = list(by_dimension(ms))
    assert [w2 for w2, _ in pairs] == brute
    for w2, counts in pairs:
        assert counts == tuple(w2.count(w) for w, _ in ms.entries)


def exhaustive_decide(ext, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Reference decision: every sub-multiset of W is built and sorted by
    (dimension, entries) before the first split is tried."""
    n = ext.n
    evidence = [{"condition": "structural-containments", "paper_clause": "shape", "result": True}]
    status, detail = ((FREE, "asserted") if ext.assume_generically_free
                      else check_generic_freeness(ext.Q, seed=seed, trials=trials))
    evidence.append({"condition": "generic-freeness", "paper_clause": detail, "result": status})
    if status != FREE:
        return Verdict(POSSIBLY_NOT_GENERICALLY_FREE, None, evidence, seed)
    trivial_count = ext.Q.count(normalize(n, []))
    evidence.append({"condition": "trivial-summands-in-Q", "paper_clause": "B",
                     "result": f"{trivial_count} of {n * n - 1} required"})
    if trivial_count >= n * n - 1:
        return Verdict(RATIONAL_BY_B, None, evidence, seed)
    dim_sw = ext.S.dim() + ext.W.dim()
    subs = sorted((WeightMultiset(n, e) for e in sub_entries(ext.W.entries)),
                  key=lambda s: (s.dim(), s.entries))
    for w2 in subs:
        cls = classify(ext.Q.add(w2), seed=seed, trials=trials)
        ok = cls in (GOOD, GOOD_HEURISTIC) and dim_sw - w2.dim() >= n * n + 2 * n
        evidence.append({"condition": "split", "paper_clause": "A",
                         "w2": [[list(w.parts), m] for w, m in w2.entries], "classify": cls,
                         "dim_S_W1": dim_sw - w2.dim(), "result": ok})
        if ok:
            w1 = WeightMultiset.of(n, [(w, m - w2.count(w)) for w, m in ext.W.entries])
            witness = {"W1": [[list(w.parts), m] for w, m in w1.entries],
                       "W2": [[list(w.parts), m] for w, m in w2.entries],
                       "heuristic_goodness": cls == GOOD_HEURISTIC}
            return Verdict(RATIONAL_BY_A, witness, evidence, seed)
    return Verdict(EXCEPTIONAL, None, evidence, seed)


@st.composite
def _small_extensions(draw):
    n = draw(st.sampled_from([2, 3]))
    labels = dominant_weights(n, lambda w: weyl_dim(w) <= 10)
    q = draw(st.sampled_from(labels))
    # S inside Q (x) standard; the structural check keeps the pairs that
    # are extensions
    product = lr_decompose(q, normalize(n, [1])).entries
    s = draw(st.lists(st.sampled_from(product), min_size=1, max_size=len(product), unique=True))
    w = draw(st.dictionaries(st.sampled_from(labels), st.integers(1, 3), min_size=1, max_size=3))
    ext = TwoStepExtension.of(n, S=s, Q=[q], W=w.items(), assume_generically_free=draw(st.booleans()))
    assume(check_structural(ext))
    return ext


@settings(max_examples=60, deadline=None)
@given(_small_extensions())
def test_decide_matches_the_exhaustive_search(ext):
    got, want = decide_rationality(ext), exhaustive_decide(ext)
    assert (got.outcome, got.witness, got.evidence) == (want.outcome, want.witness, want.evidence)


class TestVerdictInvariants:
    def test_witness_iff_a(self):
        with pytest.raises(ValueError):
            Verdict(RATIONAL_BY_B, {"W1": [], "W2": []}, [{"x": 1}], 0)
        with pytest.raises(ValueError):
            Verdict(RATIONAL_BY_A, None, [{"x": 1}], 0)

    def test_evidence_nonempty(self):
        with pytest.raises(ValueError):
            Verdict(RATIONAL_BY_B, None, [], 0)


def _values():
    """(build, repr) for one instance of each slotted value type; `build`
    makes a fresh, equal instance on each call.  The reprs are those the
    types printed as dataclasses and a NamedTuple."""
    ms = "WeightMultiset(n=3, entries=((Weight(n=3, parts=(1, 0, 0)), 1),))"
    verdict = "Verdict(outcome='RationalByB', witness=None, evidence=[{'x': 1}], seed=0)"
    rep = "AffMatrixRep(n=1, dim=0, sl_gens={}, trans_gens=[], weight_grading=[])"

    def one(n, *parts):
        return WeightMultiset.of(n, [W(n, *parts)])

    def ext():
        return TwoStepExtension(2, one(2, 1), one(2), one(2))

    return {
        "Weight": (lambda: W(3, 1), "Weight(n=3, parts=(1, 0, 0))"),
        "WeightMultiset": (lambda: one(3, 1), ms),
        "TwoStepExtension": (ext, (
            "TwoStepExtension(n=2, S=WeightMultiset(n=2, entries=((Weight(n=2, parts=(1, 0)), 1),)), "
            "Q=WeightMultiset(n=2, entries=((Weight(n=2, parts=(0, 0)), 1),)), "
            "W=WeightMultiset(n=2, entries=((Weight(n=2, parts=(0, 0)), 1),)), "
            "assume_generically_free=False)")),
        "StabilizerReport": (lambda: StabilizerReport(1, 2, 3),
                             "StabilizerReport(stab_dim=1, trials=2, seed=3)"),
        "RankLabels": (lambda: RankLabels(W(2), W(2, 1), W(2, 1), W(2, 1, 1), W(2, 2), W(2, 2)), (
            "RankLabels(triv=Weight(n=2, parts=(0, 0)), std=Weight(n=2, parts=(1, 0)), "
            "dstd=Weight(n=2, parts=(1, 0)), wedge2=Weight(n=2, parts=(0, 0)), "
            "sym2=Weight(n=2, parts=(2, 0)), adj=Weight(n=2, parts=(2, 0)))")),
        "Verdict": (lambda: Verdict(RATIONAL_BY_B, None, [{"x": 1}], 0), verdict),
        "AffMatrixRep": (lambda: AffMatrixRep(1, 0, {}, [], []), rep),
        "Filtration": (lambda: Filtration(AffMatrixRep(1, 0, {}, [], []), "socle", [[]], []),
                       f"Filtration(rep={rep}, kind='socle', snapshots=[[]], layers=[])"),
    }


VALUES = _values()
FROZEN = {"Weight", "WeightMultiset", "TwoStepExtension", "StabilizerReport", "RankLabels"}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_compare_print_and_hash_by_field(name):
    build, want = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a == b and a is not b
    assert a != object()
    assert repr(a) == want
    assert not hasattr(a, "__dict__")
    for field in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    if name in FROZEN:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_value_types_differ_by_any_field():
    a = Verdict(RATIONAL_BY_B, None, [{"x": 1}], 0)
    assert a != Verdict(RATIONAL_BY_B, None, [{"x": 1}], 1)
    assert a != Verdict(RATIONAL_BY_B, None, [{"x": 2}], 0)
    assert StabilizerReport(1, 2, 3) != StabilizerReport(1, 2, 4)
