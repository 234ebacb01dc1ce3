import time

import pytest

from affrep.catalog import CatalogEntry
from affrep.config import MAX_SPLIT_CANDIDATES
from affrep.filtration import Filtration
from affrep.matmodel import AffMatrixRep
from affrep.rationality import (
    EXCEPTIONAL,
    FREE,
    POSSIBLY_NOT_FREE,
    POSSIBLY_NOT_GENERICALLY_FREE,
    RATIONAL_BY_A,
    RATIONAL_BY_B,
    RankLabels,
    TwoStepExtension,
    Verdict,
    check_generic_freeness,
    check_structural,
    decide_rationality,
)
from affrep.repclass import StabilizerReport
from affrep.schur import WeightMultiset, dual, normalize


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


class TestFreeness:
    def test_good_quotient_free(self):
        ext = TwoStepExtension.of(3, S=[W(3, 4, 3)], Q=[W(3, 3, 3)])
        status, detail = check_generic_freeness(ext)
        assert status == FREE

    def test_standard_is_r1(self):
        ext = TwoStepExtension.of(3, S=[W(3, 2)], Q=[W(3, 1)])
        assert check_generic_freeness(ext) == (POSSIBLY_NOT_FREE, "R1")

    def test_r3_mixed_sum(self):
        n = 5
        ext = TwoStepExtension.of(
            n,
            S=[(normalize(n, [1]), 2)],
            Q=[(normalize(n, []), 2), (dual(normalize(n, [1])), 2)],
        )
        assert check_generic_freeness(ext) == (POSSIBLY_NOT_FREE, "R3")

    def test_r3_bound_excludes_n_summands(self):
        n = 5
        # five summands exceed the n-1 bound, so the shape test passes;
        # the classifier still reports the sum as bad
        ext = TwoStepExtension.of(
            n,
            S=[(normalize(n, [1]), 3)],
            Q=[(normalize(n, []), 2), (dual(normalize(n, [1])), 3)],
        )
        status, detail = check_generic_freeness(ext)
        assert (status, detail) != (POSSIBLY_NOT_FREE, "R3")

    def test_bad_quotient(self):
        ext = TwoStepExtension.of(3, S=[W(3, 2), W(3, 1, 1)], Q=[W(3, 2, 1)])
        assert check_generic_freeness(ext) == (POSSIBLY_NOT_FREE, "bad-quotient")


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

    def test_greedy_shortcut_records_incompleteness(self):
        # 20 distinct labels of multiplicity 1 have 2^20 sub-multisets, over
        # the cap of MAX_SPLIT_CANDIDATES
        labels = [W(3, a, b) for a in range(1, 6) for b in range(a + 1)]
        assert len(set(labels)) == 20 and 2 ** 20 > MAX_SPLIT_CANDIDATES
        ext = TwoStepExtension.of(3, S=[W(3, 4, 3)], Q=[W(3, 3, 3)], W=labels)
        v = decide_rationality(ext)
        flags = [e for e in v.evidence if e["condition"] == "split-search-incomplete"]
        assert [f["result"] for f in flags] == [f"greedy shortcut over {2 ** 20} candidates"]
        assert v.outcome == RATIONAL_BY_A  # the empty split already works

    def test_split_setup_is_bounded(self):
        # every candidate is built and sorted before the first is classified:
        # 2^17 of them took about 4 s and 120 MB, so 17 distinct labels take
        # the greedy path
        labels = [W(3, a, b) for a in range(1, 6) for b in range(a + 1)][:17]
        assert len(set(labels)) == 17 and 2 ** 17 > MAX_SPLIT_CANDIDATES
        ext = TwoStepExtension.of(3, S=[W(3, 4, 3)], Q=[W(3, 3, 3)], W=labels)
        t0 = time.perf_counter()
        v = decide_rationality(ext)
        assert time.perf_counter() - t0 < 2.0
        flags = [e for e in v.evidence if e["condition"] == "split-search-incomplete"]
        assert [f["result"] for f in flags] == [f"greedy shortcut over {2 ** 17} candidates"]


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
        "RankLabels": (lambda: RankLabels(W(2), W(2, 1), W(2, 1), one(2, 1), one(2)), (
            "RankLabels(triv=Weight(n=2, parts=(0, 0)), std=Weight(n=2, parts=(1, 0)), "
            "dstd=Weight(n=2, parts=(1, 0)), "
            "r1=WeightMultiset(n=2, entries=((Weight(n=2, parts=(1, 0)), 1),)), "
            "r2=WeightMultiset(n=2, entries=((Weight(n=2, parts=(0, 0)), 1),)))")),
        "Verdict": (lambda: Verdict(RATIONAL_BY_B, None, [{"x": 1}], 0), verdict),
        "CatalogEntry": (
            lambda: CatalogEntry(3, one(3, 1), one(3, 1), "Q-bad", "Bad", 0, 3),
            f"CatalogEntry(n=3, S={ms}, Q={ms}, trigger='Q-bad', q_class='Bad', seed=0, "
            "trials=3)"),
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
