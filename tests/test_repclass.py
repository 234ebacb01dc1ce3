import itertools
from fractions import Fraction

import pytest
import stabilizer_oracle
from frontier_reference import border, count_vector, engine_bad_cores, maximal

from affrep import repclass
from affrep.catalog import _walk
from affrep.config import MAX_CATALOG_RANK, ResourceCapError
from affrep.matmodel import AffMatrixRep, sl_basis_keys
from affrep.rationality import FREE, TwoStepExtension, decide_rationality
from affrep.repclass import (
    BAD,
    GOOD,
    GOOD_HEURISTIC,
    bad_cores,
    bad_frontier,
    bad_list,
    classify,
    classify_with_report,
    stabilizer_dimension,
)
from affrep.schur import Weight, WeightMultiset, dual, normalize, weyl_dim
from matrix_reference import scale
from submultiset_oracle import sub_entries


def W(n, *parts):
    return normalize(n, list(parts))


class TestBadList:
    def test_n10_contains_exterior_square_and_dual(self):
        bl = bad_list(10)
        assert normalize(10, [1, 1]) in bl
        assert normalize(10, [1] * 8) in bl  # dual of the exterior square

    def test_n3_adjoint_self_dual(self):
        bl = bad_list(3)
        assert W(3, 2, 1) in bl
        # counted once: it is a set
        assert len([w for w in bl if w == W(3, 2, 1)]) == 1

    def test_n3_exterior_square_equals_dual_standard(self):
        assert W(3, 1, 1) in bad_list(3)
        assert dual(W(3, 1)) == W(3, 1, 1)

    def test_small_rank_rejected(self):
        with pytest.raises(ValueError):
            bad_list(1)


class TestSlBasis:
    def test_count(self):
        for n in (2, 3, 4):
            assert len(sl_basis_keys(n)) == n * n - 1


class TestStabilizer:
    def test_standard_vector(self):
        rep = WeightMultiset.of(3, [W(3, 1)])
        rpt = stabilizer_dimension(rep, seed=7)
        assert rpt.stab_dim == 5  # n^2 - 1 - n

    def test_adjoint_centralizer(self):
        rep = WeightMultiset.of(3, [W(3, 2, 1)])
        assert stabilizer_dimension(rep, seed=7).stab_dim == 2  # n - 1

    def test_three_standards_free(self):
        rep = WeightMultiset.of(3, [(W(3, 1), 3)])
        assert stabilizer_dimension(rep, seed=7).stab_dim == 0

    def test_classical_values(self):
        expectations = {
            (3, (1, 0, 0)): 5,
            (3, (2, 0, 0)): 3,   # orthogonal algebra of a quadric
            (4, (1, 1, 0, 0)): 10,  # symplectic algebra
            (4, (2, 1, 1, 0)): 3,
        }
        for (n, parts), want in expectations.items():
            rep = WeightMultiset.of(n, [Weight(n, parts)])
            got = stabilizer_dimension(rep, seed=11).stab_dim
            assert got == want, (n, parts, got, want)

    def test_reproducible(self):
        rep = WeightMultiset.of(3, [(W(3, 1), 2)])
        a = stabilizer_dimension(rep, seed=5)
        b = stabilizer_dimension(rep, seed=5)
        assert a == b

    def test_dual_summand_uses_small_model(self):
        # dual of Sym^2 at n=4 has a 9-box label; the dual route keeps it tiny
        rep = WeightMultiset.of(4, [dual(W(4, 2))])
        assert stabilizer_dimension(rep, seed=3).stab_dim == 6

    def test_every_bad_irreducible_has_positive_stabilizer(self):
        for n in (3, 4):
            for w in sorted(bad_list(n)):
                rep = WeightMultiset.of(n, [w])
                got = stabilizer_dimension(rep, seed=13).stab_dim
                assert got > 0, (n, w, got)
                # the dual has the same generic stabilizer dimension
                got_dual = stabilizer_dimension(WeightMultiset.of(n, [dual(w)]), seed=13).stab_dim
                assert got_dual == got, (n, w)

    # the generic stabilizer is n^2 - 1 less the generic orbit's dimension:
    # the adjoint's regular semisimple orbit has codimension n - 1 (its
    # centralizer is a torus); a nondegenerate quadratic form's orbit is open,
    # stabilized by SO_n; an alternating form's orbit is open for odd n, and
    # for even n a level set of the Pfaffian, of codimension 1
    CLASSICAL = {
        "adjoint": (lambda n: (2,) + (1,) * (n - 2) + (0,), lambda n: n - 1),
        "sym2": (lambda n: (2,) + (0,) * (n - 1), lambda n: n * (n - 1) // 2),
        "wedge2": (lambda n: (1, 1) + (0,) * (n - 2),
                   lambda n: n * n - 1 - n * (n - 1) // 2 + (n % 2 == 0)),
    }

    @pytest.mark.parametrize("n", range(5, 9))
    @pytest.mark.parametrize("family", CLASSICAL)
    def test_classical_values_at_ranks_5_to_8(self, family, n):
        parts, want = self.CLASSICAL[family]
        rep = WeightMultiset.of(n, [Weight(n, parts(n))])
        assert stabilizer_dimension(rep).stab_dim == want(n)

    @pytest.mark.parametrize("label,rank,trials", [
        ((1, 0, 0, 0), 4, 1),  # 4 rows of rank 4: the first trial reaches the floor 15 - 4
        ((1, 1, 0, 0), 5, 3),  # 6 rows of rank 5: no trial reaches the floor 15 - 6
    ])
    def test_trials_stop_at_the_row_count_floor(self, label, rank, trials, monkeypatch):
        ranks = []
        real = repclass.integer_rank

        def counted(rows, stop_at=None):
            ranks.append(real(rows, stop_at))
            return ranks[-1]

        monkeypatch.setattr(repclass, "integer_rank", counted)
        got = stabilizer_dimension(WeightMultiset.of(4, [Weight(4, label)]), seed=1729, trials=3)
        assert ranks == [rank] * trials
        assert (got.stab_dim, got.trials) == (15 - rank, 3)

    # two standards and a trivial at rank 3: 6 counted rows, so the work of
    # 3 trials is 3 x 6 x 8 x 6 = 864; the trivial summand adds no row
    EDGE = WeightMultiset.of(3, [(W(3, 1), 2), (W(3, 0), 5)])

    def test_work_at_the_cap_is_accepted(self, monkeypatch):
        monkeypatch.setattr(repclass, "MAX_STABILIZER_WORK", 864)
        assert stabilizer_dimension(self.EDGE, seed=7, trials=3).stab_dim == 2

    @pytest.mark.parametrize("rep,trials,needed", [
        (EDGE, 3, 864),
        (EDGE, 4, 1152),   # every trial counts
        # five adjoints: refused on the first pass, at 3 of their 8 rows each
        (WeightMultiset.of(3, [(W(3, 2, 1), 5)]), 1, 15 * 8 * 8),
    ], ids=["edge", "trials", "first-pass"])
    def test_work_above_the_cap_is_refused_before_any_model(self, monkeypatch, rep, trials,
                                                            needed):
        monkeypatch.setattr(repclass, "MAX_STABILIZER_WORK", 863)
        monkeypatch.setattr(repclass, "_integer_gens", None)
        with pytest.raises(ResourceCapError) as err:
            stabilizer_dimension(rep, seed=7, trials=trials)
        assert (err.value.cap_name, err.value.needed, err.value.cap) == (
            "max_stabilizer_work", needed, 863)


def _bad_family_reps():
    """Every multiset of nontrivial bad-family labels with total multiplicity
    <= 3 at ranks 2 and 3, and <= 2 at rank 4."""
    for n, top in ((2, 3), (3, 3), (4, 2)):
        labels = sorted(w for w in bad_list(n) if not w.is_trivial())
        for size in range(1, top + 1):
            for combo in itertools.combinations_with_replacement(labels, size):
                yield WeightMultiset.of(n, combo)


class TestIntegerStabilizerAgainstOracle:
    # with coordinates in {-1, 0, 1} special points are common, so the kernel
    # dimension of a trial depends on the exact draws, and with several trials
    # a draw moved from one trial to the next would show; the oracle draws
    # every coordinate of every trial up front
    @pytest.mark.parametrize("trials,coord_bound", [(3, 100), (1, 1), (3, 1)])
    @pytest.mark.parametrize("seed", [1, 7, 1729])
    def test_bad_family_sweep(self, seed, trials, coord_bound, monkeypatch):
        monkeypatch.setattr(repclass, "COORD_BOUND", coord_bound)
        for rep in _bad_family_reps():
            got = stabilizer_dimension(rep, seed=seed, trials=trials)
            want = stabilizer_oracle.stabilizer_dimension(
                rep, seed=seed, trials=trials, coord_bound=coord_bound)
            assert got.stab_dim == want, (str(rep), seed)

    @pytest.mark.parametrize("seed", [1, 7, 1729])
    def test_trivial_copies_and_copies_over_the_cap_draw_nothing(self, seed, monkeypatch):
        # with coordinates in {-1, 0, 1} a shifted draw would show; the
        # oracle skips trivial copies and counts n^2 - 1 copies of a label
        monkeypatch.setattr(repclass, "COORD_BOUND", 1)
        reps = [WeightMultiset.of(2, [(W(2, 0), 4), (W(2, 1), 5)]),
                WeightMultiset.of(2, [(W(2, 2), 7)]),
                WeightMultiset.of(3, [(W(3, 0), 2), (W(3, 1), 2), (W(3, 2, 1), 9)]),
                WeightMultiset.of(3, [(W(3, 0), 3)])]
        for rep in reps:
            got = stabilizer_dimension(rep, seed=seed, trials=1)
            want = stabilizer_oracle.stabilizer_dimension(rep, seed=seed, trials=1, coord_bound=1)
            assert got.stab_dim == want, (str(rep), seed)

    def test_rational_generators_are_scaled_per_summand(self, monkeypatch):
        # the models built here happen to be integral; rescaling each label's
        # generators by its own rational factor must not move any kernel
        reps = [WeightMultiset.of(3, items) for items in (
            [W(3, 1), W(3, 1, 1)], [W(3, 2, 1)], [W(3, 2), W(3, 1)], [W(3, 2), W(3, 1, 1)],
            [W(3, 2, 1), W(3, 1)],
        )]
        want = [stabilizer_dimension(rep, seed=7).stab_dim for rep in reps]
        assert want == [3, 2, 1, 1, 0]
        factors = {(1, 0, 0): Fraction(1, 3), (2, 1, 0): Fraction(3, 2),
                   (2, 0, 0): Fraction(-1, 2), (1, 1, 0): Fraction(9, 4)}
        real = repclass.model_for_weight

        def rescaled(n, parts):
            m = real(n, parts)
            sl_gens = {k: scale(g, factors[parts]) for k, g in m.sl_gens.items()}
            return AffMatrixRep(m.n, m.dim, sl_gens, m.trans_gens, m.weight_grading)

        monkeypatch.setattr(repclass, "model_for_weight", rescaled)
        repclass._integer_gens.cache_clear()
        try:
            got = [stabilizer_dimension(rep, seed=7).stab_dim for rep in reps]
        finally:
            repclass._integer_gens.cache_clear()
        assert got == want


class TestClassify:
    def test_exterior_square_n10_bad(self):
        rep = WeightMultiset.of(10, [normalize(10, [1, 1])])
        assert classify(rep) == BAD

    def test_sym3_good_by_list(self):
        verdict, report = classify_with_report(WeightMultiset.of(3, [W(3, 3)]))
        assert verdict == GOOD
        assert report is None

    def test_n_standards_good_heuristic(self):
        verdict, report = classify_with_report(WeightMultiset.of(3, [(W(3, 1), 3)]))
        assert verdict == GOOD_HEURISTIC
        assert report is not None and report.stab_dim == 0

    def test_trivial_rep_bad(self):
        for k in (1, 4):
            assert classify(WeightMultiset.of(3, [(W(3, 0), k)])) == BAD

    def test_monotone_under_adding_summands(self):
        base = WeightMultiset.of(3, [(W(3, 1), 3)])
        assert classify(base) in (GOOD, GOOD_HEURISTIC)
        for extra in [W(3, 0), W(3, 1), W(3, 2, 1), W(3, 3)]:
            bigger = base.add(WeightMultiset.of(3, [extra]))
            assert classify(bigger) in (GOOD, GOOD_HEURISTIC)


def test_one_decision_sends_the_quotient_core_to_the_stabilizer_once(monkeypatch):
    # above the tabulated ranks the engine answers.  Q = trivial + 8
    # standard at rank 8 is GoodHeuristic and of no R1-R3 shape, so the
    # freeness gate classifies it; criterion B fails (1 of 63 trivials),
    # and the split search asks Q again at W2 = 0, where it is accepted.
    # Both are answered by Q's core, which the classifier's memo keeps for
    # the whole decision, and so is Q plus trivials: the stabilizer sees
    # the core once and no multiset with a trivial summand
    n = 8
    triv, std, wedge = W(n, 0), W(n, 1), W(n, 1, 1)
    core = WeightMultiset.of(n, [(std, 8)])
    seen = []
    original = repclass.stabilizer_dimension

    def counted(rep, *args, **kwargs):
        seen.append(rep)
        return original(rep, *args, **kwargs)

    monkeypatch.setattr(repclass, "stabilizer_dimension", counted)
    ext = TwoStepExtension.of(n, S=[std, (wedge, 8)], Q=[triv, (std, 8)], W=[triv])
    classify_with_report.cache_clear()
    verdict = decide_rationality(ext)
    splits = [e for e in verdict.evidence if e["condition"] == "split"]
    assert verdict.evidence[1]["result"] == FREE
    assert [(e["w2"], e["classify"]) for e in splits] == [([], GOOD_HEURISTIC)]
    assert seen == [core]
    seen.clear()
    classify_with_report.cache_clear()
    assert classify(ext.Q.add(WeightMultiset.of(n, [(triv, 5)]))) == GOOD_HEURISTIC
    assert seen == [core]


def minimal_good_power(w: Weight, max_t: int = 20) -> int | None:
    """Smallest t for which t copies of the irreducible classify as good,
    by the stabilizer engine at the default seed; None when no t up to
    max_t works (always for the trivial representation)."""
    for t in range(1, max_t + 1):
        if classify(WeightMultiset.of(w.n, [(w, t)])) != BAD:
            return t
    return None


class TestMinimalGoodPower:
    def test_standard_needs_rank_many(self):
        assert minimal_good_power(W(3, 1)) == 3
        assert minimal_good_power(W(4, 1)) == 4

    def test_adjoint_pair(self):
        assert minimal_good_power(W(3, 2, 1)) == 2

    def test_trivial_never_good(self):
        assert minimal_good_power(W(3, 0), max_t=5) is None


# --- the bad frontier table ----------------------------------------------------

def _dual_entries(entries):
    return tuple(sorted((dual(w), m) for w, m in entries))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bad_frontier_is_the_engine_frontier(n):
    # the table is the maximal bad cores of the engine's sweep, in count
    # vector order; the sweep at ranks 5-7 is checked by running
    # tests/frontier_reference.py
    assert bad_frontier(n) == maximal(n, [core.entries for core in engine_bad_cores(n)])


@pytest.mark.parametrize("n", range(2, MAX_CATALOG_RANK + 1))
def test_bad_frontier_premises_hold(n):
    # what `classify` trusts the table for, at every tabulated rank: each
    # frontier member is engine-Bad, and every border multiset (a minimal
    # one outside the down-closure, found from the table) has a point of
    # full rank, so every multiset outside is GoodHeuristic by the engine's
    # own certificate
    frontier = bad_frontier(n)
    assert all(classify_with_report(WeightMultiset(n, top))[0] == BAD for top in frontier)
    edge = border(n, bad_cores(n))
    assert edge
    assert all(stabilizer_dimension(ms).stab_dim == 0 for ms in edge)


@pytest.mark.parametrize("n", [1, MAX_CATALOG_RANK + 1])
def test_bad_frontier_refuses_an_untabulated_rank(n):
    # named, not a bare KeyError from the table
    tabulated = ", ".join(map(str, range(2, MAX_CATALOG_RANK + 1)))
    for table in (bad_frontier, bad_cores):
        with pytest.raises(ValueError, match=f"at rank {n}; the table covers ranks {tabulated}$"):
            table(n)


@pytest.mark.parametrize("n", range(2, MAX_CATALOG_RANK + 1))
def test_bad_frontier_is_a_dual_closed_antichain_over_the_floor(monkeypatch, n):
    # with no engine call: no frontier member lies under another, the dual
    # of each is one (the outer automorphism of SL_n carries a module to
    # its dual), and every multiset of nontrivial bad labels of dimension
    # below n^2 - 1 is a bad core (its image rows cannot reach rank n^2 - 1)
    monkeypatch.setattr(repclass, "stabilizer_dimension", None)
    frontier = bad_frontier(n)
    vectors = [count_vector(n, top) for top in frontier]
    assert len(set(vectors)) == len(vectors)
    assert not any(u != v and all(a <= b for a, b in zip(u, v)) for u in vectors for v in vectors)
    assert {_dual_entries(top) for top in frontier} == set(frontier)
    labels = sorted(w for w in bad_list(n) if not w.is_trivial())
    dims = [weyl_dim(w) for w in labels]
    under = _walk([(w, n * n - 2) for w in labels], caps=[(dims, n * n - 2)])
    assert under and all(entries in bad_cores(n) for entries in under)
    assert () in bad_cores(n)
    assert all(classify(WeightMultiset(n, top)) == BAD for top in frontier)
    assert all(classify(ms) == GOOD_HEURISTIC for ms in border(n, bad_cores(n)))


@pytest.mark.parametrize("n,size", list(zip(range(2, MAX_CATALOG_RANK + 1),
                                             (3, 15, 45, 86, 125, 158))))
def test_bad_cores_are_the_down_closure_of_the_frontier(n, size):
    # every sub-multiset of each frontier member, the empty one included,
    # by brute force over count vectors; the program builds the closure
    # with the split search's enumerator
    closure = {sub for top in bad_frontier(n) for sub in sub_entries(top)}
    assert bad_cores(n) == closure
    assert len(closure) == size


def test_classify_answers_what_the_engine_answers():
    # the table against the engine on every small multiset of bad labels,
    # bare, padded with one and with n^2 - 2 trivial summands (the table
    # reads the core past the trivial entry), and with a label outside the
    # bad family added
    for rep in _bad_family_reps():
        n = rep.n
        for extra in ([(W(n, 0), 1)], [(W(n, 0), n * n - 2)], [W(n, 3)], []):
            asked = rep.add(WeightMultiset.of(n, extra))
            assert classify(asked) == classify_with_report(asked)[0], str(asked)
