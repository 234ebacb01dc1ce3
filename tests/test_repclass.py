import itertools
from fractions import Fraction

import pytest
import stabilizer_oracle

from affrep import repclass
from affrep.config import ResourceCapError
from affrep.matmodel import AffMatrixRep, sl_basis_keys
from affrep.repclass import (
    BAD,
    GOOD,
    GOOD_HEURISTIC,
    bad_list,
    classify,
    classify_with_report,
    stabilizer_dimension,
)
from affrep.schur import Weight, WeightMultiset, dual, normalize


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
            sl_gens = {k: g.scale(factors[parts]) for k, g in m.sl_gens.items()}
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
