from collections import Counter
from math import comb

import pytest

from affrep import filtration
from affrep.filtration import (
    RADICAL,
    Filtration,
    check_blocks_containment,
    check_duality,
    check_embedding_theorem,
    dual_multiset,
    identify_layers,
    radical_filtration,
    socle_filtration,
    verify_degree_bound,
)
from affrep.gallery import cubic_top_submodel, three_generator_submodel
from affrep.linalg import Echelon, SMat
from affrep.matmodel import (
    dual_model,
    model_sym_dual,
    sl_only_model,
    tensor_model,
)
from affrep.oracle import decompose_character, irrep_character, ssyt_contents
from affrep.schur import WeightMultiset, dual, grading_rep, normalize
from kron_reference import identity
from matrix_reference import add, matmul, scale
from model_cases import WORKLOAD_MODELS, workload_model


def W(n, *parts):
    return normalize(n, list(parts))


def sym_dual_layers(n, l):
    return [WeightMultiset.of(n, [dual(W(n, i))]) for i in range(l + 1)]


class TestSocle:
    def test_canonical_model_layers(self):
        for n in (1, 2, 3):
            for l in range(5):
                f = socle_filtration(model_sym_dual(n, l))
                assert f.length == l
                assert f.layer_sizes() == [comb(n + i - 1, i) for i in range(l + 1)]
                assert f.layers == sym_dual_layers(n, l)

    def test_sl_only_single_layer(self):
        f = socle_filtration(sl_only_model(W(3, 2, 1)))
        assert f.length == 0
        assert f.layers == [WeightMultiset.of(3, [W(3, 2, 1)])]

    def test_chain_length_is_nilpotency_order(self):
        # derivative operators have maximal rank: the chain length must match
        # the kernel-of-powers chain of a generic translation
        m = model_sym_dual(3, 3)
        t = SMat(m.dim, m.dim)
        for vi, ti in zip([3, -1, 7], m.trans_gens):
            t = add(t, scale(ti, vi))
        order = 0
        power = identity(m.dim)
        while power.cols:
            power = matmul(power, t)
            order += 1
        f = socle_filtration(m)
        assert f.length + 1 == order

    def test_idempotent(self):
        m = model_sym_dual(2, 3)
        f1 = socle_filtration(m)
        f2 = socle_filtration(m)
        assert f1.snapshots == f2.snapshots
        assert f1.layers == f2.layers

    def test_chain_members_invariant(self):
        m = tensor_model(sl_only_model(dual(W(3, 1))), model_sym_dual(3, 2))
        f = socle_filtration(m)
        from affrep.linalg import Echelon

        for i in range(f.length + 1):
            ech = Echelon()
            rows = [row for step in f.snapshots[: i + 1] for row in step]
            for r in rows:
                ech.insert(r)
            for g in m.all_gens():
                for r in rows:
                    assert ech.contains(g.apply(r))

    def test_layer_dimensions_conserve(self):
        for m in [model_sym_dual(2, 3), dual_model(model_sym_dual(2, 3))]:
            for f in (socle_filtration(m), radical_filtration(m)):
                assert sum(f.layer_sizes()) == m.dim
                assert sum(ms.dim() for ms in f.layers) == m.dim


class TestRadical:
    def test_dual_of_canonical(self):
        for n, l in [(2, 2), (2, 3), (3, 2)]:
            f = radical_filtration(dual_model(model_sym_dual(n, l)))
            want = [WeightMultiset.of(n, [W(n, l - i)]) for i in range(l + 1)]
            assert f.layers == want

    def test_sl_only_single_layer(self):
        f = radical_filtration(sl_only_model(W(3, 1)))
        assert f.length == 0

    def test_same_length_as_socle(self):
        models = [
            model_sym_dual(2, 2),
            dual_model(model_sym_dual(3, 2)),
            tensor_model(sl_only_model(dual(W(3, 1))), model_sym_dual(3, 2)),
        ]
        for m in models:
            assert socle_filtration(m).length == radical_filtration(m).length


def two_pass_radical_reference(rep):
    """The radical chain assembled in a second pass: each level is
    eliminated on its own, then every level again, deepest first, into one
    echelon, each snapshot holding the rows that level added there."""
    def insert_new(ech, vecs):
        return [ech.rows[p] for p in map(ech.insert, filter(None, vecs)) if p is not None]

    levels = [[{i: 1} for i in range(rep.dim)]]
    while True:
        rows = insert_new(Echelon(), (t.apply(b) for b in levels[-1] for t in rep.trans_gens))
        if not rows:
            break
        levels.append(rows)
    ech = Echelon()
    snapshots = [insert_new(ech, level) for level in reversed(levels)]
    return Filtration(rep, RADICAL, snapshots, identify_layers(rep, snapshots))


def chain_members(filt):
    """The reduced echelon rows of each chain member, unique to its span."""
    ech, members = Echelon(), []
    for step in filt.snapshots:
        for vec in step:
            ech.insert(vec)
        members.append(dict(ech.rows))
    return members


RADICAL_CASES = (
    [(f"workload{n, l, parts}", lambda n=n, l=l, parts=parts: workload_model(n, l, parts))
     for n, l, parts in WORKLOAD_MODELS]
    + [("cubic_top_submodel(3)", lambda: cubic_top_submodel(3)),
       ("three_generator_submodel(4)", lambda: three_generator_submodel(4))]
    + [(f"sym-dual({n},{l})", lambda n=n, l=l: model_sym_dual(n, l))
       for n in (2, 3) for l in range(4)]
)


@pytest.mark.parametrize("build", [b for _, b in RADICAL_CASES],
                         ids=[name for name, _ in RADICAL_CASES])
def test_radical_chain_equals_two_pass_assembly(build):
    for rep in (build(), dual_model(build())):
        got, want = radical_filtration(rep), two_pass_radical_reference(rep)
        assert got.chain_dims() == want.chain_dims()
        assert got.layers == want.layers
        assert chain_members(got) == chain_members(want)
        assert verify_degree_bound(got)


DUALITY_CASES = RADICAL_CASES[:len(WORKLOAD_MODELS) + 2]  # the workload and gallery models


@pytest.mark.parametrize("build", [b for _, b in DUALITY_CASES],
                         ids=[name for name, _ in DUALITY_CASES])
def test_check_duality_filters_the_dual_model(build, monkeypatch):
    """`check_duality` builds only the dual's translations and grading; the
    radical filtration it gets from them is that of the whole dual model."""
    rep = build()
    seen = []

    def recording(model):
        seen.append(radical_filtration(model))
        return seen[-1]

    monkeypatch.setattr(filtration, "radical_filtration", recording)
    assert check_duality(socle_filtration(rep))
    want = radical_filtration(dual_model(rep))
    assert len(seen) == 1
    assert seen[0].layers == want.layers
    assert seen[0].snapshots == want.snapshots


class TestIdentifyLayers:
    def test_canonical(self):
        m = model_sym_dual(3, 2)
        f = socle_filtration(m)
        assert identify_layers(m, f.snapshots) == sym_dual_layers(3, 2)

    def test_decompose_character_adjoint(self):
        char = Counter()
        for c in ssyt_contents((2, 1, 0), 3):
            char[grading_rep(c)] += 1
        assert irrep_character(3, (2, 1, 0)) == char
        ms = decompose_character(3, char)
        assert ms == WeightMultiset.of(3, [W(3, 2, 1)])

    def test_rejects_bad_character(self):
        with pytest.raises(ValueError):
            decompose_character(2, Counter({(-1, 0): 1}))


class TestChecks:
    MODELS = None

    def models(self):
        if TestChecks.MODELS is None:
            TestChecks.MODELS = [
                model_sym_dual(2, 2),
                model_sym_dual(3, 2),
                dual_model(model_sym_dual(2, 2)),
                sl_only_model(W(3, 2, 1)),
                tensor_model(sl_only_model(dual(W(3, 1))), model_sym_dual(3, 2)),
            ]
        return TestChecks.MODELS

    def test_duality(self):
        for m in self.models():
            assert check_duality(socle_filtration(m))

    def test_blocks(self):
        for m in self.models():
            assert check_blocks_containment(socle_filtration(m))
            assert check_blocks_containment(radical_filtration(m))

    def test_embedding(self):
        for m in self.models():
            assert check_embedding_theorem(socle_filtration(m))

    def test_checks_refuse_a_radical_filtration(self):
        rad = radical_filtration(model_sym_dual(3, 2))
        for check in (check_duality, check_embedding_theorem):
            with pytest.raises(ValueError, match="socle"):
                check(rad)

    def test_embedding_is_the_first_row_of_the_socle_bounds(self):
        # a socle chain whose layer 1 is not inside Q_0 (x) dual standard:
        # both checks must see the same failing pair (0, 1)
        soc = socle_filtration(model_sym_dual(3, 2))
        soc = soc._replace(layers=[soc.layers[0], WeightMultiset.of(3, [W(3, 1)]), soc.layers[2]])
        assert not check_embedding_theorem(soc)
        assert not check_blocks_containment(soc)

    def test_dual_multiset(self):
        ms = WeightMultiset.of(3, [(W(3, 2), 2), W(3, 1)])
        assert dual_multiset(dual_multiset(ms)) == ms


class TestGallery:
    def test_cubic_top_layers(self):
        from affrep.gallery import cubic_top_submodel

        v = cubic_top_submodel(3)
        assert v.dim == 22
        soc = socle_filtration(v)
        assert soc.layers == [
            WeightMultiset.of(3, [W(3, 1, 1)]),
            WeightMultiset.of(3, [W(3, 1), W(3, 2, 2)]),
            WeightMultiset.of(3, [W(3, 3, 3)]),
        ]
        rad = radical_filtration(v)
        assert rad.layers == [
            WeightMultiset.of(3, [W(3, 1, 1)]),
            WeightMultiset.of(3, [W(3, 2, 2)]),
            WeightMultiset.of(3, [W(3, 1), W(3, 3, 3)]),
        ]

    def test_cubic_top_checks(self):
        from affrep.gallery import cubic_top_submodel

        v = cubic_top_submodel(3)
        assert check_duality(socle_filtration(v))
        assert check_blocks_containment(socle_filtration(v))
        assert check_blocks_containment(radical_filtration(v))
        assert check_embedding_theorem(socle_filtration(v))

    def test_three_generator_layers(self):
        from affrep.gallery import three_generator_submodel

        v = three_generator_submodel(4)
        soc = socle_filtration(v)
        assert soc.layers == [
            WeightMultiset.of(4, [W(4, 1), W(4, 2, 2, 1), W(4, 3, 3, 3)]),
            WeightMultiset.of(4, [W(4, 2, 1, 1), W(4, 3, 3, 2), W(4, 4, 4, 4)]),
            WeightMultiset.of(4, [W(4, 5, 5, 5)]),
        ]
        rad = radical_filtration(v)
        assert rad.layers == [
            WeightMultiset.of(4, [W(4, 3, 3, 3)]),
            WeightMultiset.of(4, [W(4, 1), W(4, 2, 2, 1), W(4, 4, 4, 4)]),
            WeightMultiset.of(4, [W(4, 2, 1, 1), W(4, 3, 3, 2), W(4, 5, 5, 5)]),
        ]
