"""Acceptance suite: one callable per criterion, runnable from the CLI
(`affrep selftest`) and from pytest.  Each check returns (passed, detail).
Two criteria hold a fast writer or engine to an independent reference:
criterion 1 the LR decompositions to the character oracle (`oracle.py`:
products of tableau characters, peeled into irreducible ones),
criterion 3 the model-file writer `model_dumps` to the dense form
`model_to_json` encoded by the general JSON encoder.
"""

from __future__ import annotations

import io
import itertools
import random
import time
from math import comb

from .catalog import (
    TRIGGER_BAD_Q,
    TRIGGER_SMALL_S,
    enumerate_exceptional_candidates,
)
from .config import DEFAULT_SEED
from .filtration import (
    check_blocks_containment,
    check_duality,
    check_embedding_theorem,
    radical_filtration,
    socle_filtration,
    verify_degree_bound,
)
from .gallery import cubic_top_submodel, three_generator_submodel
from .matmodel import dual_model, model_sym_dual, sl_only_model, tensor_model
from .oracle import product_as_multiset
from .rationality import (
    EXCEPTIONAL,
    POSSIBLY_NOT_GENERICALLY_FREE,
    RATIONAL_BY_A,
    RATIONAL_BY_B,
    TwoStepExtension,
    check_structural,
    decide_rationality,
)
from .repclass import (BAD, bad_list, classify_with_report, nontrivial_part,
                       stabilizer_dimension)
from .schur import (
    Weight,
    WeightMultiset,
    check_lr_gap_bound,
    dual,
    lr_decompose,
    normalize,
    weyl_dim,
)
from .serialize import dumps, model_dumps, model_from_json, model_to_json, write_catalog


def _small_weights(n: int, max_size: int) -> list[Weight]:
    out = set()
    for parts in itertools.product(range(max_size + 1), repeat=n - 1):
        if all(a >= b for a, b in zip(parts, parts[1:])) and sum(parts) <= max_size:
            out.add(Weight(n, parts + (0,)))
    return sorted(out)


def criterion_1_lr_oracle() -> tuple[bool, str]:
    """Tensor decompositions agree with the character oracle for all pairs of
    weights of size at most 4 at ranks 2, 3, 4; must finish within 2 minutes."""
    t0 = time.time()
    pairs = 0
    for n in (2, 3, 4):
        ws = _small_weights(n, 4)
        for a, b in itertools.product(ws, repeat=2):
            if lr_decompose(a, b) != product_as_multiset(a, b):
                return False, f"mismatch at n={n}, a={a}, b={b}"
            pairs += 1
    elapsed = time.time() - t0
    if elapsed > 120:
        return False, f"{pairs} pairs took {elapsed:.1f}s (> 120s)"
    return True, f"{pairs} pairs agree in {elapsed:.1f}s"


def criterion_2_canonical_filtration() -> tuple[bool, str]:
    """Socle layers of the degree <= l function models are exactly the dual
    symmetric powers, for n <= 3, l <= 4."""
    for n in (1, 2, 3):
        for l in range(5):
            f = socle_filtration(model_sym_dual(n, l))
            want_dims = [comb(n + i - 1, i) for i in range(l + 1)]
            want_layers = [WeightMultiset.of(n, [dual(normalize(n, [i]))]) for i in range(l + 1)]
            if f.layer_sizes() != want_dims or f.layers != want_layers:
                return False, f"layers differ at n={n}, l={l}"
    return True, "all socle chains reproduce the dual symmetric powers"


def criterion_3_example_models() -> tuple[bool, str]:
    """The two bundled submodels reproduce their expected layer lists, and
    each one's file text (`model_dumps`) is the general encoder's text of
    its dense form (`model_to_json`), which reads back to the same model."""
    W3 = lambda *p: normalize(3, list(p))
    v = cubic_top_submodel(3)
    w = three_generator_submodel(4)
    for name, m in (("first", v), ("second", w)):
        if model_dumps(m) != dumps(model_to_json(m)):
            return False, f"{name} model's file text differs from its dense form's"
        if model_from_json(model_to_json(m)) != m:
            return False, f"{name} model does not read back from its dense form"
    rad = radical_filtration(v)
    want = [
        WeightMultiset.of(3, [W3(1, 1)]),
        WeightMultiset.of(3, [W3(2, 2)]),
        WeightMultiset.of(3, [W3(1), W3(3, 3)]),
    ]
    if rad.layers != want:
        return False, f"first model radical layers {[str(x) for x in rad.layers]}"
    W4 = lambda *p: normalize(4, list(p))
    rad2 = radical_filtration(w)
    want2 = [
        WeightMultiset.of(4, [W4(3, 3, 3)]),
        WeightMultiset.of(4, [W4(1), W4(2, 2, 1), W4(4, 4, 4)]),
        WeightMultiset.of(4, [W4(2, 1, 1), W4(3, 3, 2), W4(5, 5, 5)]),
    ]
    soc2 = socle_filtration(w)
    want2s = [
        WeightMultiset.of(4, [W4(1), W4(2, 2, 1), W4(3, 3, 3)]),
        WeightMultiset.of(4, [W4(2, 1, 1), W4(3, 3, 2), W4(4, 4, 4)]),
        WeightMultiset.of(4, [W4(5, 5, 5)]),
    ]
    if rad2.layers != want2:
        return False, f"second model radical layers {[str(x) for x in rad2.layers]}"
    if soc2.layers != want2s:
        return False, f"second model socle layers {[str(x) for x in soc2.layers]}"
    return True, "both bundled submodels match their layer lists and write their dense form"


def _model_sweep():
    models = []
    for n in (1, 2, 3):
        for l in range(5):
            m = model_sym_dual(n, l)
            models.append((f"functions(n={n},l={l})", m))
            models.append((f"dual functions(n={n},l={l})", dual_model(m)))
    models.append(("sl-only adjoint(3)", sl_only_model(normalize(3, [2, 1]))))
    models.append(("sl-only standard(2)", sl_only_model(normalize(2, [1]))))
    for n in (2, 3):
        t = tensor_model(sl_only_model(dual(normalize(n, [1]))), model_sym_dual(n, 2))
        models.append((f"dual-standard x functions(n={n},l=2)", t))
    models.append(("cubic-top submodel", cubic_top_submodel(3)))
    return models


def criterion_4_degree_bound() -> tuple[bool, str]:
    """Upper-triangular block degrees stay within layer distance: the
    block-degree check (chain containment) on every model of the sweep."""
    count = 0
    for name, m in _model_sweep():
        if not verify_degree_bound(socle_filtration(m)):
            return False, f"degree bound fails for {name}"
        count += 1
    return True, f"degree bounds hold on {count} models"


def criterion_5_duality() -> tuple[bool, str]:
    count = 0
    for name, m in _model_sweep():
        if not check_duality(socle_filtration(m)):
            return False, f"duality fails for {name}"
        count += 1
    return True, f"duality holds on {count} models"


def criterion_6_blocks_and_embedding() -> tuple[bool, str]:
    count = 0
    for name, m in _model_sweep():
        soc = socle_filtration(m)
        if not check_blocks_containment(soc):
            return False, f"socle blocks containment fails for {name}"
        if not check_blocks_containment(radical_filtration(m)):
            return False, f"radical blocks containment fails for {name}"
        if not check_embedding_theorem(soc):
            return False, f"embedding containment fails for {name}"
        count += 1
    return True, f"blocks and embedding containments hold on {count} models"


def criterion_7_gap_inequality() -> tuple[bool, str]:
    n = 4
    checked = 0
    for parts in itertools.product(range(6), repeat=n - 1):
        if any(a < b for a, b in zip(parts, parts[1:])):
            continue
        w = Weight(n, parts + (0,))
        for k in range(6):
            if not check_lr_gap_bound(w, k):
                return False, f"gap bound fails at w={w}, k={k}"
            checked += 1
    return True, f"gap inequality holds for {checked} (weight, degree) pairs at rank 4"


def criterion_8_stabilizer_regressions() -> tuple[bool, str]:
    seeds = (11, 23, 47)
    cases = []
    for n in (3, 4):
        std = normalize(n, [1])
        cases.extend(
            [
                (WeightMultiset.of(n, [std]), n * n - 1 - n),
                (WeightMultiset.of(n, [normalize(n, [2] + [1] * (n - 2))]), n - 1),
                (WeightMultiset.of(n, [normalize(n, [2])]), n * (n - 1) // 2),
                (WeightMultiset.of(n, [(std, n)]), 0),
            ]
        )
    cases.append((WeightMultiset.of(4, [normalize(4, [1, 1])]), 10))
    for rep, want in cases:
        for seed in seeds:
            got = stabilizer_dimension(rep, seed=seed).stab_dim
            if got != want:
                return False, f"{rep} at seed {seed}: stab {got}, expected {want}"
    return True, f"{len(cases)} classical stabilizer dimensions reproduced at {len(seeds)} seeds"


def criterion_9_decision_procedure() -> tuple[bool, str]:
    n = 3
    W3 = lambda *p: normalize(3, list(p))
    # (B): quotient holds n^2 - 1 trivial summands
    ext_b = TwoStepExtension.of(3, S=[(W3(1), 8)], Q=[(W3(0), 8)], assume_generically_free=True)
    if decide_rationality(ext_b).outcome != RATIONAL_BY_B:
        return False, "criterion (B) instance failed"
    # (A): good quotient with a large submodule
    ext_a = TwoStepExtension.of(3, S=[W3(4, 3)], Q=[W3(3, 3)])
    if decide_rationality(ext_a).outcome != RATIONAL_BY_A:
        return False, "criterion (A) instance failed"
    # Exceptional: bad quotient, small submodule, freeness asserted
    ext_e = TwoStepExtension.of(
        10,
        S=[normalize(10, [1, 1, 1])],
        Q=[normalize(10, [1, 1])],
        assume_generically_free=True,
    )
    if decide_rationality(ext_e).outcome != EXCEPTIONAL:
        return False, "exceptional instance failed"
    # quotient equal to the standard representation: freeness gate fires
    ext_f = TwoStepExtension.of(3, S=[W3(2)], Q=[W3(1)])
    if decide_rationality(ext_f).outcome != POSSIBLY_NOT_GENERICALLY_FREE:
        return False, "freeness gate instance failed"

    # monotonicity: adding good summands to W preserves the (A) outcome
    pool = [w for w in _small_weights(3, 6) if w not in bad_list(3) and weyl_dim(w) <= 50]
    rng = random.Random(DEFAULT_SEED)
    for i in range(100):
        extra = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 3))]
        ext = TwoStepExtension.of(3, S=[W3(4, 3)], Q=[W3(3, 3)], W=extra)
        v = decide_rationality(ext)
        if v.outcome != RATIONAL_BY_A:
            return False, f"monotonicity broken at augmentation {i}: {extra} -> {v.outcome}"
    return True, "four hand instances and 100 seeded augmentations behave as required"


def criterion_10_catalog() -> tuple[bool, str]:
    # each run is enumerated and written as `affrep enumerate` writes it
    t0 = time.time()
    runs = [io.StringIO(), io.StringIO()]
    for fh in runs:
        catalog = enumerate_exceptional_candidates(3)
        write_catalog(catalog, fh)
    elapsed = time.time() - t0
    if runs[0].getvalue() != runs[1].getvalue():
        return False, "two enumeration runs differ"
    if elapsed > 300:
        return False, f"two runs took {elapsed:.1f}s (> 300s)"
    n = 3
    triv, empty = normalize(n, []), WeightMultiset.of(n, [])
    # a Q classifies as its core does, so each Q-bad core is classified
    # once, by the engine: the catalog took its bad cores from the table
    core_classes: dict[WeightMultiset, str] = {}
    for group in catalog.groups:
        Q = group.Q
        if Q.count(triv) >= n * n - 1:
            return False, f"entry exceeds the trivial-summand clause: Q={Q}"
        if group.trigger not in (TRIGGER_BAD_Q, TRIGGER_SMALL_S):
            return False, f"unknown trigger {group.trigger}"
        if group.trigger == TRIGGER_BAD_Q:
            core = nontrivial_part(Q)
            if core not in core_classes:
                core_classes[core] = classify_with_report(Q)[0]
            if core_classes[core] != BAD:
                return False, f"trigger Q-bad not verified: Q={Q}"
        for s in group.subs:
            S = WeightMultiset(n, s)
            if not check_structural(TwoStepExtension(n, S, Q, empty)):
                return False, f"entry fails structural containments: Q={Q}, S={S}"
            if group.trigger == TRIGGER_SMALL_S and S.dim() >= n * n + 2 * n:
                return False, f"trigger dim-S-small not verified: S={S}"
    return True, f"{len(catalog)} entries, byte-identical across runs, clauses verified ({elapsed:.1f}s)"


CRITERIA = [
    ("1 tensor decompositions match the monomial oracle", criterion_1_lr_oracle),
    ("2 canonical socle chains", criterion_2_canonical_filtration),
    ("3 bundled example models", criterion_3_example_models),
    ("4 polynomial degree bounds", criterion_4_degree_bound),
    ("5 socle/radical duality", criterion_5_duality),
    ("6 layer containment bounds", criterion_6_blocks_and_embedding),
    ("7 gap inequality sweep", criterion_7_gap_inequality),
    ("8 stabilizer regressions", criterion_8_stabilizer_regressions),
    ("9 two-step decision procedure", criterion_9_decision_procedure),
    ("10 catalog determinism and finiteness", criterion_10_catalog),
]


def run_all() -> bool:
    ok = True
    for name, fn in CRITERIA:
        passed, detail = fn()
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} criterion {name}: {detail}")
    return ok
