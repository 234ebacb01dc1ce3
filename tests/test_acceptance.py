"""Acceptance suite: every criterion at its stated tolerance, one line each.

Each test delegates to the corresponding selftest check, so `affrep selftest`
and this module always agree.  All comparisons are exact; the two timed
criteria carry their stated wall-clock budgets inside the checks.  The
weights the sweeps of criteria 1, 7 and 9 draw from are pinned below.
"""

import random

import pytest

from affrep import selftest
from affrep.config import DEFAULT_SEED
from affrep.schur import normalize
from affrep.selftest import CRITERIA


# what the sweeps over walked weights count: criterion 1 every pair of
# weights of size at most 4 at ranks 2, 3 and 4, criterion 7 the 56 rank-4
# weights of first part at most 5, each at degrees 0-5
SWEPT = {"1": "227 pairs agree in ", "7": "holds for 336 (weight, degree) pairs at rank 4"}


@pytest.mark.parametrize("name,check", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, check):
    passed, detail = check()
    print(f"{'PASS' if passed else 'FAIL'} criterion {name}: {detail}")
    assert passed, detail
    assert SWEPT.get(name.split()[0], "") in detail


# criterion 9's augmentation pool: the rank-3 weights of size at most 6
# outside the bad family and of dimension at most 50, in label order
AUGMENTATION_POOL = [(3,), (3, 1), (3, 2), (3, 3), (4,), (4, 1), (4, 2), (5,), (5, 1), (6,)]


def test_decision_criterion_draws_the_pinned_pool(monkeypatch):
    # the criterion draws from its pool by index with a seeded generator, so
    # its draws, each index among them, pin the pool's labels and order
    pool = [normalize(3, parts) for parts in AUGMENTATION_POOL]
    rng = random.Random(DEFAULT_SEED)
    want = [[pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 3))]
            for _ in range(100)]
    assert {w for extra in want for w in extra} == set(pool)
    drawn, of = [], selftest.TwoStepExtension.of

    def recorded(*args, **kwargs):
        if "W" in kwargs:
            drawn.append(kwargs["W"])
        return of(*args, **kwargs)

    monkeypatch.setattr(selftest.TwoStepExtension, "of", recorded)
    assert selftest.criterion_9_decision_procedure()[0]
    assert drawn == want
