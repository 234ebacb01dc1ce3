"""Models that several test modules run their checks over."""

import itertools
from fractions import Fraction

from affrep.matmodel import model_sym_dual, sl_only_model, tensor_model
from affrep.schur import Weight

# The model shapes of the `models` benchmark workload
# (`perfbench/workloads.py`, `MODEL_SLOTS`): sl-only(lambda) (x)
# sym-dual(n, l) for each (n, l, labels) slot, of dimension 90-160.  Two
# slots hold one self-dual label, so the five shapes have eight labels.
MODEL_SLOTS = (
    (3, 2, ((3, 0, 0), (3, 3, 0))),
    (3, 3, ((2, 1, 0),)),
    (4, 2, ((1, 1, 0, 0),)),
    (4, 1, ((2, 1, 0, 0), (2, 2, 1, 0))),
    (4, 2, ((2, 0, 0, 0), (2, 2, 2, 0))),
)
WORKLOAD_MODELS = [(n, l, parts) for n, l, labels in MODEL_SLOTS for parts in labels]


def workload_model(n: int, l: int, parts: tuple[int, ...]):
    return tensor_model(sl_only_model(Weight(n, parts)), model_sym_dual(n, l))


def sweep_labels() -> list[Weight]:
    """Every label at ranks 2-4 with parts <= 3 (34 labels, some built
    through the dual), in ascending (n, parts) order."""
    return [Weight(n, (*parts, 0)) for n in (2, 3, 4)
            for parts in itertools.product(range(4), repeat=n - 1)
            if list(parts) == sorted(parts, reverse=True)]


def fractional_model():
    """A model (not a valid one) holding the entry -5/7."""
    m = model_sym_dual(2, 1)
    m.sl_gens["H_1"].add_entry(0, 1, Fraction(-5, 7))
    return m
