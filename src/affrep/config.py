"""Defaults for seeds, trial counts and resource caps, the cap checks, and
the errors raised when a cap or a model invariant is violated.

Every randomized subsystem draws from one generator seeded with the run's
seed, so identical (inputs, seed) always reproduce identical outputs.
"""

from __future__ import annotations

from itertools import islice

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 3
# random stabilizer points draw each coordinate from [-COORD_BOUND, COORD_BOUND]
COORD_BOUND = 100

# largest product of C(n, h) over the column heights h of a label, the
# cells of the exterior powers the irreducible builder works in; every
# catalog label fits
MAX_TENSOR_CELLS = 300_000
# largest rank `enumerate` builds the catalog at; rank 8 (2,024,463 lines,
# 1.36 GB) took 10.5-11.7 s at 241 MiB with the cap lifted, rank 7 4.7-5.4 s
MAX_CATALOG_RANK = 7
# largest matrix model dimension constructors will produce
DEFAULT_MAX_MODEL_DIM = 5_000
# largest rank a weight argument (`--n` of dim, dual, tensor, pieri and model
# sl-only), a check2step extension file or a model file may name; the Weyl
# dimension is one product of O(n^2) integers, the LR sweep recurses one frame
# per row (rank 1,500 overflows the stack) and validating a model builds the
# saff_n basis first (2.8 GB at rank 3,000); every command path stops far below
MAX_WEIGHT_RANK = 32
# largest size of the smaller weight `tensor` decomposes; the LR fillings
# recurse once per box of it and their count grows with it and the rank (4
# rows of 5 boxes take 1.5 s at rank 32)
MAX_LR_CONTENT = 16
# largest number of candidate outer shapes the LR decomposition may sweep
# for `tensor`, and for `check2step` per S label times the dual standard; a
# shape costs 20-640 us of fillings below the content cap, more for a larger
# smaller weight (the slowest product timed under this bound took 0.76 s),
# and the rank-32 staircase with 4 boxes (37,388 shapes, 2 s) is refused
MAX_LR_SHAPES = 3_000
# largest number of horizontal strips (one summand each) `pieri` lets its
# decomposition build; a strip costs 12-40 us to build and print, more at a
# higher rank, and a huge k at rank 3 or more has astronomically many
MAX_PIERI_STRIPS = 10_000
# largest stabilizer work, trials x rows x (n^2 - 1) x min(rows, n^2 - 1)
# with one row per coordinate of a counted summand copy, that
# `stabilizer_dimension` starts; the slowest input timed under it (rank-12
# exterior square and its dual, one trial) took 1.8 s, and three copies of
# the rank-12 exterior square (12.1 M, 2.4 s) are refused
MAX_STABILIZER_WORK = 2_500_000
# largest number of W2 sub-multisets the split search of `check2step` tries;
# they are made one at a time by dimension, and the search stops at the
# first accepted one, so the cap is checked as each candidate comes, not
# before the search: a W with more sub-multisets is answered when an early
# one is accepted.  Trying 2^15 trivial W2 against a bad Q took 0.6-0.7 s on a
# 2-core x86-64 box under CPython 3.11
MAX_SPLIT_CANDIDATES = 2 ** 15


class ResourceCapError(RuntimeError):
    """A constructor refused to build something above a configured cap."""

    def __init__(self, cap_name: str, needed, cap):
        self.cap_name = cap_name
        self.needed = needed
        self.cap = cap
        super().__init__(f"resource cap exceeded: {cap_name} needs {needed}, cap is {cap}")


def check_sweep(name: str, sweep, cap: int) -> None:
    """Refuse a sweep of more than `cap` items, counted no further than one
    past the cap."""
    if sum(1 for _ in islice(sweep, cap + 1)) > cap:
        raise ResourceCapError(name, f"more than {cap}", cap)


def check_model_dim(dim: int, max_dim: int) -> None:
    """Refuse a model of dimension above `max_dim` (`--max-model-dim`)."""
    if dim > max_dim:
        raise ResourceCapError("max_model_dim", dim, max_dim)


def check_rank(n: int, name: str) -> int:
    """`n`, refused above MAX_WEIGHT_RANK with `name` naming it in the error."""
    if n > MAX_WEIGHT_RANK:
        raise ValueError(f"{name} {n} exceeds the largest supported rank {MAX_WEIGHT_RANK}")
    return n


class ModelInvariantError(RuntimeError):
    """A matrix model failed one of its defining relations."""

    def __init__(self, relation: str):
        self.relation = relation
        super().__init__(f"model invariant violated: {relation}")

