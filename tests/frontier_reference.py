"""The bad frontier rebuilt from the stabilizer engine, the reference for the
table `repclass.bad_frontier` holds.

A bad core is a nonempty multiset of nontrivial bad labels, at most
n^2 - 1 copies of each, that the engine (`classify_with_report`) calls
`Bad`; badness passes to sub-multisets, so one walk, stopping each count
where the engine first answers otherwise, finds them all.  The frontier is
their maximal members, and the border the minimal multisets outside their
down-closure.

Run by hand to check the table at the ranks tier-1 leaves out:

    PYTHONPATH=src python tests/frontier_reference.py 5 6 7

prints, per rank, a JSON line: whether the table equals the engine's
frontier, whether every border multiset has a full-rank point, the sizes,
and the seconds each part took.
"""

from __future__ import annotations

import json
import sys
import time

from affrep.catalog import _walk
from affrep.config import DEFAULT_SEED, DEFAULT_TRIALS
from affrep.repclass import (BAD, bad_cores, bad_frontier, bad_list, classify_with_report,
                             stabilizer_dimension)
from affrep.schur import WeightMultiset


def frontier_labels(n):
    """The nontrivial bad labels at rank n, sorted: the table's coordinates."""
    return sorted(w for w in bad_list(n) if not w.is_trivial())


def engine_bad_cores(n, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """The bad cores as the engine answers them, walked label by label."""
    labels = [(w, n * n - 1) for w in frontier_labels(n)]
    return [WeightMultiset(n, e) for e in _walk(
        n, labels, keep=lambda ms: classify_with_report(ms, seed, trials)[0] == BAD)]


def count_vector(n, entries):
    """The counts of `entries` over `frontier_labels(n)`."""
    counts = dict(entries)
    return tuple(counts.get(w, 0) for w in frontier_labels(n))


def _below(a, b):
    return all(x <= y for x, y in zip(a, b))


def maximal(n, cores):
    """The entries tuples of `cores` under no other member, sorted by count
    vector."""
    vectors = {count_vector(n, c): c for c in cores}
    return [vectors[v] for v in sorted(vectors)
            if not any(u != v and _below(v, u) for u in vectors)]


def border(n, cores):
    """The minimal multisets outside the down-set `cores` (entries tuples,
    the empty one included), as `WeightMultiset`s: each is one copy of a
    label over a member, outside, with every copy less inside."""
    labels = frontier_labels(n)
    inside = {count_vector(n, c) for c in cores}
    found = set()
    for v in inside:
        for i in range(len(labels)):
            up = v[:i] + (v[i] + 1,) + v[i + 1:]
            if up not in inside and all(up[j] == 0 or up[:j] + (up[j] - 1,) + up[j + 1:] in inside
                                        for j in range(len(labels))):
                found.add(up)
    return [WeightMultiset(n, tuple((w, c) for w, c in zip(labels, v) if c))
            for v in sorted(found)]


def check_rank(n):
    """The hand record of rank n: the table against the engine's frontier,
    and the engine's stabilizer dimension on every border multiset."""
    t0 = time.perf_counter()
    engine = maximal(n, [c.entries for c in engine_bad_cores(n)])
    t1 = time.perf_counter()
    tabled = bad_frontier(n)
    edge = border(n, bad_cores(n))
    full_rank = all(stabilizer_dimension(ms).stab_dim == 0 for ms in edge)
    t2 = time.perf_counter()
    return {"n": n, "table_equals_engine_frontier": sorted(tabled) == sorted(engine),
            "frontier": len(tabled), "down_closure": len(bad_cores(n)), "border": len(edge),
            "border_full_rank": full_rank, "engine_sweep_s": round(t1 - t0, 2),
            "border_s": round(t2 - t1, 2)}


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(json.dumps(check_rank(int(arg))), flush=True)
