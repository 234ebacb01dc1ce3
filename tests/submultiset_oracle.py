"""Reference enumeration of sub-multisets, by brute force over count
vectors, for the catalog's filters and the split search to be checked
against."""

from __future__ import annotations

import itertools


def sub_entries(pairs):
    """Every sub-multiset of (label, mult) pairs sorted by label, as the
    entries of a `WeightMultiset`: one per count vector from all zeros (the
    empty one, first) to the multiplicities, in lexicographic order."""
    for counts in itertools.product(*(range(m + 1) for _, m in pairs)):
        yield tuple((w, c) for (w, _), c in zip(pairs, counts) if c)
