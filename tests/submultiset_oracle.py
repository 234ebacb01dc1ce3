"""Reference enumerations of sub-multisets, for the catalog's walk and the
split search to be checked against: by brute force over count vectors, and
by growing multisets one label at a time as a monotone test allows."""

from __future__ import annotations

import itertools

from affrep.schur import WeightMultiset


def sub_entries(pairs):
    """Every sub-multiset of (label, mult) pairs sorted by label, as the
    entries of a `WeightMultiset`: one per count vector from all zeros (the
    empty one, first) to the multiplicities, in lexicographic order."""
    for counts in itertools.product(*(range(m + 1) for _, m in pairs)):
        yield tuple((w, c) for (w, _), c in zip(pairs, counts) if c)


def grown_reference(n, labels, keep):
    """Every nonempty multiset over `labels` (sorted) that `keep` accepts and
    that grows from an accepted one (the empty multiset to begin with) by
    one label no earlier in `labels` than any it holds.  Each multiset is
    reached once, by adding its labels in that order, and is passed to
    `keep` once.  `keep` must reject every extension of a multiset it
    rejects, and must reject some extension of each label's copies, or the
    growth never ends; then every multiset it accepts is found, since so is
    each of its prefixes."""
    grown = []
    todo = [(WeightMultiset.of(n, []), 0)]
    while todo:
        ms, first = todo.pop()
        for i in range(first, len(labels)):
            bigger = WeightMultiset.of(n, ms.entries + ((labels[i], 1),))
            if keep(bigger):
                grown.append(bigger)
                todo.append((bigger, i))
    return grown
