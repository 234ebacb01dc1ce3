"""Finite catalog of exceptional two-step candidates.

The finiteness clauses bound the search: either the quotient Q is a bad sum
(with fewer than n^2 - 1 trivial summands), or the submodule S is small
(dim S < n^2 + 2n).  The clauses are made disjoint: the second admits only
the pairs whose Q is not bad, since the first already admits the others,
so each pair is produced once and its trigger is the clause that admits
it.  Pairs must satisfy the structural containments both ways; each clause
draws one side from a product with the other (S from Q (x) C^n, or Q from
S (x) dual C^n), so only the other containment is tested, as integer dot
products of each candidate's count vector with columns built once per
product.  Every walked multiset comes from one walk over count vectors,
`_walk`, the partners of a trivially padded multiset past a base come
from a shift (below), and the pairs are kept by Q, sorted by Q and S, so
runs are byte-identical.

Padding with trivials shifts the partners.  Write ad for the traceless
adjoint.  A label u (x) dual C^n holds the trivial only for u = C^n, and
then once, and C^n (x) dual C^n = 1 + ad.  In clause (i), every S of
Q = t*1 + C (C the core) holds t copies of C^n, so S = t*C^n + S'' with
S'' inside C (x) C^n, and Q lies in S (x) dual C^n exactly when C lies in
S'' (x) dual C^n + t*ad; once t >= m_ad(C) the S'' no longer depend on t.
Clause (ii) mirrors it: every Q of S = a*1 + S' is a*dual C^n + Q'' with
Q'' inside S' (x) dual C^n and Q's trivials those of Q'', and S lies in
Q (x) C^n exactly when S' lies in Q'' (x) C^n + a*ad; once a >= m_ad(S')
the Q'' are fixed.  (At n = 2, where C^n is its own dual, both hold.)  So
the partners are walked only for the paddings up to a base max(m_ad, 1),
not 0: the walk drops the empty multiset, and every base entry must hold
the shifted label.  A larger padding takes the base list with the
difference added to each entry's C^n count (clause i), dropping the S
beyond a dim-S cap, or to its dual C^n count (clause ii).  The shift keeps
each list's order and shares the entries' other (label, count) pairs.

A quotient's class is `repclass.classify`'s, asked when a line is
decided, and no engine call is made.  A quotient is classified as its
nontrivial part, its core, and the bad cores are the down-closure of the
tabulated bad frontier (`repclass.bad_cores`), the empty core included;
each is padded with 0 to the cap of trivials.  Clause (i)'s quotients are
Bad: they are the padded cores.  A clause (ii) Q with a label outside the
bad family is Good.  Any other clause (ii) Q holds no more trivials than
the cap and is not a padded bad core, so its core lies outside the
down-closure and holds a border multiset of the table, one at which the
engine found a point where the action has full rank; the image rows of
Q = G + R at (g, r) contain those of G at g (rank is lower
semicontinuous), so Q too has a finite generic stabilizer, and it is
GoodHeuristic (the `repclass` docstring states what the table is trusted
for).  Every rank the catalog accepts is tabulated, so the table answers
each of them with no point drawn.

With W = 0 the decision reads few of a line's fields, its decision
signature (`decision_signature`), and many lines share one: the rank-3
catalog's 3,015 have 62, and `serialize.write_catalog` decides and encodes
one verdict per signature.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import mul

from .config import DEFAULT_SEED, MAX_CATALOG_RANK
from .repclass import bad_cores
from .rationality import (
    FREE,
    TwoStepExtension,
    Verdict,
    _decide,
    check_generic_freeness,
    rank_labels,
)
from .schur import Weight, WeightMultiset, dual, lr_decompose, normalize, tensor_counts, weyl_dim

TRIGGER_BAD_Q = "Q-bad"
TRIGGER_SMALL_S = "dim-S-small"


# a quotient of a catalog, the clause that admits it, and its submodules S
# as `_walk` entries tuples in increasing order, one line each
QuotientGroup = namedtuple("QuotientGroup", "Q trigger subs")


class Catalog:
    """The catalog of one rank and seed as its quotient groups in file
    order (increasing Q).  A line is a group and one of its `subs`; the
    catalog's `len` is its number of lines."""

    def __init__(self, n: int, seed: int, groups: list[QuotientGroup]):
        self.n, self.seed, self.groups = n, seed, groups

    def __len__(self) -> int:
        return sum(len(group.subs) for group in self.groups)

    def verdict(self, group: QuotientGroup, s: tuple) -> Verdict:
        """The verdict of the line (Q of `group`, S = `s`) as a W = 0
        instance, decided by `check2step`'s decision at the catalog's seed;
        the table classifies Q with no engine call.  Lines of one signature
        (`decision_signature`) get equal verdicts."""
        empty = WeightMultiset(self.n, ())
        instance = TwoStepExtension(self.n, WeightMultiset(self.n, s), group.Q, empty)
        return _decide(instance, self.seed)


def decision_signature(catalog: Catalog, group: QuotientGroup) -> tuple[tuple, bool]:
    """The decision signature that the lines of `group` share, and whether
    each line extends it by its dim S.  A line's signature holds the values
    its verdict is decided from: with W = 0, `_decide` reads Q only through
    the freeness gate (status, detail) and, past a passed gate, its trivial
    count; S only through its dimension; and its one split candidate,
    W2 = 0, takes the class of Q, which is a passed gate's detail.  So the
    signature is (gate,), extended by (trivial count, dim S) when the gate
    is Free, and lines of one signature get equal verdicts.  Only clause
    (ii) passes the gate."""
    gate = check_generic_freeness(group.Q)
    if gate[0] != FREE:
        return (gate,), False
    return (gate, group.Q.count(rank_labels(catalog.n).triv)), True


def _walk(n: int, labels, needs=(), caps=(), keep=None) -> list[tuple]:
    """Every nonempty sub-multiset of `labels` ((label, most) pairs sorted
    by label) whose count vector c meets each need and cap and passes
    `keep`, as `WeightMultiset` entries in lexicographic order of the count
    vectors.  Needs and caps are (column, bound) pairs: sum_j c_j *
    column_j is at least a need's bound and at most a cap's.

    The count vectors are walked depth first, one coordinate at a time.  At
    coordinate i the values that can still fit form one range: at least
    each need's shortfall, less the most the later coordinates can add
    (their `most` times column entry), over its entry; at most `most` and
    each cap's room over its entry.  The needs hold on an up-set and the
    caps on a down-set, so every vector the walk completes fits, and none
    is tested.  `keep` is asked about the prefix plus c copies of label i
    for c = 1, 2, ... until it first rejects one, so each multiset reaches
    it once; it must reject every extension of a multiset it rejects, and
    then each multiset it accepts is found, since so are its prefixes."""
    mosts = [m for _, m in labels]
    # reach[i]: the most coordinates i and later add to a need's column
    reaches = [list(itertools.accumulate(map(mul, reversed(mosts), reversed(col)), initial=0))[::-1]
               for col, _ in needs]
    found = []
    last = len(labels) - 1

    def walk(i, prefix, short, room):
        w, hi = labels[i]
        lo = 0
        for (col, _), reach, gap in zip(needs, reaches, short):
            gap -= reach[i + 1]
            if gap > 0:
                if not col[i]:
                    return
                lo = max(lo, -(-gap // col[i]))
        for (col, _), r in zip(caps, room):
            if col[i]:
                hi = min(hi, r // col[i])
        if keep is not None:
            most, hi = hi, 0
            while hi < most and keep(WeightMultiset(n, prefix + ((w, hi + 1),))):
                hi += 1
        for c in range(lo, hi + 1):
            sub = prefix + ((w, c),) if c else prefix
            if i == last:
                found.append(sub)
            else:
                walk(i + 1, sub, [s - c * col[i] for (col, _), s in zip(needs, short)],
                     [r - c * col[i] for (col, _), r in zip(caps, room)])

    if labels:
        walk(0, (), [bound for _, bound in needs], [bound for _, bound in caps])
    # the empty vector comes first when it fits (no need asks for anything)
    return found[1:] if found and not found[0] else found


def irreps_up_to_dim(n: int, max_dim: int) -> list[Weight]:
    """All normalized weights of dimension at most max_dim, sorted by
    (dimension, label).

    A weight is walked as the multiset of its fundamental weights, a_i
    copies of the i-th for its Dynkin labels a_i = parts[i - 1] - parts[i].
    The dimension is nondecreasing in each a_i (each factor of Weyl's
    formula grows along the fundamental weights), so once a weight exceeds
    max_dim, so does every weight that adds fundamental weights to it, and
    each a_i adds at least a_i.  (In partition coordinates no such pruning
    is sound: the dimension is not monotone in the later parts.)
    """
    if max_dim < 1:
        raise ValueError("dimension bound must be >= 1")
    fundamentals = [(Weight(n, (1,) * i + (0,) * (n - i)), max_dim) for i in range(1, n)]

    def summed(entries) -> Weight:
        return Weight(n, tuple(sum(m * w.parts[j] for w, m in entries) for j in range(n)))

    walked = _walk(n, fundamentals, keep=lambda ms: weyl_dim(summed(ms.entries)) <= max_dim)
    found = [Weight(n, (0,) * n)] + [summed(e) for e in walked]
    return sorted(found, key=lambda w: (weyl_dim(w), w.parts))


def _partners(n: int, x, factor: Weight, caps=()) -> list[tuple]:
    """`_walk` over the sub-multisets y of x (x) (irrep factor), x being
    (label, mult) pairs, with x contained in y (x) dual(factor) and, for
    each (weight of a label, most) cap, the weights of y's summands summing
    to at most `most`.

    With x fixed the containment is linear in the count vector c of y: for
    each (w, m) of x, sum_j c_j * mult(w in labels_j (x) dual(factor)) >= m,
    the sum `tensor_counts` would form for w; each such column is a need."""
    labels, back = sorted(tensor_counts(x, factor).items()), dual(factor)
    prods = [dict(lr_decompose(u, back).entries) for u, _ in labels]
    needs = [([p.get(w, 0) for p in prods], m) for w, m in x]
    return _walk(n, labels, needs, [([f(w) for w, _ in labels], most) for f, most in caps])


def _padded_partners(n: int, core: tuple, top: int, factor: Weight, caps=(), dim_cap=None):
    """(core plus p trivials, its sorted `_partners` over `factor` under
    `caps`) for p = 0..top, the empty multiset left out; `core` holds no
    trivial.  Only the paddings up to the base max(m_ad(core), 1) are
    walked: a larger one takes the base list with p - base more copies of
    `factor` in each entry (module docstring), those of dimension at most
    `dim_cap` when one is given.  A shifted entry shares the base entry's
    other pairs, and each shifted pair is made once."""
    triv = Weight(n, (0,) * n)
    base = min(max(dict(core).get(normalize(n, [2] + [1] * (n - 2)), 0), 1), top)
    for p in range(base + 1):
        if p or core:
            padded = ((triv, p),) + core if p else core
            found = sorted(_partners(n, padded, factor, caps))
            yield padded, found
    if top > base:
        # each base entry as (pairs before factor's, its count, pairs after, dim)
        spots = []
        for s in found:
            i = next(i for i, (w, _) in enumerate(s) if w == factor)
            spots.append((s[:i], s[i][1], s[i + 1:],
                          0 if dim_cap is None else sum(m * weyl_dim(w) for w, m in s)))
        step, made = weyl_dim(factor), {}
        for p in range(base + 1, top + 1):
            k = p - base
            yield ((triv, p),) + core, [head + (made.setdefault(c + k, (factor, c + k)),) + tail
                                        for head, c, tail, d in spots
                                        if dim_cap is None or d + k * step <= dim_cap]


def _cap(name: str, value: int | None, least: int, clause_bound: int) -> int:
    """The requested cap, or the clause bound when none is given; a cap
    below `least` or beyond the clause bound is refused."""
    if value is None:
        return clause_bound
    if value < least:
        raise ValueError(f"cap violated: {name} {value} is below {least}")
    if value > clause_bound:
        raise ValueError(f"cap violated: {name} {value} exceeds the clause bound {clause_bound}")
    return value


def enumerate_exceptional_candidates(
    n: int,
    max_trivials: int | None = None,
    max_dim_s: int | None = None,
    seed: int = DEFAULT_SEED,
) -> Catalog:
    """All (Q, S) candidate pairs admitted by the finiteness clauses, by Q:
    each with the clause that admits it as its trigger and its S list,
    sorted by Q and each list by S.  The verdict of a pair's W = 0 instance
    is decided when its line is written, at `seed`.

    Caps cannot exceed the clause thresholds (n^2 - 2 trivial summands,
    n^2 + 2n - 1 for dim S); asking for more is refused since nothing
    beyond them is finite.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    if n > MAX_CATALOG_RANK:
        raise ValueError(f"enumeration cap: rank must be at most {MAX_CATALOG_RANK}, got {n}")
    trivial_cap = _cap("max_trivials", max_trivials, 0, n * n - 2)
    dim_s_cap = _cap("max_dim_s", max_dim_s, 1, n * n + 2 * n - 1)

    base = rank_labels(n)
    triv, std, dstd = base.triv, base.std, base.dstd
    # clause (i): the bad quotients under the trivial cap and n^2 - 1 copies
    # of any other label (module docstring).  A quotient is classified as
    # its nontrivial part (its core) is, so the bad cores are the tabulated
    # ones, the empty core among them, each padded with 0 to `trivial_cap`
    # trivial summands; the trivial label sorts first, so a padded entries
    # tuple is canonical.  S is drawn from Q (x) standard, so only Q inside
    # S (x) dual standard is open, and S is capped only when a cap is asked
    # for
    cores = sorted(bad_cores(n))
    dim_caps = [] if max_dim_s is None else [(weyl_dim, max_dim_s)]
    bad_subs = dict(pair for core in cores
                    for pair in _padded_partners(n, core, trivial_cap, std, dim_caps, max_dim_s))

    # clause (ii): small submodules, over multisets of small irreducibles,
    # each core with every padding under the dim-S cap; Q runs over
    # sub-multisets of S (x) dual standard, so only S inside Q (x) standard
    # is open.  Clause (i) already admits every pair whose Q is bad, under
    # the same caps, so this clause admits only the rest, which the table
    # classifies as good (module docstring)
    small_subs: dict[tuple, list[tuple]] = {}
    small = [w for w in sorted(irreps_up_to_dim(n, dim_s_cap)) if w != triv]
    dims = [weyl_dim(w) for w in small]
    trivial_caps = [(Weight.is_trivial, trivial_cap)]
    for core in [()] + _walk(n, [(w, dim_s_cap // d) for w, d in zip(small, dims)],
                             caps=[(dims, dim_s_cap)]):
        room = dim_s_cap - sum(m * weyl_dim(w) for w, m in core)
        for s, qs in _padded_partners(n, core, room, dstd, trivial_caps):
            for q in qs:
                if q not in bad_subs:
                    small_subs.setdefault(q, []).append(s)

    # the clauses share no Q, and each Q's entries tuple is its sort key
    groups = []
    for q in sorted(bad_subs.keys() | small_subs.keys()):
        if q in small_subs:
            groups.append(QuotientGroup(WeightMultiset(n, q), TRIGGER_SMALL_S,
                                        sorted(small_subs[q])))
        elif bad_subs[q]:
            groups.append(QuotientGroup(WeightMultiset(n, q), TRIGGER_BAD_Q, bad_subs[q]))
    return Catalog(n, seed, groups)
