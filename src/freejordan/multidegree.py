"""Multigraded components of finitely generated free Jordan algebras.

Once generators repeat, the multilinear translate machinery no longer
applies, so everything here happens directly inside the span of normal
monomials of one fixed content vector.  The relation space of a content is
spanned by two kinds of rows, built degree by degree:

  * fresh instances of the four-slot defining identity whose slots hold
    normal monomials with contents summing to the target, and
  * rows of lower content with one extra factor u of degree one or two
    appended (appending keeps normal monomials normal, so no rewriting
    is needed).

Appending only small factors loses nothing: multiplying a relation row by a
deeper monomial can be rewritten, via the straightening identity, into
appends of strictly smaller factors plus one fresh instance of the defining
identity with the row's monomials in the long slot, and both of those are
already in the span.

The appended rows are never built.  Appending u is an injective, order
keeping relabelling of columns, and the images of distinct u are disjoint
(u is the last factor), so the lower contents' reduced echelon bases,
relabelled, already form the reduced echelon basis of everything the
appended rows span.  Each content is therefore ranked, per prime, after
its lower contents (lowest degree first), seeding its accumulator with the
direct sum of their bases (RankAccumulator.direct_sum, no elimination) and
adding only its own fresh rows; the exact Component does the same with the
lower components' pivot rows.  The ranks, unlucky primes included, and the
echelon forms are those of the full row set.

Fresh rows are assembled from a product table kept for one computation
rather than by straightening six large trees per slot tuple: one
_seeded_ranks call, one component call (all of its lower contents), one
operad.consequences(n), one tkk truncation (its components and its
structure constants), or one relation_rows call on its own.  The table
interns normal monomials as ints, straightens one two-factor tree per
distinct pair of ids, and keeps each such product as int64 arrays keyed
by the pair.  Rows are built as arrays too, _CHUNK slot tuples at a
time: the six terms of the identity are expanded level by level,
((b1 b2) b3) b4 as three pair products in turn and (b1 b2)(b3 b4) as
every term of one pair times every term of the other, and the terms of
each row are summed per monomial.  The rows come out as one CSR triple
(indptr, ids, vals), which _seeded_ranks hands to RankAccumulator.add as
it is; relation_rows is its view as dicts.  A row built this way differs
from the literal straightened identity instance by straightened relation
elements, and restricting slots to normal monomials only re-spans the
same rows by multilinearity, so the computed span always sits inside the
true relation image: reported dimensions can only err upward.  That they
do not is checked against the multilinear decomposition through every
small content (see the weight-space tests) and against independently
published values in higher degree.

The table owns all of its computation's straightening state, its own
trees.straightener() memo included, and the state goes with the table.
Only normal_monomials and _nonzero_subcontents, bounded by the size
refusals, are cached for the process.

In the multilinear content (1, ..., 1) `operad.consequences` keeps one
representative per S_n-orbit.  Straightening commutes with relabelling, and
fresh instances whose slots have the same degrees and normal types differ by
a permutation of the labels, so one instance per tuple of (slot degree, slot
type), on consecutive labels and up to the slot-1/2/4 symmetry, carries the
orbit.  Every append is likewise a relabelling of a degree-(n-1)
representative times x_n or a degree-(n-2) one times (x_{n-1} x_n).

Relation rows are integral: straightening only ever halves, so every
product in the table is ints over one power of two, 2**s, as the table's
straightener returns it.  Each term of a row is an int times 2**-s; the
terms are shifted left onto the row's largest s, added, and divided by
their common twos (never past that s), so each row is scaled, where it
is built, by the least power of two that makes it integral, which moves
neither its span over Q nor its rank modulo an odd prime.  Every int on
the way stays below _INT_BOUND = 2**62 in absolute value, checked at
each product of two coefficients and for each row's shifted sum, so
int64 never wraps; a coefficient past the bound raises ArithmeticError.
Dimensions come from modular ranks, certified by the walk rule of
`linalg.certified_ranks`; the exact Component view keeps a rational
echelon form instead, so products can be expressed in an explicit
quotient basis.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cache
from math import factorial
from numbers import Integral

import numpy as np

from .errors import InfeasibleError
from .linalg import (
    CSRRows,
    ExactRowReducer,
    RankAccumulator,
    certified_ranks,
    choose_primes,
)
from .trees import (
    monomial_key,
    monomial_to_tree,
    node,
    normal_types,
    straightener,
)


def _check_content(delta) -> tuple:
    delta = tuple(delta)
    if any(isinstance(x, bool) or not isinstance(x, Integral) for x in delta):
        raise ValueError("content counts must be integers, got %r" % (delta,))
    delta = tuple(int(x) for x in delta)
    if not delta or any(x < 0 for x in delta) or sum(delta) == 0:
        raise ValueError("content must list a nonnegative count per generator")
    return delta


@cache
def _nonzero_subcontents(delta: tuple) -> tuple:
    out = []
    for s in itertools.product(*(range(d + 1) for d in delta)):
        if sum(s):
            out.append(s)
    return tuple(out)


@cache
def normal_monomials(delta: tuple) -> tuple:
    """Canonical normal-monomial keys with the given content."""
    n = sum(delta)
    if n == 0:
        return ()
    if n <= 2:
        labels = tuple(i + 1 for i, c in enumerate(delta) for _ in range(c))
        return ((labels, ()),)
    # every key of degree >= 3 is a key of degree >= 2 with its last
    # factor appended, and monomial_key recanonicalises a first factor
    out = set()
    for u, content in _unit_factors(len(delta)):
        lower = tuple(a - b for a, b in zip(delta, content))
        if min(lower) >= 0 and sum(lower) >= 2:
            out.update(
                monomial_key(m[0], m[1] + (u,)) for m in normal_monomials(lower)
            )
    return tuple(sorted(out))


def _slot_splits(delta: tuple):
    """Ordered 4-tuples of nonzero contents summing to delta."""
    for s1 in _nonzero_subcontents(delta):
        r1 = tuple(a - b for a, b in zip(delta, s1))
        for s2 in _nonzero_subcontents(r1) if sum(r1) else ():
            r2 = tuple(a - b for a, b in zip(r1, s2))
            for s3 in _nonzero_subcontents(r2) if sum(r2) else ():
                s4 = tuple(a - b for a, b in zip(r2, s3))
                if sum(s4):
                    yield s1, s2, s3, s4


def _unit_factors(g: int):
    """Degree-1 and degree-2 factors on g generators, with their contents."""
    for i in range(1, g + 1):
        content = tuple(1 if k == i - 1 else 0 for k in range(g))
        yield (i,), content
    for i in range(1, g + 1):
        for j in range(i, g + 1):
            content = tuple(
                (1 if k == i - 1 else 0) + (1 if k == j - 1 else 0)
                for k in range(g)
            )
            yield (i, j), content


# slot tuples whose rows _Products.rows assembles at once
_CHUNK = 512

# every int the row builder makes (a product of two coefficients, a row's
# terms shifted onto its power of two, and their sum) stays below this in
# absolute value, so int64 never wraps; a larger one raises ArithmeticError
_INT_BOUND = 2**62


def _ragged(starts, counts):
    """(src, at): for each i, at runs over starts[i], ..., starts[i] +
    counts[i] - 1, and src repeats i as often."""
    src = np.repeat(np.arange(len(counts)), counts)
    at = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return src, at + np.arange(len(src))


def _runs(a):
    """The indices at which the runs of equal values in a begin."""
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return np.flatnonzero(first)


def _magnitude(a) -> int:
    return max(int(a.max()), -int(a.min())) if len(a) else 0


def _bounded(bound) -> None:
    if bound > _INT_BOUND:
        raise ArithmeticError(
            "relation row coefficients reach %.3g, past the int64 bound 2**62"
            % float(bound)
        )


class _Products:
    """Products of normal monomials for one computation, and the only owner
    of its straightening state.

    Monomials are interned as ids (`ids`, `mons`).  mul(i, j) straightens
    one product through the table's own trees.straightener(), whose memo
    goes with the table, as (s, ((id, int), ...)), the ints times 2**-s.
    rows() reads products only through mul and keeps each one it reads,
    in arrays keyed by the sorted pair code (min id) << 32 | max id: per
    code its shift, and its terms as a span of one id array and one
    coefficient array.
    """

    def __init__(self):
        self.ids: dict = {}
        self.mons: list = []
        self._straighten = straightener()
        # one sentinel code above every pair's keeps lookups in range
        self._codes = np.array([np.iinfo(np.int64).max])
        self._shift = self._start = self._len = np.zeros(1, dtype=np.int64)
        self._ids = self._vals = np.zeros(0, dtype=np.int64)

    def id(self, m: tuple) -> int:
        i = self.ids.get(m)
        if i is None:
            i = self.ids[m] = len(self.mons)
            self.mons.append(m)
        return i

    def mul(self, i: int, j: int) -> tuple:
        tree = node(monomial_to_tree(self.mons[i]), monomial_to_tree(self.mons[j]))
        s, terms = self._straighten(tree)
        return s, tuple((self.id(m), c) for m, c in terms)

    def _pairs(self, m, n):
        """Positions in the arrays of the products of the ids m[k] and
        n[k]; the products not kept yet are read through mul first."""
        code = np.minimum(m, n) << 32 | np.maximum(m, n)
        at = np.searchsorted(self._codes, code)
        kept = self._codes[at] == code
        if not kept.all():
            new = code[~kept]
            new = new[np.argsort(new, kind="stable")]
            new = new[_runs(new)]
            shifts, lens, ids, vals = [], [], [], []
            for c in new.tolist():
                s, terms = self.mul(c >> 32, c & 0xFFFFFFFF)
                shifts.append(s)
                lens.append(len(terms))
                for i, x in terms:
                    ids.append(i)
                    vals.append(x)
            lens = np.array(lens, dtype=np.int64)
            starts = len(self._ids) + np.cumsum(lens) - lens
            self._ids = np.concatenate([self._ids, np.array(ids, dtype=np.int64)])
            self._vals = np.concatenate([self._vals, np.array(vals, dtype=np.int64)])
            # a stable sort of two sorted runs is one merge
            order = np.argsort(np.concatenate([self._codes, new]), kind="stable")
            self._codes, self._shift, self._start, self._len = (
                np.concatenate([old, add])[order]
                for old, add in ((self._codes, new), (self._shift, shifts),
                                 (self._start, starts), (self._len, lens))
            )
            at = np.searchsorted(self._codes, code)
        return at

    def _times(self, x, s, m, n):
        """The terms x[k] * 2**-s[k] * (m[k] n[k]), expanded: (src, x, s,
        ids), src[t] the k whose product gave term t."""
        at = self._pairs(m, n)
        src, k = _ragged(self._start[at], self._len[at])
        c = self._vals[k]
        _bounded(_magnitude(x) * _magnitude(c))
        return src, x[src] * c, s[src] + self._shift[at][src], self._ids[k]

    def rows(self, slots) -> tuple:
        """The defining identity at each row (b1, b2, b3, b4) of the id
        array slots, in normal coordinates, each row scaled by the least
        power of two that makes its coefficients integers: CSR arrays
        (indptr, ids, vals), one row per slot tuple in order, zero rows
        dropped, each row's ids increasing.  Slot tuples are assembled
        _CHUNK at a time."""
        slots = np.asarray(slots, dtype=np.int64).reshape(-1, 4)
        parts = [self._chunk_rows(slots[a : a + _CHUNK])
                 for a in range(0, len(slots), _CHUNK)]
        counts, ids, vals = (
            np.concatenate([np.zeros(0, dtype=np.int64)] + [part[j] for part in parts])
            for j in range(3)
        )
        return np.concatenate([[0], np.cumsum(counts)]), ids, vals

    def _chunk_rows(self, slots) -> tuple:
        # (entries per nonzero row, ids, vals) for one chunk of rows()
        k = len(slots)
        b1, b2, b3, b4 = slots.T
        # the six products of two slots: (b1 b2), (b2 b4), (b1 b4) start
        # the left combs, and each times (b3 b4), (b1 b3), (b2 b3) gives a
        # product of two pairs; term src // k is the pair, src % k the row
        src, x, s, m = self._times(
            np.ones(6 * k, dtype=np.int64),
            np.zeros(6 * k, dtype=np.int64),
            np.concatenate([b1, b2, b1, b3, b1, b2]),
            np.concatenate([b2, b4, b4, b4, b3, b3]),
        )
        pair, row = np.divmod(src, k)
        comb = np.flatnonzero(pair < 3)
        # ((b1 b2) b3) b4, ((b2 b4) b3) b1 and ((b1 b4) b3) b2
        t, lx, ls, lm = self._times(x[comb], s[comb], m[comb], b3[row[comb]])
        lrow = row[comb][t]
        ln = np.stack([b4, b1, b2])[pair[comb][t], lrow]
        # -(b1 b2)(b3 b4), -(b2 b4)(b1 b3) and -(b1 b4)(b2 b3): each term of
        # the first pair times each of the second in the same row; terms
        # come in src order, so those of one src are contiguous
        per = np.bincount(src, minlength=6 * k)
        q = src[comb] + 3 * k
        a, b = _ragged((np.cumsum(per) - per)[q], per[q])
        a = comb[a]
        _bounded(_magnitude(x) ** 2)
        t, x, s, m = self._times(
            np.concatenate([lx, -x[a] * x[b]]),
            np.concatenate([ls, s[a] + s[b]]),
            np.concatenate([lm, m[a]]),
            np.concatenate([ln, m[b]]),
        )
        row = np.concatenate([lrow, row[a]])[t]
        return _summed_rows(k, len(self.mons), row, x, s, m)


def _summed_rows(k: int, nids: int, row, x, s, m) -> tuple:
    """(entries per nonzero row, ids, vals) of the k rows holding the terms
    x[t] * 2**-s[t] * m[t] in row[t]: each row's terms shifted onto its
    largest power of two, summed per id and divided by their common twos
    (at most that power)."""
    key = row * nids + m
    order = np.argsort(key, kind="stable")
    key, x, s = key[order], x[order], s[order]
    row = key // nids
    starts = _runs(row)
    top = np.zeros(k, dtype=np.int64)
    top[row[starts]] = np.maximum.reduceat(s, starts)
    shift = top[row] - s
    # each row's sum of |x| * 2**shift bounds its terms and its sums
    mag = np.ldexp(np.abs(x.astype(np.float64)), shift)
    _bounded(np.add.reduceat(mag, starts).max(initial=0))
    starts = _runs(key)
    vals = np.add.reduceat(x << shift, starts)
    keep = vals != 0
    key, vals = key[starts][keep], vals[keep]
    row = key // nids
    starts = _runs(row)
    counts = np.bincount(row, minlength=k)[row[starts]]
    bits = np.bitwise_or.reduceat(vals, starts)
    # a row that is integral at 2**0 is never multiplied by 2
    twos = np.minimum(np.log2(bits & -bits).astype(np.int64), top[row[starts]])
    return counts, key % nids, vals >> np.repeat(twos, counts)


def _lower_contents(delta: tuple):
    """(u, delta - content(u)) for each unit factor u whose lower content
    has relations (total degree at least 4)."""
    for u, content in _unit_factors(len(delta)):
        lower = tuple(a - b for a, b in zip(delta, content))
        if min(lower) >= 0 and sum(lower) >= 4:
            yield u, lower


def _appended(m: tuple, u: tuple) -> tuple:
    # a monomial of degree >= 4 has a factor, and a factor appended behind
    # it leaves the key canonical; the key order is kept, and distinct u
    # give disjoint images, u being the last factor
    return m[0], m[1] + (u,)


def _fresh_rows(delta: tuple, table: _Products) -> tuple:
    """The content's fresh instances of the defining identity as CSR
    arrays (indptr, ids, vals) over table's ids, one row per slot tuple
    up to the slot-1/2/4 symmetry, in slot-split order."""
    if sum(delta) < 4:
        return table.rows(())
    ids = {s: [table.id(m) for m in normal_monomials(s)]
           for s in _nonzero_subcontents(delta)}
    slots = []
    seen = set()
    for s1, s2, s3, s4 in _slot_splits(delta):
        for v3 in ids[s3]:
            for v1 in ids[s1]:
                for v2 in ids[s2]:
                    for v4 in ids[s4]:
                        # the identity is symmetric in slots 1, 2, 4
                        key = (tuple(sorted((v1, v2, v4))), v3)
                        if key not in seen:
                            seen.add(key)
                            slots.append((v1, v2, v3, v4))
    return table.rows(slots)


def _row_dicts(table: _Products, indptr, ids, vals) -> tuple:
    """CSR rows over table's ids as {monomial: int} dicts."""
    mons = [table.mons[i] for i in ids.tolist()]
    vals = vals.tolist()
    return tuple(dict(zip(mons[a:b], vals[a:b]))
                 for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()))


def relation_rows(delta: tuple, table: _Products | None = None) -> tuple:
    """Fresh instances of the defining identity in one content, as dicts.
    With the relations of its lower contents, each with its unit factor
    appended (_lower_contents, _appended), they span the content's
    relations.  Products come from table, a fresh one if none is given."""
    if table is None:
        table = _Products()
    return _row_dicts(table, *_fresh_rows(delta, table))


# (8, 2, 1), the largest content checked against published values, has a
# span estimate of 27,225 (9,520 normal monomials); seeded, its X starts at
# the summed lower ranks, 9,076 x 444, and ends at 9,270 x 250 (17.7 s,
# 297 MB peak RSS on a 2-core host).  (6, 2, 2) at 42,840 has 12,083 and (7, 2, 2)
# at 108,900 has 30,300, an echelon basis of up to 30,300**2/4 int64
# entries (1.8 GB) beside its relation rows; the bound stays until such a
# run is measured within 8 GB
_MAX_SPAN = 36_000


def _span_estimate(delta: tuple) -> int:
    n = sum(delta)
    mult = factorial(n)
    for d in delta:
        mult //= factorial(d)
    return len(normal_types(n)) * mult


# the most generators a content may use
MAX_PARTS = 3


def multidegree_dim(delta, primes=None) -> int:
    """Dimension of the content-delta component of the free Jordan algebra.

    Refuses contents on more than MAX_PARTS generators, total degree above
    11, and contents whose span estimate exceeds _MAX_SPAN, before any
    monomial is built.
    """
    delta = _check_content(delta)
    used = sum(1 for x in delta if x)
    if used > MAX_PARTS:
        raise ValueError(
            "%d generators in use; at most %d are supported" % (used, MAX_PARTS)
        )
    n = sum(delta)
    span = _span_estimate(delta)
    estimate = "up to %d spanning monomials" % span
    if n > 11:
        raise InfeasibleError(
            "content %s has total degree %d > 11" % (delta, n), estimate=estimate
        )
    if span > _MAX_SPAN:
        raise InfeasibleError(
            "content %s has a span estimate above %d" % (delta, _MAX_SPAN),
            estimate=estimate,
        )
    basis = normal_monomials(delta)
    primes = choose_primes(len(basis), n, primes)
    if n < 4:
        return len(basis)
    return len(basis) - certified_ranks(primes, _seeded_ranks(delta), [len(basis)])[0]


def _seeded_ranks(delta: tuple):
    """ranks_mod(p), [rank over F_p] of the relations of content delta;
    every content's fresh rows are built here, once for every prime.

    Each content reached from delta through _lower_contents starts from
    the direct sum of its lower contents' echelon bases, relabelled by
    _appended, and takes only its own fresh rows, as CSRRows, through
    add.  Appending u is an injective relabelling of columns that spans,
    mod p, what the appended rows span, so every prime's rank is that of
    the full row set.
    """
    # every content reached from delta, lowest degree first
    contents = [delta]
    for d in contents:
        contents.extend(low for u, low in _lower_contents(d) if low not in contents)
    contents.sort(key=sum)
    table = _Products()
    built = {}  # content -> (width, fresh CSR rows, lower column maps)
    for d in contents:
        indptr, ids, vals = _fresh_rows(d, table)
        # table id -> column of content d; its monomials are all interned
        span = normal_monomials(d)
        column = np.zeros(len(table.mons), dtype=np.int64)
        column[[table.id(m) for m in span]] = np.arange(len(span))
        lower = [
            (column[[table.id(_appended(m, u)) for m in normal_monomials(low)]], low)
            for u, low in _lower_contents(d)
        ]
        built[d] = len(span), (indptr, column[ids], vals), lower
    del table  # its straightening memo is not needed for the ranks

    def ranks_mod(p):
        # one prime's accumulators, dropped before the next prime's
        accs = {}
        for d in contents:
            width, (indptr, cols, vals), lower = built[d]
            acc = accs[d] = RankAccumulator.direct_sum(
                width, p, [(at, accs[low]) for at, low in lower]
            )
            for start in range(0, len(indptr) - 1, 256):
                if acc.is_full:
                    break
                ptr = indptr[start : start + 257]
                a, b = ptr[0], ptr[-1]
                acc.add(CSRRows(ptr - a, cols[a:b], vals[a:b]))
        return [accs[delta].rank]

    return ranks_mod


class Component:
    """One multidegree component with an explicit rational quotient basis."""

    def __init__(self, delta: tuple, span: tuple, reducer: ExactRowReducer):
        self.delta = delta
        self.span = span
        self._reducer = reducer
        self.basis = tuple(m for m in span if m not in reducer.pivot_rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, elt: dict) -> dict:
        """Coordinates of a straightened element in the quotient basis."""
        for m in elt:
            # normal_monomials is sorted, so bisection tests membership
            t = bisect_left(self.span, m)
            if t == len(self.span) or self.span[t] != m:
                raise ValueError("monomial %r has the wrong content" % (m,))
        # the remainder lives on non-pivot columns, which are the basis
        return dict(sorted(self._reducer.reduce(elt).items()))


def component(delta) -> Component:
    """Exact quotient model; refuses total degree above 8, a far smaller
    bound than the modular path's.  Its lower contents are built in this
    call, on one product table."""
    delta = _check_content(delta)
    if sum(delta) > 8:
        raise InfeasibleError(
            "exact echelon form refused at total degree %d > 8" % sum(delta),
            estimate="up to %d spanning monomials" % _span_estimate(delta),
        )
    return _components(_nonzero_subcontents(delta), _Products())[delta]


def _components(contents, table: _Products) -> dict:
    """{content: Component} for contents, which must hold every content
    that _lower_contents reaches from them, built lowest degree first with
    relation rows from table."""
    out = {}
    for delta in sorted(contents, key=sum):
        red = ExactRowReducer()
        # the lower components' pivot rows, relabelled, sit on disjoint
        # columns and keep their leading keys: they are already the reduced
        # echelon form of the appended rows
        for u, lower in _lower_contents(delta):
            for lead, row in out[lower]._reducer.pivot_rows.items():
                red.pivot_rows[_appended(lead, u)] = {
                    _appended(m, u): c for m, c in row.items()
                }
        for r in relation_rows(delta, table):
            red.add(r)
        out[delta] = Component(delta, normal_monomials(delta), red)
    return out
