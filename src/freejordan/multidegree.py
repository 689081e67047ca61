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
distinct pair of ids, and memoises each (ab)c; a row adds the six terms of
the identity into one int dict, with no intermediate element per product.
A row built this way differs from the literal straightened identity
instance by straightened relation elements, and restricting slots to
normal monomials only re-spans the same rows by multilinearity, so the
computed span always sits inside the true relation image: reported
dimensions can only err upward.  That they do not is checked against the
multilinear decomposition through every small content (see the
weight-space tests) and against independently published values in higher
degree.

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
product in the table is ints over one power of two, 2**s, as the
table's straightener returns it, and a row's six terms are added in int
arithmetic, shifting the running sum left when a term brings a larger s.
Each row is then scaled, where it is built, by the least power of two that
makes it integral, which moves neither its span over Q nor its rank modulo
an odd prime.  Dimensions come from modular ranks, certified by the walk
rule of `linalg.certified_ranks`; the exact Component view keeps a
rational echelon form instead, so products can be expressed in an
explicit quotient basis.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import defaultdict
from functools import cache
from math import factorial
from numbers import Integral

import numpy as np

from .errors import InfeasibleError
from .linalg import ExactRowReducer, RankAccumulator, certified_ranks, choose_primes
from .trees import (
    common_twos,
    monomial_key,
    monomial_to_tree,
    node,
    normal_types,
    scaled_sum,
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


class _Products:
    """Products of normal monomials for one computation, and the only owner
    of its straightening state.

    Monomials are interned as ids (`ids`, `mons`); the product of two ids
    and the product (ab)c are memoised as (s, ((id, int), ...)), the ints
    times 2**-s.  Products are straightened by the table's own
    trees.straightener(), whose memo goes with the table.
    """

    def __init__(self):
        self.ids: dict = {}
        self.mons: list = []
        self._pairs: dict = {}
        self._left: dict = {}
        self._straighten = straightener()

    def id(self, m: tuple) -> int:
        i = self.ids.get(m)
        if i is None:
            i = self.ids[m] = len(self.mons)
            self.mons.append(m)
        return i

    def mul(self, i: int, j: int) -> tuple:
        key = (i, j) if i <= j else (j, i)
        out = self._pairs.get(key)
        if out is None:
            tree = node(monomial_to_tree(self.mons[i]), monomial_to_tree(self.mons[j]))
            s, terms = self._straighten(tree)
            out = self._pairs[key] = s, tuple((self.id(m), c) for m, c in terms)
        return out

    def left(self, a: int, b: int, c: int) -> tuple:
        """(ab)c for the ids a, b, c."""
        key = (a, b, c) if a <= b else (b, a, c)
        out = self._left.get(key)
        if out is None:
            s, ab = self.mul(a, b)
            t, pairs = scaled_sum([(x, self.mul(m, c)) for m, x in ab])
            out = self._left[key] = s + t, pairs
        return out

    def row(self, b1: int, b2: int, b3: int, b4: int) -> dict:
        """The defining identity at four ids, in normal coordinates, scaled
        by the least power of two that makes its coefficients integers.
        The six terms are added into one int dict at a running power of
        two."""
        mul = self.mul
        out = defaultdict(int)
        shift = 0

        def add(x0, s, e, n):
            # out += x0 * e * n, for e = ((id, int), ...) times 2**-s
            nonlocal shift
            for m, x in e:
                t, pairs = mul(m, n)
                if s + t > shift:
                    for k in out:
                        out[k] <<= s + t - shift
                    shift = s + t
                x = x0 * x << (shift - s - t)
                for k, y in pairs:
                    out[k] += x * y

        for (s, e), n in (
            (self.left(b1, b2, b3), b4),
            (self.left(b2, b4, b3), b1),
            (self.left(b1, b4, b3), b2),
        ):
            add(1, s, e, n)
        for (sp, p), (sq, q) in (
            (mul(b1, b2), mul(b3, b4)),
            (mul(b1, b3), mul(b2, b4)),
            (mul(b1, b4), mul(b2, b3)),
        ):
            for n, y in q:
                add(-y, sp + sq, p, n)
        k = common_twos(out.values(), shift)
        mons = self.mons
        return {mons[i]: c >> k for i, c in out.items() if c}


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


def relation_rows(delta: tuple, table: _Products | None = None) -> tuple:
    """Fresh instances of the defining identity in one content.  With the
    relations of its lower contents, each with its unit factor appended
    (_lower_contents, _appended), they span the content's relations.
    Products come from table, a fresh one if none is given."""
    if sum(delta) < 4:
        return ()
    if table is None:
        table = _Products()
    ids = {s: [table.id(m) for m in normal_monomials(s)]
           for s in _nonzero_subcontents(delta)}
    rows = []
    seen = set()
    for s1, s2, s3, s4 in _slot_splits(delta):
        for v3 in ids[s3]:
            for v1 in ids[s1]:
                for v2 in ids[s2]:
                    for v4 in ids[s4]:
                        # the identity is symmetric in slots 1, 2, 4
                        key = (tuple(sorted((v1, v2, v4))), v3)
                        if key in seen:
                            continue
                        seen.add(key)
                        elt = table.row(v1, v2, v3, v4)
                        if elt:
                            rows.append(elt)
    return tuple(rows)


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
    _appended, and takes only its own fresh rows through add.  Appending
    u is an injective relabelling of columns that spans, mod p, what the
    appended rows span, so every prime's rank is that of the full row set.
    """
    # every content reached from delta, lowest degree first
    contents = [delta]
    for d in contents:
        contents.extend(low for u, low in _lower_contents(d) if low not in contents)
    contents.sort(key=sum)
    table = _Products()
    built = {}  # content -> (width, fresh sparse rows, lower column maps)
    for d in contents:
        span = normal_monomials(d)
        index = {m: i for i, m in enumerate(span)}
        rows = [
            (np.array([index[m] for m in r], dtype=np.int64), tuple(r.values()))
            for r in relation_rows(d, table)
        ]
        lower = [
            (np.array([index[_appended(m, u)] for m in normal_monomials(low)]), low)
            for u, low in _lower_contents(d)
        ]
        built[d] = len(span), rows, lower
    del table  # its straightening memo is not needed for the ranks

    def ranks_mod(p):
        # one prime's accumulators, dropped before the next prime's
        accs = {}
        for d in contents:
            width, rows, lower = built[d]
            acc = accs[d] = RankAccumulator.direct_sum(
                width, p, [(cols, accs[low]) for cols, low in lower]
            )
            for start in range(0, len(rows), 256):
                if acc.is_full:
                    break
                chunk = rows[start : start + 256]
                batch = np.zeros((len(chunk), width), dtype=np.int64)
                for k, (cols, vals) in enumerate(chunk):
                    batch[k, cols] = vals
                acc.add(batch)
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
