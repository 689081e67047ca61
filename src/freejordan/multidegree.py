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
appended rows span.  Each content is therefore ranked, per prime, by
recursing into its lower contents, seeding its accumulator with the direct
sum of their bases (RankAccumulator.direct_sum, no elimination) and adding
only its own fresh rows; the exact Component does the same with the lower
components' pivot rows.  The ranks, unlucky primes included, and the
echelon forms are those of the full row set.

Fresh rows are assembled with the memoised normal-basis product (straighten
one two-factor tree per distinct pair of normal monomials) rather than by
straightening six large trees per slot tuple.  A row built this way differs
from the literal straightened identity instance by straightened relation
elements, and restricting slots to normal monomials only re-spans the same
rows by multilinearity, so the computed span always sits inside the true
relation image: reported dimensions can only err upward.  That they do not
is checked against the multilinear decomposition through every small
content (see the weight-space tests) and against independently published
values in higher degree.

In the multilinear content (1, ..., 1) `operad.consequences` keeps one
representative per S_n-orbit.  Straightening commutes with relabelling, and
fresh instances whose slots have the same degrees and normal types differ by
a permutation of the labels, so one instance per tuple of (slot degree, slot
type), on consecutive labels and up to the slot-1/2/4 symmetry, carries the
orbit.  Every append is likewise a relabelling of a degree-(n-1)
representative times x_n or a degree-(n-2) one times (x_{n-1} x_n).

Relation rows are integral: straightening only ever halves, so each cached
product of two normal monomials is stored once as ints over one power of
two, 2**s, and rows are assembled in int arithmetic, shifting the running
sum left when a term brings a larger s.  Each row is then scaled, where it
is built, by the least power of two that makes it integral, which moves
neither its span over Q nor its rank modulo an odd prime.  Dimensions come
from certified modular ranks; the exact Component view keeps a rational
echelon form instead, so products can be expressed in an explicit quotient
basis.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cache
from math import factorial, lcm
from numbers import Integral

import numpy as np

from .errors import InfeasibleError
from .linalg import ExactRowReducer, RankAccumulator, certify, choose_primes
from .trees import (
    monomial_key,
    monomial_to_tree,
    node,
    normal_types,
    straighten,
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


def _arrangements(counts: tuple):
    """Distinct label sequences using counts[i] copies of generator i+1."""
    if sum(counts) == 0:
        yield ()
        return
    for i, c in enumerate(counts):
        if c:
            rest = counts[:i] + (c - 1,) + counts[i + 1 :]
            for tail in _arrangements(rest):
                yield (i + 1,) + tail


@cache
def normal_monomials(delta: tuple) -> tuple:
    """Canonical normal-monomial keys with the given content."""
    n = sum(delta)
    if n == 0:
        return ()
    if n == 1:
        return (((delta.index(1) + 1,), ()),)
    out = set()
    for comp in normal_types(n):
        for labels in _arrangements(delta):
            head = labels[:2]
            factors, pos = [], 2
            for c in comp:
                factors.append(labels[pos : pos + c])
                pos += c
            out.add(monomial_key(head, tuple(factors)))
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


@cache
def _mul_normal(m1: tuple, m2: tuple) -> tuple:
    """Product of two normal monomials, restraightened, as (s, pairs): the
    product is the sorted (monomial, int) pairs times 2**-s, with s the
    least such power.  Straightening stays in Fractions; they are converted
    here, once per cache entry."""
    t = node(monomial_to_tree(m1), monomial_to_tree(m2))
    terms = sorted(straighten(t).items())
    den = lcm(*(c.denominator for _, c in terms))
    s = den.bit_length() - 1
    if den != 1 << s:
        raise ArithmeticError("straightening gave the denominator %d" % den)
    return s, tuple((m, c.numerator * (den // c.denominator)) for m, c in terms)


def _mul(e1: tuple, e2: tuple) -> tuple:
    """Product of two elements (s, {monomial: int}), each meaning the
    dict times 2**-s."""
    s1, d1 = e1
    s2, d2 = e2
    shift, out = 0, {}
    for m1, c1 in d1.items():
        for m2, c2 in d2.items():
            s, terms = _mul_normal(*((m1, m2) if m1 <= m2 else (m2, m1)))
            if s > shift:
                out = {m: v << (s - shift) for m, v in out.items()}
                shift = s
            c = c1 * c2 << (shift - s)
            for m, d in terms:
                v = out.get(m, 0) + c * d
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
    return s1 + s2 + shift, out


def _jordan_row(b1: tuple, b2: tuple, b3: tuple, b4: tuple) -> dict:
    """The defining identity at four normal monomials, in normal coordinates,
    scaled by the least power of two that makes its coefficients integers."""
    e1, e2, e3, e4 = (0, {b1: 1}), (0, {b2: 1}), (0, {b3: 1}), (0, {b4: 1})
    p12, p14, p24 = _mul(e1, e2), _mul(e1, e4), _mul(e2, e4)
    terms = (
        (_mul(_mul(p12, e3), e4), 1),
        (_mul(_mul(p24, e3), e1), 1),
        (_mul(_mul(p14, e3), e2), 1),
        (_mul(p12, _mul(e3, e4)), -1),
        (_mul(_mul(e1, e3), p24), -1),
        (_mul(p14, _mul(e2, e3)), -1),
    )
    shift = max(s for (s, _), _ in terms)
    out = {}
    for (s, term), sign in terms:
        k = shift - s
        for m, c in term.items():
            v = out.get(m, 0) + (sign * c << k)
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    while shift and all(c & 1 == 0 for c in out.values()):
        out = {m: c >> 1 for m, c in out.items()}
        shift -= 1
    return out


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


def relation_rows(delta: tuple) -> tuple:
    """Fresh instances of the defining identity in one content.  With the
    relations of its lower contents, each with its unit factor appended
    (_lower_contents, _appended), they span the content's relations."""
    if sum(delta) < 4:
        return ()
    rows = []
    seen = set()
    for s1, s2, s3, s4 in _slot_splits(delta):
        for v3 in normal_monomials(s3):
            for v1 in normal_monomials(s1):
                for v2 in normal_monomials(s2):
                    for v4 in normal_monomials(s4):
                        # the identity is symmetric in slots 1, 2, 4
                        key = (tuple(sorted((v1, v2, v4))), v3)
                        if key in seen:
                            continue
                        seen.add(key)
                        elt = _jordan_row(v1, v2, v3, v4)
                        if elt:
                            rows.append(elt)
    return tuple(rows)


# (8, 2, 1), the largest content checked against published values, has a
# span estimate of 27,225 (9,520 normal monomials); seeded, its X starts at
# the summed lower ranks, 9,076 x 444, and ends at 9,270 x 250 (17 s, 293 MB
# peak RSS on a 2-core host).  (6, 2, 2) at 42,840 has 12,083 and (7, 2, 2)
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


def multidegree_dim(delta, primes=None, max_parts: int = 3) -> int:
    """Dimension of the content-delta component of the free Jordan algebra.

    Refuses total degree above 11, and contents whose span estimate
    exceeds _MAX_SPAN, before any monomial is built.
    """
    delta = _check_content(delta)
    used = sum(1 for x in delta if x)
    if used > max_parts:
        raise ValueError(
            "%d generators in use; at most %d are supported" % (used, max_parts)
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
    return len(basis) - certify(_seeded_ranks(delta, primes))


def _seeded_ranks(delta: tuple, primes) -> dict:
    """{p: rank over F_p} of the relations of content delta.

    Each content reached from delta through _lower_contents starts from
    the direct sum of its lower contents' echelon bases, relabelled by
    _appended, and takes only its own fresh rows through add.  Appending
    u is an injective relabelling of columns that spans, mod p, what the
    appended rows span, so every prime's rank is that of the full row set.
    """
    built = {}  # content -> (width, fresh sparse rows, lower column maps)

    def build(d):
        if d not in built:
            span = normal_monomials(d)
            index = {m: i for i, m in enumerate(span)}
            rows = [
                (np.array([index[m] for m in r], dtype=np.int64), tuple(r.values()))
                for r in relation_rows(d)
            ]
            lower = [
                (np.array([index[_appended(m, u)] for m in normal_monomials(low)]), low)
                for u, low in _lower_contents(d)
            ]
            built[d] = len(span), rows, lower
        return built[d]

    def rank(d, p, accs):
        if d not in accs:
            width, rows, lower = build(d)
            acc = RankAccumulator.direct_sum(
                width, p, [(cols, rank(low, p, accs)) for cols, low in lower]
            )
            for start in range(0, len(rows), 256):
                if acc.is_full:
                    break
                chunk = rows[start : start + 256]
                batch = np.zeros((len(chunk), width), dtype=np.int64)
                for k, (cols, vals) in enumerate(chunk):
                    batch[k, cols] = vals
                acc.add(batch)
            accs[d] = acc
        return accs[d]

    # one prime at a time: its accumulators are dropped before the next
    return {p: rank(delta, p, {}).rank for p in primes}


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
    bound than the modular path's."""
    # checked before the cache, which would take (2.0, 2) for (2, 2)
    return _component(_check_content(delta))


@cache
def _component(delta: tuple) -> Component:
    n = sum(delta)
    if n > 8:
        raise InfeasibleError(
            "exact echelon form refused at total degree %d > 8" % n,
            estimate="up to %d spanning monomials" % _span_estimate(delta),
        )
    red = ExactRowReducer()
    # the lower components' pivot rows, relabelled, sit on disjoint columns
    # and keep their leading keys: they are already the reduced echelon
    # form of the appended rows
    for u, lower in _lower_contents(delta):
        for lead, row in _component(lower)._reducer.pivot_rows.items():
            red.pivot_rows[_appended(lead, u)] = {
                _appended(m, u): c for m, c in row.items()
            }
    for r in relation_rows(delta):
        red.add(r)
    return Component(delta, normal_monomials(delta), red)
