"""Multigraded components of finitely generated free Jordan algebras.

Once generators repeat, the multilinear translate machinery no longer
applies, so everything here happens directly inside the span of normal
monomials of one fixed content vector.  The relation space of a content is
spanned by two kinds of rows, built degree by degree:

  * fresh instances of the four-slot defining identity whose slots hold
    normal monomials with contents summing to the target, and
  * rows of lower content with one extra factor of degree one or two
    appended (appending keeps normal monomials normal, so no rewriting
    is needed).

Appending only small factors loses nothing: multiplying a relation row by a
deeper monomial can be rewritten, via the straightening identity, into
appends of strictly smaller factors plus one fresh instance of the defining
identity with the row's monomials in the long slot, and both of those are
already in the span.

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

Relation rows are integral: straightening only ever halves, so each row
is scaled once, where it is built, by a power of two, which moves neither
its span over Q nor its rank modulo an odd prime.  Dimensions come from
certified modular ranks; the exact Component view keeps a rational echelon
form instead, so products can be expressed in an explicit quotient basis.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import factorial, lcm

import numpy as np

from .errors import InfeasibleError
from .linalg import ExactRowReducer, certify, choose_primes, modular_ranks
from .trees import (
    monomial_key,
    monomial_to_tree,
    node,
    normal_types,
    straighten,
)


def _check_content(delta) -> tuple:
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
    """Product of two normal monomials, restraightened; sorted key pairs."""
    t = node(monomial_to_tree(m1), monomial_to_tree(m2))
    return tuple(sorted(straighten(t).items()))


def _mul(e1: dict, e2: dict) -> dict:
    out = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            c = c1 * c2
            for m, d in _mul_normal(*sorted((m1, m2))):
                v = out.get(m, 0) + c * d
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
    return out


def _jordan_row(b1: tuple, b2: tuple, b3: tuple, b4: tuple) -> dict:
    """The defining identity at four normal monomials, in normal coordinates,
    scaled by the power of two that makes its coefficients integers."""
    one = Fraction(1)
    e1, e2, e3, e4 = {b1: one}, {b2: one}, {b3: one}, {b4: one}
    p12, p14, p24 = _mul(e1, e2), _mul(e1, e4), _mul(e2, e4)
    out = {}
    for term, sign in (
        (_mul(_mul(p12, e3), e4), 1),
        (_mul(_mul(p24, e3), e1), 1),
        (_mul(_mul(p14, e3), e2), 1),
        (_mul(p12, _mul(e3, e4)), -1),
        (_mul(_mul(e1, e3), p24), -1),
        (_mul(p14, _mul(e2, e3)), -1),
    ):
        for m, c in term.items():
            v = out.get(m, 0) + sign * c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    scale = lcm(*(c.denominator for c in out.values()))
    return {m: int(c * scale) for m, c in out.items()}


@cache
def relation_rows(delta: tuple) -> tuple:
    """Straightened consequence rows spanning the relations of one content."""
    n = sum(delta)
    if n < 4:
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
    g = len(delta)
    for u, content in _unit_factors(g):
        lower = tuple(a - b for a, b in zip(delta, content))
        if min(lower) < 0 or sum(lower) < 4:
            continue
        for r in relation_rows(lower):
            rows.append(
                {monomial_key(m[0], m[1] + (u,)): c for m, c in r.items()}
            )
    return tuple(rows)


# (8, 2, 1), the largest content checked against published values, has a
# span estimate of 27,225 (9,520 normal monomials); from (6, 2, 2) at 42,840
# up the dense int64 basis alone takes gigabytes, 7.1 GB for (7, 2, 2)
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
    if sum(1 for x in delta if x) > max_parts:
        raise ValueError(
            "%d generators in use; raise max_parts to allow it"
            % sum(1 for x in delta if x)
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
    rows = relation_rows(delta)
    if not rows:
        return len(basis)
    index = {m: i for i, m in enumerate(basis)}
    sparse = [
        (np.array([index[m] for m in r], dtype=np.int64), tuple(r.values()))
        for r in rows
    ]

    def batches():
        for start in range(0, len(sparse), 256):
            chunk = sparse[start : start + 256]
            batch = np.zeros((len(chunk), len(basis)), dtype=np.int64)
            for k, (cols, vals) in enumerate(chunk):
                batch[k, cols] = vals
            yield batch

    # one prime at a time: a second accumulator on this width costs memory
    ranks = {p: modular_ranks(batches(), len(basis), (p,))[p] for p in primes}
    return len(basis) - certify(ranks)


class Component:
    """One multidegree component with an explicit rational quotient basis."""

    def __init__(self, delta: tuple, span: tuple, reducer: ExactRowReducer):
        self.delta = delta
        self.span = span
        self._index = {m: i for i, m in enumerate(span)}
        self._reducer = reducer
        pivots = set(reducer.pivot_columns())
        self.basis = tuple(m for i, m in enumerate(span) if i not in pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, elt: dict) -> dict:
        """Coordinates of a straightened element in the quotient basis."""
        vec = {}
        for m, c in elt.items():
            if m not in self._index:
                raise ValueError("monomial %r has the wrong content" % (m,))
            vec[self._index[m]] = c
        # the remainder lives on non-pivot columns, which are the basis
        rem = self._reducer.reduce(vec)
        return {self.span[t]: rem[t] for t in sorted(rem)}


@cache
def component(delta: tuple) -> Component:
    """Exact quotient model; refuses total degree above 8, a far smaller
    bound than the modular path's."""
    delta = _check_content(delta)
    n = sum(delta)
    if n > 8:
        raise InfeasibleError(
            "exact echelon form refused at total degree %d > 8" % n,
            estimate="up to %d spanning monomials" % _span_estimate(delta),
        )
    span = normal_monomials(delta)
    index = {m: i for i, m in enumerate(span)}
    red = ExactRowReducer()
    for r in relation_rows(delta):
        red.add({index[m]: c for m, c in r.items()})
    return Component(delta, span, red)
