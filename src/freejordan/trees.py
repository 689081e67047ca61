"""Commutative binary trees, normal monomials, and straightening.

Trees: a leaf with label v is (1, v); a product is (deg, left, right) with
children in canonical (tuple-comparison) order, so equal trees are equal
tuples.  Labels are positive integers; multilinear code uses 1..n once each,
the multidegree code repeats them.

Normal monomials: (head, factors) with head a sorted pair (or a 1-tuple in
degree 1) and each factor a sorted 1- or 2-tuple, meaning the left comb
((x_a x_b) f_1) f_2 ... .  When the first factor is a pair, the head and
that factor describe the same tree in either order; the canonical key puts
the lexicographically smaller pair in the head.

straighten rewrites any tree into the span of normal monomials modulo the
degree-lowering identity

    L_{(ac)b} = -L_a L_b L_c - L_c L_b L_a + L_{ac} L_b + L_{ab} L_c + L_{bc} L_a

applied whenever the factor side of a product has degree >= 3.  Every
branch decision (which side is the factor, how to split the factor) uses
only degrees and label-free shape keys; when the two candidates have
identical shape the two reductions are averaged, which makes the whole map
commute with relabeling.  That equivariance is what lets the rank method
represent a full S_n-orbit of relations by one d_lambda-wide block.

The only divisions are those tie averages, so straightening works over
the integers: an expansion is (s, ((monomial, int), ...)), the ints times
2**-s with s the least such power, and the five-term rewrite and the
average add the expansions of their terms as ints shifted onto one power
of two.  straighten converts to Fractions at the boundary.

Straightening memoises every subtree it meets, and shape keys with it.
Those memos are not process-global: straightener() returns a fresh
straighten callable with its own, free of reference cycles so that they go
as soon as it does, and a computation keeps one for as long as it runs
(multidegree's product table owns it); straighten(t) uses a fresh one per
call.
"""

from __future__ import annotations

from fractions import Fraction


def leaf(v: int) -> tuple:
    return (1, v)


def node(a: tuple, b: tuple) -> tuple:
    if b < a:
        a, b = b, a
    return (a[0] + b[0], a, b)


def tree_labels(t: tuple) -> tuple:
    if t[0] == 1:
        return (t[1],)
    return tree_labels(t[1]) + tree_labels(t[2])


def shape_key(t: tuple, key=None) -> tuple:
    """Label-free total order on tree shapes, led by the degree.  The
    children's keys come from key, shape_key itself by default, so a
    memoised key recurses through its own memo."""
    if t[0] == 1:
        return (1,)
    a, b = sorted(map(key or shape_key, t[1:]))
    return (t[0], a, b)


def relabel_tree(t: tuple, mapping: dict) -> tuple:
    if t[0] == 1:
        return (1, mapping[t[1]])
    return node(relabel_tree(t[1], mapping), relabel_tree(t[2], mapping))


def substitute_leaf(t: tuple, old: int, replacement: tuple) -> tuple:
    """Replace every leaf labeled `old` (multilinear use: exactly one)."""
    if t[0] == 1:
        return replacement if t[1] == old else t
    return node(
        substitute_leaf(t[1], old, replacement),
        substitute_leaf(t[2], old, replacement),
    )


def all_trees(labels: tuple) -> list:
    """Every commutative binary tree on the given distinct labels."""
    labels = tuple(sorted(labels))
    if len(labels) == 1:
        return [leaf(labels[0])]
    first, rest = labels[0], labels[1:]
    out = []
    for mask in range(1 << len(rest)):
        left = [first] + [x for i, x in enumerate(rest) if mask >> i & 1]
        right = [x for i, x in enumerate(rest) if not mask >> i & 1]
        if not right:
            continue
        for a in all_trees(tuple(left)):
            for b in all_trees(tuple(right)):
                out.append(node(a, b))
    return sorted(set(out))


# --- normal monomials -------------------------------------------------------


def monomial_key(head, factors) -> tuple:
    head = tuple(sorted(head))
    factors = tuple(tuple(sorted(f)) for f in factors)
    if factors and len(factors[0]) == 2 and len(head) == 2 and factors[0] < head:
        head, factors = factors[0], (head,) + factors[1:]
    return (head, factors)


def monomial_to_tree(m: tuple) -> tuple:
    head, factors = m
    t = leaf(head[0]) if len(head) == 1 else node(leaf(head[0]), leaf(head[1]))
    for f in factors:
        g = leaf(f[0]) if len(f) == 1 else node(leaf(f[0]), leaf(f[1]))
        t = node(t, g)
    return t


def relabel_monomial(m: tuple, mapping: dict) -> tuple:
    head, factors = m
    return monomial_key(
        tuple(mapping[x] for x in head),
        tuple(tuple(mapping[x] for x in f) for f in factors),
    )


def monomial_type(m: tuple) -> tuple:
    return tuple(len(f) for f in m[1])


def normal_types(n: int) -> list:
    """Factor-size compositions; count is the Fibonacci-style f_n."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n <= 2:
        return [()]

    def comps(k):
        if k == 0:
            return [()]
        out = [(1,) + c for c in comps(k - 1)]
        if k >= 2:
            out += [(2,) + c for c in comps(k - 2)]
        return out

    return comps(n - 2)


def type_swap_perms(comp: tuple, n: int) -> list:
    """Slot permutations identifying equal monomials of this type."""
    if n == 1:
        return []
    perms = []

    def transposition(i, j):
        p = list(range(n))
        p[i], p[j] = p[j], p[i]
        return tuple(p)

    perms.append(transposition(0, 1))
    pos = 2
    for c in comp:
        if c == 2:
            perms.append(transposition(pos, pos + 1))
        pos += c
    if comp and comp[0] == 2:
        p = list(range(n))
        p[0], p[1], p[2], p[3] = p[2], p[3], p[0], p[1]
        perms.append(tuple(p))
    return perms


def monomial_slot_labels(m: tuple) -> tuple:
    head, factors = m
    out = list(head)
    for f in factors:
        out.extend(f)
    return tuple(out)


def multilinear_monomials(n: int) -> list:
    """All distinct normal monomials on labels 1..n (canonical keys)."""
    import itertools

    out = set()
    for comp in normal_types(n):
        if n == 1:
            out.add(((1,), ()))
            continue
        for perm in itertools.permutations(range(1, n + 1)):
            head = perm[:2]
            factors = []
            pos = 2
            for c in comp:
                factors.append(perm[pos : pos + c])
                pos += c
            out.add(monomial_key(head, factors))
    return sorted(out)


# --- straightening -----------------------------------------------------------


class _Straightener:
    """straighten_tree with its memos; see straightener()."""

    def __init__(self):
        self._trees: dict = {}
        self._shapes: dict = {}

    def _shape(self, t):
        k = self._shapes.get(t)
        if k is None:
            k = self._shapes[t] = shape_key(t, self._shape)
        return k

    def _order_pair(self, a, b):
        # (bigger, smaller, tied?) by shape, which leads with the degree
        ka, kb = self._shape(a), self._shape(b)
        if ka == kb:
            return a, b, True
        return (a, b, False) if ka > kb else (b, a, False)

    def __call__(self, t):
        out = self._trees.get(t)
        if out is None:
            if t[0] == 1:
                out = 0, ((((t[1],), ()), 1),)
            else:
                core, factor, tied = self._order_pair(t[1], t[2])
                if tied:
                    terms = (1, self._rewrite(t[1], t[2])), (1, self._rewrite(t[2], t[1]))
                    out = scaled_sum(terms, 1)
                else:
                    out = self._rewrite(core, factor)
            self._trees[t] = out
        return out

    def _rewrite(self, core, factor):
        fd = factor[0]
        if fd == 1:
            if core[0] == 1:
                return 0, ((monomial_key((core[1], factor[1]), ()), 1),)
            return _append_factor(self(core), (factor[1],))
        if fd == 2:
            pair = (factor[1][1], factor[2][1])
            if core[0] == 1:
                # degree-3 tree x(ab): the comb starts at the pair
                return 0, ((monomial_key(pair, ((core[1],),)), 1),)
            return _append_factor(self(core), pair)
        # factor = (a c) b with degree >= 3: five-term rewrite, averaged
        # over the two splits when they tie
        p, q, tied = self._order_pair(factor[1], factor[2])
        terms = []
        for ac, b in ((p, q), (q, p)) if tied else ((p, q),):
            a, c = ac[1], ac[2]
            for sign, built in (
                (-1, node(node(node(core, c), b), a)),
                (-1, node(node(node(core, a), b), c)),
                (1, node(node(core, b), node(a, c))),
                (1, node(node(core, c), node(a, b))),
                (1, node(node(core, a), node(b, c))),
            ):
                terms.append((sign, self(built)))
        return scaled_sum(terms, int(tied))


def straightener():
    """A fresh straighten_tree: tree -> (s, ((monomial, int), ...)), the
    normal-form expansion as ints times 2**-s, with s the least such power.

    Its memo of straightened trees, and the memo of the shape keys its
    branch decisions read, belong to the returned callable and hold no
    reference cycle, so they are freed as soon as it is dropped.  One
    computation keeps one straightener, so no straightening state
    outlives the computation.
    """
    return _Straightener()


def scaled_sum(terms, halvings: int = 0) -> tuple:
    """The sum of x * expansion over (int x, (s, pairs)) terms, times
    2**-halvings, as an expansion (s, sorted pairs) with s least.  The
    terms are added as ints shifted onto the largest s among them."""
    shift = max(s for _, (s, _) in terms)
    out: dict = {}
    for x, (s, pairs) in terms:
        x <<= shift - s
        for m, c in pairs:
            out[m] = out.get(m, 0) + x * c
    shift += halvings
    k = common_twos(out.values(), shift)
    return shift - k, tuple(sorted((m, c >> k) for m, c in out.items() if c))


def common_twos(coeffs, limit: int) -> int:
    """The largest k <= limit such that 2**k divides every int in coeffs."""
    bits = 0
    for c in coeffs:
        bits |= c
    return min(limit, (bits & -bits).bit_length() - 1) if bits else limit


def _append_factor(expansion, f: tuple):
    # appending a factor keeps distinct keys distinct and in order; only a
    # degree-2 key, which has no factor yet, may need recanonicalising
    s, pairs = expansion
    f = tuple(sorted(f))
    return s, tuple(
        ((m[0], m[1] + (f,)) if m[1] else monomial_key(m[0], (f,)), c)
        for m, c in pairs
    )


def straighten(t: tuple) -> dict:
    """Public entry: tree -> {normal monomial: Fraction coefficient}, on a
    fresh straightener()."""
    s, pairs = straightener()(t)
    return {m: Fraction(c, 1 << s) for m, c in pairs}


def jordan_tree_element(t1, t2, t3, t4) -> dict:
    """The four-slot Jordan identity on trees, left unstraightened."""
    combo: dict = {}
    for coeff, t in (
        (1, node(node(node(t1, t2), t3), t4)),
        (1, node(node(node(t2, t4), t3), t1)),
        (1, node(node(node(t1, t4), t3), t2)),
        (-1, node(node(t1, t2), node(t3, t4))),
        (-1, node(node(t1, t3), node(t2, t4))),
        (-1, node(node(t1, t4), node(t2, t3))),
    ):
        combo[t] = combo.get(t, 0) + coeff
    return {k: v for k, v in combo.items() if v}
