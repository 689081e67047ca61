"""Finite-dimensional (super, graded) algebras by structure constants, the
functorial Tits-Kantor-Koecher style Lie algebra built from a Jordan
algebra, and Chevalley-Eilenberg homology.

The chain of constructions: a Jordan algebra J gives multiplication
operators L_a, inner derivations D_{a,b} = [L_a, L_b], the functorial
replacement B(J) = Lambda^2(J) / (ab^c + bc^a + ca^b) (with the Koszul
signs of BSpace on a superalgebra), and the Lie algebra sl2 (x) J  (+)  B(J)
with brackets

    [x(x)a, y(x)b] = [x,y](x)ab + 2 tr(xy) a^b,
    [a^b, x(x)c]   = x (x) D_{a,b}(c),
    [a^b, c^d]     = D_{a,b}(c)^d + c^D_{a,b}(d),

where tr is the trace in the defining two-dimensional representation, so
the coupling is half the Killing form.  With the wedge action normalized
to coefficient one as above, this is the unique coupling that closes into
a Lie bracket: on sl2, [[x,y],z] = 2tr(yz)x - 2tr(xz)y, so the Jacobi sum
over x(x)a, y(x)b, z(x)c leaves (mu - 2) tr(yz) x (x) D_{b,c}(a) when the
coupling is mu tr(xy), and mu = 2 kills it.  (Statements of the formula
with 1/2 tr implicitly take tr in the adjoint representation; rescaling
the B summand moves between the conventions without changing anything
below.)  Everything is exact over Q.

Parity conventions: odd x odd products are symmetric where even ones are
antisymmetric, so the "exterior" square is symmetric on the odd part and a
wedge u^u survives exactly when u is odd.  Chevalley-Eilenberg chains are
the parity-aware exterior powers; each chain degree is finite dimensional
even when the total complex is not.

The structure checks are complete, not sampled: AlgebraFD.check tests
the Jordan identity on every basis quadruple, and super-Jacobi on every
basis triple, that can have a nonzero term, and inner_derivations tests
every generator on every basis pair where the derivation rule can fail.

ce_homology runs on integers: it scales the bracket once by D, the lcm of
its denominators (1, 2 or 4 on the free truncations), which multiplies
every differential d_k by D.  Ranks do not change under a nonzero scalar,
and (D d)^2 = D^2 d^2 vanishes exactly when d^2 does, so the d^2 = 0 check
keeps its meaning; the row reducer then stays on ints throughout.  The
chain words of one length are a sorted numpy int32 array, and D d_k is a
sparse (row, column, value) array computed for a whole slice of words at
once; only the exact block ranks work on Python dicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InfeasibleError
from .linalg import ExactRowReducer, add_scaled

F0 = Fraction(0)
F1 = Fraction(1)


def _deg_add(d1: tuple, d2: tuple) -> tuple:
    return tuple(a + b for a, b in zip(d1, d2))


class AlgebraFD:
    """A finite-dimensional algebra given by rational structure constants.

    table maps a basis pair (i, j) to {k: coefficient}; only nonzero
    products are stored.  parity is a 0/1 bit per basis vector.  degree, if
    present, is one tuple per basis vector, and sl2_weight, if present, one
    integer per basis vector; products must add both (check() and
    ce_homology verify it).  kind is "jordan" (super-commutative) or "lie"
    (super-anticommutative with super-Jacobi); check() verifies the claimed
    kind.  Basis indices outside 0..dim-1, parity, degree or weight lists
    of another length than dim (an empty list included), parity bits other
    than 0 and 1, degrees or weights that are not integers, and degree
    tuples of different lengths raise ValueError.
    """

    def __init__(self, kind, labels, table, parity=None, degree=None, sl2_weight=None):
        if kind not in ("jordan", "lie"):
            raise ValueError("kind must be jordan or lie")
        self.kind = kind
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.parity = tuple(parity) if parity is not None else (0,) * self.dim
        if len(self.parity) != self.dim:
            raise ValueError(
                "%d parity bits for %d basis vectors" % (len(self.parity), self.dim)
            )
        for p in self.parity:
            if not (isinstance(p, int) and p in (0, 1)):
                raise ValueError("parity bit %r is not 0 or 1" % (p,))
        if degree is not None:
            for d in degree:
                ints = [d] if isinstance(d, int) else d
                if not (isinstance(ints, (list, tuple)) and all(isinstance(x, int) for x in ints)):
                    raise ValueError("degree %r is not an int or a list of ints" % (d,))
            degree = tuple(
                (d,) if isinstance(d, int) else tuple(d) for d in degree
            )
            if len(degree) != self.dim:
                raise ValueError(
                    "%d degrees for %d basis vectors" % (len(degree), self.dim)
                )
            if len({len(d) for d in degree}) > 1:
                raise ValueError("degree tuples of different lengths")
        self.degree = degree
        self.sl2_weight = tuple(sl2_weight) if sl2_weight is not None else None
        if self.sl2_weight is not None and len(self.sl2_weight) != self.dim:
            raise ValueError(
                "%d sl2 weights for %d basis vectors" % (len(self.sl2_weight), self.dim)
            )
        for w in self.sl2_weight or ():
            if not isinstance(w, int):
                raise ValueError("sl2_weight %r is not an int" % (w,))
        self.table = {}
        for (i, j), prod in table.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim
                    and all(0 <= k < self.dim for k in prod)):
                raise ValueError(
                    "product (%d, %d) -> %s names a basis index outside 0..%d"
                    % (i, j, sorted(prod), self.dim - 1)
                )
            entry = {k: Fraction(c) for k, c in prod.items() if c}
            if entry:
                self.table[(i, j)] = entry

    def product(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def mult(self, va: dict, vb: dict) -> dict:
        out = {}
        for i, ca in va.items():
            for j, cb in vb.items():
                add_scaled(out, self.product(i, j), ca * cb)
        return out

    def left_mult_matrix(self, i: int) -> list:
        """L_{e_i} as a dense row-major matrix: rows index the output."""
        m = [[F0] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self.product(i, j).items():
                m[k][j] = c
        return m

    def _check_grading(self):
        """Every product must add degrees and sl2 weights; raises ValueError."""
        for (i, j), prod in self.table.items():
            for k in prod:
                if self.degree is not None:
                    want = _deg_add(self.degree[i], self.degree[j])
                    if self.degree[k] != want:
                        raise ValueError(
                            "product %s*%s hits %s outside degree %s"
                            % (self.labels[i], self.labels[j], self.labels[k], want)
                        )
                if self.sl2_weight is not None:
                    want = self.sl2_weight[i] + self.sl2_weight[j]
                    if self.sl2_weight[k] != want:
                        raise ValueError(
                            "product %s*%s hits %s outside sl2 weight %s"
                            % (self.labels[i], self.labels[j], self.labels[k], want)
                        )

    def check(self) -> None:
        """Verify the structure the kind claims; raises ValueError.

        For the jordan kind, the defining identity of trees.jordan_tree_element,
        ((ab)c)d + ((bd)c)a + ((ad)c)b - (ab)(cd) - (ac)(bd) - (ad)(bc) = 0,
        each term signed by the Koszul sign of its letter order, holds on
        every basis quadruple where some term has a nonzero chain of
        products (_jordan_quadruples).  For the lie kind, super-Jacobi
        holds on every basis triple: only the triples {a, b, c} with
        (a, b) and (m, c) in the table, m in [a, b], have a nonzero term.
        Both are summed in integers (_int_table).
        """
        self._check_grading()
        sign = lambda i, j: -1 if (self.parity[i] and self.parity[j]) else 1
        for (i, j), prod in self.table.items():
            s = sign(i, j) if self.kind == "jordan" else -sign(i, j)
            if self.product(j, i) != {k: s * c for k, c in prod.items()}:
                raise ValueError(
                    "products of %s, %s break the %s symmetry"
                    % (self.labels[i], self.labels[j], self.kind)
                )
        table = _int_table(self)
        if self.kind == "jordan":
            def mul(u, v):
                out = {}
                for i, x in u.items():
                    for j, y in v.items():
                        add_scaled(out, table.get((i, j), {}), x * y)
                return out

            for q in sorted(_jordan_quadruples(table)):
                acc = {}
                odd = [self.parity[v] for v in q]
                for order, coeff, chained in _JORDAN_TERMS:
                    x, y, z, w = ({q[i]: 1} for i in order)
                    term = mul(mul(mul(x, y), z), w) if chained else mul(mul(x, y), mul(z, w))
                    # the Koszul sign: -1 per inverted pair of odd letters
                    flips = sum(i > j and odd[i] and odd[j]
                                for i, j in itertools.combinations(order, 2))
                    add_scaled(acc, term, coeff * (-1) ** flips)
                if acc:
                    raise ValueError(
                        "Jordan identity fails on basis quadruple (%s, %s, %s, %s); "
                        "not a Jordan algebra" % tuple(self.labels[i] for i in q)
                    )
            return
        right = {}
        for m, c in table:
            right.setdefault(m, []).append(c)
        triples = {tuple(sorted((a, b, c))) for (a, b), prod in table.items()
                   for m in prod for c in right.get(m, ())}
        for i, j, k in sorted(triples):
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                s = sign(a, c)
                for m, cm in table.get((a, b), {}).items():
                    add_scaled(acc, table.get((m, c), {}), s * cm)
            if acc:
                raise ValueError(
                    "Jacobi fails on basis triple (%s, %s, %s)"
                    % (self.labels[i], self.labels[j], self.labels[k])
                )

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "dim": self.dim,
            "labels": list(self.labels),
            "parity": list(self.parity),
            "table": [
                [i, j] + [[k, c.numerator, c.denominator] for k, c in sorted(prod.items())]
                for (i, j), prod in sorted(self.table.items())
            ],
        }
        if self.degree is not None:
            out["degree"] = [
                d[0] if len(d) == 1 else list(d) for d in self.degree
            ]
        if self.sl2_weight is not None:
            out["sl2_weight"] = list(self.sl2_weight)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraFD":
        if not isinstance(data, dict):
            raise ValueError("structure constants must be a JSON object")
        for key in ("table", "labels"):
            if key not in data:
                raise ValueError("structure constants lack the %s field" % key)
        for key in ("table", "labels", "parity", "degree", "sl2_weight"):
            if not isinstance(data.get(key, []), list):
                raise ValueError("%s is not a list" % key)
        table = {}
        for row in data["table"]:
            if not _is_table_row(row):
                raise ValueError(
                    "table row %s is not [i, j, [k, num, den], ...]" % (row,)
                )
            i, j = row[0], row[1]
            table[(i, j)] = {k: Fraction(num, den) for k, num, den in row[2:]}
        if "dim" in data and data["dim"] != len(data["labels"]):
            raise ValueError(
                "dim is %s but %d labels are given" % (data["dim"], len(data["labels"]))
            )
        return cls(
            data.get("kind", "jordan"),
            data["labels"],
            table,
            parity=data.get("parity"),
            degree=data.get("degree"),
            sl2_weight=data.get("sl2_weight"),
        )


# the terms of the defining identity at (a, b, c, d): each one's letters
# as positions in (a, b, c, d), its coefficient, and whether it is a left
# chain ((xy)z)w rather than a product (xy)(zw)
_JORDAN_TERMS = (
    ((0, 1, 2, 3), 1, True), ((1, 3, 2, 0), 1, True), ((0, 3, 2, 1), 1, True),
    ((0, 1, 2, 3), -1, False), ((0, 2, 1, 3), -1, False), ((0, 3, 1, 2), -1, False),
)


def _jordan_quadruples(table: dict) -> set:
    """The basis quadruples (a, b, c, d) on which some term of the defining
    identity has a nonzero chain of products in table, one per orbit of
    the identity's (signed) symmetry in a, b and d: a <= b <= d."""
    makes = {}  # m: the pairs (x, y) with m in xy
    for xy, prod in table.items():
        for m in prod:
            makes.setdefault(m, []).append(xy)
    out = set()
    for m, n in table:
        # the chains ((xy)z)n with m in (xy)z, and (xy)(zw) with m in xy
        # and n in zw
        left = [(x, y, z, n) for u, z in makes.get(m, ()) for x, y in makes.get(u, ())]
        pairs = [xy + zw for xy in makes.get(m, ()) for zw in makes.get(n, ())]
        for order, _, chained in _JORDAN_TERMS:
            for chain in left if chained else pairs:
                q = dict(zip(order, chain))
                a, b, d = sorted((q[0], q[1], q[3]))
                out.add((a, b, q[2], d))
    return out


def _is_table_row(row) -> bool:
    """[i, j, [k, num, den], ...] with integer entries."""
    if not (isinstance(row, list) and len(row) >= 2):
        return False
    terms = row[2:]
    return all(isinstance(t, list) and len(t) == 3 for t in terms) and all(
        isinstance(x, int) for x in itertools.chain(row[:2], *terms)
    )


def scalar_jordan() -> AlgebraFD:
    """The ground field as a one-dimensional Jordan algebra."""
    return AlgebraFD("jordan", ("1",), {(0, 0): {0: F1}})


def diagonal_jordan(n: int) -> AlgebraFD:
    """k^n with componentwise multiplication."""
    labels = tuple("e%d" % i for i in range(1, n + 1))
    return AlgebraFD("jordan", labels, {(i, i): {i: F1} for i in range(n)})


def symmetric_matrix_jordan(n: int) -> AlgebraFD:
    """Symmetric n-by-n matrices under the symmetrized product."""
    basis = [(i, j) for i in range(n) for j in range(i, n)]
    index = {b: t for t, b in enumerate(basis)}
    labels = tuple("S%d%d" % (i + 1, j + 1) for i, j in basis)

    def as_matrix(i, j):
        m = [[F0] * n for _ in range(n)]
        m[i][j] += 1
        m[j][i] += 1
        return m

    half = Fraction(1, 2)
    table = {}
    for s, (i, j) in enumerate(basis):
        for t, (k, l) in enumerate(basis):
            a, b = as_matrix(i, j), as_matrix(k, l)
            prod = [
                [
                    half * sum(a[r][m] * b[m][c] + b[r][m] * a[m][c] for m in range(n))
                    for c in range(n)
                ]
                for r in range(n)
            ]
            entry = {}
            for r in range(n):
                for c in range(r, n):
                    if prod[r][c]:
                        # S_rc has a 2 on the diagonal when r == c
                        coeff = prod[r][c] / (2 if r == c else 1)
                        entry[index[(r, c)]] = coeff
            if entry:
                table[(s, t)] = entry
    return AlgebraFD("jordan", labels, table)


def _d_ab(J: AlgebraFD, i: int, j: int) -> dict:
    """The commutator [L_i, L_j] with the parity sign, column by column.

    Column c is i(jc) - j(ic), or i(jc) + j(ic) when i and j are both odd,
    summed over the structure table.  The result maps each nonzero column
    c to its entries {row: coefficient}.
    """
    s = 1 if (J.parity[i] and J.parity[j]) else -1
    ei, ej = {i: F1}, {j: F1}
    cols = {}
    for c in range(J.dim):
        col = J.mult(ei, J.product(j, c))
        add_scaled(col, J.mult(ej, J.product(i, c)), s)
        if col:
            cols[c] = col
    return cols


@dataclass
class DerivationSpace:
    """A spanning family of derivations of a fixed algebra."""

    generators: tuple  # sparse columns {column: {row: coefficient}}
    rank: int


def _is_derivation(J: AlgebraFD, D: dict, p_d: int) -> bool:
    """D(uv) = D(u)v + (-1)^(|D||u|) u D(v) on every basis pair u, v; only
    the pairs with a nonzero product uv, D(u)v or uD(v) can fail."""
    cols = {}  # m: the columns x with m in D(x)
    for x, col in D.items():
        for m in col:
            cols.setdefault(m, []).append(x)
    pairs = set(J.table)
    for u, v in J.table:
        pairs.update((x, v) for x in cols.get(u, ()))
        pairs.update((u, x) for x in cols.get(v, ()))
    for u, v in pairs:
        lhs = {}
        for k, c in J.product(u, v).items():
            add_scaled(lhs, D.get(k, {}), c)
        rhs = J.mult(D.get(u, {}), {v: F1})
        add_scaled(rhs, J.mult({u: F1}, D.get(v, {})), -1 if (p_d and J.parity[u]) else 1)
        if lhs != rhs:
            return False
    return True


def inner_derivations(J: AlgebraFD) -> DerivationSpace:
    """Span of the operators [L_a, L_b] over basis pairs of J.

    J is checked first (AlgebraFD.check); each generator is checked to be
    a derivation on every basis pair.
    """
    if J.kind != "jordan":
        raise ValueError("inner derivations ask for a jordan-kind algebra")
    J.check()
    gens = []
    red = ExactRowReducer()
    for i, j in _wedge_pairs(J):
        D = _d_ab(J, i, j)
        if not D:
            continue
        if not _is_derivation(J, D, (J.parity[i] + J.parity[j]) % 2):
            raise ValueError(
                "[L_%s, L_%s] is not a derivation" % (J.labels[i], J.labels[j])
            )
        gens.append(D)
        red.add({(r, c): v for c, col in D.items() for r, v in col.items()})
    return DerivationSpace(tuple(gens), red.rank)


def _wedge_pairs(J: AlgebraFD) -> list:
    """The pairs (i, j) with i < j, and (i, i) for odd i, in order: the
    basis of the parity-aware exterior square of J."""
    return [(i, j) for i in range(J.dim) for j in range(i, J.dim)
            if i < j or J.parity[i]]


def _wedge(J: AlgebraFD, i: int, j: int) -> tuple:
    """(pair, sign) with e_i ^ e_j = sign * e_pair, pair one of
    _wedge_pairs(J); the sign is 0 when i = j is even."""
    if i == j and not J.parity[i]:
        return (i, j), 0
    if i <= j:
        return (i, j), 1
    return (j, i), (1 if J.parity[i] and J.parity[j] else -1)


class BSpace:
    """Lambda^2(J) modulo the cyclic relations, with explicit coordinates.

    Wedge pairs (i, j) with i < j, plus (i, i) for odd i, span the
    parity-aware exterior square; the quotient is row reduced per degree
    block so any wedge can be rewritten in the representative basis.
    """

    def __init__(self, J: AlgebraFD):
        self.J = J
        self._table = _int_table(J)
        self._blocks = {}
        for pair in _wedge_pairs(J):
            block = self._blocks.setdefault(self._key(pair), ([], ExactRowReducer()))
            block[0].append(pair)
        # the Koszul-signed relation
        #   (-1)^{|a||c|} ab^c + (-1)^{|b||a|} bc^a + (-1)^{|c||b|} ca^b
        # of (a, b, c) is that of (b, c, a), and swapping a and b scales it
        # by (-1)^{|a||b| + |b||c| + |c||a|}, since ab = (-1)^{|a||b|} ba;
        # so one row per multiset {a <= b <= c} with a nonzero product
        # spans them all
        triples = {
            tuple(sorted((a, b, c))) for a, b in J.table for c in range(J.dim)
        }
        for a, b, c in sorted(triples):
            row = {}
            self._wedge_into(row, a, b, c)
            self._wedge_into(row, b, c, a)
            self._wedge_into(row, c, a, b)
            if row:
                self._blocks[self._key(next(iter(row)))][1].add(row)
        self.basis = []
        for key in sorted(self._blocks, key=lambda k: (k is not None, k)):
            block_pairs, red = self._blocks[key]
            self.basis.extend(pr for pr in block_pairs if pr not in red.pivot_rows)
        self.basis = tuple(self.basis)
        self.dim = len(self.basis)

    def _key(self, pair):
        if self.J.degree is None:
            return None
        return _deg_add(self.J.degree[pair[0]], self.J.degree[pair[1]])

    def _wedge_into(self, row: dict, a: int, b: int, c: int) -> None:
        # row += (-1)^{|a||c|} ab ^ e_c, with ab times the lcm of the
        # table's denominators: the rows span the same space in ints
        J = self.J
        scale = -1 if J.parity[a] and J.parity[c] else 1
        for m, cm in self._table.get((a, b), {}).items():
            pair, s = _wedge(J, m, c)
            if not s:
                continue
            v = row.get(pair, 0) + scale * s * cm
            if v:
                row[pair] = v
            else:
                row.pop(pair, None)

    def graded_dims(self) -> dict:
        """Dimension of the quotient per degree block (graded J only)."""
        if self.J.degree is None:
            raise ValueError("the underlying algebra carries no grading")
        out = {}
        for key, (block_pairs, red) in self._blocks.items():
            out[key] = len(block_pairs) - red.rank
        return {k: v for k, v in sorted(out.items()) if v}

    def coords(self, i: int, j: int) -> dict:
        """The class of e_i ^ e_j in the representative basis."""
        pair, s = _wedge(self.J, i, j)
        if not s:
            return {}
        red = self._blocks[self._key(pair)][1]
        # the remainder lives on non-pivot columns, which are the basis
        return dict(sorted(red.reduce({pair: s}).items()))


def b_space(J: AlgebraFD) -> BSpace:
    """The exterior square of J modulo the cyclic relations."""
    if J.kind != "jordan":
        raise ValueError("b_space asks for a jordan-kind algebra")
    return BSpace(J)


# sl2 in the defining representation: e, h, f with [e,f]=h, [h,e]=2e,
# [h,f]=-2f; tr(e f) = 1, tr(h h) = 2, all other basis traces vanish.
# The bracket coupling below is 2 tr = (1/2) Killing; see the module
# docstring for why no other scaling satisfies Jacobi.
_SL2_BRACKET = {
    (0, 1): {0: Fraction(-2)},
    (1, 0): {0: Fraction(2)},
    (0, 2): {1: F1},
    (2, 0): {1: -F1},
    (1, 2): {2: Fraction(-2)},
    (2, 1): {2: Fraction(2)},
}
_SL2_TRACE = {(0, 2): F1, (2, 0): F1, (1, 1): Fraction(2)}
_SL2_LABELS = ("e", "h", "f")
_SL2_WEIGHT = (2, 0, -2)


def tag(J: AlgebraFD) -> AlgebraFD:
    """The Lie (super)algebra sl2 (x) J  (+)  B(J).

    The result is checked (AlgebraFD.check): its super-Jacobi identity
    holds on every basis triple, or RuntimeError is raised, since the
    bracket formulas are a theorem once J is Jordan.
    """
    if J.kind != "jordan":
        raise ValueError("tag asks for a jordan-kind algebra")
    B = b_space(J)
    d_mats = {pr: _d_ab(J, *pr) for pr in B.basis}
    ncore = 3 * J.dim

    def t_index(x: int, a: int) -> int:
        return x * J.dim + a

    b_index = {pr: ncore + t for t, pr in enumerate(B.basis)}
    labels = [
        "%s(x)%s" % (s, J.labels[a]) for s in _SL2_LABELS for a in range(J.dim)
    ]
    labels += ["%s^%s" % (J.labels[i], J.labels[j]) for i, j in B.basis]
    parity = [J.parity[a] for _ in range(3) for a in range(J.dim)]
    parity += [(J.parity[i] + J.parity[j]) % 2 for i, j in B.basis]
    degree = None
    if J.degree is not None:
        degree = [J.degree[a] for _ in range(3) for a in range(J.dim)]
        degree += [_deg_add(J.degree[i], J.degree[j]) for i, j in B.basis]
    weight = [_SL2_WEIGHT[s] for s in range(3) for _ in range(J.dim)]
    weight += [0] * len(B.basis)

    table = {}

    def put(i, j, entry):
        entry = {k: c for k, c in entry.items() if c}
        if entry:
            table[(i, j)] = entry

    # each product and each wedge class once per basis pair
    wedge = {(a, b): B.coords(a, b) for a in range(J.dim) for b in range(J.dim)}
    pairs = [(a, b, J.product(a, b), w) for (a, b), w in wedge.items()
             if J.product(a, b) or w]
    coupling = Fraction(2)
    for x in range(3):
        for y in range(3):
            xy = _SL2_BRACKET.get((x, y), {})
            tr = _SL2_TRACE.get((x, y), F0)
            if not (xy or tr):
                continue
            for a, b, ab, ab_wedge in pairs:
                entry = {}
                for z, cz in xy.items():
                    for k, ck in ab.items():
                        key = t_index(z, k)
                        entry[key] = entry.get(key, F0) + cz * ck
                if tr:
                    for pr, cf in ab_wedge.items():
                        key = b_index[pr]
                        entry[key] = entry.get(key, F0) + coupling * tr * cf
                put(t_index(x, a), t_index(y, b), entry)
    for pr in B.basis:
        D = d_mats[pr]
        w = b_index[pr]
        p_w = parity[w]
        for x in range(3):
            for c in range(J.dim):
                entry = {t_index(x, r): v for r, v in D.get(c, {}).items()}
                put(w, t_index(x, c), entry)
                sgn = -1 if (p_w and J.parity[c]) else 1
                put(t_index(x, c), w, {k: -sgn * v for k, v in entry.items()})
        for pr2 in B.basis:
            c, d = pr2
            sgn = -1 if (p_w and J.parity[c]) else 1
            entry = {}
            for r, v in D.get(c, {}).items():
                for tgt, cf in wedge[r, d].items():
                    key = b_index[tgt]
                    entry[key] = entry.get(key, F0) + v * cf
            for r, v in D.get(d, {}).items():
                for tgt, cf in wedge[c, r].items():
                    key = b_index[tgt]
                    entry[key] = entry.get(key, F0) + sgn * v * cf
            put(b_index[pr], b_index[pr2], entry)

    L = AlgebraFD("lie", labels, table, parity=parity, degree=degree,
                  sl2_weight=weight)
    try:
        L.check()
    except ValueError as err:
        raise RuntimeError("tag construction is inconsistent: %s" % err)
    return L


# the highest truncation degree per number of even generators; raising
# one needs its own measured run
_MAX_DEGREE = {1: 8, 2: 8, 3: 5}


def truncated_free_jordan(g: int, N: int, parities: tuple | None = None) -> AlgebraFD:
    """The free Jordan (super)algebra on g generators, cut at degree N.

    Supported signatures: one odd generator (the square-zero line); one,
    two or three even generators, up to the degree in _MAX_DEGREE, past
    which InfeasibleError is raised.  Even generators are built from the
    exact multidegree components: the basis is the quotient basis of each
    content, labelled by its normal-monomial key ("12.1" is (x1 x2) x1),
    and the products are straightened and reduced in their component.
    Degrees are stored as content tuples so the grading survives into
    tag() and homology.
    """
    from .multidegree import _components, _Products

    if N < 1 or g < 1:
        raise ValueError("need g >= 1 generators and degree N >= 1")
    parities = tuple(parities) if parities is not None else (0,) * g
    if len(parities) != g:
        raise ValueError("need one parity bit per generator")
    if parities == (1,):
        return AlgebraFD(
            "jordan", ("x",), {}, parity=(1,), degree=((1,),)
        )
    if any(parities):
        raise ValueError("unsupported signature: odd generators beyond one")
    if g not in _MAX_DEGREE:
        raise ValueError("unsupported signature: %d generators" % g)
    if N > _MAX_DEGREE[g]:
        raise InfeasibleError(
            "%d generators at degree %d" % (g, N),
            estimate="past the exact component bound",
        )
    contents = []
    for total in range(1, N + 1):
        for delta in itertools.product(range(total + 1), repeat=g):
            if sum(delta) == total:
                contents.append(delta)
    # the components and the structure constants share one product table
    products = _Products()
    comps = _components(contents, products)
    basis = []
    for delta in contents:
        basis.extend((delta, m) for m in comps[delta].basis)
    index = {bm: t for t, bm in enumerate(basis)}

    def fmt(m):
        head, factors = m
        parts = ["".join(str(x) for x in head)]
        parts += ["".join(str(x) for x in f) for f in factors]
        return ".".join(parts)

    labels = tuple(fmt(m) for delta, m in basis)
    degree = tuple(delta for delta, m in basis)
    table = {}
    for s, (d1, m1) in enumerate(basis):
        for t, (d2, m2) in enumerate(basis):
            if sum(d1) + sum(d2) > N:
                break  # the basis runs in increasing total degree
            dsum = _deg_add(d1, d2)
            shift, terms = products.mul(products.id(m1), products.id(m2))
            prod = {products.mons[i]: Fraction(c, 1 << shift) for i, c in terms}
            coords = comps[dsum].coords(prod)
            entry = {index[(dsum, m)]: c for m, c in coords.items()}
            if entry:
                table[(s, t)] = entry
    return AlgebraFD("jordan", labels, table, degree=degree)


# words per slice when a chain level is built or differentiated
_SLICE = 1 << 13


def _int_table(L: AlgebraFD) -> dict:
    """D times the table as {(a, b): {k: int}}, D the lcm of its denominators."""
    D = math.lcm(*(c.denominator for prod in L.table.values() for c in prod.values()))
    return {ab: {k: c.numerator * (D // c.denominator) for k, c in prod.items()}
            for ab, prod in L.table.items()}


def _int_bracket(L: AlgebraFD, kmax: int) -> tuple:
    """D times the bracket, D the lcm of its denominators, as an int CSR
    table (indptr, target, coef): the terms of [x_a, x_b] are
    target[t] * coef[t] for t from indptr[a * dim + b] to
    indptr[a * dim + b + 1] - 1.

    coef is int64 when every entry of D d_k and every partial sum of
    D^2 d_k d_{k-1}, k <= kmax + 1, stays below 2^63, and holds Python
    ints otherwise, so no sum can wrap."""
    n = L.dim
    count = np.zeros(n * n + 1, np.int64)
    target, coef = [], []
    for (a, b), prod in sorted(_int_table(L).items()):
        count[a * n + b + 1] = len(prod)
        for k, c in sorted(prod.items()):
            target.append(k)
            coef.append(c)
    # a word of length k has P = k(k-1)/2 pairs, so an entry of D d_k is
    # at most T P and a row of it has at most P w nonzeros, with T the
    # largest coefficient and w the most terms of one bracket
    P = kmax * (kmax + 1) // 2
    T = max(map(abs, coef), default=0)
    w = max(map(len, L.table.values()), default=0)
    dtype = np.int64 if P * w * (T * P) ** 2 < 2**63 else object
    return np.cumsum(count), np.array(target, np.int64), np.array(coef, dtype)


def _letter_codes(L: AlgebraFD, kmax: int) -> tuple:
    """Each basis vector's row (sl2 weight, degree...) packed into one
    int64 code, as balanced base-R digits with the weight most significant
    and R = 2 * max|entry| * (kmax + 1) + 1.  A word of at most kmax + 1
    letters sums each digit to at most max|entry| * (kmax + 1) in size, so
    its key, the sum of its letters' codes, holds every summed entry apart
    and keys order as their rows do.  Returns (codes, R, width)."""
    weight = L.sl2_weight or (0,) * L.dim
    if L.degree is None:
        rows = [(w,) for w in weight]
    else:
        rows = [(w,) + d for w, d in zip(weight, L.degree)]
    big = max((abs(x) for row in rows for x in row), default=0)
    width = 1 + (len(L.degree[0]) if L.degree else 0)
    R = 2 * big * (kmax + 1) + 1
    if R**width >= 2**62:
        raise ValueError("grading entry %d is too large for 64-bit keys" % big)
    codes = [sum(x * R ** (width - 1 - q) for q, x in enumerate(row)) for row in rows]
    return np.array(codes, np.int64), R, width


def _digits(keys: np.ndarray, R: int, width: int) -> np.ndarray:
    """The rows (weight, degree...) packed in keys by _letter_codes."""
    out = np.empty((len(keys), width), np.int64)
    for q in range(width - 1, -1, -1):
        out[:, q] = (keys + R // 2) % R - R // 2
        keys = (keys - out[:, q]) // R
    return out


def _ranges(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """lo[0] .. lo[0] + cnt[0] - 1, then lo[1] .. lo[1] + cnt[1] - 1, and
    so on, as one array."""
    return np.arange(int(cnt.sum())) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)


def _sum_by(code: np.ndarray, val: np.ndarray) -> tuple:
    """The distinct codes in increasing order, each with the sum of its
    values; codes whose values sum to 0 are dropped."""
    if not len(code):
        return code, val
    order = np.argsort(code, kind="stable")
    code, val = code[order], val[order]
    head = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    code, val = code[head], np.add.reduceat(val, head)
    nz = val != 0
    return code[nz], val[nz]


def _position(ref: np.ndarray, query: np.ndarray) -> np.ndarray:
    """For each entry of query, its index in ref (sorted and distinct;
    not empty unless query is), or -1 where ref does not hold it."""
    at = np.searchsorted(ref, query).clip(max=len(ref) - 1)
    return np.where(ref[at] == query, at, -1)


def _extend(words, key, first, code, start, allowed=None) -> tuple:
    """The chain words one letter longer, in lexicographic order, with
    their keys, built in slices of about _SLICE words.

    Word p of words (sorted rows of one length) takes the letters from
    its first allowed one on, so its children are rows first[p] ..
    first[p + 1] - 1 of the whole next level; a child's key is key[p]
    plus its letter's code.  With allowed (sorted keys) given, a child
    whose key is not in it is left out, and the kept children carry the
    index of their key in allowed instead."""
    k = words.shape[1] + 1
    out_words, out_key = [np.zeros((0, k), np.int32)], [np.zeros(0, np.int64)]
    lo = 0
    while lo < len(words):
        hi = max(int(np.searchsorted(first, first[lo] + _SLICE, "right")) - 1, lo + 1)
        parent = np.repeat(np.arange(lo, hi), np.diff(first[lo : hi + 1]))
        letter = np.arange(first[lo], first[hi]) - first[parent]
        if k > 1:
            letter += start[words[parent, -1]]
        ckey = key[parent] + code[letter]
        if allowed is not None:
            ckey = _position(allowed, ckey)
            keep = np.flatnonzero(ckey >= 0)
            parent, letter, ckey = parent[keep], letter[keep], ckey[keep]
        child = np.empty((len(parent), k), np.int32)
        child[:, :-1] = words[parent]
        child[:, -1] = letter
        out_words.append(child)
        out_key.append(ckey)
        lo = hi
    return np.concatenate(out_words), np.concatenate(out_key)


def _word_index(words: np.ndarray, firsts: list, start: np.ndarray) -> np.ndarray:
    """The row of each sorted word in its level: the children of row p of
    level q - 1 are rows firsts[q][p] .. firsts[q][p + 1] - 1 of level q,
    one per letter from the first allowed one on."""
    idx = np.zeros(len(words), np.int64)
    for q in range(words.shape[1]):
        idx = firsts[q + 1][idx] + words[:, q]
        if q:
            idx -= start[words[:, q - 1]]
    return idx


def _differentiate(words, par, start, bracket, firsts) -> tuple:
    """D d on a slice of sorted chain words of one length k, as
    (row, column, value) arrays sorted by row and column, without zeros:
    row is the word's place in the slice and column the row of the
    boundary word in level k - 1.

    Each position pair (i, j) is done for the whole slice at once: the
    bracket [x_i, x_j] replaces the pair and moves into the sorted rest of
    the word, and the Koszul signs count the letters each one passes; an
    even letter that meets itself gives 0."""
    indptr, target, coef = bracket
    k = words.shape[1]
    codes, vals = [], []
    if k >= 2:
        n = len(par)
        ncols = int(firsts[k - 1][-1])
        odd = par[words]
        # letters before position q that x_q passes with a sign change
        passes = [(~(odd[:, :q] & odd[:, q : q + 1])).sum(1) for q in range(k)]
        slots = np.arange(k - 1)
        for i in range(k - 1):
            for j in range(i + 1, k):
                ab = words[:, i].astype(np.int64) * n + words[:, j]
                lo = indptr[ab]
                cnt = indptr[ab + 1] - lo
                hit = np.flatnonzero(cnt)
                if not len(hit):
                    continue
                cnt = cnt[hit]
                r = np.repeat(hit, cnt)
                t = _ranges(lo[hit], cnt)
                m = target[t]
                rest = words[r[:, None], [q for q in range(k) if q != i and q != j]]
                below = rest < m[:, None]
                m_odd = par[m]
                keep = np.flatnonzero(m_odd | ~(rest == m[:, None]).any(1))
                r, t, m, rest, below, m_odd = (
                    x[keep] for x in (r, t, m, rest, below, m_odd))
                # x_i moves to the front, x_j next to it, then the bracket
                # past the letters of rest below it
                flip = passes[i] + passes[j] - ~(odd[:, i] & odd[:, j])
                flip = flip[r] + (below & ~(m_odd[:, None] & par[rest])).sum(1)
                val = np.where(flip & 1, -coef[t], coef[t])
                pos = below.sum(1)[:, None]
                mm = m[:, None].astype(np.int32)
                boundary = np.where(
                    slots < pos,
                    np.concatenate([rest, mm], 1),
                    np.where(slots == pos, mm, np.concatenate([mm, rest], 1)),
                )
                codes.append(r * ncols + _word_index(boundary, firsts, start))
                vals.append(val)
    if not codes:
        empty = np.zeros(0, np.int64)
        return empty, empty, np.zeros(0, coef.dtype)
    code, val = _sum_by(np.concatenate(codes), np.concatenate(vals))
    return code // ncols, code % ncols, val


def _square_is_zero(r, c, v, below) -> bool:
    """Whether the rows (r, c, v) of D d_k times D d_{k-1} vanish, with
    below = (indptr, cols, vals, ncols) the CSR form of D d_{k-1}."""
    indptr, cols, vals, ncols = below
    lo = indptr[c]
    cnt = indptr[c + 1] - lo
    t = _ranges(lo, cnt)
    code = np.repeat(r, cnt) * ncols + cols[t]
    return not len(_sum_by(code, np.repeat(v, cnt) * vals[t])[0])


@dataclass
class HomologyResult:
    """Chain and homology dimensions, with optional finer splittings."""

    dims: tuple
    chain_dims: tuple
    weight_dims: tuple | None = None  # per k: {sl2 weight: dim}
    degree_dims: tuple | None = None  # per k: {degree tuple: dim}

    def euler(self) -> int:
        return sum((-1) ** k * d for k, d in enumerate(self.dims))


def _rank_level(words, kid, bound, below, diff, keep) -> tuple:
    """Rank D d_k on each block of one level, exactly, and check d^2 = 0.

    The words (one level, with key ids kid) go through diff, which gives
    D d_k on a slice, in slices of _SLICE words in key order, so that one
    block's rows reach one ExactRowReducer after another; block g takes
    rows until its rank reaches bound[g].  Every slice is checked against
    below, the CSR form (indptr, cols, vals, ncols) of D d_{k-1}, before
    it is ranked.  Returns the rank per key id and, when keep is set, the
    CSR form of D d_k with its rows in level order (None otherwise)."""
    rank = np.zeros(len(bound), np.int64)
    order = np.argsort(kid, kind="stable")
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), below[2][:0])]
    red, cur = None, -1
    for lo in range(0, len(order), _SLICE):
        rows = order[lo : lo + _SLICE]
        r, c, v = diff(words[rows])
        if not _square_is_zero(r, c, v, below):
            raise ValueError("differential does not square to zero; not Lie")
        ptr = np.searchsorted(r, np.arange(len(rows) + 1)).tolist()
        cl, vl = c.tolist(), v.tolist()
        ks = kid[rows]
        heads = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]).tolist()
        for a, b in zip(heads, heads[1:] + [len(rows)]):
            g = int(ks[a])
            if g != cur:
                if red is not None:
                    rank[cur] = red.rank
                red, cur = ExactRowReducer(), g
            for t in range(a, b):
                if red.rank >= bound[g]:
                    break
                if ptr[t] < ptr[t + 1]:
                    red.add(dict(zip(cl[ptr[t] : ptr[t + 1]], vl[ptr[t] : ptr[t + 1]])))
        if keep:
            parts.append((rows[r], c, v))
    if red is not None:
        rank[cur] = red.rank
    if not keep:
        return rank, None
    r, c, v = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(r, kind="stable")
    indptr = np.zeros(len(words) + 1, np.int64)
    indptr[1:] = np.cumsum(np.bincount(r, minlength=len(words)))
    return rank, (indptr, c[order], v[order], len(below[0]) - 1)


def ce_homology(L: AlgebraFD, kmax: int) -> HomologyResult:
    """Homology of the (super) Chevalley-Eilenberg complex, exactly.

    The bracket must add sl2 weight and degree (checked first; ValueError
    otherwise), so the differential preserves the summed (weight, degree)
    key of a chain word and the complex splits into one block per key;
    kmax < 0 raises ValueError.

    Level k holds its chain words as one int32 array, one sorted letter
    tuple per row, in lexicographic order; it is built from level k - 1 by
    appending to each word every letter from its last one on (from the
    one after it when the last letter is even, which never repeats).
    Levels 0..kmax are built whole.  Level kmax + 1 serves only rank
    d_{kmax+1} on the blocks of level kmax, so only its words with a key
    that occurs at level kmax are built: every other top-level word maps
    into an empty block, so its differential is 0.  A word's key is one
    int64, the sum of its letters' codes, each letter's (weight,
    degree...) row packed as balanced digits (_letter_codes), so a longer
    word's key is its prefix's key plus the new letter's code; a grading
    whose packed sums could reach 2^62 raises ValueError.

    The differentials are built from the bracket times D, the lcm of its
    denominators, so they are D d_k, with integer coefficients: that
    leaves every rank as it is, and D d squares to zero exactly when d
    does.  D d_k is computed on slices of the level's words, one position
    pair at a time, and each boundary word is found in the level below by
    its prefixes.  Every word built is checked to have D^2 d_k d_{k-1} = 0
    (the words left out have d = 0, so d^2 = 0 holds on them too) before
    its block is ranked; only the differential of the level below is kept
    for that check.  Ranks are exact over Q, block by block; a block of
    level k stops taking rows once its rank reaches
    dim C_{k-1}(key) - rank d_{k-1}(key), since d^2 = 0 puts the image of
    d_k inside the kernel of d_{k-1}.
    """
    if L.kind != "lie":
        raise ValueError("homology asks for a lie-kind algebra")
    if kmax < 0:
        raise ValueError("homology needs kmax >= 0, not %d" % kmax)
    L._check_grading()
    n = L.dim
    bracket = _int_bracket(L, kmax)
    code, R, width = _letter_codes(L, kmax)
    par = np.array(L.parity, bool)
    # start[x]: the first letter a word ending in x may take next, since
    # an even letter never repeats
    start = np.arange(n) + ~par
    diff = lambda w: _differentiate(w, par, start, bracket, firsts)
    # level 0: the empty word, in degree zero
    words = np.zeros((1, 0), np.int32)
    key = keys = np.zeros(1, np.int64)
    firsts = [None]
    # per level: sorted keys, block sizes, rank d_k and rank d_{k+1} per block
    levels = [(keys, np.ones(1, np.int64), np.zeros(1, np.int64), np.zeros(1, np.int64))]
    # D d_{k-1} as (indptr, cols, vals, ncols); d_0 = 0
    below = (np.zeros(2, np.int64), np.zeros(0, np.int64), bracket[2][:0], 0)
    for k in range(1, kmax + 2):
        top = k == kmax + 1
        # the children of word p are rows first[p] .. first[p + 1] - 1
        first = np.zeros(len(words) + 1, np.int64)
        first[1:] = np.cumsum(n - (start[words[:, -1]] if k > 1 else 0))
        if top:
            # only the words keyed like a block of level kmax
            words, kid = _extend(words, key, first, code, start, keys)
            new_keys = keys
        else:
            words, key = _extend(words, key, first, code, start)
            new_keys, kid = np.unique(key, return_inverse=True)
            firsts.append(first)
        # each block's key among the blocks of level k - 1, or -1
        under = _position(keys, new_keys)
        _, prev_size, prev_rank, prev_out = levels[-1]
        bound = np.where(under >= 0, prev_size[under] - prev_rank[under], 0).tolist()
        rank, below = _rank_level(words, kid, bound, below, diff, keep=not top)
        hit = under >= 0
        prev_out[under[hit]] = rank[hit]
        if top:
            break
        keys = new_keys
        levels.append((keys, np.bincount(kid, minlength=len(keys)), rank,
                       np.zeros(len(keys), np.int64)))
    dims, weight_dims, degree_dims = [], [], []
    for k, (keys, size, rank, out) in enumerate(levels):
        h = size - rank - out
        if (h < 0).any():
            raise RuntimeError("negative block dimension; rank bookkeeping bug")
        wdims, ddims = {}, {}
        for row, x in zip(_digits(keys, R, width).tolist(), h.tolist()):
            if not x:
                continue
            wdims[row[0]] = wdims.get(row[0], 0) + x
            # the empty word's degree is ()
            deg = tuple(row[1:]) if k else ()
            ddims[deg] = ddims.get(deg, 0) + x
        dims.append(int(h.sum()))
        weight_dims.append(dict(sorted(wdims.items())))
        degree_dims.append(dict(sorted(ddims.items())))
    return HomologyResult(
        dims=tuple(dims),
        chain_dims=tuple(int(size.sum()) for _, size, _, _ in levels),
        weight_dims=tuple(weight_dims) if L.sl2_weight else None,
        degree_dims=tuple(degree_dims) if L.degree is not None else None,
    )


def sl2_decompose(h: HomologyResult) -> tuple:
    """Highest weights of each homology degree, from weight-space counts.

    A semisimple sl2-action forces symmetric weight strings; multiplicity
    of the irreducible with highest weight w is dim(w) - dim(w + 2).
    Inconsistent weight data raises, since it signals a bug upstream.
    """
    if h.weight_dims is None:
        raise ValueError("homology carries no sl2 weight data")
    out = []
    for k, wd in enumerate(h.weight_dims):
        for w, d in wd.items():
            if wd.get(-w, 0) != d or w % 2:
                raise RuntimeError("weight string asymmetric in degree %d" % k)
        tops = []
        ws = sorted((w for w in wd if w >= 0), reverse=True)
        for w in ws:
            m = wd[w] - wd.get(w + 2, 0)
            if m < 0:
                raise RuntimeError("weight multiplicities not unimodal in degree %d" % k)
            tops.extend([w] * m)
        out.append(tuple(sorted(tops, reverse=True)))
    return tuple(out)
