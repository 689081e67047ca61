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

ce_homology runs on integers: it scales the bracket once by D, the lcm of
its denominators (1, 2 or 4 on the free truncations), which multiplies
every differential d_k by D.  Ranks do not change under a nonzero scalar,
and (D d)^2 = D^2 d^2 vanishes exactly when d^2 does, so the d^2 = 0 check
keeps its meaning; the row reducer then stays on ints throughout.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

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
    kind.  Basis indices outside 0..dim-1, and parity, degree or weight
    lists of another length than dim, raise ValueError.
    """

    def __init__(self, kind, labels, table, parity=None, degree=None, sl2_weight=None):
        if kind not in ("jordan", "lie"):
            raise ValueError("kind must be jordan or lie")
        self.kind = kind
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.parity = tuple(parity) if parity else (0,) * self.dim
        if len(self.parity) != self.dim:
            raise ValueError(
                "%d parity bits for %d basis vectors" % (len(self.parity), self.dim)
            )
        if degree is not None:
            degree = tuple(
                (d,) if isinstance(d, int) else tuple(d) for d in degree
            )
            if len(degree) != self.dim:
                raise ValueError(
                    "%d degrees for %d basis vectors" % (len(degree), self.dim)
                )
        self.degree = degree
        self.sl2_weight = tuple(sl2_weight) if sl2_weight else None
        if self.sl2_weight is not None and len(self.sl2_weight) != self.dim:
            raise ValueError(
                "%d sl2 weights for %d basis vectors" % (len(self.sl2_weight), self.dim)
            )
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

    def check(self, jacobi: str = "full") -> None:
        """Verify the structure the kind claims; raises ValueError.

        For the lie kind, jacobi="full" tests every basis triple and
        "sample" tests 500 random triples drawn with seed 0 (for large
        algebras).
        """
        self._check_grading()
        sign = lambda i, j: -1 if (self.parity[i] and self.parity[j]) else 1
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = self.product(i, j)
                rhs = self.product(j, i)
                s = sign(i, j) if self.kind == "jordan" else -sign(i, j)
                if lhs != {k: s * c for k, c in rhs.items()}:
                    raise ValueError(
                        "products of %s, %s break the %s symmetry"
                        % (self.labels[i], self.labels[j], self.kind)
                    )
        if self.kind != "lie":
            return
        if jacobi == "full":
            triples = itertools.combinations_with_replacement(range(self.dim), 3)
        else:
            rnd = random.Random(0)
            triples = (
                tuple(rnd.randrange(self.dim) for _ in range(3)) for _ in range(500)
            )
        for i, j, k in triples:
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                s = sign(a, c)
                for m, cm in self.product(a, b).items():
                    add_scaled(acc, self.product(m, c), s * cm)
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

    ambient_dim: int
    pairs: tuple
    generators: tuple  # sparse columns {column: {row: coefficient}}
    rank: int


def _is_derivation(J: AlgebraFD, D: dict, p_d: int) -> bool:
    """D(uv) = D(u)v + (-1)^(|D||u|) u D(v) on every basis pair u, v."""
    for u in range(J.dim):
        du = D.get(u, {})
        sgn = -1 if (p_d and J.parity[u]) else 1
        for v in range(J.dim):
            lhs = {}
            for k, c in J.product(u, v).items():
                add_scaled(lhs, D.get(k, {}), c)
            rhs = J.mult(du, {v: F1})
            add_scaled(rhs, J.mult({u: F1}, D.get(v, {})), sgn)
            if lhs != rhs:
                return False
    return True


def inner_derivations(J: AlgebraFD) -> DerivationSpace:
    """Span of the operators [L_a, L_b] over basis pairs of J.

    The Jordan axiom is probed through the operators [L_a, L_{a a}] for
    basis a, which must vanish; each generator is checked to be a
    derivation: every generator when dim J <= 12, a seeded tenth of them
    above.
    """
    if J.kind != "jordan":
        raise ValueError("inner derivations ask for a jordan-kind algebra")
    for i in range(J.dim):
        if J.parity[i]:
            continue  # odd a: a*a = 0 already forces nothing here
        a, aa = {i: F1}, J.product(i, i)
        for c in range(J.dim):
            e = {c: F1}
            if J.mult(a, J.mult(aa, e)) != J.mult(aa, J.mult(a, e)):
                raise ValueError(
                    "[L_a, L_{aa}] != 0 for a = %s; not a Jordan algebra" % J.labels[i]
                )
    pairs = [(i, j) for i in range(J.dim) for j in range(i, J.dim)
             if i < j or J.parity[i]]
    gens = []
    kept_pairs = []
    red = ExactRowReducer()
    rnd = random.Random(7)
    for i, j in pairs:
        D = _d_ab(J, i, j)
        if not D:
            continue
        p_d = (J.parity[i] + J.parity[j]) % 2
        if J.dim <= 12 or rnd.random() < 0.1:
            if not _is_derivation(J, D, p_d):
                raise ValueError(
                    "[L_%s, L_%s] is not a derivation" % (J.labels[i], J.labels[j])
                )
        gens.append(D)
        kept_pairs.append((i, j))
        red.add({(r, c): v for c, col in D.items() for r, v in col.items()})
    return DerivationSpace(J.dim, tuple(kept_pairs), tuple(gens), red.rank)


class BSpace:
    """Lambda^2(J) modulo the cyclic relations, with explicit coordinates.

    Wedge pairs (i, j) with i < j, plus (i, i) for odd i, span the
    parity-aware exterior square; the quotient is row reduced per degree
    block so any wedge can be rewritten in the representative basis.
    """

    def __init__(self, J: AlgebraFD):
        self.J = J
        pairs = [
            (i, j)
            for i in range(J.dim)
            for j in range(i, J.dim)
            if i < j or J.parity[i]
        ]
        self._blocks = {}
        for pair in pairs:
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
        # row += (-1)^{|a||c|} ab ^ e_c
        J = self.J
        scale = -1 if J.parity[a] and J.parity[c] else 1
        for m, cm in J.product(a, b).items():
            if m == c:
                if not J.parity[m]:
                    continue
                pair, s = (m, c), 1
            elif m < c:
                pair, s = (m, c), 1
            else:
                s = 1 if (J.parity[m] and J.parity[c]) else -1
                pair = (c, m)
            v = row.get(pair, F0) + scale * s * cm
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
        J = self.J
        if i == j and not J.parity[i]:
            return {}
        s = F1
        if i > j:
            s = F1 if (J.parity[i] and J.parity[j]) else -F1
            i, j = j, i
        red = self._blocks[self._key((i, j))][1]
        # the remainder lives on non-pivot columns, which are the basis
        return dict(sorted(red.reduce({(i, j): s}).items()))


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

    The result's super-Jacobi identity is verified on every basis triple
    when it has at most 40 basis vectors, and on a seeded sample of triples
    otherwise; call check(jacobi="full") on a larger result to test every
    triple.  A Jacobi failure raises, since the bracket formulas are a
    theorem once J is Jordan.
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

    coupling = Fraction(2)
    for x in range(3):
        for y in range(3):
            xy = _SL2_BRACKET.get((x, y), {})
            tr = _SL2_TRACE.get((x, y), F0)
            for a in range(J.dim):
                for b in range(J.dim):
                    entry = {}
                    for z, cz in xy.items():
                        for k, ck in J.product(a, b).items():
                            key = t_index(z, k)
                            entry[key] = entry.get(key, F0) + cz * ck
                    if tr:
                        for pr, cf in B.coords(a, b).items():
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
                for tgt, cf in B.coords(r, d).items():
                    key = b_index[tgt]
                    entry[key] = entry.get(key, F0) + v * cf
            for r, v in D.get(d, {}).items():
                for tgt, cf in B.coords(c, r).items():
                    key = b_index[tgt]
                    entry[key] = entry.get(key, F0) + sgn * v * cf
            put(b_index[pr], b_index[pr2], entry)

    L = AlgebraFD("lie", labels, table, parity=parity, degree=degree,
                  sl2_weight=weight)
    try:
        L.check(jacobi="full" if L.dim <= 40 else "sample")
    except ValueError as err:
        raise RuntimeError("tag construction is inconsistent: %s" % err)
    return L


def truncated_free_jordan(g: int, N: int, parities: tuple | None = None) -> AlgebraFD:
    """The free Jordan (super)algebra on g generators, cut at degree N.

    Supported signatures: one odd generator (the square-zero line); one,
    two or three even generators.  Two even generators use the associative
    realization on reversal-fixed elements; one and three use exact
    multidegree components.  Degrees are stored as content tuples so the
    grading survives into tag() and homology.
    """
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
    if g == 2:
        return _truncated_two_gen(N)
    if g in (1, 3):
        return _truncated_multidegree(g, N)
    raise ValueError("unsupported signature: %d generators" % g)


def _truncated_two_gen(N: int) -> AlgebraFD:
    from .twogen import _reverse_mask, mask_to_word, reversible_basis

    if N > 8:
        raise InfeasibleError(
            "two-generator truncation at degree %d" % N,
            estimate="%d basis vectors" % (2 ** N),
        )
    basis = []
    for n in range(1, N + 1):
        for w, rev in reversible_basis(n):
            basis.append((n, w, rev))
    index = {(n, w): t for t, (n, w, rev) in enumerate(basis)}
    labels = tuple(
        "<%s>" % "".join(str(x) for x in mask_to_word(w, n)) for n, w, rev in basis
    )
    degree = []
    for n, w, rev in basis:
        ones = bin(w).count("1")
        degree.append((n - ones, ones))
    half = Fraction(1, 2)
    table = {}
    for s, (n1, w1, r1) in enumerate(basis):
        for t, (n2, w2, r2) in enumerate(basis):
            n = n1 + n2
            if n > N:
                continue
            # basis vectors are orbit sums w + rev, so expand with unit
            # coefficients; the lone half is the symmetrized product
            out = {}
            for u in {w1, r1}:
                for v in {w2, r2}:
                    out[(u << n2) | v] = out.get((u << n2) | v, F0) + half
                    out[(v << n1) | u] = out.get((v << n1) | u, F0) + half
            entry = {}
            for m in out:
                rev = _reverse_mask(m, n)
                if m > rev:
                    continue
                if out[m] != out.get(rev, F0):
                    raise RuntimeError("product left the reversible subspace")
                if out[m]:
                    entry[index[(n, m)]] = out[m]
            if entry:
                table[(s, t)] = entry
    return AlgebraFD("jordan", labels, table, degree=degree)


def _truncated_multidegree(g: int, N: int) -> AlgebraFD:
    from .multidegree import _components, _Products

    if (g, N) not in [(1, n) for n in range(1, 9)] and not (g == 3 and N <= 5):
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
            dsum = _deg_add(d1, d2)
            if sum(dsum) > N:
                continue
            shift, terms = products.mul(products.id(m1), products.id(m2))
            prod = {products.mons[i]: Fraction(c, 1 << shift) for i, c in terms}
            coords = comps[dsum].coords(prod)
            entry = {index[(dsum, m)]: c for m, c in coords.items()}
            if entry:
                table[(s, t)] = entry
    return AlgebraFD("jordan", labels, table, degree=degree)


def _extend_blocks(L: AlgebraFD, blocks: dict, letters: dict, keep) -> dict:
    """Chain words one letter longer, split by (weight, degree) key.

    blocks and letters map a key to its words and to its sorted letters; a
    word takes letters from its last one on, and an even letter never
    repeats.  Each key is added once per pair of a block and a letter
    group; keys outside keep (when not None) are never built.
    """
    out = {}
    for key, words in blocks.items():
        for lkey, group in letters.items():
            new = (key[0] + lkey[0],
                   None if key[1] is None else _deg_add(key[1], lkey[1]))
            if keep is not None and new not in keep:
                continue
            dest = out.setdefault(new, [])
            for w in words:
                last = w[-1]
                start = bisect_left(group, last if L.parity[last] else last + 1)
                dest.extend(w + (i,) for i in group[start:])
    return {key: ws for key, ws in out.items() if ws}


def _diff_word(par: tuple, table: dict, word: tuple) -> dict:
    """The Chevalley-Eilenberg differential of one sorted chain word, on
    the basis parities par and a bracket table {(i, j): {k: coefficient}}.

    Each bracket [x_i, x_j] replaces the pair and moves into the sorted
    rest of the word; the Koszul signs count the letters each one passes,
    and an even letter that meets itself gives 0."""
    out = {}
    k = len(word)
    odd = [par[x] for x in word]
    for i in range(k - 1):
        si = 1
        for l in range(i):
            if not (odd[i] and odd[l]):
                si = -si
        for j in range(i + 1, k):
            br = table.get((word[i], word[j]))
            if br is None:
                continue
            sj = si
            for l in range(j):
                if l != i and not (odd[j] and odd[l]):
                    sj = -sj
            rest = word[:i] + word[i + 1 : j] + word[j + 1 :]
            for m, cm in br.items():
                pos = bisect_left(rest, m)
                if par[m]:
                    s = sj
                    for r in rest[:pos]:
                        if not par[r]:
                            s = -s
                elif pos < len(rest) and rest[pos] == m:
                    continue
                else:
                    s = -sj if pos & 1 else sj
                tw = rest[:pos] + (m,) + rest[pos:]
                v = out.get(tw, 0) + s * cm
                if v:
                    out[tw] = v
                else:
                    del out[tw]
    return out


@dataclass
class HomologyResult:
    """Chain and homology dimensions, with optional finer splittings."""

    dims: tuple
    chain_dims: tuple
    weight_dims: tuple | None = None  # per k: {sl2 weight: dim}
    degree_dims: tuple | None = None  # per k: {degree tuple: dim}

    def euler(self) -> int:
        return sum((-1) ** k * d for k, d in enumerate(self.dims))


def ce_homology(L: AlgebraFD, kmax: int) -> HomologyResult:
    """Homology of the (super) Chevalley-Eilenberg complex, exactly.

    The bracket must add sl2 weight and degree (checked first; ValueError
    otherwise), so the differential preserves the summed (weight, degree)
    key of a chain word and the complex splits into one block per key.
    Chain words are built block by block, level k from level k - 1.
    Levels 0..kmax are built whole.  Level kmax + 1 serves only rank
    d_{kmax+1} on the blocks of level kmax, so only its words with a key
    that occurs at level kmax are built: every other top-level word maps
    into an empty block, so its differential is 0.  The differential is
    verified to square to zero on every word built (the words left out
    have d = 0, so d^2 = 0 holds on them too), block by block before that
    block is ranked.  The differentials are built from the bracket times
    D, the lcm of its denominators, so they are D d_k, with integer
    coefficients: that leaves every rank as it is, and D d squares to zero
    exactly when d does.  Ranks are exact over Q; a block of level k stops
    taking rows once its rank reaches dim C_{k-1}(key) - rank d_{k-1}(key),
    since d^2 = 0 puts the image of d_k inside the kernel of d_{k-1}.
    """
    if L.kind != "lie":
        raise ValueError("homology asks for a lie-kind algebra")
    L._check_grading()
    # D times the bracket, in ints: D is the lcm of its denominators
    D = math.lcm(*(c.denominator for prod in L.table.values() for c in prod.values()))
    table = {
        pair: {k: c.numerator * (D // c.denominator) for k, c in prod.items()}
        for pair, prod in L.table.items()
    }
    weight = L.sl2_weight or (0,) * L.dim
    letters = {}
    for i in range(L.dim):
        lkey = (weight[i], None if L.degree is None else L.degree[i])
        letters.setdefault(lkey, []).append(i)
    # the empty word sits in degree zero, keyed ()
    blocks = {(0, None if L.degree is None else ()): [()]}
    diffs = {(): {}}
    sizes = [{key: len(ws) for key, ws in blocks.items()}]
    ranks = [{}]  # per k: {key: rank of d_k on that block}
    for k in range(1, kmax + 2):
        keep = blocks if k == kmax + 1 else None
        if k == 1:
            level = {lkey: [(i,) for i in group] for lkey, group in letters.items()
                     if keep is None or lkey in keep}
        else:
            level = _extend_blocks(L, blocks, letters, keep)
        level_diffs, level_ranks = {}, {}
        for key, ws in level.items():
            imgs = [_diff_word(L.parity, table, w) for w in ws]
            for img in imgs:
                acc = {}
                for tw, c in img.items():
                    add_scaled(acc, diffs[tw], c)
                if acc:
                    raise ValueError("differential does not square to zero; not Lie")
            bound = len(blocks.get(key, ())) - ranks[k - 1].get(key, 0)
            red = ExactRowReducer()
            for img in imgs:
                if red.rank >= bound:
                    break
                if img:
                    red.add(img)
            level_ranks[key] = red.rank
            if k <= kmax:
                level_diffs.update(zip(ws, imgs))
        ranks.append(level_ranks)
        if k <= kmax:
            sizes.append({key: len(ws) for key, ws in level.items()})
            blocks, diffs = level, level_diffs
    dims, weight_dims, degree_dims = [], [], []
    for k in range(kmax + 1):
        total = 0
        wdims, ddims = {}, {}
        for key, n in sizes[k].items():
            h = n - ranks[k].get(key, 0) - ranks[k + 1].get(key, 0)
            if h < 0:
                raise RuntimeError("negative block dimension; rank bookkeeping bug")
            if not h:
                continue
            total += h
            wdims[key[0]] = wdims.get(key[0], 0) + h
            if key[1] is not None:
                ddims[key[1]] = ddims.get(key[1], 0) + h
        dims.append(total)
        weight_dims.append(dict(sorted(wdims.items())))
        degree_dims.append(dict(sorted(ddims.items())))
    return HomologyResult(
        dims=tuple(dims),
        chain_dims=tuple(sum(sizes[k].values()) for k in range(kmax + 1)),
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
