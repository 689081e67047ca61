"""Derivations, the exterior-square quotient, tag, and homology."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freejordan import tkk
from freejordan.errors import InfeasibleError
from freejordan.linalg import ExactRowReducer, add_scaled
from freejordan.multidegree import component
from freejordan.tables import TWO_GEN_DIMS
from freejordan.tkk import (
    AlgebraFD,
    HomologyResult,
    b_space,
    ce_homology,
    diagonal_jordan,
    inner_derivations,
    scalar_jordan,
    sl2_decompose,
    symmetric_matrix_jordan,
    tag,
    truncated_free_jordan,
)
from freejordan.trees import monomial_to_tree, node, straighten


def graded_dims(J):
    c = Counter(sum(d) for d in J.degree)
    return [c[n] for n in range(1, max(c) + 1)]


# ---------------------------------------------------------------- truncations


def test_two_generator_truncations_match_reversible_dims():
    # the components against Cohn-Shirshov: the reversal-fixed words
    J = truncated_free_jordan(2, 8)
    J.check()
    assert graded_dims(J) == list(TWO_GEN_DIMS[:8])


def test_degree_one_truncation_has_zero_product():
    J = truncated_free_jordan(2, 1)
    assert J.dim == 2
    assert J.table == {}


def test_three_generator_truncation_dims():
    J = truncated_free_jordan(3, 4)
    J.check()
    assert graded_dims(J) == [3, 6, 18, 45]


@pytest.mark.parametrize("g, N", [(3, 3), (1, 6), (2, 5)])
def test_truncated_structure_constants_match_straightening(g, N):
    # every product straightened in Fractions and reduced in its component
    J = truncated_free_jordan(g, N)
    contents = [
        d
        for total in range(1, N + 1)
        for d in itertools.product(range(total + 1), repeat=g)
        if sum(d) == total
    ]
    comps = {d: component(d) for d in contents}
    basis = [(d, m) for d in contents for m in comps[d].basis]
    assert J.degree == tuple(d for d, _ in basis)
    index = {bm: t for t, bm in enumerate(basis)}
    for s, (d1, m1) in enumerate(basis):
        for t, (d2, m2) in enumerate(basis):
            dsum = tuple(a + b for a, b in zip(d1, d2))
            if sum(dsum) > N:
                assert (s, t) not in J.table
                continue
            tree = node(monomial_to_tree(m1), monomial_to_tree(m2))
            prod = {m: Fraction(c) for m, c in straighten(tree).items()}
            coords = comps[dsum].coords(prod)
            want = {index[(dsum, m)]: c for m, c in coords.items()}
            assert J.product(s, t) == want, (s, t)


def test_truncated_structure_constants_keep_the_product_scale(monkeypatch):
    # every product in these truncations comes with scale 2^-0, so the same
    # products handed over as 2^-(s + 1) times doubled ints must give the
    # same tables; a truncation that dropped the scale would double them
    from freejordan import multidegree

    want = {gN: truncated_free_jordan(*gN).table
            for gN in [(3, 3), (3, 4), (1, 5), (2, 5)]}
    mul = multidegree._Products.mul

    def doubled(self, i, j):
        s, terms = mul(self, i, j)
        return s + 1, tuple((m, 2 * c) for m, c in terms)

    monkeypatch.setattr(multidegree._Products, "mul", doubled)
    for gN, table in want.items():
        assert truncated_free_jordan(*gN).table == table, gN


def test_one_generator_truncation_is_powers():
    J = truncated_free_jordan(1, 5)
    J.check()
    assert J.dim == 5
    # x^2 * x^2 = x^4
    i2 = J.degree.index((2,))
    i4 = J.degree.index((4,))
    assert J.product(i2, i2) == {i4: 1}


def test_odd_generator_is_a_square_zero_line():
    J = truncated_free_jordan(1, 3, parities=(1,))
    J.check()
    assert J.dim == 1 and J.parity == (1,) and J.table == {}


def test_unsupported_signatures_refuse():
    with pytest.raises(ValueError):
        truncated_free_jordan(4, 2)
    with pytest.raises(ValueError):
        truncated_free_jordan(2, 3, parities=(1, 0))
    with pytest.raises(InfeasibleError):
        truncated_free_jordan(2, 9)
    with pytest.raises(InfeasibleError):
        truncated_free_jordan(3, 6)


# ---------------------------------------------------------------- derivations


def test_scalar_and_diagonal_have_no_inner_derivations():
    assert inner_derivations(scalar_jordan()).rank == 0
    assert inner_derivations(diagonal_jordan(3)).rank == 0


def test_symmetric_two_by_two_has_one_inner_derivation():
    ds = inner_derivations(symmetric_matrix_jordan(2))
    assert ds.rank == 1


def test_non_jordan_input_is_detected():
    # e1*e1 = e2, e1*e2 = e1 breaks the Jordan identity
    bad = AlgebraFD(
        "jordan",
        ("a", "b"),
        {(0, 0): {1: 1}, (0, 1): {0: 1}, (1, 0): {0: 1}},
    )
    with pytest.raises(ValueError, match="Jordan"):
        inner_derivations(bad)


@pytest.fixture(scope="module")
def j23():
    return truncated_free_jordan(2, 3)


@pytest.fixture(scope="module")
def j23_inner(j23):
    return inner_derivations(j23)


def _d_matrix(J, i, j):
    """_d_ab as a dense matrix; rows index the output."""
    from freejordan.tkk import _d_ab

    m = [[Fraction(0)] * J.dim for _ in range(J.dim)]
    for c, col in _d_ab(J, i, j).items():
        for r, v in col.items():
            m[r][c] = v
    return m


def test_d_ab_matches_dense_commutator_on_every_pair(j23):
    # the dense oracle: [L_i, L_j] multiplied out from left_mult_matrix
    J = j23
    la = [J.left_mult_matrix(i) for i in range(J.dim)]
    n = range(J.dim)

    def matmul(a, b):
        return [[sum(a[r][m] * b[m][c] for m in n) for c in n] for r in n]

    for i in n:
        for j in n:
            s = 1 if (J.parity[i] and J.parity[j]) else -1
            ij, ji = matmul(la[i], la[j]), matmul(la[j], la[i])
            want = [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(ij, ji)]
            assert _d_matrix(J, i, j) == want, (i, j)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_derivation_identities_on_random_triples(j23, data):
    J = j23
    i = data.draw(st.integers(0, J.dim - 1))
    j = data.draw(st.integers(0, J.dim - 1))
    k = data.draw(st.integers(0, J.dim - 1))
    dij = _d_matrix(J, i, j)
    dji = _d_matrix(J, j, i)
    assert all(
        a + b == 0 for ra, rb in zip(dij, dji) for a, b in zip(ra, rb)
    )
    # D_{ab,c} + D_{bc,a} + D_{ca,b} = 0, expanded over structure constants
    acc = [[Fraction(0)] * J.dim for _ in range(J.dim)]
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m, cm in J.product(a, b).items():
            d = _d_matrix(J, m, c)
            for r in range(J.dim):
                for s in range(J.dim):
                    if d[r][s]:
                        acc[r][s] += cm * d[r][s]
    assert all(not any(row) for row in acc)


def test_inner_derivations_really_derive(j23, j23_inner):
    # every basis pair on a couple of generators, by the dense oracle
    from freejordan.tkk import _is_derivation

    J, ds = j23, j23_inner
    for D in ds.generators[:3]:
        assert _is_derivation(J, D, 0)
        assert _ref_is_derivation(J, D, 0)


def _ref_is_derivation(J, D, p_d):
    """D(uv) = D(u)v + (-1)^(|D||u|) u D(v) by the dense scan of every basis
    pair u, v."""
    for u in range(J.dim):
        du = D.get(u, {})
        sgn = -1 if (p_d and J.parity[u]) else 1
        for v in range(J.dim):
            lhs = {}
            for k, c in J.product(u, v).items():
                add_scaled(lhs, D.get(k, {}), c)
            rhs = J.mult(du, {v: Fraction(1)})
            add_scaled(rhs, J.mult({u: Fraction(1)}, D.get(v, {})), sgn)
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------- b_space


def test_b_space_of_the_field_vanishes():
    assert b_space(scalar_jordan()).dim == 0


def test_b_space_of_odd_line_is_the_odd_wedge():
    B = b_space(truncated_free_jordan(1, 1, parities=(1,)))
    assert B.dim == 1
    assert B.basis == ((0, 0),)


def test_b_space_graded_dims_on_two_generator_truncation():
    B = b_space(truncated_free_jordan(2, 6))
    agg = Counter()
    for key, v in B.graded_dims().items():
        agg[sum(key)] += v
    assert [agg.get(n, 0) for n in range(1, 7)] == [0, 1, 2, 6, 12, 27]


def test_b_space_dominates_inner_derivations(j23, j23_inner):
    B = b_space(j23)
    assert B.dim >= j23_inner.rank
    deg3 = sum(v for k, v in B.graded_dims().items() if sum(k) <= 3)
    assert deg3 == 0 + 1 + 2


def test_b_space_coords_land_in_the_basis(j23):
    B = b_space(j23)
    for i, j in [(0, 1), (1, 0), (2, 3), (0, 4)]:
        for pr, c in B.coords(i, j).items():
            assert pr in set(B.basis)
            assert c


def _kaplansky_k3():
    """The Kaplansky superalgebra: e even, x and y odd, e^2 = e,
    ex = x/2, ey = y/2, xy = -yx = e/2."""
    half = Fraction(1, 2)
    table = {(0, 0): {0: 1}, (0, 1): {1: half}, (1, 0): {1: half},
             (0, 2): {2: half}, (2, 0): {2: half},
             (1, 2): {0: half}, (2, 1): {0: -half}}
    return AlgebraFD("jordan", ("e", "x", "y"), table, parity=(0, 1, 1))


def _matrix_superalgebra(m, n):
    """M(m|n)^+: E_ij of parity |i| + |j|, index i odd from m on, under
    a.b = (ab + (-1)^{|a||b|} ba)/2."""
    pairs = list(itertools.product(range(m + n), repeat=2))
    idx = {pr: k for k, pr in enumerate(pairs)}
    parity = tuple(int(i >= m) ^ int(j >= m) for i, j in pairs)
    half = Fraction(1, 2)
    table = {}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            entry = Counter()
            if j == k:
                entry[idx[i, l]] += half
            if l == i:
                entry[idx[k, j]] += -half if parity[a] and parity[b] else half
            entry = {t: x for t, x in entry.items() if x}
            if entry:
                table[a, b] = entry
    return AlgebraFD("jordan", tuple("e%d%d" % pr for pr in pairs), table,
                     parity=parity)


def _ref_b_space(J):
    """B(J) by the full scan: the Koszul-signed cyclic relation of every one
    of the dim**3 ordered triples, reduced per degree block on integer
    columns in the order of the block's wedge pairs.  Returns the basis,
    the graded dimensions (None when J is ungraded) and the pivot rows per
    block."""

    def key(pr):
        if J.degree is None:
            return None
        return tuple(map(sum, zip(J.degree[pr[0]], J.degree[pr[1]])))

    def wedge(m, c):
        # e_m ^ e_c as (pair, sign), or None when it vanishes
        if m == c:
            return ((m, c), 1) if J.parity[m] else None
        if m < c:
            return (m, c), 1
        return (c, m), (1 if J.parity[m] and J.parity[c] else -1)

    blocks = {}
    for i in range(J.dim):
        for j in range(i, J.dim):
            if i < j or J.parity[i]:
                blocks.setdefault(key((i, j)), []).append((i, j))
    index = {pr: t for prs in blocks.values() for t, pr in enumerate(prs)}
    reds = {k: ExactRowReducer() for k in blocks}
    for a, b, c in itertools.product(range(J.dim), repeat=3):
        row = Counter()
        for (u, v), w in (((a, b), c), ((b, c), a), ((c, a), b)):
            # the Koszul sign (-1)^{|u||w|} of uv ^ w
            koszul = -1 if J.parity[u] and J.parity[w] else 1
            for m, cm in J.product(u, v).items():
                term = wedge(m, w)
                if term:
                    row[term[0]] += koszul * term[1] * cm
        row = {pr: x for pr, x in row.items() if x}
        if row:
            reds[key(next(iter(row)))].add({index[pr]: x for pr, x in row.items()})
    order = sorted(blocks, key=lambda k: (k is not None, k))
    basis = tuple(pr for k in order for t, pr in enumerate(blocks[k])
                  if t not in reds[k].pivot_rows)
    graded = None
    if J.degree is not None:
        graded = {k: len(blocks[k]) - reds[k].rank for k in sorted(blocks)
                  if len(blocks[k]) > reds[k].rank}
    pivots = {
        k: {blocks[k][t]: {blocks[k][u]: x for u, x in row.items()}
            for t, row in reds[k].pivot_rows.items()}
        for k in blocks
    }
    return basis, graded, pivots


@pytest.mark.parametrize("build", [
    lambda: truncated_free_jordan(2, 4),
    lambda: truncated_free_jordan(3, 3),
    lambda: symmetric_matrix_jordan(3),
    _kaplansky_k3,
    lambda: _matrix_superalgebra(2, 1),
], ids=["free-2-4", "free-3-3", "sym3", "kaplansky-k3", "matrix-2-1"])
def test_b_space_matches_the_full_triple_scan(build):
    J = build()
    B = b_space(J)
    basis, graded, pivots = _ref_b_space(J)
    assert B.basis == basis
    if graded is not None:
        assert B.graded_dims() == graded
    assert {k: red.pivot_rows for k, (_, red) in B._blocks.items()} == pivots


@pytest.mark.parametrize("build, seed", [
    (lambda: truncated_free_jordan(2, 4), 1),
    (_kaplansky_k3, 2),
    # the field plus a square-zero line: D(n) = e fails only on (n, e) and
    # (e, n), which have no product
    (lambda: AlgebraFD("jordan", ("e", "n"), {(0, 0): {0: 1}}), 3),
], ids=["free-2-4", "kaplansky-k3", "field-plus-nil-line"])
def test_inner_derivations_agree_with_the_dense_check(monkeypatch, build, seed):
    # one generator [L_i, L_j] gets one entry moved; inner_derivations must
    # refuse it exactly when the dense scan finds a pair it does not derive
    J = build()
    rnd = random.Random(seed)
    d_ab = tkk._d_ab
    pairs = [(i, j) for i in range(J.dim) for j in range(i, J.dim)
             if i < j or J.parity[i]]
    verdicts = Counter()
    for _ in range(100):
        i, j = rnd.choice(pairs)
        D = {c: dict(col) for c, col in d_ab(J, i, j).items()}
        x = Fraction(rnd.choice((-2, -1, 1, 2)), rnd.choice((1, 2, 3)))
        add_scaled(D.setdefault(rnd.randrange(J.dim), {}), {rnd.randrange(J.dim): x})
        D = {c: col for c, col in D.items() if col}
        want = _ref_is_derivation(J, D, (J.parity[i] + J.parity[j]) % 2)
        monkeypatch.setattr(
            tkk, "_d_ab", lambda J_, a, b: D if (a, b) == (i, j) else d_ab(J_, a, b))
        try:
            inner_derivations(J)
            got = True
        except ValueError as err:
            assert str(err) == "[L_%s, L_%s] is not a derivation" % (J.labels[i], J.labels[j])
            got = False
        assert got == want, (i, j, D)
        verdicts[got] += 1
    assert verdicts[False]


def _even_odd(L):
    return L.parity.count(0), L.parity.count(1)


def test_tag_of_the_kaplansky_superalgebra():
    # tag checks Jacobi on its output; it passes only with the Koszul signs
    L = tag(_kaplansky_k3())
    assert L.dim == 14 and _even_odd(L) == (6, 8)
    assert ce_homology(L, 1).dims == (1, 0)


@pytest.mark.parametrize("m, n, even, odd", [
    (2, 1, 19, 16),  # sl(4|2)
    (1, 2, 19, 16),
    (1, 1, 9, 8),
    (2, 0, 15, 0),  # sl4
])
def test_tag_of_matrix_superalgebras(m, n, even, odd):
    J = _matrix_superalgebra(m, n)
    J.check()
    L = tag(J)
    assert _even_odd(L) == (even, odd)
    assert ce_homology(L, 1).dims == (1, 0)


# ---------------------------------------------------------------- tag


def test_tag_of_the_field_is_sl2():
    L = tag(scalar_jordan())
    assert L.dim == 3
    assert ce_homology(L, 3).dims == (1, 0, 0, 1)


def test_tag_of_odd_line_is_a_heisenberg_superalgebra():
    L = tag(truncated_free_jordan(1, 1, parities=(1,)))
    assert L.dim == 4
    assert L.parity == (1, 1, 1, 0)
    # the only brackets pair sl2 copies of x into the wedge
    nonzero = {k: v for k, v in L.table.items()}
    for (i, j), entry in nonzero.items():
        assert set(entry) == {3}
    assert nonzero[(0, 2)] == {3: 2}  # e(x)x with f(x)x: 2 tr(ef) = 2
    assert nonzero[(1, 1)] == {3: 4}  # h(x)x with itself: 2 tr(hh) = 4


def test_tag_jacobi_holds_on_degree_three_truncation():
    L = tag(truncated_free_jordan(2, 3))
    L.check()
    assert L.dim == 3 * 11 + 9


def test_tag_jacobi_holds_on_degree_five_truncation():
    L = tag(truncated_free_jordan(2, 5))
    L.check()
    assert L.dim == 171


def _ref_jacobi_holds(L):
    """Super-Jacobi by the full scan: the cyclic sum of every basis triple."""
    sign = lambda i, j: -1 if (L.parity[i] and L.parity[j]) else 1
    for i, j, k in itertools.combinations_with_replacement(range(L.dim), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in L.product(a, b).items():
                add_scaled(acc, L.product(m, c), sign(a, c) * cm)
        if acc:
            return False
    return True


def _mutants(L, seed, count):
    """count copies of the Lie algebra L, gradings dropped, each with one
    entry moved: [x_a, x_b] gains c x_k and [x_b, x_a] the same with the
    sign of the kind, so that only Jacobi can fail.  Half of the pairs
    (a, b) are taken from the table, half from all pairs."""
    rnd = random.Random(seed)
    keys = sorted(L.table)
    pairs = [(a, b) for a in range(L.dim) for b in range(a, L.dim)
             if a < b or L.parity[a]]
    for _ in range(count):
        a, b = rnd.choice(keys if rnd.random() < 0.5 else pairs)
        k = rnd.randrange(L.dim)
        c = Fraction(rnd.choice((-2, -1, 1, 2)), rnd.choice((1, 2, 3)))
        table = {ab: dict(prod) for ab, prod in L.table.items()}
        s = 1 if (L.parity[a] and L.parity[b]) else -1
        for ab, x in (((a, b), c), ((b, a), s * c)):
            entry = table.setdefault(ab, {})
            entry[k] = entry.get(k, 0) + x
        yield AlgebraFD("lie", L.labels, table, parity=L.parity)


def test_jacobi_check_agrees_with_the_full_triple_scan():
    # K3 and M(1|1)+ have no one-entry mutant that is still Lie; the odd
    # line and the free truncations have a few
    verdicts = Counter()
    for seed, J in enumerate([
        _kaplansky_k3(),
        _matrix_superalgebra(1, 1),
        truncated_free_jordan(2, 3),
        truncated_free_jordan(1, 1, parities=(1,)),
        truncated_free_jordan(3, 2),
    ]):
        for M in _mutants(tag(J), seed, 100):
            try:
                M.check()
                got = True
            except ValueError as err:
                assert str(err).startswith("Jacobi fails on basis triple")
                got = False
            assert got == _ref_jacobi_holds(M), (seed, M.table)
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def non_jordan_j25():
    """J(2,5) with x1.(x1 x2) doubled on both sides: graded and
    commutative, but not Jordan."""
    J = truncated_free_jordan(2, 5)
    return doubled_product(J, J.labels.index("1"), J.labels.index("12"))


def test_tag_refuses_a_non_jordan_input():
    # a sample of the triples used to let it through; J's own check names
    # the failure, and tag, which does not check J, still refuses it
    bad = non_jordan_j25()
    with pytest.raises(ValueError, match="not a Jordan algebra"):
        bad.check()
    with pytest.raises(RuntimeError, match="Jacobi fails on basis triple"):
        tag(bad)


def doubled_product(J, a, b):
    """J with the product of basis vectors a and b doubled, both orders:
    still graded and commutative."""
    table = dict(J.table)
    for key in {(a, b), (b, a)}:
        table[key] = {k: 2 * c for k, c in table[key].items()}
    return AlgebraFD("jordan", J.labels, table, degree=J.degree)


def test_check_refuses_every_doubled_product_of_j24():
    # the [L_a, L_{aa}] probe on basis vectors let 12 of the 27 through
    J = truncated_free_jordan(2, 4)
    pairs = sorted({tuple(sorted(ab)) for ab in J.table})
    assert len(pairs) == 27
    for a, b in pairs:
        with pytest.raises(ValueError, match="not a Jordan algebra"):
            doubled_product(J, a, b).check()


@pytest.mark.parametrize("build", [
    _kaplansky_k3,
    lambda: _matrix_superalgebra(1, 1),
    lambda: _matrix_superalgebra(2, 1),
    lambda: _matrix_superalgebra(1, 2),
    lambda: _matrix_superalgebra(2, 0),
    lambda: symmetric_matrix_jordan(3),
    lambda: truncated_free_jordan(2, 5),
    lambda: truncated_free_jordan(3, 3),
    lambda: truncated_free_jordan(3, 5),
    lambda: truncated_free_jordan(1, 8),
    lambda: truncated_free_jordan(1, 1, parities=(1,)),
], ids=["K3", "M11", "M21", "M12", "M2", "Sym3", "J25", "J33", "J35", "J18", "odd-line"])
def test_check_passes_jordan_superalgebras(build):
    build().check()


@pytest.mark.parametrize("kind, parity, table", [
    ("jordan", (0, 0), {(0, 1): {0: 1}}),
    ("jordan", (0, 0), {(1, 0): {0: 1}}),
    ("jordan", (0, 0), {(0, 1): {0: 1}, (1, 0): {0: -1}}),
    ("jordan", (1, 1), {(0, 1): {0: 1}, (1, 0): {0: 1}}),
    ("lie", (0, 0), {(0, 1): {0: 1}}),
    ("lie", (0, 0), {(1, 0): {0: 1}}),
    ("lie", (0, 0), {(0, 1): {0: 1}, (1, 0): {0: 1}}),
    ("lie", (1, 1), {(0, 1): {0: 1}, (1, 0): {0: -1}}),
])
def test_a_product_without_its_signed_partner_is_refused(kind, parity, table):
    with pytest.raises(ValueError, match="break the %s symmetry" % kind):
        AlgebraFD(kind, ("a", "b"), table, parity=parity).check()


def test_tag_wants_a_jordan_algebra():
    with pytest.raises(ValueError):
        tag(AlgebraFD("lie", ("a",), {}))


# ---------------------------------------------------------------- homology


def test_abelian_homology_is_binomial():
    L = AlgebraFD("lie", ("a", "b", "c"), {})
    h = ce_homology(L, 3)
    assert h.dims == (1, 3, 3, 1)
    assert h.euler() == 0


def test_euler_characteristic_matches_chain_alternation():
    for L in (tag(scalar_jordan()), AlgebraFD("lie", ("a", "b", "c"), {})):
        h = ce_homology(L, L.dim)
        assert h.euler() == sum(
            (-1) ** k * d for k, d in enumerate(h.chain_dims)
        )


def test_homology_rejects_a_non_lie_table():
    # antisymmetric but Jacobi-breaking: [a,b] = c, [a,c] = a
    bad = AlgebraFD(
        "lie",
        ("a", "b", "c"),
        {(0, 1): {2: 1}, (1, 0): {2: -1}, (0, 2): {0: 1}, (2, 0): {0: -1}},
    )
    with pytest.raises(ValueError, match="square"):
        ce_homology(bad, 2)


def test_homology_rejects_a_graded_non_lie_table():
    # the same table graded by degree and weight: every key is kept, and the
    # Jacobi failure sits in the top-level block of the word abc, keyed like ab
    bad = AlgebraFD(
        "lie",
        ("a", "b", "c"),
        {(0, 1): {2: 1}, (1, 0): {2: -1}, (0, 2): {0: 1}, (2, 0): {0: -1}},
        degree=[1, -1, 0],
        sl2_weight=[2, -2, 0],
    )
    with pytest.raises(ValueError, match="square"):
        ce_homology(bad, 2)


@pytest.mark.parametrize(
    "degree, weight, what",
    [([1, 1, 2], [2, 0, 0], "weight"), ([1, 1, 3], [2, 0, 2], "degree")],
)
def test_a_bracket_off_the_grading_is_refused(degree, weight, what):
    # [a, b] = c, with c off a + b in one of the two gradings
    L = AlgebraFD(
        "lie",
        ("a", "b", "c"),
        {(0, 1): {2: 1}, (1, 0): {2: -1}},
        degree=degree,
        sl2_weight=weight,
    )
    for run in (L.check, lambda: ce_homology(L, 2)):
        with pytest.raises(ValueError, match=r"product a\*b hits c outside .*%s" % what):
            run()


def test_sl2_weights_of_another_length_are_refused():
    with pytest.raises(ValueError, match="sl2 weights"):
        AlgebraFD("lie", ("a", "b"), {}, sl2_weight=[0])


@pytest.mark.parametrize("field, what", [("parity", "parity bits"),
                                         ("sl2_weight", "sl2 weights")])
def test_an_empty_grading_list_is_refused(field, what):
    # an empty list used to read as all even, or as no weights
    with pytest.raises(ValueError, match="0 %s for 2 basis vectors" % what):
        AlgebraFD("lie", ("a", "b"), {}, **{field: []})


def test_heisenberg_homology_dims_and_weights():
    L = tag(truncated_free_jordan(1, 1, parities=(1,)))
    h = ce_homology(L, 5)
    assert h.dims == (1, 3, 5, 7, 9, 11)
    assert sl2_decompose(h) == ((0,), (2,), (4,), (6,), (8,), (10,))
    for p, wd in enumerate(h.weight_dims):
        assert wd == {w: 1 for w in range(-2 * p, 2 * p + 1, 2)}


def test_graded_homology_totals_are_grading_independent():
    L = tag(truncated_free_jordan(2, 2))
    stripped = AlgebraFD("lie", L.labels, L.table, parity=L.parity)
    a = ce_homology(L, 3)
    b = ce_homology(stripped, 3)
    assert a.dims == b.dims
    assert a.degree_dims is not None and b.degree_dims is None
    for k, dd in enumerate(a.degree_dims):
        assert sum(dd.values()) == a.dims[k]


# H_1 of L = tag(J) is L/[L, L] = sl2 (x) J/J^2, g adjoint copies, so 3g
# in closed form.  H_2 = 275 on the (3, 3) truncation is a regression
# value (the first recorded run), not an independent one.
@pytest.mark.parametrize(
    "g, N, kmax, dims", [(2, 5, 1, (1, 6)), (3, 3, 2, (1, 9, 275))]
)
def test_free_truncation_homology(g, N, kmax, dims):
    h = ce_homology(tag(truncated_free_jordan(g, N)), kmax)
    assert h.dims == dims
    assert h.dims[1] == 3 * g
    tops = sl2_decompose(h)
    assert tops[:2] == ((0,), (2,) * g)


def _ref_chain_words(L, k):
    """Sorted index words of length k; even indices never repeat."""
    out = []

    def walk(start, word):
        if len(word) == k:
            out.append(word)
            return
        for i in range(start, L.dim):
            walk(i if L.parity[i] else i + 1, word + (i,))

    walk(0, ())
    return out


def _ref_word_key(L, word):
    w = sum(L.sl2_weight[i] for i in word) if L.sl2_weight else 0
    if L.degree is None:
        return (w, None)
    return (w, tuple(map(sum, zip(*(L.degree[i] for i in word)))))


def _ref_sorted(L, letters):
    """(sign, word) with x_1 ^ ... ^ x_k = sign * (the sorted word), by
    bubble sort: swapping neighbours u, v costs -(-1)^{|u||v|}.  None when
    an even letter repeats."""
    letters = list(letters)
    sign = 1
    for end in range(len(letters) - 1, 0, -1):
        for t in range(end):
            u, v = letters[t], letters[t + 1]
            if u > v:
                letters[t], letters[t + 1] = v, u
                sign *= 1 if L.parity[u] and L.parity[v] else -1
    for u, v in zip(letters, letters[1:]):
        if u == v and not L.parity[u]:
            return None
    return sign, tuple(letters)


def _ref_diff(L, word):
    """d(x_1 ^ ... ^ x_k) = sum over i < j of [x_i, x_j] ^ (the rest), each
    pair first moved to the front of the word, in Fractions straight from
    L.table."""
    out = Counter()
    for i, j in itertools.combinations(range(len(word)), 2):
        rest = word[:i] + word[i + 1 : j] + word[j + 1 :]
        front, _ = _ref_sorted(L, (word[i], word[j]) + rest)
        for m, c in L.table.get((word[i], word[j]), {}).items():
            term = _ref_sorted(L, (m,) + rest)
            if term:
                out[term[1]] += front * term[0] * Fraction(c)
    return {w: c for w, c in out.items() if c}


def _ref_ce_homology(L, kmax):
    """Every chain word up to length kmax + 1, differentiated and checked,
    then split into (weight, degree) blocks and ranked in full."""
    words = [_ref_chain_words(L, k) for k in range(kmax + 2)]
    diffs = [{w: _ref_diff(L, w) for w in words[k]} for k in range(kmax + 2)]
    for k in range(2, kmax + 2):
        for w, img in diffs[k].items():
            acc = Counter()
            for tw, c in img.items():
                for tw2, c2 in diffs[k - 1][tw].items():
                    acc[tw2] += c * c2
            assert not any(acc.values())
    blocks = []
    for ws in words:
        by_key = {}
        for w in ws:
            by_key.setdefault(_ref_word_key(L, w), []).append(w)
        blocks.append(by_key)
    ranks = [{} for _ in range(kmax + 2)]
    for k in range(1, kmax + 2):
        for key, ws in blocks[k].items():
            tindex = {tw: t for t, tw in enumerate(blocks[k - 1].get(key, []))}
            red = ExactRowReducer()
            for w in ws:
                if diffs[k][w]:
                    red.add({tindex[tw]: c for tw, c in diffs[k][w].items()})
            ranks[k][key] = red.rank
    dims, weight_dims, degree_dims = [], [], []
    for k in range(kmax + 1):
        wdims, ddims = Counter(), Counter()
        for key, ws in blocks[k].items():
            h = len(ws) - ranks[k].get(key, 0) - ranks[k + 1].get(key, 0)
            assert h >= 0
            if h:
                wdims[key[0]] += h
                if key[1] is not None:
                    ddims[key[1]] += h
        dims.append(sum(wdims.values()))
        weight_dims.append(dict(sorted(wdims.items())))
        degree_dims.append(dict(sorted(ddims.items())))
    return HomologyResult(
        dims=tuple(dims),
        chain_dims=tuple(len(words[k]) for k in range(kmax + 1)),
        weight_dims=tuple(weight_dims) if L.sl2_weight else None,
        degree_dims=tuple(degree_dims) if L.degree is not None else None,
    )


def _relabelled(J, seed):
    """J with its basis shuffled, so index order no longer follows degree."""
    perm = list(range(J.dim))
    random.Random(seed).shuffle(perm)
    order = sorted(range(J.dim), key=perm.__getitem__)  # i moves to perm[i]
    return AlgebraFD(
        J.kind,
        [J.labels[i] for i in order],
        {
            (perm[i], perm[j]): {perm[k]: c for k, c in prod.items()}
            for (i, j), prod in J.table.items()
        },
        parity=[J.parity[i] for i in order],
        degree=[J.degree[i] for i in order],
    )


def _stripped(L):
    return AlgebraFD("lie", L.labels, L.table, parity=L.parity)


def _regraded(L, matrix):
    """L with each degree d replaced by matrix @ d: a linear map keeps the
    bracket additive in degree."""
    degree = [tuple(sum(m * x for m, x in zip(row, d)) for row in matrix)
              for d in L.degree]
    return AlgebraFD(L.kind, L.labels, L.table, parity=L.parity,
                     degree=degree, sl2_weight=L.sl2_weight)


@pytest.mark.parametrize(
    "build, kmax",
    [
        (lambda: tag(scalar_jordan()), 3),
        (lambda: tag(truncated_free_jordan(1, 1, parities=(1,))), 5),
        (lambda: AlgebraFD("lie", ("a", "b", "c"), {}), 3),
        (lambda: tag(truncated_free_jordan(2, 3)), 2),
        # brackets with denominator 4: the integer differential is 4 d
        (lambda: tag(truncated_free_jordan(2, 4)), 1),
        (lambda: tag(truncated_free_jordan(2, 2)), 3),
        (lambda: _stripped(tag(truncated_free_jordan(2, 2))), 3),
        (lambda: tag(truncated_free_jordan(1, 6)), 3),
        (lambda: tag(_relabelled(truncated_free_jordan(2, 3), 1)), 2),
        # odd brackets that move past letters of both parities
        (lambda: tag(_kaplansky_k3()), 3),
        # three degree parts, negative ones among them
        (lambda: _regraded(tag(truncated_free_jordan(2, 3)),
                           ((1, -1), (-2, 3), (0, -1))), 2),
    ],
    ids=["sl2", "heisenberg", "abelian", "J23", "J24", "J22", "J22-stripped",
         "J16", "J23-relabelled", "kaplansky-k3", "J23-regraded"],
)
def test_block_homology_matches_full_enumeration(build, kmax):
    L = build()
    assert ce_homology(L, kmax) == _ref_ce_homology(L, kmax)


@pytest.mark.parametrize(
    "build, kmax",
    [
        (lambda: tag(_kaplansky_k3()), 3),
        (lambda: tag(_matrix_superalgebra(1, 1)), 3),
        (lambda: tag(_relabelled(truncated_free_jordan(2, 3), 1)), 2),
    ],
    ids=["kaplansky-k3", "matrix-1-1", "J23-relabelled"],
)
def test_differentials_match_the_fraction_reference(monkeypatch, build, kmax):
    # ranks cannot see every sign: negating the terms of the pairs that are
    # not both odd is conjugation by i^(number of odd letters)
    L = build()
    levels = [(np.zeros((1, 0), int), None)]
    rank_level = tkk._rank_level

    def spy(words, kid, bound, below, diff, keep):
        rank, d = rank_level(words, kid, bound, below, diff, keep)
        if keep:
            levels.append((words, d))
        return rank, d

    monkeypatch.setattr(tkk, "_rank_level", spy)
    ce_homology(L, kmax)
    D = math.lcm(*(c.denominator for prod in L.table.values() for c in prod.values()))
    assert len(levels) == kmax + 1
    for k in range(1, kmax + 1):
        (below, _), (words, (indptr, cols, vals, ncols)) = levels[k - 1], levels[k]
        assert [tuple(w) for w in words.tolist()] == _ref_chain_words(L, k)
        assert ncols == len(below)
        for p, w in enumerate(words.tolist()):
            got = {
                tuple(below[c].tolist()): v
                for c, v in zip(cols[indptr[p] : indptr[p + 1]].tolist(),
                                vals[indptr[p] : indptr[p + 1]].tolist())
            }
            assert got == {tw: D * c for tw, c in _ref_diff(L, tuple(w)).items()}


def test_homology_differentiates_only_the_kept_top_level(monkeypatch):
    # tag(J(3,3)) has 125 + 7,750 words up to length 2 and 317,750 of
    # length 3 (its 125 letters are all even); only 65,182 of those share a
    # block key with a 2-word
    built, differentiated = Counter(), Counter()
    extend, differentiate = tkk._extend, tkk._differentiate

    def counted_extend(*args):
        words, key = extend(*args)
        built[words.shape[1]] += len(words)
        return words, key

    def counted_differentiate(words, *args):
        differentiated[words.shape[1]] += len(words)
        return differentiate(words, *args)

    monkeypatch.setattr(tkk, "_extend", counted_extend)
    monkeypatch.setattr(tkk, "_differentiate", counted_differentiate)
    L = tag(truncated_free_jordan(3, 3))
    assert L.dim == 125 and not any(L.parity)
    h = ce_homology(L, 2)
    assert h.chain_dims == (1, 125, 7750)
    assert built == differentiated == {1: 125, 2: 7750, 3: 65_182}
    assert math.comb(125, 3) == 317_750


def test_homology_memory_peak_on_the_three_generator_truncation():
    # the word-by-word version peaked at 6.8 MB here, holding every image
    # of level 2 as a dict and the kept top level as tuples
    L = tag(truncated_free_jordan(3, 3))
    tracemalloc.start()
    try:
        h = ce_homology(L, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.dims == (1, 9, 275)
    assert peak < 6_000_000


@pytest.mark.slow
def test_heisenberg_homology_on_words_of_41_letters():
    # tag of the odd line has 4 basis vectors and 3 odd ones; a base-4 code
    # of a 41-letter word would pass 2^63
    h = ce_homology(tag(truncated_free_jordan(1, 1, parities=(1,))), 40)
    assert h.dims == tuple(2 * k + 1 for k in range(41))
    assert h.chain_dims == tuple((k + 1) ** 2 for k in range(41))


def test_homology_of_brackets_past_64_bits():
    # [a, b] = 2^70 c is the Heisenberg algebra with c rescaled; an int64
    # coefficient would wrap to 0 and give the abelian homology 1, 3, 3, 1
    for scale in (1, 2**70, Fraction(1, 3**45)):
        L = AlgebraFD("lie", ("a", "b", "c"),
                      {(0, 1): {2: scale}, (1, 0): {2: -scale}})
        assert ce_homology(L, 3).dims == (1, 2, 2, 1)


@pytest.mark.parametrize("big, fits", [(2**29 - 1, True), (2**29, False)])
def test_homology_keys_fit_64_bits(big, fits):
    # at kmax 1 a key sums at most two letters, so its digits are balanced
    # base R = 2 * big * 2 + 1, and (weight, degree) needs R^2 < 2^62
    L = AlgebraFD("lie", ("a", "b"), {}, degree=[big, -big], sl2_weight=[2, -2])
    if not fits:
        with pytest.raises(ValueError, match="grading entry %d is too large" % big):
            ce_homology(L, 1)
        return
    h = ce_homology(L, 1)
    assert h.dims == (1, 2)
    assert h.weight_dims == ({0: 1}, {-2: 1, 2: 1})
    assert h.degree_dims == ({(): 1}, {(-big,): 1, (big,): 1})


def test_homology_refuses_a_negative_kmax():
    with pytest.raises(ValueError, match="kmax"):
        ce_homology(tag(scalar_jordan()), -1)


def test_homology_refuses_degrees_of_different_lengths():
    with pytest.raises(ValueError, match="different lengths"):
        AlgebraFD("lie", ("a", "b"), {}, degree=[1, (1, 2)])


def test_tag_takes_each_wedge_class_once(monkeypatch):
    calls = Counter()
    coords = tkk.BSpace.coords

    def counted(self, i, j):
        calls[i, j] += 1
        return coords(self, i, j)

    monkeypatch.setattr(tkk.BSpace, "coords", counted)
    J = truncated_free_jordan(2, 3)
    tag(J)
    assert len(calls) == J.dim ** 2
    assert set(calls.values()) == {1}


def test_sl2_decompose_needs_weight_data():
    h = ce_homology(AlgebraFD("lie", ("a",), {}), 1)
    with pytest.raises(ValueError):
        sl2_decompose(h)


# ---------------------------------------------------------------- json


def test_structure_constants_round_trip_through_json():
    for J in (
        symmetric_matrix_jordan(2),
        truncated_free_jordan(2, 3),
        tag(truncated_free_jordan(1, 1, parities=(1,))),
    ):
        back = AlgebraFD.from_json(J.to_json())
        assert back.kind == J.kind
        assert back.labels == J.labels
        assert back.parity == J.parity
        assert back.degree == J.degree
        assert back.table == J.table


def test_sl2_weight_round_trips_through_json():
    L = tag(truncated_free_jordan(2, 2))
    assert L.sl2_weight is not None
    back = AlgebraFD.from_json(L.to_json())
    assert back.sl2_weight == L.sl2_weight
    want = ce_homology(L, 2).weight_dims
    assert want is not None
    assert ce_homology(back, 2).weight_dims == want
