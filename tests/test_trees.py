import itertools
import random
from fractions import Fraction
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from freejordan.linalg import add_scaled
from freejordan.multidegree import _Products, normal_monomials
from freejordan.trees import (
    all_trees,
    leaf,
    monomial_key,
    monomial_slot_labels,
    monomial_to_tree,
    monomial_type,
    multilinear_monomials,
    node,
    normal_types,
    relabel_monomial,
    relabel_tree,
    shape_key,
    straighten,
    straightener,
    substitute_leaf,
    tree_labels,
    type_swap_perms,
)


# --- an evaluation oracle ----------------------------------------------------
# Symmetric matrices under (ab+ba)/2 satisfy every identity we generate, so
# straightening must preserve the value of a tree under any such assignment.


def _matmul(a, b):
    k = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)]
        for i in range(k)
    ]


def circ(a, b):
    ab, ba = _matmul(a, b), _matmul(b, a)
    return [
        [Fraction(x + y, 2) for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)
    ]


def random_symmetric(rnd, size=3):
    m = [[rnd.randint(-4, 4) for _ in range(size)] for _ in range(size)]
    return [
        [Fraction(m[i][j] + m[j][i]) for j in range(size)] for i in range(size)
    ]


def eval_tree(t, assign):
    if t[0] == 1:
        return assign[t[1]]
    return circ(eval_tree(t[1], assign), eval_tree(t[2], assign))


def eval_monomials(elt, assign):
    out = None
    for m, c in elt.items():
        val = eval_tree(monomial_to_tree(m), assign)
        scaled = [[c * x for x in row] for row in val]
        if out is None:
            out = scaled
        else:
            out = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(out, scaled)]
    return out


def random_tree(rnd, labels):
    labels = list(labels)
    rnd.shuffle(labels)

    def build(part):
        if len(part) == 1:
            return leaf(part[0])
        k = rnd.randint(1, len(part) - 1)
        return node(build(part[:k]), build(part[k:]))

    return build(labels)


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


# --- shapes and monomials ----------------------------------------------------


def test_all_trees_counts():
    for n in range(1, 7):
        ts = all_trees(tuple(range(1, n + 1)))
        assert len(ts) == double_factorial(2 * n - 3)
        assert len(set(ts)) == len(ts)
        for t in ts:
            assert sorted(tree_labels(t)) == list(range(1, n + 1))


def test_normal_type_counts_are_fibonacci():
    counts = [len(normal_types(n)) for n in range(1, 11)]
    assert counts == [1, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    for comp in normal_types(9):
        assert sum(comp) == 7 and set(comp) <= {1, 2}


def test_monomial_counts_match_stabilizer_formula():
    assert [len(multilinear_monomials(n)) for n in range(1, 7)] == [
        1, 1, 3, 15, 105, 855,
    ]
    for n in (4, 5, 6):
        expected = 0
        for comp in normal_types(n):
            stab = 2 * 2 ** comp.count(2) * (2 if comp and comp[0] == 2 else 1)
            expected += factorial(n) // stab
        assert len(multilinear_monomials(n)) == expected


def test_monomial_key_canonical_examples():
    assert monomial_key((2, 1), ((4, 3), (5,))) == ((1, 2), ((3, 4), (5,)))
    # the head commutes with a pair first factor
    assert monomial_key((3, 4), ((1, 2),)) == ((1, 2), ((3, 4),))
    assert monomial_key((1, 2), ((3, 4),)) == ((1, 2), ((3, 4),))
    # but not with a singleton, and later factors keep their order
    assert monomial_key((3, 4), ((1,), (2,))) == ((3, 4), ((1,), (2,)))
    assert monomial_key((5, 6), ((3, 4), (1, 2))) == ((3, 4), ((5, 6), (1, 2)))


def test_monomials_are_canonical_and_typed():
    for n in (4, 5):
        for m in multilinear_monomials(n):
            assert monomial_key(m[0], m[1]) == m
            assert monomial_type(m) in normal_types(n)
            assert sorted(monomial_slot_labels(m)) == list(range(1, n + 1))


def test_swap_perms_fix_the_monomial():
    for n in (4, 5, 6):
        for m in multilinear_monomials(n):
            labels = monomial_slot_labels(m)
            for t in type_swap_perms(monomial_type(m), n):
                permuted = tuple(labels[t[i]] for i in range(n))
                head = permuted[:2]
                factors, pos = [], 2
                for c in monomial_type(m):
                    factors.append(permuted[pos : pos + c])
                    pos += c
                assert monomial_key(head, tuple(factors)) == m


def test_relabel_monomial_matches_tree_relabel():
    rnd = random.Random(7)
    for n in (4, 5, 6):
        monos = multilinear_monomials(n)
        for _ in range(20):
            m = rnd.choice(monos)
            perm = list(range(1, n + 1))
            rnd.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(n)}
            direct = relabel_monomial(m, mapping)
            # relabeling the tree and renormalizing lands on the same key
            via_tree = straighten(relabel_tree(monomial_to_tree(m), mapping))
            assert via_tree == {direct: Fraction(1)}


def test_shape_key_is_label_free():
    rnd = random.Random(3)
    for n in range(2, 8):
        t = random_tree(rnd, range(1, n + 1))
        perm = list(range(1, n + 1))
        rnd.shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(n)}
        assert shape_key(t) == shape_key(relabel_tree(t, mapping))


def test_substitute_leaf():
    t = node(node(leaf(1), leaf(2)), leaf(3))
    s = substitute_leaf(t, 2, node(leaf(2), leaf(4)))
    assert s == node(node(leaf(1), node(leaf(2), leaf(4))), leaf(3))
    assert sorted(tree_labels(s)) == [1, 2, 3, 4]


# --- straightening -----------------------------------------------------------


def test_straighten_fixes_normal_monomials():
    for n in range(1, 6):
        for m in multilinear_monomials(n):
            assert straighten(monomial_to_tree(m)) == {m: Fraction(1)}


def test_straighten_output_is_normal():
    rnd = random.Random(11)
    for n in range(2, 7):
        for _ in range(8):
            t = random_tree(rnd, range(1, n + 1))
            out = straighten(t)
            assert out, "straightening lost the element"
            assert sum(out.values()) == 1  # scalar evaluation x_i -> 1
            for m, c in out.items():
                assert c != 0
                assert monomial_key(m[0], m[1]) == m
                assert sorted(monomial_slot_labels(m)) == list(range(1, n + 1))


def test_straighten_preserves_matrix_evaluation():
    rnd = random.Random(2024)
    for n in range(2, 6):
        for _ in range(6):
            t = random_tree(rnd, range(1, n + 1))
            assign = {i: random_symmetric(rnd) for i in range(1, n + 1)}
            direct = eval_tree(t, assign)
            rewritten = eval_monomials(straighten(t), assign)
            assert direct == rewritten


@pytest.mark.slow
def test_straighten_preserves_matrix_evaluation_deeper():
    rnd = random.Random(77)
    for _ in range(8):
        t = random_tree(rnd, range(1, 8))
        assign = {i: random_symmetric(rnd) for i in range(1, 8)}
        assert eval_tree(t, assign) == eval_monomials(straighten(t), assign)


@given(st.integers(2, 6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_straighten_is_equivariant(n, rnd):
    t = random_tree(rnd, range(1, n + 1))
    perm = list(range(1, n + 1))
    rnd.shuffle(perm)
    mapping = {i + 1: perm[i] for i in range(n)}
    moved = straighten(relabel_tree(t, mapping))
    expected: dict = {}
    for m, c in straighten(t).items():
        key = relabel_monomial(m, mapping)
        expected[key] = expected.get(key, 0) + c
    assert moved == {k: v for k, v in expected.items() if v}


def test_six_leaf_blocked_shape_reduces():
    # ((12)3)((45)6) has a pair of pairs below the root and is the smallest
    # shape not equal to a normal monomial
    t = node(
        node(node(leaf(1), leaf(2)), leaf(3)),
        node(node(leaf(4), leaf(5)), leaf(6)),
    )
    out = straighten(t)
    assert sum(out.values()) == 1
    assert all(monomial_type(m) in normal_types(6) for m in out)
    # and it genuinely needed rewriting
    assert len(out) > 1


# Fraction reference: the straightening rewrite with rational coefficients,
# averaging tied reductions with weight 1/2, as straightener()'s int form
# must reproduce after dividing by 2**s.


def _ref_order_pair(a: tuple, b: tuple):
    ka, kb = (a[0], shape_key(a)), (b[0], shape_key(b))
    if ka == kb:
        return a, b, True
    return (a, b, False) if ka > kb else (b, a, False)


@cache
def _ref_straighten_tree(t: tuple) -> tuple:
    if t[0] == 1:
        return ((((t[1],), ()), Fraction(1)),)
    core, factor, tied = _ref_order_pair(t[1], t[2])
    if tied:
        out: dict = {}
        add_scaled(out, dict(_ref_reduce(t[1], t[2])), Fraction(1, 2))
        add_scaled(out, dict(_ref_reduce(t[2], t[1])), Fraction(1, 2))
        return tuple(sorted(out.items()))
    return _ref_reduce(core, factor)


def _ref_append_factor(expansion, f: tuple):
    out = {}
    for m, c in expansion:
        key = monomial_key(m[0], m[1] + (tuple(sorted(f)),))
        out[key] = out.get(key, 0) + c
    return tuple(sorted(out.items()))


def _ref_reduce(core: tuple, factor: tuple) -> tuple:
    fd = factor[0]
    if fd == 1:
        if core[0] == 1:
            return ((monomial_key((core[1], factor[1]), ()), Fraction(1)),)
        return _ref_append_factor(_ref_straighten_tree(core), (factor[1],))
    if fd == 2:
        pair = (factor[1][1], factor[2][1])
        if core[0] == 1:
            return ((monomial_key(pair, ((core[1],),)), Fraction(1)),)
        return _ref_append_factor(_ref_straighten_tree(core), pair)
    p, q, tied = _ref_order_pair(factor[1], factor[2])
    out: dict = {}
    weight = Fraction(1, 2) if tied else Fraction(1)
    for ac, b in ((p, q), (q, p)) if tied else ((p, q),):
        a, c = ac[1], ac[2]
        for coeff, built in (
            (-1, node(node(node(core, c), b), a)),
            (-1, node(node(node(core, a), b), c)),
            (1, node(node(core, b), node(a, c))),
            (1, node(node(core, c), node(a, b))),
            (1, node(node(core, a), node(b, c))),
        ):
            add_scaled(out, dict(_ref_straighten_tree(built)), coeff * weight)
    return tuple(sorted(out.items()))


def _ref_straighten(t: tuple) -> dict:
    return dict(_ref_straighten_tree(t))


# the reference checks straighten many trees on one memo
_straighten_tree = straightener()


def _check_against_the_reference(t: tuple) -> None:
    s, pairs = _straighten_tree(t)
    assert all(type(c) is int and c for _, c in pairs)
    assert s == 0 or any(c % 2 for _, c in pairs)  # the least power
    assert {m: Fraction(c, 1 << s) for m, c in pairs} == _ref_straighten(t)


def test_straighten_matches_the_fraction_reference_on_products():
    # every product of two normal monomials of total degree <= 7 on up to
    # three generators
    mons = [m for delta in itertools.product(range(7), repeat=3)
            if 0 < sum(delta) < 7 for m in normal_monomials(delta)]
    halved = 0
    for m1, m2 in itertools.combinations_with_replacement(mons, 2):
        if len(monomial_slot_labels(m1) + monomial_slot_labels(m2)) <= 7:
            t = node(monomial_to_tree(m1), monomial_to_tree(m2))
            _check_against_the_reference(t)
            halved += _straighten_tree(t)[0] > 0
    assert halved


@given(st.integers(2, 8), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_straighten_matches_the_fraction_reference_on_random_trees(n, g, rnd):
    t = random_tree(rnd, range(1, n + 1))
    labels = {i: rnd.randint(1, g) for i in range(1, n + 1)}
    _check_against_the_reference(relabel_tree(t, labels))


def _jordan_row_on_labels(*labels):
    table = _Products()
    return table.row(*(table.id(((x,), ())) for x in labels))


def test_jordan_element_frozen():
    elt = _jordan_row_on_labels(1, 2, 3, 4)
    assert elt == {
        ((1, 2), ((3,), (4,))): Fraction(1),
        ((2, 4), ((3,), (1,))): Fraction(1),
        ((1, 4), ((3,), (2,))): Fraction(1),
        ((1, 2), ((3, 4),)): Fraction(-1),
        ((1, 3), ((2, 4),)): Fraction(-1),
        ((1, 4), ((2, 3),)): Fraction(-1),
    }


def test_jordan_element_slot_symmetry():
    # slots 1, 2, 4 of the defining identity commute
    base = _jordan_row_on_labels(1, 2, 3, 4)
    for swapped in (
        _jordan_row_on_labels(2, 1, 3, 4),
        _jordan_row_on_labels(4, 2, 3, 1),
        _jordan_row_on_labels(1, 4, 3, 2),
    ):
        assert swapped == base


def test_jordan_element_vanishes_on_symmetric_matrices():
    rnd = random.Random(5)
    elt = _jordan_row_on_labels(1, 2, 3, 4)
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    for _ in range(4):
        assign = {i: random_symmetric(rnd) for i in range(1, 5)}
        assert eval_monomials(elt, assign) == zero
