import random
from fractions import Fraction

import numpy as np
import pytest

from freejordan import tables
from freejordan.errors import InfeasibleError
from freejordan.linalg import blas_primes
from freejordan.operad import (
    _translate_span,
    _tree_basis,
    _tree_consequences,
    consequences,
    jord_module,
    jordan_identity_count,
    multiplicity,
    naive_dim,
    naive_module,
    tree_space_character,
)
from freejordan.partitions import SnModule, partitions
from freejordan.trees import (
    monomial_key,
    monomial_slot_labels,
    monomial_to_tree,
    monomial_type,
    node,
    leaf,
    normal_types,
    straighten,
)
from test_trees import eval_monomials, eval_tree, random_symmetric, random_tree


def test_generator_counts():
    assert [len(consequences(n)) for n in range(4, 11)] == [
        1, 3, 8, 18, 40, 86, 182,
    ]
    assert [jordan_identity_count(n) for n in range(1, 9)] == [
        0, 0, 0, 1, 5, 30, 210, 1680,
    ]
    for n in (4, 5, 6):
        assert len(_tree_consequences(n)) == jordan_identity_count(n)


def test_consequences_are_normal_multilinear():
    for n in (4, 5, 6):
        for gen in consequences(n):
            assert gen
            for m, c in gen.items():
                assert c != 0
                assert monomial_key(m[0], m[1]) == m
                assert monomial_type(m) in normal_types(n)
                assert sorted(monomial_slot_labels(m)) == list(range(1, n + 1))


def test_consequences_vanish_on_symmetric_matrices():
    # every generator is an identity of any special Jordan algebra
    rnd = random.Random(31)
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    for n in (4, 5, 6, 7):
        assign = {i: random_symmetric(rnd) for i in range(1, n + 1)}
        for gen in consequences(n):
            assert eval_monomials(gen, assign) == zero


def test_tree_consequences_vanish_on_symmetric_matrices():
    rnd = random.Random(13)
    for n in (4, 5):
        assign = {i: random_symmetric(rnd) for i in range(1, n + 1)}
        for gen in _tree_consequences(n):
            total = None
            for t, c in gen.items():
                val = eval_tree(t, assign)
                scaled = [[Fraction(c) * x for x in row] for row in val]
                total = scaled if total is None else [
                    [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, scaled)
                ]
            assert total == [[Fraction(0)] * 3 for _ in range(3)]


def test_straightening_stays_in_relation_span():
    # t - straighten(t) must be an honest consequence, for every tree
    for n in (4, 5):
        basis = _tree_basis(n)
        p = blas_primes(len(basis))[0]
        span = _translate_span(n, p)
        rows = []
        for t in basis:
            out = straighten(t)
            den = 1
            for c in out.values():
                den = max(den, c.denominator)
            vec = [0] * len(basis)
            vec[basis[t]] += den
            for m, c in out.items():
                vec[basis[monomial_to_tree(m)]] -= int(c * den)
            rows.append(vec)
        rem = span.reduce(np.array(rows, dtype=np.int64))
        assert not rem.any()


def test_six_leaf_blocked_shape_in_relation_span():
    n = 6
    basis = _tree_basis(n)
    p = blas_primes(len(basis))[1]
    span = _translate_span(n, p)
    rnd = random.Random(9)
    picks = [
        node(node(node(leaf(1), leaf(2)), leaf(3)),
             node(node(leaf(4), leaf(5)), leaf(6)))
    ]
    picks += [random_tree(rnd, range(1, 7)) for _ in range(10)]
    rows = []
    for t in picks:
        out = straighten(t)
        den = 1
        for c in out.values():
            den = max(den, c.denominator)
        vec = [0] * len(basis)
        vec[basis[t]] += den
        for m, c in out.items():
            vec[basis[monomial_to_tree(m)]] -= int(c * den)
        rows.append(vec)
    rem = span.reduce(np.array(rows, dtype=np.int64))
    assert not rem.any()


def test_naive_dims():
    assert [naive_dim(n) for n in range(1, 7)] == [1, 1, 3, 11, 55, 330]


def test_naive_dim_other_primes_agree():
    assert naive_dim(5, primes=(2147483647, 2147483629)) == 55


def test_naive_dim_infeasible():
    with pytest.raises(InfeasibleError) as ei:
        naive_dim(7)
    assert "degree 7" in str(ei.value)
    assert ei.value.estimate


def test_multiplicity_spot_values():
    assert multiplicity((3,), 3) == 1
    assert multiplicity((2, 1), 3) == 1
    assert multiplicity((1, 1, 1), 3) == 0
    assert multiplicity((4,), 4) == 1
    assert multiplicity((2, 2), 4) == 2
    assert multiplicity((1, 1, 1, 1), 4) == 0
    with pytest.raises(ValueError):
        multiplicity((2, 1), 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_jord_module_matches_published_table(n):
    m = jord_module(n)
    assert m.mults == tables.JORDAN_MODULE[n]
    assert m.dimension() == naive_dim(n)


def test_jord_module_degree_seven():
    m = jord_module(7)
    assert m.mults == tables.JORDAN_MODULE[7]
    assert m.dimension() == 2345


def test_jord_module_degree_eight():
    m = jord_module(8)
    assert m.mults == tables.JORDAN_MODULE[8]
    assert m.dimension() == 19089


@pytest.mark.slow
def test_jord_module_degree_nine():
    m = jord_module(9, workers=2)
    assert m.mults == tables.JORDAN_MODULE[9]
    assert m.dimension() == 175203


def test_jord_module_infeasible_by_default():
    with pytest.raises(InfeasibleError):
        jord_module(10)


def test_jord_module_serial_path():
    # one worker: the same pool as the default, on one thread
    m = jord_module(4, workers=1)
    assert m.mults == tables.JORDAN_MODULE[4]


def test_naive_module_integrality_checks_raise(monkeypatch):
    import freejordan.operad as operad_mod

    with monkeypatch.context() as m:
        # a trace on the identity class alone gives f_lambda / n! copies
        m.setattr(operad_mod, "tree_space_character",
                  lambda n, mu: int(mu == (1,) * n))
        with pytest.raises(ArithmeticError, match="not an integer"):
            naive_module(3)
    with monkeypatch.context() as m:
        m.setattr(operad_mod, "dim_irrep", lambda shape: 7)
        with pytest.raises(ArithmeticError, match="not a multiple"):
            naive_module(4)


def test_jord_module_other_primes():
    m = jord_module(4, primes=(2147483647, 2147483629))
    assert m.mults == tables.JORDAN_MODULE[4]


def test_tree_space_character_identity_and_transposition():
    # identity fixes all trees; a transposition fixes those where the two
    # labels share a cherry or sit in symmetric positions
    assert tree_space_character(4, (1, 1, 1, 1)) == 15
    assert tree_space_character(2, (2,)) == 1
    total = sum(1 for t in _tree_basis(5))
    assert tree_space_character(5, (1, 1, 1, 1, 1)) == total == 105


def test_naive_module_matches_rank_method():
    for n in range(1, 6):
        assert naive_module(n).mults == jord_module(n).mults


@pytest.mark.slow
def test_naive_module_matches_rank_method_degree_six():
    assert naive_module(6).mults == jord_module(6).mults


def test_naive_module_infeasible():
    with pytest.raises(InfeasibleError):
        naive_module(7)


def test_module_sanity_against_dimension():
    for n in (4, 5):
        m = jord_module(n)
        assert isinstance(m, SnModule)
        assert m.is_effective()
        assert set(m.mults) <= set(partitions(n))
