import itertools
from fractions import Fraction

import pytest

from freejordan import tables
from freejordan.errors import InfeasibleError
from freejordan.multidegree import (
    _jordan_row,
    component,
    multidegree_dim,
    normal_monomials,
    relation_rows,
)
from freejordan.operad import consequences, jord_module
from freejordan.partitions import kostka
from freejordan.trees import monomial_slot_labels


def test_small_dimensions():
    assert multidegree_dim((1, 1)) == 1
    assert multidegree_dim((2, 1)) == 2
    assert multidegree_dim((1, 2)) == 2
    assert multidegree_dim((2, 2)) == 4
    assert multidegree_dim((3, 1)) == 2


def test_powers_are_one_dimensional():
    # power associativity, recovered rather than assumed
    for n in range(1, 9):
        assert multidegree_dim((n,)) == 1


def test_content_permutation_invariance():
    for delta in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]:
        assert multidegree_dim(delta) == multidegree_dim((2, 1, 1))
    assert multidegree_dim((3, 2)) == multidegree_dim((2, 3))


def test_zero_components_are_dropped_content():
    assert multidegree_dim((2, 0, 1)) == multidegree_dim((2, 1))
    assert multidegree_dim((0, 4)) == 1


def test_weight_spaces_match_module_decomposition():
    # independent pipelines: direct rank in the content span vs the
    # multilinear module decomposition paired with Kostka numbers
    for n in range(2, 7):
        mod = jord_module(n)
        for parts in (1, 2, 3):
            for delta in itertools.product(range(1, n + 1), repeat=parts):
                if sum(delta) != n:
                    continue
                mu = tuple(sorted(delta, reverse=True))
                want = sum(c * kostka(lam, mu) for lam, c in mod.mults.items())
                assert multidegree_dim(delta) == want, delta


def test_full_multilinear_content_matches_operad():
    assert multidegree_dim((1, 1, 1, 1), max_parts=4) == 11


def test_two_variable_row_sums():
    # total two-generator dimension per degree: 2^(n-1) + 2^(ceil(n/2)-1)
    for n in range(2, 8):
        total = sum(multidegree_dim((a, n - a)) for a in range(n + 1))
        assert total == 2 ** (n - 1) + 2 ** ((n + 1) // 2 - 1)


def test_relation_rows_have_uniform_content():
    for delta in [(3, 2), (2, 2, 1)]:
        g = len(delta)
        for row in relation_rows(delta):
            for m in row:
                labels = monomial_slot_labels(m)
                assert tuple(labels.count(i + 1) for i in range(g)) == delta


def test_relation_rows_are_integral():
    # straightening halves this instance; it is scaled by 2 where it is built
    y = ((2,), ())
    assert _jordan_row(y, y, y, ((1, 1), ((2,),))) == {
        ((1, 1), ((2,), (2,), (2, 2))): -3,
        ((2, 2), ((2,), (1,), (1, 2))): 2,
        ((2, 2), ((2,), (1,), (2,), (1,))): -2,
        ((2, 2), ((2,), (2,), (1, 1))): 1,
        ((1, 1), ((2,), (2,), (2,), (2,))): 2,
    }
    rows = [_jordan_row(y, y, y, ((1, 1), ((2,),)))]
    rows += [r for n in range(4, 8) for r in consequences(n)]
    rows += relation_rows((3, 2, 1))
    assert all(type(c) is int for r in rows for c in r.values())


def test_prime_independence():
    assert multidegree_dim((3, 2), primes=(2147483647, 2147483629)) == 6
    assert multidegree_dim((3, 2)) == 6


def test_validation_errors():
    with pytest.raises(ValueError):
        multidegree_dim(())
    with pytest.raises(ValueError):
        multidegree_dim((1, -1))
    with pytest.raises(ValueError):
        multidegree_dim((0, 0))
    with pytest.raises(ValueError):
        multidegree_dim((1, 1, 1, 1))  # four active generators by default


def test_infeasible_refusal_carries_estimate():
    with pytest.raises(InfeasibleError) as ei:
        multidegree_dim((10, 1, 1))
    assert ei.value.estimate
    with pytest.raises(InfeasibleError):
        component((9, 1, 1))


def test_component_matches_modular_dimension():
    for delta in [(2, 2), (4, 1), (3, 2), (2, 2, 1)]:
        assert component(delta).dim == multidegree_dim(delta)


def test_component_identifies_equal_powers():
    comp = component((4,))
    m_left_comb = ((1, 1), ((1,), (1,)))
    m_square_square = ((1, 1), ((1, 1),))
    assert set(normal_monomials((4,))) == {m_left_comb, m_square_square}
    a = comp.coords({m_left_comb: Fraction(1)})
    b = comp.coords({m_square_square: Fraction(1)})
    assert a == b and len(a) == 1


def test_component_rejects_wrong_content():
    comp = component((2, 1))
    with pytest.raises(ValueError):
        comp.coords({((1, 1), ((1,),)): Fraction(1)})


def test_component_basis_monomials_are_their_own_coords():
    comp = component((3, 2))
    for m in comp.basis:
        assert comp.coords({m: Fraction(1)}) == {m: Fraction(1)}


@pytest.mark.slow
def test_published_degree_eleven_values():
    assert multidegree_dim((9, 1, 1)) == tables.MULTIDEGREE_DIMS[(9, 1, 1)]
    assert multidegree_dim((8, 2, 1)) == tables.MULTIDEGREE_DIMS[(8, 2, 1)]
