import gc
import itertools
import tracemalloc
from fractions import Fraction
from functools import cache
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freejordan import multidegree, tables
from freejordan.cli import main
from freejordan.errors import InfeasibleError
from freejordan.linalg import ExactRowReducer, RankAccumulator, blas_primes
from freejordan.multidegree import (
    _lower_contents,
    _nonzero_subcontents,
    _Products,
    _row_dicts,
    _seeded_ranks,
    _slot_splits,
    _unit_factors,
    component,
    multidegree_dim,
    normal_monomials,
    relation_rows,
)
from freejordan.operad import consequences, jord_module
from freejordan.partitions import kostka
from freejordan.trees import (
    monomial_key,
    monomial_slot_labels,
    monomial_to_tree,
    node,
    normal_types,
    straighten,
    straightener,
)


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


def test_full_multilinear_content_matches_operad(monkeypatch):
    monkeypatch.setattr(multidegree, "MAX_PARTS", 4)
    assert multidegree_dim((1, 1, 1, 1)) == 11


def test_two_variable_row_sums():
    # total two-generator dimension per degree: 2^(n-1) + 2^(ceil(n/2)-1)
    for n in range(2, 8):
        total = sum(multidegree_dim((a, n - a)) for a in range(n + 1))
        assert total == 2 ** (n - 1) + 2 ** ((n + 1) // 2 - 1)


def _ref_arrangements(counts: tuple):
    """Distinct label sequences using counts[i] copies of generator i+1."""
    if sum(counts) == 0:
        yield ()
        return
    for i, c in enumerate(counts):
        if c:
            rest = counts[:i] + (c - 1,) + counts[i + 1 :]
            for tail in _ref_arrangements(rest):
                yield (i + 1,) + tail


def _ref_normal_monomials(delta: tuple) -> tuple:
    """Every arrangement of the labels read through every normal type."""
    n = sum(delta)
    if n == 1:
        return (((delta.index(1) + 1,), ()),)
    out = set()
    for comp in normal_types(n):
        for labels in _ref_arrangements(delta):
            factors, pos = [], 2
            for c in comp:
                factors.append(labels[pos : pos + c])
                pos += c
            out.add(monomial_key(labels[:2], tuple(factors)))
    return tuple(sorted(out))


def test_normal_monomials_match_the_arrangement_scan():
    for n in range(1, 9):
        for delta in _contents(n):
            assert normal_monomials(delta) == _ref_normal_monomials(delta), delta


def test_relation_rows_have_uniform_content():
    for delta in [(3, 2), (2, 2, 1)]:
        g = len(delta)
        for row in relation_rows(delta):
            for m in row:
                labels = monomial_slot_labels(m)
                assert tuple(labels.count(i + 1) for i in range(g)) == delta


# rows and reference products over many slot tuples share one memo each
_TABLE = _Products()
_straighten_tree = straightener()


def _table_row(*slots) -> dict:
    """The defining identity at four normal monomials, built on _TABLE."""
    rows = _row_dicts(_TABLE, *_TABLE.rows([[_TABLE.id(b) for b in slots]]))
    return rows[0] if rows else {}


def test_relation_rows_are_integral():
    # straightening halves this instance; it is scaled by 2 where it is built
    y = ((2,), ())
    assert _table_row(y, y, y, ((1, 1), ((2,),))) == {
        ((1, 1), ((2,), (2,), (2, 2))): -3,
        ((2, 2), ((2,), (1,), (1, 2))): 2,
        ((2, 2), ((2,), (1,), (2,), (1,))): -2,
        ((2, 2), ((2,), (2,), (1, 1))): 1,
        ((1, 1), ((2,), (2,), (2,), (2,))): 2,
    }
    rows = [_table_row(y, y, y, ((1, 1), ((2,),)))]
    rows += [r for n in range(4, 8) for r in consequences(n)]
    rows += relation_rows((3, 2, 1))
    assert all(type(c) is int for r in rows for c in r.values())


# Fraction reference for the integer rows: products straightened pair by
# pair, each row scaled by the lcm of its denominators.
def _ref_mul(e1: dict, e2: dict) -> dict:
    out = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            s, pairs = _straighten_tree(node(monomial_to_tree(m1), monomial_to_tree(m2)))
            for m, d in pairs:
                out[m] = out.get(m, 0) + c1 * c2 * Fraction(d, 1 << s)
    return {m: c for m, c in out.items() if c}


def _ref_row(b1, b2, b3, b4) -> dict:
    e1, e2, e3, e4 = ({b: Fraction(1)} for b in (b1, b2, b3, b4))
    out = {}
    for term, sign in (
        (_ref_mul(_ref_mul(_ref_mul(e1, e2), e3), e4), 1),
        (_ref_mul(_ref_mul(_ref_mul(e2, e4), e3), e1), 1),
        (_ref_mul(_ref_mul(_ref_mul(e1, e4), e3), e2), 1),
        (_ref_mul(_ref_mul(e1, e2), _ref_mul(e3, e4)), -1),
        (_ref_mul(_ref_mul(e1, e3), _ref_mul(e2, e4)), -1),
        (_ref_mul(_ref_mul(e1, e4), _ref_mul(e2, e3)), -1),
    ):
        for m, c in term.items():
            out[m] = out.get(m, 0) + sign * c
    out = {m: c for m, c in out.items() if c}
    scale = lcm(*(c.denominator for c in out.values()))
    return {m: c * scale for m, c in out.items()}


@cache
def _ref_fresh_rows(delta: tuple) -> tuple:
    """relation_rows on the reference: the same fresh instances."""
    if sum(delta) < 4:
        return ()
    rows, seen = [], set()
    for s1, s2, s3, s4 in _slot_splits(delta):
        for v3, v1, v2, v4 in itertools.product(
            *(normal_monomials(s) for s in (s3, s1, s2, s4))
        ):
            key = (tuple(sorted((v1, v2, v4))), v3)
            if key not in seen:
                seen.add(key)
                rows.append(_ref_row(v1, v2, v3, v4))
    return tuple(r for r in rows if r)


@cache
def _ref_relation_rows(delta: tuple) -> tuple:
    """Every relation row of one content: the fresh instances and the rows
    of each lower content with a unit factor appended, keyed through
    monomial_key."""
    rows = list(_ref_fresh_rows(delta))
    for u, content in _unit_factors(len(delta)):
        lower = tuple(a - b for a, b in zip(delta, content))
        if min(lower) >= 0 and sum(lower) >= 4:
            for r in _ref_relation_rows(lower):
                rows.append({monomial_key(m[0], m[1] + (u,)): c for m, c in r.items()})
    return tuple(rows)


def _contents(n: int):
    # every content of degree n on one, two or three generators
    for g in (1, 2, 3):
        for delta in itertools.product(range(n + 1), repeat=g):
            if sum(delta) == n:
                yield delta


def _partitions(n: int):
    # one content per orbit of the generator permutations
    for delta in _contents(n):
        if all(delta) and list(delta) == sorted(delta, reverse=True):
            yield delta


def _ref_rank(delta: tuple, p: int) -> int:
    """Rank mod p of the full reference row set, fed densely."""
    index = {m: i for i, m in enumerate(normal_monomials(delta))}
    rows = _ref_relation_rows(delta)
    acc = RankAccumulator(len(index), p)
    for start in range(0, len(rows), 256):
        chunk = rows[start : start + 256]
        dense = np.zeros((len(chunk), len(index)), dtype=np.int64)
        for k, r in enumerate(chunk):
            for m, c in r.items():
                dense[k, index[m]] = int(c) % p
        acc.add(dense)
    return acc.rank


def _check_seeded_ranks(delta: tuple, primes) -> int:
    """Asserts the seeded ranks equal the full row set's at each prime;
    returns how many primes lose rank against a BLAS prime."""
    p = blas_primes(len(normal_monomials(delta)))[0]
    want = _ref_rank(delta, p)
    ranks_mod = _seeded_ranks(delta)
    ranks = {q: ranks_mod(q)[0] for q in (p,) + primes}
    assert ranks == {q: _ref_rank(delta, q) for q in (p,) + primes}, delta
    return sum(r < want for r in ranks.values())


def test_table_mul_is_straighten_over_a_power_of_two():
    # degree 6 on two generators is the first place a product is halved
    mons = [m for a in range(6) for b in range(6 - a) if a + b
            for m in normal_monomials((a, b))]
    halved = 0
    table = _Products()
    for m1, m2 in itertools.combinations_with_replacement(mons, 2):
        if len(monomial_slot_labels(m1) + monomial_slot_labels(m2)) != 6:
            continue
        s, terms = table.mul(table.id(m1), table.id(m2))
        tree = node(monomial_to_tree(m1), monomial_to_tree(m2))
        assert {table.mons[i]: Fraction(c, 2**s) for i, c in terms} == straighten(tree)
        assert all(type(c) is int for _, c in terms)
        assert s == 0 or any(c % 2 for _, c in terms)  # the least power
        halved += s > 0
    assert halved == 15


def test_mul_rescales_its_running_sum():
    # x*x is integral and y*x is halved.  In the row at (x2, x2, x2 x2,
    # x1 x2) the first term is integral and the last is halved, so the
    # table shifts the row's terms onto the larger power of two
    x, y = normal_monomials((1, 2))[:2]
    table = _Products()
    ix, iy = table.id(x), table.id(y)
    assert (table.mul(ix, ix)[0], table.mul(ix, iy)[0]) == (0, 1)
    slots = (((2,), ()), ((2,), ()), ((2, 2), ()), ((1, 2), ()))
    b1, b2, b3, b4 = (table.id(m) for m in slots)
    # ((b1 b2) b3) b4, expanded one product at a time as rows() does
    x, s, m = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.array([b1])
    for n in (b2, b3, b4):
        _, x, s, m = table._times(x, s, m, np.full(len(m), n))
    assert s.max() == 0
    (sp, p), (sq, q) = table.mul(b1, b4), table.mul(b2, b3)
    assert max(sp + sq + table.mul(m, n)[0] for m, _ in p for n, _ in q) == 1
    assert _table_row(*slots) == _ref_row(*slots)


def _reached(delta: tuple) -> list:
    """delta and every content below it through _lower_contents, lowest
    first, as _seeded_ranks reaches them."""
    out = []

    def walk(d):
        if d not in out:
            for _, low in _lower_contents(d):
                walk(low)
            out.append(d)

    walk(delta)
    return out


def test_one_table_across_contents_gives_each_content_its_own_rows():
    contents = _reached((4, 2, 1))
    assert len(contents) > 1
    table = _Products()
    for delta in contents:
        assert relation_rows(delta, table) == relation_rows(delta), delta


@st.composite
def _row_instances(draw):
    n = draw(st.integers(4, 8))
    g = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=g - 1, max_size=g - 1)))
    delta = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    split = draw(st.sampled_from(list(_slot_splits(delta))))
    return tuple(draw(st.sampled_from(normal_monomials(s))) for s in split)


@given(_row_instances())
@settings(max_examples=150, deadline=None)
def test_jordan_row_matches_the_fraction_reference(slots):
    row = _table_row(*slots)
    assert row == _ref_row(*slots)
    assert all(type(c) is int for c in row.values())


def test_relation_rows_match_the_fraction_reference(monkeypatch):
    # whatever the number of slot tuples assembled at once
    for chunk in (multidegree._CHUNK, 1, 7):
        monkeypatch.setattr(multidegree, "_CHUNK", chunk)
        for n in range(4, 8):
            for delta in itertools.product(range(n + 1), repeat=3):
                if sum(delta) == n:
                    assert relation_rows(delta) == _ref_fresh_rows(delta), (chunk, delta)


def test_row_coefficients_past_the_int64_bound_raise(monkeypatch):
    # the same products as ints times 2**40 over 2**(s + 40): a product of
    # two such coefficients passes 2**62, and the row builder refuses it
    # instead of letting int64 wrap
    mul = _Products.mul

    def inflated(self, i, j):
        s, terms = mul(self, i, j)
        return s + 40, tuple((m, c << 40) for m, c in terms)

    monkeypatch.setattr(_Products, "mul", inflated)
    with pytest.raises(ArithmeticError, match="int64"):
        relation_rows((2, 1, 1))
    with pytest.raises(ArithmeticError, match="int64"):
        multidegree_dim((2, 1, 1))
    assert main(["multidegree", "--delta", "2,1,1"]) == 2


def test_seeded_ranks_match_the_full_row_set():
    # per prime, so that a rank below the rational one is reproduced too:
    # at p = 3, 5, 7 the rank drops on 119 (content, prime) pairs
    lost = sum(_check_seeded_ranks(d, (3, 5, 7)) for n in range(4, 8)
               for d in _contents(n))
    assert lost == 119
    # degree 8 at a BLAS prime, one content per partition here and every
    # content in the slow tier
    for delta in _partitions(8):
        _check_seeded_ranks(delta, ())


@pytest.mark.slow
def test_seeded_ranks_match_the_full_row_set_in_degree_eight():
    for delta in _contents(8):
        _check_seeded_ranks(delta, ())


def _check_component(delta: tuple) -> None:
    """Asserts the seeded Component has the reduced echelon form of the
    full reference row set."""
    red = ExactRowReducer()
    for r in _ref_relation_rows(delta):
        red.add(r)
    comp = component(delta)
    assert comp._reducer.pivot_rows == red.pivot_rows, delta
    assert comp.basis == tuple(
        m for m in normal_monomials(delta) if m not in red.pivot_rows
    ), delta


def test_component_matches_the_full_row_reducer():
    # every content through degree 6, one per partition in degree 7 here
    # and every content in the slow tier
    for n in range(4, 7):
        for delta in _contents(n):
            _check_component(delta)
    for delta in _partitions(7):
        _check_component(delta)


@pytest.mark.slow
def test_component_matches_the_full_row_reducer_in_degree_seven():
    for delta in _contents(7):
        _check_component(delta)


def test_nonintegral_contents_are_refused():
    for delta in [(3.7, 2), (2.0, 2), (True, 2), ("3", 2)]:
        with pytest.raises(ValueError, match="must be integers"):
            multidegree_dim(delta)
    component((2, 2))  # cached first: a float twin must not hit the cache
    for delta in [(2.5, 2), (2.0, 2), (True, 1)]:
        with pytest.raises(ValueError, match="must be integers"):
            component(delta)


def test_a_finished_call_keeps_no_straightening_state():
    # the process caches a call may fill are warmed first: imports, the
    # primes, and the normal monomials and subcontents it reaches
    multidegree_dim((2, 1, 1))
    for delta in ((5, 2, 1), (4, 1, 1)):
        for s in _nonzero_subcontents(delta):
            normal_monomials(s)
            _nonzero_subcontents(s)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        multidegree_dim((5, 2, 1))
        component((4, 1, 1))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # process-global straightening memos kept about 2 MB here
    assert kept < 1_000_000, kept


def test_a_finished_call_frees_its_state_without_the_cycle_collector():
    # one traced call first fills the process caches and the interpreter's
    # free lists, so that the second call's difference is what it keeps
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        multidegree_dim((5, 2, 1))
        start = tracemalloc.get_traced_memory()[0]
        multidegree_dim((5, 2, 1))
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    # recursive closures holding the product table in reference cycles
    # kept 3.6 MB here until the cycle collector ran
    assert kept < 100_000, kept


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


def test_published_content_nine_one_one():
    assert multidegree_dim((9, 1, 1)) == tables.MULTIDEGREE_DIMS[(9, 1, 1)]


@pytest.mark.slow
def test_published_degree_eleven_values():
    assert multidegree_dim((8, 2, 1)) == tables.MULTIDEGREE_DIMS[(8, 2, 1)]
