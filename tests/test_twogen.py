"""Two-generator dimensions through the associative realization."""

import os
from itertools import product

import numpy as np
import pytest

import freejordan.twogen as twogen_mod
from freejordan.errors import InfeasibleError
from freejordan.linalg import RankAccumulator, blas_primes
from freejordan.lambda_ring import km_prediction, schur_decompose
from freejordan.partitions import partitions
from freejordan.tables import JORDAN_MODULE, TWO_GEN_B_DIMS, TWO_GEN_DIMS
from freejordan.twogen import (
    _FACTORS,
    _content_columns,
    _reversal_orbits,
    _span_ranks,
    b_dim_two_gen,
    bracelet_count,
    jordan_span_dim,
    necklace_count,
    reversible_dim,
    two_gen_table,
    two_row_multiplicity,
)

LONG = os.environ.get("FREEJORDAN_LONG_TESTS") == "1"


def test_reversible_dims_match_table():
    assert [reversible_dim(n) for n in range(1, 21)] == list(TWO_GEN_DIMS)


def test_reversible_dim_19_value():
    assert reversible_dim(19) == 262656


def _two_row_shapes(n):
    return [s for s in partitions(n) if len(s) <= 2]


def test_two_row_multiplicity_certifies_the_degree_19_gap():
    # the closed form against the rank method's frozen tables ...
    for n in range(1, 11):
        for shape in _two_row_shapes(n):
            assert two_row_multiplicity(shape) == JORDAN_MODULE[n].get(shape, 0)
    # ... and against the prediction: equal through degree 18, in degree 19
    # one copy of S^(10,9) short of it, and in degree 20 two copies each of
    # S^(11,9) and S^(10,10)
    a, _b = km_prediction(20, 20)
    expected = {19: {(10, 9): 1}, 20: {(11, 9): 2, (10, 10): 2}}
    for n in range(1, 21):
        shapes = _two_row_shapes(n)
        predicted = schur_decompose(a, n, shapes).mults
        gap = {s: predicted.get(s, 0) - two_row_multiplicity(s) for s in shapes}
        assert {s: k for s, k in gap.items() if k} == expected.get(n, {})
    with pytest.raises(ValueError, match="two rows"):
        two_row_multiplicity((2, 1, 1))


def _orbit_count(n, flips):
    """Brute-force count of binary word orbits under rotation (and reversal)."""
    words = list(product((0, 1), repeat=n))
    seen, orbits = set(), 0
    for w in words:
        if w in seen:
            continue
        orbits += 1
        group = [w[i:] + w[:i] for i in range(n)]
        if flips:
            group += [tuple(reversed(g)) for g in group]
        seen.update(group)
    return orbits


def test_necklace_and_bracelet_against_brute_force():
    for n in range(1, 13):
        assert necklace_count(n) == _orbit_count(n, flips=False)
        assert bracelet_count(n) == _orbit_count(n, flips=True)


def test_b_dims_match_table():
    assert [b_dim_two_gen(n) for n in range(1, 21)] == list(TWO_GEN_B_DIMS)


def test_b_dim_20_value():
    assert b_dim_two_gen(20) == 498300


def _ref_sym_concat(u: dict, v: dict, deg_u: int, deg_v: int) -> dict:
    """Twice the symmetrized product of two expanded elements, as dicts."""
    out = {}
    for mu, cu in u.items():
        for mv, cv in v.items():
            c = cu * cv
            k = (mu << deg_v) | mv
            out[k] = out.get(k, 0) + c
            k = (mv << deg_u) | mu
            out[k] = out.get(k, 0) + c
    return out


def _ref_content_rows(n: int, ones: int):
    """The dict expansion of the normal monomials with `ones` second letters,
    depth first: head pair, then factors of degree two, then one."""
    letters = ({0: 1}, {1: 1})
    if n == 1:
        yield letters[ones]
        return
    pairs = ((0, 0), (0, 1), (1, 1))

    def extend(state: dict, deg: int, y_used: int):
        if deg == n:
            yield state
            return
        y_left = ones - y_used
        x_left = (n - ones) - (deg - y_used)
        if deg + 2 <= n:
            for i, j in pairs:
                dy = i + j
                if dy <= y_left and 2 - dy <= x_left:
                    factor = _ref_sym_concat(letters[i], letters[j], 1, 1)
                    yield from extend(
                        _ref_sym_concat(state, factor, deg, 2), deg + 2, y_used + dy
                    )
        for i in (0, 1):
            if (y_left if i else x_left) >= 1:
                yield from extend(
                    _ref_sym_concat(state, letters[i], deg, 1), deg + 1, y_used + i
                )

    for a, b in pairs:
        dy = a + b
        if dy <= ones and 2 - dy <= n - ones:
            yield from extend(_ref_sym_concat(letters[a], letters[b], 1, 1), 2, dy)


def _ref_rank(n, ones, p):
    """Rank mod p of every expanded normal monomial with `ones` second
    letters, on the orbit columns of its content."""
    column, mirror, orbits = _content_columns(n, ones)
    ref = list(_ref_content_rows(n, ones))
    full = np.zeros((len(ref), len(mirror)), dtype=np.int64)
    for k, row in enumerate(ref):
        for word, count in row.items():
            full[k, column[word]] = count
    assert np.array_equal(full[:, orbits], full[:, mirror[orbits]])
    return RankAccumulator(len(orbits), p).add(full[:, orbits])


# mod 2 every 2(x o x) vanishes, so most blocks lose rank there and the
# recursion runs on rank-deficient lower bases
@pytest.mark.parametrize("p", [blas_primes(_reversal_orbits(10, 5))[0], 11, 13, 2])
def test_span_ranks_match_the_full_expansion(p):
    # the degree recursion on echelon bases against the rank of every
    # normal monomial's expansion, block by block; the letter swap stands
    # in for the blocks with more second letters than first; one walk
    # reports every block of every degree, in (degree, ones) order
    ranks = iter(_span_ranks(10, p))
    for n in range(1, 11):
        got = [next(ranks) for _ in range(n // 2 + 1)]
        assert [_ref_rank(n, ones, p) for ones in range(n + 1)] == [
            got[min(ones, n - ones)] for ones in range(n + 1)
        ], n
    assert next(ranks, None) is None


def test_orbit_columns_sum_to_reversible_dim():
    for n in range(1, 17):
        total = 0
        for ones in range(n // 2 + 1):
            column, mirror, orbits = _content_columns(n, ones)
            words = np.flatnonzero(column >= 0)
            assert len(orbits) == _reversal_orbits(n, ones)
            # a word's bits, most significant first, reversed as a string
            reverse = [int(format(int(w), "0%db" % n)[::-1], 2) for w in words]
            assert reverse == words[mirror].tolist()
            # swapping the two letters matches the content with its mirror
            total += (1 if 2 * ones == n else 2) * len(orbits)
        assert total == reversible_dim(n)


@pytest.mark.parametrize("xy, message", [
    pytest.param((0b01,), "reversal-fixed", id="one_sided"),  # no yx
    pytest.param((0b11, 0b10), "leaves the content", id="off_content"),  # yy for xy
])
def test_span_refuses_rows_it_cannot_trust(monkeypatch, xy, message):
    # the broken factor goes first, so that no block is full before it is used
    factors = [(2, 1, xy)] + [f for f in _FACTORS if f[:2] != (2, 1)]
    monkeypatch.setattr(twogen_mod, "_FACTORS", tuple(factors))
    with pytest.raises(ArithmeticError, match=message):
        jordan_span_dim(4)


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(twogen_mod, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(twogen_mod, name, counted)
    return calls


def test_span_walks_one_prime_when_every_block_is_full(monkeypatch):
    calls = _count_calls(monkeypatch, "_span_ranks")
    assert jordan_span_dim(10) == reversible_dim(10)
    assert calls == [(10, blas_primes(_reversal_orbits(10, 5))[0])]


def test_span_walks_every_prime_when_a_block_falls_short(monkeypatch):
    # without the factor x most blocks lose rank, at every prime alike
    monkeypatch.setattr(twogen_mod, "_FACTORS", _FACTORS[1:])
    calls = _count_calls(monkeypatch, "_span_ranks")
    primes = (1000003, 1000033)
    assert jordan_span_dim(8, primes=primes) < reversible_dim(8)
    assert calls == [(8, p) for p in primes]


def test_table_builds_each_block_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_block")
    rows = two_gen_table(max_degree=12, span_bound=12, predictions=False)
    assert [r["jordan_span_dim"] for r in rows] == [reversible_dim(n) for n in range(1, 13)]
    blocks = [(d, ones) for d, ones, _p, _accs in calls]
    assert blocks == [(d, ones) for d in range(1, 13) for ones in range(d // 2 + 1)]


def test_span_equals_reversible_in_low_degree():
    for n in range(2, 11):
        assert jordan_span_dim(n) == reversible_dim(n)


def test_span_small_examples():
    assert jordan_span_dim(2) == 3
    assert jordan_span_dim(5) == 20


def test_span_default_primes_match_31_bit_pair():
    # float64 path at the default primes, integer loop at the 31-bit pair
    assert jordan_span_dim(10) == jordan_span_dim(10, primes=(2147483647, 2147483629))


def test_span_degree_twelve():
    assert jordan_span_dim(12) == 2080


@pytest.mark.slow
def test_span_degree_fourteen():
    assert jordan_span_dim(14) == reversible_dim(14) == 8256


def test_span_refuses_past_bound():
    with pytest.raises(InfeasibleError, match="3235-column block") as exc:
        jordan_span_dim(15)
    assert exc.value.estimate


def test_table_rows_match_frozen_dimensions():
    rows = two_gen_table(max_degree=8, span_bound=8, predictions=False)
    assert [r["n"] for r in rows] == list(range(1, 9))
    for r in rows:
        assert r["reversible_dim"] == TWO_GEN_DIMS[r["n"] - 1]
        assert r["b_dim"] == TWO_GEN_B_DIMS[r["n"] - 1]
        if r["n"] >= 2:
            assert r["jordan_span_dim"] == r["reversible_dim"]


def test_table_leaves_span_open_past_bound():
    rows = two_gen_table(max_degree=7, span_bound=4, predictions=False)
    assert rows[-1]["jordan_span_dim"] is None
    assert rows[3]["jordan_span_dim"] == reversible_dim(4)


@pytest.mark.skipif(not LONG, reason="character predictions to degree 20 take minutes")
def test_table_predictions_show_the_degree_19_mismatch():
    rows = two_gen_table(max_degree=20, span_bound=2)
    by_n = {r["n"]: r for r in rows}
    assert by_n[19]["predicted_dim"] == 262658
    assert by_n[19]["reversible_dim"] == 262656
    assert by_n[19]["dim_match"] is False
    assert by_n[20]["predicted_b_dim"] == 498303
    assert by_n[20]["b_dim"] == 498300
    assert by_n[20]["b_dim_match"] is False
    assert all(by_n[n]["dim_match"] for n in range(1, 19))
    assert all(by_n[n]["b_dim_match"] for n in range(1, 20))
