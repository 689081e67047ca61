from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freejordan.errors import UnluckyPrimeError
from freejordan.linalg import (
    DEFAULT_PRIMES,
    PRIMES_BLAS,
    ExactRowReducer,
    RankAccumulator,
    bareiss_rank,
    certified_rank,
    is_prime,
    nullspace_mod_p,
    primes_above,
    rank_mod_p,
)


def gauss_rank_oracle(rows):
    # slow row reduction over Fraction, the reference for everything else
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


small_matrices = st.integers(1, 5).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(-30, 30), min_size=nc, max_size=nc),
        min_size=1,
        max_size=6,
    )
)


def test_prime_pools():
    assert all(is_prime(p) and p > 2**30 for p in DEFAULT_PRIMES)
    assert all(is_prime(p) for p in PRIMES_BLAS)
    assert primes_above(10, 3) == (11, 13, 17)
    assert not is_prime(1) and not is_prime(561) and is_prime(2**31 - 1)


def test_rank_known_row_multiple():
    m = [[1, 2, 3, 4], [2, 4, 6, 8]]
    assert rank_mod_p(m, 101) == 1


def test_rank_hilbert_exact():
    h = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert certified_rank(h, primes=(101, 32003), exact=True) == 3


def test_rank_denominator_collision():
    with pytest.raises(ValueError):
        rank_mod_p([[Fraction(1, 101)]], 101)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_certified_matches_gauss(m):
    assert certified_rank(m, exact=True) == gauss_rank_oracle(m)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_bareiss_matches_gauss(m):
    assert bareiss_rank(m) == gauss_rank_oracle(m)


@given(small_matrices, st.randoms())
@settings(max_examples=40, deadline=None)
def test_rank_invariances(m, rnd):
    p = DEFAULT_PRIMES[0]
    r = rank_mod_p(m, p)
    shuffled = list(m)
    rnd.shuffle(shuffled)
    assert rank_mod_p(shuffled, p) == r
    assert rank_mod_p(np.array(m).T, p) == r
    assert rank_mod_p([[3 * x for x in row] for row in m], p) == r


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_nullspace(m):
    p = DEFAULT_PRIMES[1]
    a = np.array(m, dtype=np.int64) % p
    basis = nullspace_mod_p(m, p)
    assert basis.shape[0] + rank_mod_p(m, p) == a.shape[1]
    if basis.size:
        assert not ((a @ basis.T) % p).any()


@given(small_matrices, st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_accumulator_both_paths(m, which):
    # exercise the BLAS-eligible prime and a 31-bit prime
    p = (PRIMES_BLAS + DEFAULT_PRIMES)[which * len(PRIMES_BLAS)]
    acc = RankAccumulator(len(m[0]), p)
    for i in range(0, len(m), 2):
        acc.add(np.array(m[i : i + 2]))
    assert acc.rank == rank_mod_p(m, p)


def test_accumulator_full_stop_and_reduce():
    p = PRIMES_BLAS[0]
    acc = RankAccumulator(3, p)
    acc.add(np.eye(3, dtype=np.int64))
    assert acc.is_full
    assert acc.add(np.array([[5, 6, 7]])) == 3
    acc2 = RankAccumulator(3, p)
    acc2.add(np.array([[1, 1, 0]]))
    rem = acc2.reduce(np.array([[2, 2, 0], [0, 0, 4]]))
    assert not rem[0].any() and rem[1, 2] == 4


def test_accumulator_basis_is_rref():
    p = PRIMES_BLAS[0]
    acc = RankAccumulator(3, p)
    acc.add(np.array([[2, 2, 0], [0, 0, 3], [4, 4, 3]]))
    b = acc.basis()
    assert b.shape == (2, 3)
    # normalized pivots, pivot columns cleared elsewhere
    assert b.tolist() == [[1, 1, 0], [0, 0, 1]]
    # reducing the basis against itself leaves nothing
    assert not acc.reduce(b).any()


@given(small_matrices)
@settings(max_examples=50, deadline=None)
def test_exact_reducer_matches_gauss(m):
    red = ExactRowReducer(len(m[0]))
    for row in m:
        red.add(row)
    assert red.rank == gauss_rank_oracle(m)
    # every original row must reduce to zero against the accumulated span
    for row in m:
        assert not red.reduce(row)


def test_exact_reducer_quotient_coordinates():
    red = ExactRowReducer(3)
    red.add([1, 2, 0])
    red.add([0, 0, 3])
    assert red.pivot_columns() == (0, 2)
    rem = red.reduce([Fraction(1), Fraction(5), Fraction(7)])
    # remainder is supported on the non-pivot column only
    assert rem == {1: 3}


@given(small_matrices, st.data())
@settings(max_examples=50, deadline=None)
def test_exact_reducer_dense_and_dict_rows_agree(m, data):
    ncols = len(m[0])
    probes = data.draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
                 max_size=4)
    )

    def sparse(row):
        # nonzero entries, inserted from the last column down
        return {j: x for j, x in reversed(list(enumerate(row))) if x}

    dense, by_dict = ExactRowReducer(ncols), ExactRowReducer(ncols)
    for row in m:
        assert dense.add(row) == by_dict.add(sparse(row))
    assert dense.rank == by_dict.rank
    assert dense.pivot_columns() == by_dict.pivot_columns()
    for row in m + probes:
        assert dense.reduce(row) == by_dict.reduce(sparse(row))


def test_unlucky_prime_reported():
    # rank over Q is 1, but modulo 11 the matrix vanishes
    m = [[11, 22]]
    with pytest.raises(UnluckyPrimeError) as ei:
        certified_rank(m, primes=(11, 101))
    assert ei.value.outliers == [11]


def test_tall_matrix_streaming_path():
    rng = np.random.default_rng(0)
    m = rng.integers(0, 50, size=(400, 7))
    m[:, 3] = m[:, 0] + m[:, 1]
    p = DEFAULT_PRIMES[0]
    assert rank_mod_p(m, p) == gauss_rank_oracle(m.tolist())
