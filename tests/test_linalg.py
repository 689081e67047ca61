from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freejordan.errors import UnluckyPrimeError
from freejordan.linalg import (
    ExactRowReducer,
    RankAccumulator,
    _blas_ok,
    bareiss_rank,
    blas_primes,
    certify,
    choose_primes,
    is_prime,
    modular_ranks,
)
from freejordan.multidegree import multidegree_dim
from freejordan.operad import jord_module, multiplicity, naive_dim
from freejordan.twogen import jordan_span_dim

# 31-bit primes: RankAccumulator never takes its float64 path with these
P31 = (2147483647, 2147483629)


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


def acc_rank(m, p, batch=2):
    # rank over F_p, with the rows fed to one accumulator a batch at a time
    m = np.asarray(m, dtype=np.int64)
    acc = RankAccumulator(m.shape[1], p)
    for i in range(0, m.shape[0], batch):
        acc.add(m[i : i + batch])
    return acc.rank


def matrices(max_rows):
    return st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-30, 30), min_size=nc, max_size=nc),
            min_size=1,
            max_size=max_rows,
        )
    )


small_matrices = matrices(6)


def test_prime_pools():
    assert not is_prime(1) and not is_prime(561) and is_prime(2**31 - 1)
    assert all(is_prime(p) for p in P31)
    # widths from one column to jord_module(10)'s widest block
    for width in (1, 832, 8192, 9520, 26112):
        primes = blas_primes(width)
        assert len(set(primes)) == 2
        assert all(is_prime(p) and _blas_ok(p, width) for p in primes)


def test_accumulator_refuses_primes_from_2_31():
    # int64 products of residues would overflow and give wrong ranks
    assert RankAccumulator(2, 2**31 - 1).add(np.array([[1, 2]])) == 1
    with pytest.raises(ValueError, match="2\\^31"):
        RankAccumulator(2, 4294967311)


def test_certify_agrees_disagrees_and_rejects_empty():
    assert certify({101: 3, 103: 3}) == 3
    assert certify({101: 0}) == 0
    with pytest.raises(UnluckyPrimeError) as ei:
        certify({101: 3, 103: 2, 107: 3})
    assert ei.value.outliers == [103]
    with pytest.raises(ValueError, match="no primes"):
        certify({})


def test_rank_known_row_multiple():
    m = [[1, 2, 3, 4], [2, 4, 6, 8]]
    assert acc_rank(m, 101) == 1


def test_rank_hilbert_exact():
    h = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert bareiss_rank(h) == 3


def test_choose_primes_default_and_explicit():
    assert choose_primes(832, 8) == blas_primes(832)
    assert choose_primes(832, 8, [P31[1], 11]) == (P31[1], 11)


# each of these returned a wrong number, or accepted a non-prime, before
# the library checked explicit primes: (3,2,1) gave 34 (truth 30), the
# degree-6 span 9 (truth 36), (3,1,1) multiplicity 4 (truth 2)
@pytest.mark.parametrize("call, message", [
    (lambda: multidegree_dim((3, 2, 1), primes=(3,)), "exceed the degree"),
    (lambda: jordan_span_dim(6, primes=(2,)), "exceed the degree"),
    (lambda: multiplicity((3, 1, 1), 5, primes=(2,)), "exceed the degree"),
    (lambda: jord_module(5, primes=(5, 101)), "exceed the degree"),
    (lambda: naive_dim(5, primes=(3,)), "exceed the degree"),
    (lambda: jordan_span_dim(8, primes=(9,)), "not prime"),
    (lambda: multiplicity((3, 2), 5, primes=(9,)), "not prime"),
    (lambda: naive_dim(4, primes=(4294967311,)), "2\\^31"),
    (lambda: multidegree_dim((2, 2), primes=(2305843009213693951,)), "2\\^31"),
])
def test_library_refuses_explicit_primes_outside_the_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@given(matrices(40), st.data())
@settings(max_examples=60, deadline=None)
def test_modular_ranks_match_gauss_and_stop_at_cap(m, data):
    ncols = len(m[0])
    rows = np.asarray(m, dtype=np.int64)
    cuts = data.draw(st.sets(st.integers(1, max(1, len(m) - 1))))
    blocks = np.split(rows, sorted(cuts))
    primes = (blas_primes(ncols)[0], P31[0])
    r = gauss_rank_oracle(m)
    assert modular_ranks(iter(blocks), ncols, primes) == {p: r for p in primes}
    pulled = []

    def counted():
        for block in blocks:
            pulled.append(block)
            yield block

    assert modular_ranks(counted(), ncols, primes, cap=r) == {p: r for p in primes}
    # the first block after which the rows so far have rank r ends the feed
    first = next(k for k in range(1, len(blocks) + 1)
                 if gauss_rank_oracle(rows[: sum(map(len, blocks[:k]))].tolist()) == r)
    assert len(pulled) == first


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_certified_matches_gauss(m):
    ranks = {p: acc_rank(m, p) for p in P31}
    assert certify(ranks) == gauss_rank_oracle(m)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_bareiss_matches_gauss(m):
    assert bareiss_rank(m) == gauss_rank_oracle(m)


@given(small_matrices, st.randoms())
@settings(max_examples=40, deadline=None)
def test_rank_invariances(m, rnd):
    p = P31[0]
    r = acc_rank(m, p)
    assert r == gauss_rank_oracle(m)
    shuffled = list(m)
    rnd.shuffle(shuffled)
    assert acc_rank(shuffled, p) == r
    assert acc_rank(np.array(m).T, p) == r
    assert acc_rank([[3 * x for x in row] for row in m], p) == r


@given(small_matrices, st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_accumulator_both_paths(m, which):
    # exercise the BLAS-eligible prime and a 31-bit prime
    p = (blas_primes(len(m[0]))[0], P31[0])[which]
    assert acc_rank(m, p) == gauss_rank_oracle(m)


def test_accumulator_full_stop_and_reduce():
    p = blas_primes(3)[0]
    acc = RankAccumulator(3, p)
    acc.add(np.eye(3, dtype=np.int64))
    assert acc.is_full
    assert acc.add(np.array([[5, 6, 7]])) == 3
    acc2 = RankAccumulator(3, p)
    acc2.add(np.array([[1, 1, 0]]))
    rem = acc2.reduce(np.array([[2, 2, 0], [0, 0, 4]]))
    assert not rem[0].any() and rem[1, 2] == 4


def test_accumulator_basis_is_rref():
    p = blas_primes(3)[0]
    acc = RankAccumulator(3, p)
    acc.add(np.array([[2, 2, 0], [0, 0, 3], [4, 4, 3]]))
    b = acc.basis()
    assert b.shape == (2, 3)
    # normalized pivots, pivot columns cleared elsewhere
    assert b.tolist() == [[1, 1, 0], [0, 0, 1]]
    # reducing the basis against itself leaves nothing
    assert not acc.reduce(b).any()


@given(matrices(40), st.data(), st.sampled_from([0, 1]))
@settings(max_examples=60, deadline=None)
def test_accumulator_batches_keep_rref(m, data, which):
    # batches from one row to more than the whole matrix reach every level
    # of the recursive echelon, on the BLAS-eligible and a 31-bit prime
    p = (blas_primes(len(m[0]))[0], P31[0])[which]
    batch = data.draw(st.integers(1, len(m) + 2))
    rows = np.asarray(m, dtype=np.int64)
    acc = RankAccumulator(rows.shape[1], p)
    for i in range(0, len(rows), batch):
        acc.add(rows[i : i + batch])
    assert acc.rank == gauss_rank_oracle(m)
    b = acc.basis()
    lead = [int(np.flatnonzero(row)[0]) for row in b]
    assert len(set(lead)) == len(lead) == acc.rank
    for k, c in enumerate(lead):
        # a leading 1, and 0 at every other row's leading column
        assert b[k, c] == 1 and np.count_nonzero(b[:, c]) == 1
    assert not acc.reduce(rows).any()


@given(small_matrices)
@settings(max_examples=50, deadline=None)
def test_exact_reducer_matches_gauss(m):
    red = ExactRowReducer()
    for row in m:
        red.add(row)
    assert red.rank == gauss_rank_oracle(m)
    # every original row must reduce to zero against the accumulated span
    for row in m:
        assert not red.reduce(row)


def test_exact_reducer_quotient_coordinates():
    red = ExactRowReducer()
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

    dense, by_dict = ExactRowReducer(), ExactRowReducer()
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
        certify({p: acc_rank(m, p) for p in (11, 101)})
    assert ei.value.outliers == [11]


def test_tall_matrix_streaming_path():
    rng = np.random.default_rng(0)
    m = rng.integers(0, 50, size=(400, 7))
    m[:, 3] = m[:, 0] + m[:, 1]
    assert acc_rank(m, P31[0], batch=64) == gauss_rank_oracle(m.tolist())
