import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freejordan import linalg
from freejordan.errors import UnluckyPrimeError
from freejordan.linalg import (
    CSRRows,
    ExactRowReducer,
    RankAccumulator,
    _LEAF_ROWS,
    _blas_ok,
    _eliminate,
    _rref,
    bareiss_rank,
    blas_primes,
    certified_ranks,
    certify,
    choose_primes,
    is_prime,
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


def _walk(table):
    """ranks_mod for certified_ranks from {p: ranks}, and the primes walked."""
    walked = []

    def ranks_mod(p):
        walked.append(p)
        return table[p]

    return ranks_mod, walked


def test_certified_ranks_walks_one_prime_when_every_matrix_is_full():
    ranks_mod, walked = _walk({101: [3, 0, 5], 103: [0, 0, 0]})
    assert certified_ranks((101, 103), ranks_mod, [3, 0, 5]) == [3, 0, 5]
    assert walked == [101]


def test_certified_ranks_walks_every_prime_when_a_matrix_falls_short():
    # the first prime is unlucky on the third matrix, the last on the
    # first: a full rank at any prime settles its matrix
    ranks_mod, walked = _walk({101: [3, 2, 4], 103: [3, 2, 5], 107: [2, 2, 5]})
    assert certified_ranks((101, 103, 107), ranks_mod, [3, 3, 5]) == [3, 2, 5]
    assert walked == [101, 103, 107]


def test_certified_ranks_refuses_disagreeing_short_ranks():
    ranks_mod, _ = _walk({101: [2, 1], 103: [2, 2]})
    with pytest.raises(UnluckyPrimeError) as ei:
        certified_ranks((101, 103), ranks_mod, [3, 3])
    assert ei.value.outliers == [101]
    with pytest.raises(ValueError, match="no primes"):
        certified_ranks((), ranks_mod, [3, 3])


def test_certified_ranks_takes_one_explicit_prime_as_given():
    ranks_mod, walked = _walk({101: [2, 0, 3]})
    assert certified_ranks((101,), ranks_mod, [3, 3, 3]) == [2, 0, 3]
    assert walked == [101]


def test_certify_takes_a_full_rank_from_one_prime():
    # rank mod p <= rank over Q <= ncols: one prime at ncols settles it
    assert certify({101: 5}, ncols=5) == 5
    assert certify({101: 5, 103: 5}, ncols=5) == 5
    assert certify({101: 5, 103: 4}, ncols=5) == 5
    assert certify({101: 3, 103: 3}, ncols=5) == 3
    with pytest.raises(UnluckyPrimeError) as ei:
        certify({101: 3, 103: 2}, ncols=5)
    assert ei.value.outliers == [103]


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


@pytest.mark.parametrize("method", ["add", "reduce"])
@pytest.mark.parametrize("width", [4, 6])
def test_accumulator_refuses_rows_of_another_width(method, width):
    acc = RankAccumulator(5, P31[0])
    wrong = np.ones((2, width), dtype=np.int64)
    # an empty basis has no column that would expose the width
    with pytest.raises(ValueError, match="width 5"):
        getattr(acc, method)(wrong)
    acc.add(np.array([[1, 2, 0, 0, 3]]))
    with pytest.raises(ValueError, match="width 5"):
        getattr(acc, method)(wrong)
    assert acc.rank == 1 and acc.basis().tolist() == [[1, 2, 0, 0, 3]]


def _csr(block, rng) -> CSRRows:
    """The nonzeros of a dense block, each row's in a shuffled column order."""
    indptr, cols, vals = [0], [], []
    for row in block:
        nz = rng.permutation(np.flatnonzero(row))
        indptr.append(indptr[-1] + len(nz))
        cols += nz.tolist()
        vals += row[nz].tolist()
    return CSRRows(np.array(indptr), np.array(cols, dtype=np.int64), np.array(vals))


@pytest.mark.parametrize("p", [blas_primes(40)[0], P31[0], 3, 5, 7])
@pytest.mark.parametrize("gather", [linalg._GATHER, 50])
def test_sparse_add_matches_dense_add(monkeypatch, p, gather):
    # gather = 50 splits the pivot entries of one row across slices; with
    # P31[0] each product of two residues is reduced before the row sums
    monkeypatch.setattr(linalg, "_GATHER", gather)
    rng = np.random.default_rng(p % 1000)
    ncols = 40
    sparse, dense = RankAccumulator(ncols, p), RankAccumulator(ncols, p)
    for step in range(8):
        block = rng.integers(-p + 1, p, (12, ncols)) * (rng.random((12, ncols)) < 0.15)
        block[3] = 0  # a zero row
        block[7] = block[2]  # a repeated row
        if sparse.rank:
            # rows on pivot columns only
            piv = np.array(sparse._pivcols)
            block[8:] = 0
            block[8:, piv] = rng.integers(-p + 1, p, (4, len(piv)))
        rows = _csr(block, rng)
        assert (sparse.reduce(rows) == dense.reduce(block)).all(), step
        assert sparse.add(rows) == dense.add(block), step
        assert sparse._pivcols == dense._pivcols, step
        assert (sparse.basis() == dense.basis()).all(), step
    assert sparse.rank > 12


@pytest.mark.parametrize("rows, message", [
    (CSRRows(np.array([0, 2]), np.array([1, 5]), np.array([1, 1])), "outside 0..4"),
    (CSRRows(np.array([0, 2]), np.array([-1, 2]), np.array([1, 1])), "outside 0..4"),
    (CSRRows(np.array([0, 2, 3]), np.array([3, 3, 3]), np.array([1, 2, 1])),
     "repeats a column"),
    (CSRRows(np.array([0, 2]), np.array([0, 1, 2]), np.array([1, 1, 1])), "indptr"),
    (CSRRows(np.array([1, 2]), np.array([0, 1]), np.array([1, 1])), "indptr"),
])
def test_sparse_add_refuses_bad_rows(rows, message):
    acc = RankAccumulator(5, P31[0])
    with pytest.raises(ValueError, match=message):
        acc.add(rows)
    assert acc.rank == 0


@given(st.data(), st.sampled_from([0, 1]))
@settings(max_examples=20, deadline=None)
def test_accumulator_on_wide_matrices_matches_one_echelon(data, which):
    # 30-60 columns, so that pivot and free columns interleave over many
    # batches; zeros in both factors give zero columns and sparse rows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ncols = data.draw(st.integers(30, 60))
    rank = data.draw(st.integers(0, ncols - 1))
    nrows = data.draw(st.integers(1, ncols + 10))
    left = rng.integers(-9, 10, (nrows, rank)) * (rng.random((nrows, rank)) < 0.7)
    right = rng.integers(-9, 10, (rank, ncols)) * (rng.random((rank, ncols)) < 0.5)
    m = left @ right
    p = (blas_primes(ncols)[0], P31[0])[which]
    batch = data.draw(st.integers(1, nrows + 2))
    acc = RankAccumulator(ncols, p)
    for i in range(0, nrows, batch):
        acc.add(m[i : i + batch])
        assert acc.add(np.zeros((3, ncols), dtype=np.int64)) == acc.rank
    assert acc.rank == gauss_rank_oracle(m.tolist())
    b = acc.basis()
    lead = [int(np.flatnonzero(row)[0]) for row in b]
    for k, c in enumerate(lead):
        assert b[k, c] == 1 and np.count_nonzero(b[:, c]) == 1
    rows, _ = _rref(m % p, p)
    assert sorted(map(tuple, b.tolist())) == sorted(map(tuple, rows.tolist()))
    probes = rng.integers(-(2**40), 2**40, (5, ncols))
    rem = acc.reduce(probes)
    assert not rem[:, lead].any()
    assert (acc.reduce(rem) == rem).all()
    # rows that complete the span: the basis is then the identity
    assert acc.add(rng.integers(0, p, (ncols, ncols))) == ncols and acc.is_full
    assert sorted(acc.basis().tolist(), reverse=True) == np.eye(ncols, dtype=int).tolist()
    assert not acc.reduce(probes).any()


def _ref_rref(block, p):
    # the single-row recursion that _rref ran before its Gauss-Jordan leaves
    block = block[block.any(axis=1)]
    if len(block) <= 1:
        if not len(block):
            return block, []
        c = int(np.flatnonzero(block[0])[0])
        return block * pow(int(block[0, c]), -1, p) % p, [c]
    h = len(block) // 2
    top, tpiv = _ref_rref(block[:h], p)
    bottom = block[h:]
    bottom, bpiv = _ref_rref(_eliminate(bottom, bottom[:, tpiv], top, p), p)
    _eliminate(top, top[:, bpiv], bottom, p)
    return np.concatenate([top, bottom]), tpiv + bpiv


def _deficient_block(rng, nrows, ncols, p):
    # nrows nonzero rows of rank about nrows / 2, some of them (multiples
    # of) earlier ones, with zero rows between them; sparse combinations of
    # rows with scattered leading columns, so that later rows often lead
    # further left than earlier ones and pivots come out of column order
    rank = max(1, min(nrows // 2, ncols - 3))
    left = rng.integers(-5, 6, (nrows, rank)) * (rng.random((nrows, rank)) < 0.3)
    left[~left.any(axis=1), 0] = 1
    right = rng.integers(1, p, (rank, ncols)) * (rng.random((rank, ncols)) < 0.8)
    right[np.arange(ncols) < rng.integers(2, ncols - 1, (rank, 1))] = 0
    right[np.arange(rank), np.argmax(right != 0, axis=1)] = 1
    right[~right.any(axis=1), -1] = 1
    m = left @ right % p
    for i in range(1, nrows, 5):
        m[i] = m[rng.integers(0, i)] * rng.integers(1, p) % p
    m = m[m.any(axis=1)]
    assert len(m) == nrows
    zeros = np.zeros((max(1, nrows // 8), ncols), dtype=np.int64)
    at = rng.integers(0, nrows + 1, len(zeros))
    return np.insert(m, at, zeros, axis=0)


@pytest.mark.parametrize("nrows", [1, 31, 32, 33, 64, 65, 97])
@pytest.mark.parametrize("ncols", [24, 80])
@pytest.mark.parametrize("which", [0, 1])
def test_rref_leaves_keep_the_single_row_recursion(nrows, ncols, which):
    assert _LEAF_ROWS == 32
    p = (blas_primes(ncols)[0], P31[0])[which]
    rng = np.random.default_rng(1000 * nrows + ncols)
    block = _deficient_block(rng, nrows, ncols, p)
    rows, piv = _rref(block.copy(), p)
    ref_rows, ref_piv = _ref_rref(block.copy(), p)
    assert piv == ref_piv
    assert rows.tolist() == ref_rows.tolist()
    assert rows.shape == (len(piv), ncols) and 0 < len(piv) < nrows + (nrows == 1)
    assert (rows[:, piv] == np.eye(len(piv), dtype=np.int64)).all()


@pytest.mark.parametrize("which", [0, 1])
def test_eliminate_one_column_matches_python_ints(which):
    p = (blas_primes(50)[0], P31[0])[which]
    rng = np.random.default_rng(which)
    C = rng.integers(p - 50, p, (40, 50))
    A = rng.integers(p - 50, p, (40, 1)) * (rng.random((40, 1)) < 0.7)
    B = rng.integers(p - 50, p, (1, 50))
    want = [
        [(C[i, j].item() - A[i, 0].item() * B[0, j].item()) % p for j in range(50)]
        for i in range(40)
    ]
    assert _eliminate(C, A, B, p).tolist() == want


_THREADS_PROBE = """
import ctypes, glob, json, os
import freejordan.linalg
import numpy as np

threads = None
libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libdir, "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None and threads is None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            threads = fn()
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_sets_one_blas_thread_unless_preset(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, threads = json.loads(proc.stdout)
    assert value == (preset or "1")
    # numpy's OpenBLAS reports its thread count where the symbol exists
    if preset is None and threads is not None:
        assert threads == 1


def _part(ncols, rows, p=7):
    acc = RankAccumulator(ncols, p)
    acc.add(np.asarray(rows, dtype=np.int64).reshape(len(rows), ncols))
    return acc


@pytest.mark.parametrize("cols, message", [
    ([[0, 1], [1, 2]], "overlap"),
    ([[0, 0], [1, 2]], "repeat"),
    ([[0, 1], [2, 5]], "outside"),
    ([[-1, 1], [2, 3]], "outside"),
    ([[0, 1], [2]], "one image per column"),
])
def test_direct_sum_refuses_bad_column_maps(cols, message):
    parts = [_part(2, [[1, 3]]), _part(2, [[0, 2]])]
    with pytest.raises(ValueError, match=message):
        RankAccumulator.direct_sum(5, 7, list(zip(cols, parts)))
    with pytest.raises(ValueError, match="p = 7"):
        RankAccumulator.direct_sum(5, 7, [([0, 1], _part(2, [[1, 3]], p=11))])


@given(st.data(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_direct_sum_equals_adding_the_relabelled_rows(data, increasing):
    p = 7  # small, so that blocks often lose rank mod p
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    widths = data.draw(st.lists(st.integers(0, 6), max_size=4))
    ncols = sum(widths) + data.draw(st.integers(0, 4))
    targets = rng.permutation(ncols)
    parts, relabelled, start = [], [], 0
    for w in widths:
        rows = rng.integers(-9, 10, (data.draw(st.integers(0, 8)), w))
        cols = targets[start : start + w]
        if increasing:
            cols = np.sort(cols)
        start += w
        parts.append((cols, _part(w, rows)))
        wide = np.zeros((len(rows), ncols), dtype=np.int64)
        wide[:, cols] = rows
        relabelled.append(wide)
    acc = RankAccumulator.direct_sum(ncols, p, parts)
    ref = RankAccumulator(ncols, p)
    for wide in relabelled:
        ref.add(wide)
    assert acc.rank == ref.rank == sum(part.rank for _, part in parts)
    more = rng.integers(-9, 10, (3, ncols))
    probes = rng.integers(-99, 100, (4, ncols))
    if increasing:
        # each relabelled pivot is still its row's leading column, so the
        # basis is the one add keeps, and both keep accumulating alike
        assert sorted(acc.basis().tolist()) == sorted(ref.basis().tolist())
        assert acc.add(more) == ref.add(more)
        assert sorted(acc.basis().tolist()) == sorted(ref.basis().tolist())
        assert (acc.reduce(probes) == ref.reduce(probes)).all()
    else:
        # other pivots, the same span
        assert not acc.reduce(ref.basis()).any()
        assert not ref.reduce(acc.basis()).any()
        assert acc.add(more) == ref.add(more)


def test_accumulator_memory_stays_below_a_dense_basis():
    # rank 3032 of 3072 columns, fed in 256-row batches: a dense basis is
    # rank * ncols * 8 = 74.5 MB, while X peaks at (ncols/2)**2 entries,
    # 18.9 MB.  Measured tracemalloc peaks: 163 MB (2.2 times the dense
    # size) when the whole basis was stored, 56.7 MB (0.76 times) for X,
    # which is copied to float64 for each reduction.
    ncols, dependent = 3072, 40
    p = blas_primes(ncols)[0]
    rng = np.random.default_rng(1)
    acc = RankAccumulator(ncols, p)
    tracemalloc.start()
    try:
        for _ in range(0, ncols, 256):
            batch = rng.integers(0, p, (256, ncols))
            batch[:, -dependent:] = batch[:, :dependent] + batch[:, dependent : 2 * dependent]
            acc.add(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acc.rank == ncols - dependent
    assert peak < 0.9 * acc.rank * ncols * 8


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
    assert sorted(red.pivot_rows) == [0, 2]
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
    assert sorted(dense.pivot_rows) == sorted(by_dict.pivot_rows)
    for row in m + probes:
        assert dense.reduce(row) == by_dict.reduce(sparse(row))


fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def fraction_rows(draw):
    """(ncols, rows): dense Fraction rows, with zero entries kept, each
    handed to the reducer as a list or as a dict in a drawn key order."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(fractions | st.just(Fraction(0)), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    # a combination of earlier rows, so that some inputs are dependent
    if len(rows) > 1:
        c = draw(fractions)
        rows.append([x + c * y for x, y in zip(rows[0], rows[-1])])
    return ncols, rows


def _as_input(row, order):
    # a dense list, or a dict with every entry, zeros too, in a given order
    if order is None:
        return row
    return {j: row[j] for j in order}


@given(fraction_rows(), st.data())
@settings(max_examples=80, deadline=None)
def test_integer_reducer_properties(case, data):
    ncols, rows = case
    orders = st.none() | st.permutations(range(ncols))
    red = ExactRowReducer()
    for row in rows:
        red.add(_as_input(row, data.draw(orders)))
    assert red.rank == bareiss_rank(rows)
    for lead, pivot in red.pivot_rows.items():
        assert all(type(x) is int and x for x in pivot.values())
        assert lead == min(pivot) and pivot[lead] > 0
        assert math.gcd(*pivot.values()) == 1
        assert not set(pivot) & (set(red.pivot_rows) - {lead})
    for row in rows:
        assert red.reduce(_as_input(row, data.draw(orders))) == {}
    probes = data.draw(st.lists(
        st.lists(fractions, min_size=ncols, max_size=ncols), min_size=1, max_size=3
    ))
    for probe in probes:
        rem = red.reduce(_as_input(probe, data.draw(orders)))
        assert all(type(x) is Fraction and x for x in rem.values())
        assert not set(rem) & set(red.pivot_rows)
        # probe - rem lies in the span of the rows
        diff = [x - rem.get(j, 0) for j, x in enumerate(probe)]
        assert bareiss_rank(rows + [diff]) == red.rank


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
