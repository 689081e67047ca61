"""Acceptance suite: one test per numbered criterion, in order.

Every expected number here is a frozen published value (tables.py) or a
stated closed form; each test recomputes it end to end through the public
API and also enforces the stated runtime budget.  Criterion 9 is the
optional long-running tier and only runs with FREEJORDAN_LONG_TESTS=1.
"""

import itertools
import os
import time

import numpy as np
import pytest

from freejordan.tables import (
    JORDAN_MODULE,
    MULTILINEAR_DIMS,
    TWO_GEN_B_DIMS,
    TWO_GEN_DIMS,
)

LONG = os.environ.get("FREEJORDAN_LONG_TESTS") == "1"


@pytest.fixture(scope="module")
def chars20():
    """One shared character solve at the deepest truncation any test needs."""
    from freejordan.lambda_ring import km_prediction

    return km_prediction(20, 20)


def test_01_counterexample_reproduction():
    from freejordan.series import check_sequence, conjecture_series, predict_dims
    from freejordan.twogen import reversible_dim

    t0 = time.perf_counter()
    seq = predict_dims(2, 19)
    assert seq.dims[:18] == (
        2, 3, 6, 10, 20, 36, 72, 136, 272, 528, 1056, 2080, 4160, 8256,
        16512, 32896, 65792, 131328,
    )
    assert seq.dim(19) == 262658

    actual = [reversible_dim(n) for n in range(1, 21)]
    chk = check_sequence(2, actual)
    assert all(chk.residue(n) == 0 for n in range(1, 19))
    assert chk.residue(19) == 2

    coeff = conjecture_series(2, actual[:19]).coeffs[19]
    assert coeff.get(9) == -1218
    assert coeff.get(8) == 45184
    assert coeff.get(-1) == 2
    assert time.perf_counter() - t0 < 10


def test_02_prediction_tables(chars20):
    from freejordan.lambda_ring import schur_decompose

    t0 = time.perf_counter()
    a, _ = chars20
    dims = []
    for n in range(1, 11):
        module = schur_decompose(a, n)
        assert module.mults == JORDAN_MODULE[n], "degree %d" % n
        dims.append(module.dimension())
    assert dims == [1, 1, 3, 11, 55, 330, 2345, 19089, 175203, 1785840]
    assert JORDAN_MODULE[6][(3, 2, 1)] == 8
    assert JORDAN_MODULE[10][(5, 5)] == 16
    assert time.perf_counter() - t0 < 300


def test_03_cross_pipeline_agreement(chars20):
    from freejordan.lambda_ring import dims_from_character, km_prediction
    from freejordan.series import predict_dims

    t0 = time.perf_counter()
    for d in (1, 2, 3):
        a, _ = km_prediction(d, 14)
        assert dims_from_character(a, d).dims == predict_dims(d, 14).dims, d
    assert time.perf_counter() - t0 < 120


def test_04_operad_ground_truth():
    from freejordan.operad import jord_module, naive_dim

    t0 = time.perf_counter()
    for n in range(1, 8):
        module = jord_module(n)
        assert module.mults == JORDAN_MODULE[n], "degree %d" % n
        assert module.dimension() == MULTILINEAR_DIMS[n]
    for n in range(1, 7):
        assert naive_dim(n) == MULTILINEAR_DIMS[n], "oracle at degree %d" % n
    assert time.perf_counter() - t0 < 1800


def test_05_two_generator_suite(chars20):
    from freejordan.lambda_ring import dims_from_character
    from freejordan.twogen import b_dim_two_gen, jordan_span_dim, reversible_dim

    t0 = time.perf_counter()
    assert [reversible_dim(n) for n in range(1, 21)] == list(TWO_GEN_DIMS)
    assert reversible_dim(19) == 262656

    for n in range(1, 13):
        assert jordan_span_dim(n) == reversible_dim(n), "degree %d" % n

    assert [b_dim_two_gen(n) for n in range(1, 21)] == list(TWO_GEN_B_DIMS)
    assert b_dim_two_gen(20) == 498300

    _, b = chars20
    predicted_b20 = dims_from_character(b, 2).dim(20)
    assert predicted_b20 == 498303
    assert predicted_b20 - b_dim_two_gen(20) == 3
    assert time.perf_counter() - t0 < 300


def test_06_homology():
    from freejordan.tkk import (
        ce_homology,
        scalar_jordan,
        sl2_decompose,
        tag,
        truncated_free_jordan,
    )

    t0 = time.perf_counter()
    heis = tag(truncated_free_jordan(1, 1, parities=(1,)))
    h = ce_homology(heis, 5)
    assert h.dims == (1, 3, 5, 7, 9, 11)
    assert sl2_decompose(h) == ((0,), (2,), (4,), (6,), (8,), (10,))
    assert ce_homology(tag(scalar_jordan()), 3).dims == (1, 0, 0, 1)
    assert time.perf_counter() - t0 < 60


def _cycle_type(perm: tuple) -> tuple:
    seen, lens = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        k, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            k += 1
        lens.append(k)
    return tuple(sorted(lens, reverse=True))


def _int_matrix(rows) -> np.ndarray:
    out = []
    for row in rows:
        assert all(x.denominator == 1 for x in row)
        out.append([x.numerator for x in row])
    return np.array(out, dtype=np.int64)


def test_07_structural_properties():
    import random

    from freejordan.lambda_ring import lambda_op, powersum
    from freejordan.partitions import character, partitions
    from freejordan.symreps import compose_perms, rep_matrix
    from freejordan.tkk import _d_ab, tag, truncated_free_jordan

    # Jacobi holds for the whole bracket table of the degree-5 truncation
    # on two generators, checked on every basis triple.
    L = tag(truncated_free_jordan(2, 5))
    L.check(jacobi="full")
    assert L.dim == 171

    # Operator identities for D = [L_a, L_b] on random triples: the swap
    # antisymmetry, the cyclic relation (which needs the Jordan axiom),
    # and the Leibniz rule.
    J = truncated_free_jordan(3, 3)
    la = [J.left_mult_matrix(i) for i in range(J.dim)]
    rnd = random.Random(7)

    def lmat(v):
        m = [[0] * J.dim for _ in range(J.dim)]
        for i, c in v.items():
            for r in range(J.dim):
                for s in range(J.dim):
                    m[r][s] += c * la[i][r][s]
        return m

    def commutator(ma, mb):
        n = len(ma)
        ab = [[sum(ma[r][k] * mb[k][s] for k in range(n)) for s in range(n)]
              for r in range(n)]
        ba = [[sum(mb[r][k] * ma[k][s] for k in range(n)) for s in range(n)]
              for r in range(n)]
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]

    def apply(m, v):
        out = {}
        for i, c in v.items():
            for r in range(J.dim):
                if m[r][i]:
                    out[r] = out.get(r, 0) + c * m[r][i]
        return {k: v for k, v in out.items() if v}

    zero = [[0] * J.dim for _ in range(J.dim)]
    for _ in range(12):
        va, vb, vc = (
            {rnd.randrange(J.dim): rnd.randint(1, 3) for _ in range(3)}
            for _ in range(3)
        )
        ma, mb, mc = lmat(va), lmat(vb), lmat(vc)
        d_ab = commutator(ma, mb)
        # (1) antisymmetry in the pair
        assert commutator(mb, ma) == [[-x for x in row] for row in d_ab]
        # (2) cyclic sum over shifted pairs vanishes
        m_ab, m_bc, m_ca = (
            lmat(J.mult(u, v)) for u, v in ((va, vb), (vb, vc), (vc, va))
        )
        cyc = [
            [x + y + z for x, y, z in zip(r1, r2, r3)]
            for r1, r2, r3 in zip(
                commutator(m_ab, mc), commutator(m_bc, ma), commutator(m_ca, mb)
            )
        ]
        assert cyc == zero
        # and D is a derivation
        dc = apply(d_ab, vc)
        lhs = apply(d_ab, J.mult(vc, vc))
        r1, r2 = J.mult(dc, vc), J.mult(vc, dc)
        rhs = {k: r1.get(k, 0) + r2.get(k, 0) for k in set(r1) | set(r2)}
        assert lhs == {k: v for k, v in rhs.items() if v}

    # single-basis-pair spot check against the library helper, whose
    # sparse columns are laid out densely here
    d01 = [[0] * J.dim for _ in range(J.dim)]
    for c, col in _d_ab(J, 0, 1).items():
        for r, v in col.items():
            d01[r][c] = v
    assert d01 == commutator(la[0], la[1])

    # lambda-operation is multiplicative over sums
    rnd = random.Random(11)
    for _ in range(5):
        x = sum(
            (
                powersum(6, (rnd.randint(1, 3),), 2 * rnd.randint(-1, 1),
                         rnd.randint(-2, 2))
                for _ in range(3)
            ),
            powersum(6, (1, 1), 0, rnd.randint(-2, 2)),
        )
        y = sum(
            (
                powersum(6, (rnd.randint(1, 2), 1), 2 * rnd.randint(-1, 1),
                         rnd.randint(-2, 2))
                for _ in range(2)
            ),
            powersum(6, (2,), 0, rnd.randint(-2, 2)),
        )
        assert lambda_op(x + y) == lambda_op(x) * lambda_op(y)

    # Clifton normalization: exact homomorphism and trace identities,
    # exhaustive over S_n for n <= 6 (generator pairs certify all pairs)
    for n in range(2, 7):
        perms = list(itertools.permutations(range(n)))
        gens = [
            tuple(range(i + 1)[:-1]) + (i + 1, i) + tuple(range(i + 2, n))
            for i in range(n - 1)
        ]
        for shape in partitions(n):
            rep = {s: _int_matrix(rep_matrix(shape, s)) for s in perms}
            for s in perms:
                assert np.trace(rep[s]) == character(shape, _cycle_type(s))
            for g in gens:
                rg = rep[g]
                for s in perms:
                    assert np.array_equal(rep[compose_perms(g, s)], rg @ rep[s])


def test_08_effectivity(chars20):
    from freejordan.lambda_ring import effectivity_check

    t0 = time.perf_counter()
    a, _ = chars20
    for n in range(1, 15):
        ok, offending = effectivity_check(a, n)
        assert ok, "negative multiplicities at degree %d: %s" % (n, offending)
    assert time.perf_counter() - t0 < 600


@pytest.mark.slow
@pytest.mark.skipif(not LONG, reason="set FREEJORDAN_LONG_TESTS=1 to run")
def test_09_extended_long_running():
    """Optional tier: the degree-10 module table, the one check of criterion 9
    that no other test makes ((9,1,1) and (8,2,1) are in
    test_published_degree_eleven_values, degrees 8 and 9 in
    test_jord_module_degree_eight and _nine).

    Its widest shape has 26,112 columns, a dense int64 basis of about
    5.4 GB per accumulator (ROADMAP item 5), so it runs for hours and can
    exhaust an 8 GB host.
    To run the rest of the slow tier without it, add
    --deselect tests/test_acceptance.py::test_09_extended_long_running.
    """
    from freejordan.operad import jord_module

    module = jord_module(10, max_degree=10)
    assert module.mults == JORDAN_MODULE[10]
    assert module.dimension() == MULTILINEAR_DIMS[10]
