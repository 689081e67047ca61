from hypothesis import given, settings, strategies as st

from freejordan.series import (
    TruncatedSeries,
    check_sequence,
    conjecture_series,
    factor_power,
    lp_mul,
    lp_residue,
    predict_dims,
    prefactor,
)
from freejordan.tables import (
    PREDICTED_DIM_19_TWO_GEN,
    TWO_GEN_DIMS,
    Z19_PINNED_MONOMIALS,
    Z19_RESIDUE,
)

laurents = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=5)


@given(laurents, laurents, laurents)
@settings(max_examples=60)
def test_laurent_ring_axioms(a, b, c):
    assert lp_mul(a, b) == lp_mul(b, a)
    assert lp_mul(a, lp_mul(b, c)) == lp_mul(lp_mul(a, b), c)
    ab_plus = dict(a)
    for k, v in b.items():
        ab_plus[k] = ab_plus.get(k, 0) + v
    lhs = lp_mul(ab_plus, c)
    rhs = lp_mul(a, c)
    for k, v in lp_mul(b, c).items():
        rhs[k] = rhs.get(k, 0) + v
    rhs = {k: v for k, v in rhs.items() if v}
    assert {k: v for k, v in lhs.items() if v} == rhs


def test_prefactor_is_the_dims_zero_series():
    s = conjecture_series(2, [], N=1)
    assert s.coefficient(0) == {0: 1, 1: -1}
    assert s.coefficient(1) == {0: -2, -1: 2}


@given(st.integers(1, 9), st.integers(0, 40), st.integers(1, 12))
@settings(max_examples=60)
def test_factor_power_matches_repeated_product(n, a, N):
    direct = factor_power(n, a, N)
    base = TruncatedSeries(N)
    base.coeffs[0] = {0: 1}
    if n <= N:
        base.coeffs[n] = {1: -1, -1: -1}
    if 2 * n <= N:
        base.coeffs[2 * n] = {0: 1}
    acc = TruncatedSeries.one(N)
    for _ in range(a):
        acc = acc * base
    assert [direct.coefficient(i) for i in range(N + 1)] == [
        acc.coefficient(i) for i in range(N + 1)
    ]


@given(st.integers(1, 20), st.integers(1, 1000000), st.integers(1, 12))
@settings(max_examples=60)
def test_factor_power_high_degree_tail(m, a, N):
    # beyond N/2 only the linear term survives truncation
    if m <= N // 2:
        m += N // 2
    s = factor_power(m, a, N)
    for i in range(N + 1):
        if i == 0:
            assert s.coefficient(i) == {0: 1}
        elif i == m:
            assert s.coefficient(i) == {1: -a, -1: -a}
        else:
            assert s.coefficient(i) == {}


def test_predict_dims_two_generators():
    seq = predict_dims(2, 19)
    assert seq.dims[:18] == TWO_GEN_DIMS[:18]
    assert seq.dim(19) == PREDICTED_DIM_19_TWO_GEN


def test_predict_dims_prefix_stability():
    long = predict_dims(2, 13).dims
    for N in (1, 4, 9):
        assert predict_dims(2, N).dims == long[:N]


def test_check_sequence_counterexample():
    chk = check_sequence(2, TWO_GEN_DIMS)
    assert chk.first_nonzero == 19
    assert all(chk.residue(n) == 0 for n in range(1, 19))
    assert chk.residue(19) == Z19_RESIDUE


def test_z19_coefficient_pinned_monomials():
    s = conjecture_series(2, TWO_GEN_DIMS[:19], N=19)
    c19 = s.coefficient(19)
    for e, v in Z19_PINNED_MONOMIALS.items():
        assert c19[e] == v
    assert lp_residue(c19) == Z19_RESIDUE


@given(st.integers(1, 3), st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_self_check_residues_vanish(p, N):
    seq = predict_dims(p, N)
    chk = check_sequence(p, seq.dims)
    assert chk.first_nonzero is None
