import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freejordan.lambda_ring import (
    GradedCharacter,
    L2,
    _digit_width,
    _merge_partitions,
    _pack,
    _solve_raw,
    _unpack,
    adams,
    dims_from_character,
    effectivity_check,
    l_character,
    lambda_op,
    powersum,
    schur_decompose,
    schur_in_powersums,
    sl2_isotype,
    solve_characters,
    times_sl2,
    unit,
)
from freejordan.partitions import SnModule, partitions, zee
from freejordan.series import predict_dims


# --- weight-model oracle ---------------------------------------------------


def product_oracle(variables, d, N):
    """Expand prod (1 - x^e q^w) directly, truncated at x-degree N."""
    out = {((0,) * d, 0): 1}
    for exp, w in variables:
        deg = sum(exp)
        nxt = dict(out)
        for (e, k), c in out.items():
            if sum(e) + deg > N:
                continue
            key = (tuple(a + b for a, b in zip(e, exp)), k + w)
            nxt[key] = nxt.get(key, 0) - c
        out = {k: v for k, v in nxt.items() if v}
    return out


def to_monomials(X, d):
    """Substitute p_j -> x_1^j + ... + x_d^j."""
    out = {}
    for (mu, k), c in X.terms.items():
        expanded = {((0,) * d, k): c}
        for j in mu:
            nxt = {}
            for (e, kk), cc in expanded.items():
                for i in range(d):
                    key = (
                        tuple(a + (j if t == i else 0) for t, a in enumerate(e)),
                        kk,
                    )
                    nxt[key] = nxt.get(key, 0) + cc
            expanded = nxt
        for key, cc in expanded.items():
            out[key] = out.get(key, 0) + cc
    return {k: v for k, v in out.items() if v}


def monomial_vars(exps_weights):
    return [(tuple(e), w) for e, w in exps_weights]


def test_lambda_matches_product_expansion_linear_class():
    for d in (1, 2, 3):
        N = 5
        X = powersum(N, (1,))
        variables = [(tuple(1 if j == i else 0 for j in range(d)), 0) for i in range(d)]
        assert to_monomials(lambda_op(X), d) == product_oracle(variables, d, N)


def test_lambda_matches_product_expansion_symmetric_square():
    d, N = 3, 5
    X = powersum(N, (1, 1), coeff=Fraction(1, 2)) + powersum(
        N, (2,), coeff=Fraction(1, 2)
    )
    variables = []
    for i in range(d):
        for j in range(i, d):
            e = [0] * d
            e[i] += 1
            e[j] += 1
            variables.append((tuple(e), 0))
    assert to_monomials(lambda_op(X), d) == product_oracle(variables, d, N)


def test_lambda_matches_product_expansion_exterior_square():
    d, N = 3, 5
    X = powersum(N, (1, 1), coeff=Fraction(1, 2)) - powersum(
        N, (2,), coeff=Fraction(1, 2)
    )
    variables = []
    for i in range(d):
        for j in range(i + 1, d):
            e = [0] * d
            e[i] += 1
            e[j] += 1
            variables.append((tuple(e), 0))
    assert to_monomials(lambda_op(X), d) == product_oracle(variables, d, N)


def test_lambda_matches_product_expansion_with_sl2_weights():
    d, N = 2, 4
    X = times_sl2(powersum(N, (1,)), L2)
    variables = [
        (tuple(1 if j == i else 0 for j in range(d)), w)
        for i in range(d)
        for w in (2, 0, -2)
    ]
    assert to_monomials(lambda_op(X), d) == product_oracle(variables, d, N)


def test_lambda_degree_two_of_a_line_with_sl2_factor():
    # one variable times the weight-2 triple: degree-2 part has L(2) isotype +x^2
    N = 2
    X = times_sl2(powersum(N, (1,), d=1), L2)
    lam = lambda_op(X)
    deg2 = GradedCharacter(N, lam.degree_part(2), 1)
    iso2 = sl2_isotype(deg2, 2)
    # +x^2 in one variable, i.e. the complete homogeneous h_2 = (p_11 + p_2)/2
    assert iso2.terms == {
        ((1, 1), 0): Fraction(1, 2),
        ((2,), 0): Fraction(1, 2),
    }


def test_lambda_of_zero_and_degree_one_sign():
    N = 4
    assert lambda_op(GradedCharacter(N, {})) == unit(N)
    lam = lambda_op(powersum(N, (1,)))
    # degree-2 part is the exterior square e_2 = (p_11 - p_2)/2
    assert lam.degree_part(2) == {
        ((1, 1), 0): Fraction(1, 2),
        ((2,), 0): Fraction(-1, 2),
    }
    assert lam.degree_part(1) == {((1,), 0): Fraction(-1)}


def test_lambda_rejects_degree_zero_input():
    with pytest.raises(ValueError):
        lambda_op(unit(3))


# --- multiplicativity ------------------------------------------------------


small_class = st.dictionaries(
    st.tuples(
        st.sampled_from([(1,), (2,), (1, 1), (3,), (2, 1)]),
        st.sampled_from([-2, 0, 2]),
    ),
    st.integers(min_value=-3, max_value=3),
    max_size=4,
)


@given(small_class, small_class)
@settings(max_examples=50, deadline=None)
def test_lambda_is_multiplicative(xt, yt):
    N = 5
    X = GradedCharacter(N, {k: Fraction(v) for k, v in xt.items()})
    Y = GradedCharacter(N, {k: Fraction(v) for k, v in yt.items()})
    assert lambda_op(X + Y) == lambda_op(X) * lambda_op(Y)


# --- adams -----------------------------------------------------------------


def test_adams_examples():
    N = 6
    X = times_sl2(powersum(N, (2, 1), k=0), {2: 1, 0: 1, -2: 1})
    assert adams(1, X) == X
    assert adams(2, powersum(N, (1,))).terms == {((2,), 0): Fraction(1)}
    l2 = GradedCharacter(N, {((), w): 1 for w in (-2, 0, 2)})
    assert adams(2, l2).terms == {
        ((), -4): Fraction(1),
        ((), 0): Fraction(1),
        ((), 4): Fraction(1),
    }
    # ring homomorphism on a product
    Y = powersum(N, (1,), k=2)
    assert adams(3, X * Y) == adams(3, X) * adams(3, Y)


# --- sl2 isotypes ----------------------------------------------------------


def _sl2_only(weights, N=4):
    return GradedCharacter(N, {((), w): c for w, c in weights.items()})


def test_isotype_examples():
    l2 = _sl2_only(l_character(2))
    assert sl2_isotype(l2, 2).terms == {((), 0): Fraction(1)}
    assert sl2_isotype(l2, 0).terms == {}
    sq = l2 * l2
    assert sl2_isotype(sq, 0).terms == {((), 0): Fraction(1)}
    assert sl2_isotype(sq, 2).terms == {((), 0): Fraction(1)}
    assert sl2_isotype(sq, 4).terms == {((), 0): Fraction(1)}
    c = _sl2_only({2: 1, 0: 2, -2: 1})
    assert sl2_isotype(c, 0).terms == {((), 0): Fraction(1)}
    assert sl2_isotype(c, 2).terms == {((), 0): Fraction(1)}


def test_isotypes_reassemble_character():
    # sum over m of isotype(m) * [L(m)] recovers any inversion-symmetric class
    base = _sl2_only(l_character(4)) * _sl2_only(l_character(2))
    total = GradedCharacter(base.N, {})
    for m in range(0, 8, 2):
        iso = sl2_isotype(base, m)
        total = total + times_sl2(iso, l_character(m))
    assert total == base


# --- the character recursion ------------------------------------------------


def test_low_degree_solution():
    a, b = solve_characters(4, 4)
    assert a.degree_part(1) == {((1,), 0): Fraction(1)}
    assert b.degree_part(1) == {}
    assert schur_decompose(GradedCharacter(4, a.degree_part(2), 4), 2).mults == {
        (2,): 1
    }
    assert schur_decompose(GradedCharacter(4, b.degree_part(2), 4), 2).mults == {
        (1, 1): 1
    }
    assert schur_decompose(GradedCharacter(4, a.degree_part(3), 4), 3).mults == {
        (3,): 1,
        (2, 1): 1,
    }
    a4 = schur_decompose(GradedCharacter(4, a.degree_part(4), 4), 4)
    assert a4.mults[(2, 2)] == 2


def test_defining_identities_round_trip():
    N = 6
    a, b = solve_characters(N, N)
    G = lambda_op(times_sl2(a, L2) + b)
    iso0 = sl2_isotype(G, 0)
    iso2 = sl2_isotype(G, 2)
    assert iso0.terms == {((), 0): Fraction(1)}
    assert iso2.terms == {((1,), 0): Fraction(-1)}


def test_character_dims_agree_with_series_predictor():
    N = 10
    for p in (1, 2, 3):
        a, _ = solve_characters(p, N)
        assert dims_from_character(a, p).dims == predict_dims(p, N).dims


def product_of_lambdas_oracle(N):
    """The recursion as a product of full lambda-images, in Fractions.

    If F is lambda of everything fixed below degree n, the degree-n
    unknowns enter F's degree-n part only as -(a_n [L(2)] + b_n [L(0)]);
    read them off the isotypes and multiply F by lambda of the new step.
    """
    a = GradedCharacter(N, {})
    b = GradedCharacter(N, {})
    F = unit(N)
    for n in range(1, N + 1):
        K = GradedCharacter(N, F.degree_part(n))
        b_n = sl2_isotype(K, 0)
        a_n = sl2_isotype(K, 2)
        if n == 1:
            a_n = a_n + powersum(N, (1,))
        a = a + a_n
        b = b + b_n
        step = times_sl2(a_n, L2) + b_n
        if step.terms:
            F = F * lambda_op(step)
    return a, b


@pytest.mark.parametrize("N", range(1, 11))
def test_solution_matches_product_of_lambdas(N):
    a, b = solve_characters(N, N)
    a_ref, b_ref = product_of_lambdas_oracle(N)
    assert a.terms == a_ref.terms
    assert b.terms == b_ref.terms


def _ref_solve_raw(N):
    """The recursion of _solve_raw on dicts {k: c} of q-coefficients, with
    no packing: the reference for the packed products."""
    F = [{(): {0: 1}}] + [{} for _ in range(N)]
    G = [{} for _ in range(N + 1)]
    a, b = {}, {}
    for n in range(1, N + 1):
        K = {}
        for j in range(1, n + 1):
            for mu, gpoly in G[j].items():
                for nu, fpoly in F[n - j].items():
                    lam = _merge_partitions(mu, nu)
                    factor = zee(lam) // (zee(mu) * zee(nu))
                    out = K.setdefault(lam, {})
                    for k, g in gpoly.items():
                        for l, f in fpoly.items():
                            out[k + l] = out.get(k + l, 0) + factor * g * f
        if n == 1:
            K[(1,)] = {}
        step = {}
        for lam, poly in K.items():
            for k, c in poly.items():
                assert c % n == 0
                poly[k] = c // n
            a_c = poly.get(2, 0) - poly.get(4, 0) + (1 if lam == (1,) else 0)
            b_c = poly.get(0, 0) - poly.get(2, 0)
            if a_c:
                a[lam] = a_c
            if b_c:
                b[lam] = b_c
            if a_c or b_c:
                step[lam] = {-2: a_c, 0: a_c + b_c, 2: a_c}
                for k, c in step[lam].items():
                    poly[k] = poly.get(k, 0) - c
            poly = {k: c for k, c in poly.items() if c}
            if poly:
                F[n][lam] = poly
        for m in range(1, N // n + 1):
            for lam, spoly in step.items():
                out = G[n * m].setdefault(tuple(m * part for part in lam), {})
                for k, c in spoly.items():
                    out[m * k] = out.get(m * k, 0) - n * m ** len(lam) * c
    return (
        GradedCharacter(N, {(lam, 0): Fraction(c, zee(lam)) for lam, c in a.items()}),
        GradedCharacter(N, {(lam, 0): Fraction(c, zee(lam)) for lam, c in b.items()}),
    )


@pytest.mark.parametrize("N", range(1, 17))
def test_packed_solve_matches_the_dict_recursion(N):
    (a, b), (a_ref, b_ref) = _solve_raw(N), _ref_solve_raw(N)
    assert a.terms == a_ref.terms
    assert b.terms == b_ref.terms


@st.composite
def q_polynomials(draw):
    j = draw(st.integers(0, 12))
    poly = draw(st.dictionaries(
        st.sampled_from(range(-2 * j, 2 * j + 1, 2)),
        st.integers(-2**70, 2**70).filter(bool),
    ))
    return j, poly


@given(q_polynomials(), st.integers(0, 2**70))
def test_pack_round_trip(jpoly, slack):
    j, poly = jpoly
    B = _digit_width(max(map(abs, poly.values()), default=0) + slack)
    assert _unpack(_pack(poly, j, B), j, B) == poly


@pytest.mark.parametrize("B", [2, 3, 17, 64])
def test_pack_round_trip_at_the_digit_limits(B):
    # balanced digits reach +-(2^(B-1) - 1) on either side of zero; a top
    # digit of 2^(B-1) carries past the last slot
    j, top = 3, 2 ** (B - 1) - 1
    for signs in ([1] * 7, [-1] * 7, [1, -1] * 3 + [1]):
        poly = {k: s * top for k, s in zip(range(-2 * j, 2 * j + 1, 2), signs)}
        assert _unpack(_pack(poly, j, B), j, B) == poly
    with pytest.raises(ArithmeticError, match="outruns"):
        _unpack(_pack({2 * j: top + 1}, j, B), j, B)


def test_solve_refuses_an_inexact_division(monkeypatch):
    # dropping the z_mu factors breaks the product rule; the exp recurrence
    # must then hit a remainder and raise instead of rounding
    import freejordan.lambda_ring as lambda_ring

    monkeypatch.setattr(lambda_ring, "zee", lambda mu: 1)
    with pytest.raises(ArithmeticError, match="not divisible by 2"):
        lambda_ring._solve_raw(6)


def test_solution_slicing_is_consistent():
    a8, b8 = solve_characters(8, 8)
    a5, b5 = solve_characters(5, 5)
    for n in range(1, 6):
        assert a8.degree_part(n) == a5.degree_part(n)
        assert b8.degree_part(n) == b5.degree_part(n)


# --- Schur decomposition -----------------------------------------------------


def test_schur_powersum_round_trip():
    for n in range(1, 7):
        for shape in partitions(n):
            X = GradedCharacter(n, {})
            for mu, c in schur_in_powersums(shape).items():
                X = X + powersum(n, mu, coeff=c)
            module = schur_decompose(X, n)
            assert module.mults == {shape: 1}


def test_schur_decompose_virtual_class():
    n = 4
    X = GradedCharacter(n, {})
    target = {(4,): 2, (2, 2): -1, (2, 1, 1): 3}
    for shape, mult in target.items():
        for mu, c in schur_in_powersums(shape).items():
            X = X + powersum(n, mu, coeff=mult * c)
    assert schur_decompose(X, n).mults == target
    ok, bad = effectivity_check(X, n)
    assert not ok and bad == [(2, 2)]


def test_schur_decompose_needs_enough_variables():
    X = powersum(4, (1, 1, 1), d=2)
    with pytest.raises(ValueError):
        schur_decompose(X, 3)


def test_effectivity_of_prediction_low_degrees():
    N = 8
    a, b = solve_characters(N, N)
    for n in range(1, N + 1):
        ok, bad = effectivity_check(GradedCharacter(N, a.degree_part(n), N), n)
        assert ok, bad
        ok, bad = effectivity_check(GradedCharacter(N, b.degree_part(n), N), n)
        assert ok, bad


def test_dims_from_character_checks_integrality():
    X = powersum(3, (1,), coeff=Fraction(1, 2))
    with pytest.raises(ArithmeticError):
        dims_from_character(X, 3)
