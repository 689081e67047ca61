"""Character ring of GL_d x sl2 with Adams and lambda operations.

Elements are finite sums  c * p_mu * q^k  with rational c, stored as
{(mu, k): c} and truncated above a fixed total degree N (the degree of
p_mu q^k is |mu|; q carries no degree).  Power sums keep the Adams
operations diagonal: psi^m sends p_mu q^k to p_{m*mu} q^{mk}.

sl2 content lives in the Laurent variable q.  The irreducible of highest
weight m contributes q^m + q^{m-2} + ... + q^{-m}, so the multiplicity of
weight-m isotypes inside a character is coeff(q^m) - coeff(q^{m+2}).

lambda_op is the alternating sum of exterior powers, multiplicative in
direct sums, computed as exp(-sum_m psi^m / m).  solve_characters finds
the unique graded pair (a, b) with

    [lambda(a*[L(2)] + b*[L(0)]) : L(0)] = 1,
    [lambda(a*[L(2)] + b*[L(0)]) : L(2)] = -p_1,

degree by degree: if F is the lambda of everything below degree n, the
new unknowns enter the degree-n part only as -(a_n [L(2)] + b_n [L(0)]),
so b_n and a_n are read off the two isotypes of F's degree-n part.

The solve does not form F by products of full lambda-images.  It runs on
integer coordinates: c is the coefficient of p_mu q^k / z_mu, which is a
character value and so an integer for every virtual character.  There

    (p_mu/z_mu)(p_nu/z_nu) = prod_i C(m_i(mu) + m_i(nu), m_i(mu)) p_{mu+nu}/z_{mu+nu}
    psi^m(p_mu/z_mu)       = m^len(mu) p_{m*mu}/z_{m*mu}

(mu+nu the union of parts, m_i the multiplicity of part i), both with
integer factors.  With D multiplying the degree-n part by n, D(F) =
D(log F) F, so from G_j = j (log F)_j

    F_n = (1/n) sum_{j=1..n} G_j F_{n-j}.

This gives F_n before the degree-n unknowns enter; then F_n loses the
new step s_n = a_n [L(2)] + b_n [L(0)], and G_{nm} gains -n psi^m(s_n)
for every m <= N/n (log lambda(s) = -sum_m psi^m(s)/m).  The division by
n is exact in exact arithmetic; a remainder means a bug, and raises
ArithmeticError rather than rounding.  a and b are converted back to
Fraction coefficients only at the end.

The products G_j F_{n-j} run on packed ints (Kronecker substitution).
Every q-exponent k in degree j is even with |k| <= 2j, so the degree-j
polynomial sum_k c_k q^k packs into the one int sum_k c_k 2^(B(k/2 + j)):
2j + 1 digits of B bits.  The offsets add, (k/2 + j) + (l/2 + n - j) =
(k + l)/2 + n, so the product of a packed degree-j and a packed degree-
(n - j) polynomial is the packed degree-n product, and each pair (mu, nu)
costs one product of ints.  Each K[lam] is read back once per degree as
balanced base-2^B digits, which is exact while every coefficient has
|c| < 2^(B-1).

B_n comes from a bound, not from the values it must hold.  For fixed lam
and j the pairs are indexed by mu alone (nu = lam - mu), and
z_lam/(z_mu z_nu) = prod_i C(m_i(mu) + m_i(nu), m_i(mu)) <= 2^len(lam)
<= 2^n, since C(a + b, a) <= 2^(a+b) and the m_i(lam) sum to len(lam).
A coefficient of g f is at most |g|_1 max|f|, so every coefficient of K
in degree n is at most

    2^n sum_{j=1..n} |G_j|_1 max|F_{n-j}|,

|G_j|_1 the sum of every |c| in G_j and max|F_m| the largest |c| in F_m.
B_n = bit_length(that bound) + 2 leaves every |c| below 2^(B_n - 2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .partitions import SnModule, character, dim_irrep, partitions, zee
from .series import DimSequence

Key = tuple  # ((mu, k))


class GradedCharacter:
    """A virtual character, graded by polynomial degree, truncated at N."""

    __slots__ = ("N", "d", "terms")

    def __init__(self, N: int, terms=None, d: int | None = None):
        if N < 0:
            raise ValueError("negative truncation")
        self.N = N
        self.d = d
        clean = {}
        if terms:
            for (mu, k), c in terms.items():
                if not c or sum(mu) > N:
                    continue
                clean[(tuple(mu), int(k))] = Fraction(c)
        self.terms = clean

    # -- ring structure ----------------------------------------------------

    def _merge_meta(self, other):
        d = self.d if self.d is not None else other.d
        return min(self.N, other.N), d

    def __add__(self, other):
        N, d = self._merge_meta(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return GradedCharacter(N, out, d)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return GradedCharacter(
            self.N, {k: v * c for k, v in self.terms.items()}, self.d
        )

    def __mul__(self, other):
        N, d = self._merge_meta(other)
        by_deg = {}
        for (mu, k), c in other.terms.items():
            by_deg.setdefault(sum(mu), []).append((mu, k, c))
        out = {}
        for (mu, k), c in self.terms.items():
            room = N - sum(mu)
            for deg, bucket in by_deg.items():
                if deg > room:
                    continue
                for nu, j, e in bucket:
                    key = (_merge_partitions(mu, nu), k + j)
                    out[key] = out.get(key, 0) + c * e
        return GradedCharacter(N, out, d)

    def __eq__(self, other):
        return (
            isinstance(other, GradedCharacter)
            and self.N == other.N
            and self.terms == other.terms
        )

    def __repr__(self):
        inner = ", ".join(
            "%s: %s" % (k, v) for k, v in sorted(self.terms.items())
        )
        return "GradedCharacter(N=%d, {%s})" % (self.N, inner)

    # -- views ---------------------------------------------------------------

    def degree_part(self, n: int) -> dict:
        return {
            (mu, k): c for (mu, k), c in self.terms.items() if sum(mu) == n
        }


def _merge_partitions(mu: tuple, nu: tuple) -> tuple:
    return tuple(sorted(mu + nu, reverse=True))


def unit(N: int, d: int | None = None) -> GradedCharacter:
    return GradedCharacter(N, {((), 0): 1}, d)


def powersum(N: int, mu, k: int = 0, coeff=1, d: int | None = None) -> GradedCharacter:
    mu = tuple(sorted(mu, reverse=True))
    return GradedCharacter(N, {(mu, k): coeff}, d)


def l_character(m: int) -> dict:
    """Laurent coefficients of the irreducible sl2 character of weight m."""
    if m < 0:
        raise ValueError("negative weight")
    return {w: 1 for w in range(-m, m + 1, 2)}


def times_sl2(X: GradedCharacter, weights: dict) -> GradedCharacter:
    """Multiply by a fixed Laurent polynomial in q."""
    out = {}
    for (mu, k), c in X.terms.items():
        for w, e in weights.items():
            key = (mu, k + w)
            out[key] = out.get(key, 0) + c * e
    return GradedCharacter(X.N, out, X.d)


def adams(m: int, X: GradedCharacter) -> GradedCharacter:
    if m < 1:
        raise ValueError("Adams index must be >= 1")
    out = {}
    for (mu, k), c in X.terms.items():
        key = (tuple(part * m for part in mu), k * m)
        out[key] = out.get(key, 0) + c
    return GradedCharacter(X.N, out, X.d)


def lambda_op(X: GradedCharacter) -> GradedCharacter:
    """Alternating exterior-power sum; multiplicative over +."""
    if X.degree_part(0):
        raise ValueError("lambda_op needs input in the augmentation ideal")
    N = X.N
    log_part = GradedCharacter(N, {}, X.d)
    for m in range(1, N + 1):
        psi = adams(m, X)
        if not psi.terms:
            continue
        log_part = log_part + psi.scale(Fraction(-1, m))
    out = unit(N, X.d)
    term = unit(N, X.d)
    for k in range(1, N + 1):
        term = (term * log_part).scale(Fraction(1, k))
        if not term.terms:
            break
        out = out + term
    return out


def sl2_isotype(X: GradedCharacter, m: int) -> GradedCharacter:
    """Multiplicity class of the weight-m sl2 isotype, as a q-free character."""
    if m < 0 or m % 2:
        raise ValueError("weight must be even and non-negative")
    out = {}
    for (mu, k), c in X.terms.items():
        if k == m:
            out[(mu, 0)] = out.get((mu, 0), 0) + c
        elif k == m + 2:
            out[(mu, 0)] = out.get((mu, 0), 0) - c
    return GradedCharacter(X.N, out, X.d)


L0 = {0: 1}
L2 = l_character(2)


def _digit_width(bound: int) -> int:
    """Bits per packed coefficient when no coefficient exceeds `bound` in
    absolute value: |c| < 2^(B-2), so every balanced digit is exact."""
    return bound.bit_length() + 2


def _pack(poly: dict, j: int, B: int) -> int:
    """The degree-j q-polynomial {k: c} as one int: c at bit B*(k/2 + j)."""
    x = 0
    for k, c in poly.items():
        x += c << B * (k // 2 + j)
    return x


def _unpack(x: int, j: int, B: int) -> dict:
    """The q-polynomial {k: c} packed in x as a degree-j one, read as
    balanced base-2^B digits, lowest first; needs every |c| < 2^(B-1)."""
    mask, half = (1 << B) - 1, 1 << (B - 1)
    out = {}
    for k in range(-2 * j, 2 * j + 1, 2):
        c = x & mask
        if c >= half:
            c -= mask + 1
        if c:
            out[k] = c
        x = (x - c) >> B
    if x:
        raise ArithmeticError("packed q-polynomial outruns its %d digits" % (2 * j + 1))
    return out


def _solve_raw(N: int) -> tuple:
    """The recursion on integer p_mu/z_mu coordinates (see module docstring).

    F[n] and G[n] map mu to {k: c}, the coefficient of p_mu q^k / z_mu in
    the degree-n part of F = lambda(solved so far) and of
    G = D(log F), D multiplying degree n by n.  Each degree's products
    run on packed ints (_pack) of the digit width its bound allows;
    F_max[n] is the largest |c| in F[n] and G_norm[n] the sum of every
    |c| in G[n], kept up to date as G[n] gains steps.
    """
    # through the module's zee, which a test may replace
    zees = {mu: zee(mu) for m in range(N + 1) for mu in partitions(m)}
    F = [{(): {0: 1}}] + [{} for _ in range(N)]
    G = [{} for _ in range(N + 1)]
    F_max = [1] + [0] * N
    G_norm = [0] * (N + 1)
    a, b = {}, {}
    for n in range(1, N + 1):
        # D(F) = D(log F) * F, read in degree n
        B = _digit_width(sum(G_norm[j] * F_max[n - j] for j in range(1, n + 1)) << n)
        K = {}
        for j in range(1, n + 1):
            rest = [(nu, zees[nu], _pack(fpoly, n - j, B)) for nu, fpoly in F[n - j].items()]
            for mu, gpoly in G[j].items():
                g, z_mu = _pack(gpoly, j, B), zees[mu]
                for nu, z_nu, f in rest:
                    lam = _merge_partitions(mu, nu)
                    K[lam] = K.get(lam, 0) + zees[lam] // (z_mu * z_nu) * g * f
        if n == 1:
            K[(1,)] = 0  # a_1 = p_1 is the only unknown not read off K
        step = {}
        for lam, x in K.items():
            poly = _unpack(x, n, B)
            for k, c in poly.items():
                poly[k], r = divmod(c, n)
                if r:
                    raise ArithmeticError(
                        "degree %d: coefficient %d of p_%s q^%d is not divisible by %d"
                        % (n, c, lam, k, n)
                    )
            c0, c2, c4 = poly.get(0, 0), poly.get(2, 0), poly.get(4, 0)
            a_c = c2 - c4 + (1 if lam == (1,) else 0)
            b_c = c0 - c2
            if a_c:
                a[lam] = a_c
            if b_c:
                b[lam] = b_c
            if a_c or b_c:
                step[lam] = {-2: a_c, 0: a_c + b_c, 2: a_c}
                for k, c in step[lam].items():
                    poly[k] = poly.get(k, 0) - c
            # F_n = K - step, without zero coefficients
            poly = {k: c for k, c in poly.items() if c}
            if poly:
                F[n][lam] = poly
                F_max[n] = max(F_max[n], *map(abs, poly.values()))
        # log lambda(step) = -sum_m psi^m(step) / m lands in degrees n*m
        for m in range(1, N // n + 1):
            Gnm = G[n * m]
            for lam, spoly in step.items():
                w = -n * m ** len(lam)
                out = Gnm.setdefault(tuple(m * part for part in lam), {})
                for k, c in spoly.items():
                    if c:
                        old = out.get(m * k, 0)
                        out[m * k] = new = old + w * c
                        G_norm[n * m] += abs(new) - abs(old)
    return (
        GradedCharacter(N, {(lam, 0): Fraction(c, zees[lam]) for lam, c in a.items()}),
        GradedCharacter(N, {(lam, 0): Fraction(c, zees[lam]) for lam, c in b.items()}),
    )


# (N, a, b) of the largest solve so far; replaced by one rebinding, so a
# concurrent reader sees either the old triple or the new one
_solved: tuple = (0, None, None)


def solve_characters(d: int, N: int) -> tuple:
    """The unique (a, b) making lambda(a[L2] + b[L0]) trivial in sl2.

    Solved degree by degree; F carries lambda of everything already fixed.
    The recursion never looks at d, so the largest solve is kept and
    reused (sliced down) for smaller truncations.
    """
    global _solved
    if d < 1 or N < 1:
        raise ValueError("need d >= 1 and N >= 1")
    solved = _solved
    if N > solved[0]:
        solved = (N, *_solve_raw(N))
        _solved = solved
    _, a, b = solved
    return (
        GradedCharacter(N, a.terms, d),
        GradedCharacter(N, b.terms, d),
    )


km_prediction = solve_characters


@cache
def schur_in_powersums(shape: tuple) -> dict:
    """s_shape as {mu: coefficient} over power sums."""
    n = sum(shape)
    return {
        mu: Fraction(character(shape, mu), zee(mu)) for mu in partitions(n)
    }


def schur_decompose(X: GradedCharacter, n: int, shapes=None) -> SnModule:
    """Multiplicities of s_lambda in the degree-n part (exact, asserted
    integral), over every partition of n or only over `shapes`."""
    if X.d is not None and X.d < n:
        raise ValueError("need at least %d variables to keep degree %d faithful" % (n, n))
    part = X.degree_part(n)
    if any(k for (_, k) in part):
        raise ValueError("degree part still carries sl2 content")
    coeffs = {mu: c for (mu, _), c in part.items()}
    mults = {}
    for shape in partitions(n) if shapes is None else shapes:
        m = sum(coeffs.get(mu, 0) * character(shape, mu) for mu in coeffs)
        if m:
            if m.denominator != 1:
                raise ArithmeticError(
                    "non-integer multiplicity %s at %s" % (m, shape)
                )
            mults[shape] = int(m)
    return SnModule(n, mults)


def effectivity_check(X: GradedCharacter, n: int) -> tuple:
    """(all multiplicities non-negative?, offending shapes)."""
    module = schur_decompose(X, n)
    bad = sorted(s for s, m in module.mults.items() if m < 0)
    return (not bad, bad)


def dims_from_character(X: GradedCharacter, d: int | None = None) -> DimSequence:
    """Specialize p_k -> d and q -> 1 in every positive degree."""
    if d is None:
        d = X.d
    if d is None:
        raise ValueError("no variable count given")
    dims = [Fraction(0)] * X.N
    for (mu, _), c in X.terms.items():
        n = sum(mu)
        if n:
            dims[n - 1] += c * d ** len(mu)
    out = []
    for n, v in enumerate(dims, start=1):
        if v.denominator != 1:
            raise ArithmeticError("non-integer dimension %s in degree %d" % (v, n))
        out.append(int(v))
    return DimSequence(p=d, dims=tuple(out))
