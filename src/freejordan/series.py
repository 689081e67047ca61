"""Truncated Laurent series over Z[t, 1/t] and the dimension predictor.

A candidate dimension sequence (a_n) for the free Jordan algebra on a
p-dimensional space is encoded by the residue condition

    Res_{t=0} (1 - p z - t + p z/t) * prod_{n>=1} (1 - z^n (t + 1/t) + z^{2n})^{a_n} dt = 0

holding in every z-degree. Everything is computed in Z[t,1/t][z]/(z^{N+1});
coefficients are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

# A Laurent polynomial in t is a dict exponent -> integer coefficient.


def lp_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            v = out.get(k, 0) + x * y
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def lp_add_into(dst: dict, src: dict, scale: int = 1) -> None:
    for i, x in src.items():
        v = dst.get(i, 0) + scale * x
        if v:
            dst[i] = v
        elif i in dst:
            del dst[i]


def lp_residue(f: dict) -> int:
    """Coefficient of 1/t."""
    return f.get(-1, 0)


class TruncatedSeries:
    """Element of Z[t,1/t][z]/(z^{N+1}): a list of Laurent coefficients."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs=None):
        self.N = N
        self.coeffs = [dict() for _ in range(N + 1)]
        if coeffs:
            for n, f in enumerate(coeffs[: N + 1]):
                self.coeffs[n] = dict(f)

    @classmethod
    def one(cls, N: int) -> "TruncatedSeries":
        s = cls(N)
        s.coeffs[0] = {0: 1}
        return s

    def coefficient(self, n: int) -> dict:
        return dict(self.coeffs[n])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = TruncatedSeries(self.N)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.N:
                    break
                if not b:
                    continue
                lp_add_into(out.coeffs[i + j], lp_mul(a, b))
        return out

    def residues(self) -> list:
        return [lp_residue(f) for f in self.coeffs]


def _t_plus_inv_powers(kmax: int) -> list:
    """(t + 1/t)^k for k = 0..kmax."""
    powers = [{0: 1}]
    base = {1: 1, -1: 1}
    for _ in range(kmax):
        powers.append(lp_mul(powers[-1], base))
    return powers


def factor_power(n: int, a: int, N: int) -> TruncatedSeries:
    """(1 - z^n (t + 1/t) + z^{2n})^a truncated at z^N.

    Expanded directly through binomials: only k + j <= N/n matters, so this
    is cheap even for a in the hundreds of thousands.
    """
    s = TruncatedSeries(N)
    K = N // n
    tp = _t_plus_inv_powers(K)
    for k in range(K + 1):
        ck = comb(a, k) if a >= 0 else (-1) ** k * comb(-a + k - 1, k)
        if ck == 0:
            continue
        for j in range(k + 1):
            deg = n * (k + j)
            if deg > N:
                break
            scale = ck * comb(k, j) * (-1) ** (k - j)
            lp_add_into(s.coeffs[deg], tp[k - j], scale)
    return s


def prefactor(p: int, N: int) -> TruncatedSeries:
    s = TruncatedSeries(N)
    s.coeffs[0] = {0: 1, 1: -1}
    if N >= 1:
        s.coeffs[1] = {0: -p, -1: p}
    return s


@dataclass(frozen=True)
class DimSequence:
    """Predicted dimensions for degrees 1..N on a p-dimensional space."""

    p: int
    dims: tuple

    def dim(self, n: int) -> int:
        return self.dims[n - 1]

    @property
    def N(self) -> int:
        return len(self.dims)


def predict_dims(p: int, N: int) -> DimSequence:
    """Solve the residue condition degree by degree.

    In degree n the unknown a_n enters the z^n coefficient only through
    -a_n (t + 1/t) times the constant term (1 - t) of the running product,
    whose residue contribution is exactly -a_n; hence a_n is read off as the
    residue of the partial product's z^n coefficient.
    """
    if p < 1 or N < 1:
        raise ValueError("need p >= 1 and N >= 1")
    P = prefactor(p, N)
    dims = []
    for n in range(1, N + 1):
        a_n = lp_residue(P.coeffs[n])
        dims.append(a_n)
        P = P * factor_power(n, a_n, N)
    return DimSequence(p, tuple(dims))


def conjecture_series(p: int, dims, N: int | None = None) -> TruncatedSeries:
    """The full product for a given dimension sequence, truncated at z^N."""
    dims = list(dims)
    if N is None:
        N = len(dims)
    S = prefactor(p, N)
    for n, a_n in enumerate(dims[:N], start=1):
        S = S * factor_power(n, a_n, N)
    return S


@dataclass(frozen=True)
class SequenceCheck:
    """Residues of the conjecture series against a candidate sequence."""

    p: int
    residues: tuple  # index n-1 <-> degree n
    first_nonzero: int | None

    def residue(self, n: int) -> int:
        return self.residues[n - 1]


def check_sequence(p: int, dims) -> SequenceCheck:
    S = conjecture_series(p, dims)
    res = tuple(lp_residue(S.coeffs[n]) for n in range(1, len(dims) + 1))
    first = next((n for n, r in enumerate(res, start=1) if r), None)
    return SequenceCheck(p, res, first)
