"""Exact linear algebra over Q and over word-sized prime fields.

Scalars are python ints and fractions.Fraction; nothing here ever trusts a
float. There are two elimination engines and one oracle:

- RankAccumulator, incremental rank over F_p on dense numpy int64 rows;
  every modular rank in the package comes from it;
- ExactRowReducer, incremental reduced echelon form over Q on sparse dict
  rows, for spaces that need exact quotient coordinates; it takes no
  column count, since a sparse row names its own columns;
- bareiss_rank, fraction-free rank over Z, the exact oracle for tests.

All modular elimination is one kernel, _eliminate: one float64 matmul
where that is exact, a loop over the pivots where it is not.  The batch
echelon _rref recurses on halves and does every update between rows
through it (the shape of FFLAS-FFPACK's PLUQ, Dumas-Giorgi-Pernet 2008).

A modular rank is reported only through certify, which compares the ranks
of one matrix over several primes. Default primes follow one rule,
blas_primes(width): the largest primes for which the kernel on that many
columns stays on its float64 matmul path, which is exact by a
counting argument (all intermediate values stay under 2**53), never an
approximation.

Thread-safety: all functions are pure; RankAccumulator instances are not
shared between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import UnluckyPrimeError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64 bits."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def blas_primes(width: int) -> tuple[int, int]:
    """The two largest primes whose elimination on `width` columns stays
    exact in float64 BLAS; the package's only rule for default primes.

    Reduction against a stored basis of up to `width` rows accumulates dot
    products bounded by width*(p-1)^2, which must stay below 2**53.
    """
    bound = math.isqrt(2**53 // max(width, 1))
    if bound < 257:
        raise ValueError("too many columns for a float64-exact prime")
    out = []
    n = bound
    while len(out) < 2:
        if is_prime(n):
            out.append(n)
        n -= 1
    return tuple(out)


def _blas_ok(p: int, inner: int) -> bool:
    return inner * (p - 1) * (p - 1) < 2**53


def frac_mod(c, p: int) -> int:
    """Image of an int or Fraction in Z/p (denominator inverted, not floored)."""
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def bareiss_rank(rows) -> int:
    """Rank over Q by fraction-free (integer-preserving) elimination.

    Rational entries are cleared row by row first, which does not change the
    rank. Intermediate entries are minors of the input, so everything stays
    in Z with exact divisions.
    """
    m = []
    for row in rows:
        ints = []
        lcm = 1
        for x in row:
            if isinstance(x, Fraction):
                lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
        for x in row:
            if isinstance(x, Fraction):
                ints.append(int(x * lcm))
            else:
                ints.append(int(x) * lcm)
        m.append(ints)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if not any(m[i][c:]):
                continue
            for k in range(c + 1, ncols):
                m[i][k] = (m[i][k] * m[r][c] - m[i][c] * m[r][k]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def certify(ranks: dict) -> int:
    """The rank of one matrix, given its ranks modulo several primes.

    Modular rank never exceeds the rational rank, so disagreement convicts
    the smaller values; UnluckyPrimeError names the offending primes.
    """
    if not ranks:
        raise ValueError("no primes given: a rank needs at least one prime")
    values = set(ranks.values())
    if len(values) > 1:
        raise UnluckyPrimeError(ranks)
    return values.pop()


def _eliminate(T: np.ndarray, B: np.ndarray, piv, p: int) -> np.ndarray:
    """Clear columns `piv` of T, in place, against the rows B; returns T.

    B must be in reduced echelon form on those columns: B[k] is 1 at
    piv[k] and 0 at every other column of piv, so each row of T loses
    T[:, piv] @ B.  Entries of T and B are residues in [0, p).
    """
    if not len(piv):
        return T
    if _blas_ok(p, len(piv)):
        # exact: dot products are integers below len(piv)*(p-1)^2 < 2**53
        prod = T[:, piv].astype(np.float64) @ B.astype(np.float64)
        np.rint(prod, out=prod)
        np.subtract(T, prod, out=prod)
        T[...] = prod
        np.remainder(T, p, out=T)
    else:
        # B[k] is 0 at the other pivot columns, so subtracting it leaves
        # them alone and the pivots can be cleared one at a time
        for k, c in enumerate(piv):
            col = T[:, c]
            mask = col != 0
            if mask.any():
                T[mask] = (T[mask] - np.outer(col[mask], B[k])) % p
    return T


def _rref(block: np.ndarray, p: int):
    """(rows, pivots): the reduced echelon form of `block` over F_p, up to
    row order, rows[k] with its leading 1 at pivots[k]."""
    block = block[block.any(axis=1)]
    if len(block) <= 1:
        if not len(block):
            return block, []
        c = int(np.flatnonzero(block[0])[0])
        return block * pow(int(block[0, c]), -1, p) % p, [c]
    h = len(block) // 2
    top, tpiv = _rref(block[:h], p)
    bottom, bpiv = _rref(_eliminate(block[h:], top, tpiv, p), p)
    _eliminate(top, bottom, bpiv, p)
    return np.concatenate([top, bottom]), tpiv + bpiv


class RankAccumulator:
    """Incremental rank of a growing set of vectors over F_p.

    Holds a reduced echelon basis of the span: row k has its leading 1 at
    its pivot column, where every other row is 0.  add() clears the stored
    pivot columns of the batch (_eliminate), takes the reduced echelon
    form of what is left (_rref), clears the fresh pivot columns of the
    stored basis and appends the fresh rows.  Once the rank reaches the
    ambient dimension further adds are no-ops (is_full).
    """

    def __init__(self, ncols: int, p: int):
        # int64 products of two residues overflow from p = 2**31 on
        if p >= 2**31:
            raise ValueError("prime %d is too large: need p < 2^31" % p)
        self.ncols = ncols
        self.p = p
        self._rows = np.zeros((0, ncols), dtype=np.int64)
        self._pivcols = []

    @property
    def rank(self) -> int:
        return len(self._pivcols)

    @property
    def is_full(self) -> bool:
        return self.rank >= self.ncols

    def add(self, vectors) -> int:
        """Absorb vectors (2d array, one vector per row); returns the rank."""
        if self.is_full:
            return self.rank
        fresh, piv = _rref(self.reduce(vectors), self.p)
        if piv:
            _eliminate(self._rows, fresh, piv, self.p)
            self._rows = np.concatenate([self._rows, fresh])
            self._pivcols += piv
        return self.rank

    def reduce(self, vectors) -> np.ndarray:
        """Remainders of vectors modulo the accumulated span (for membership)."""
        block = np.array(vectors, dtype=np.int64, ndmin=2) % self.p
        return _eliminate(block, self._rows, self._pivcols, self.p)

    def basis(self) -> np.ndarray:
        """Copy of the reduced echelon basis accumulated so far."""
        return self._rows.copy()


class ExactRowReducer:
    """Incremental reduced row echelon form over Q, on sparse rows.

    A row is a dict {column: value}; a dense sequence is read as its
    nonzero entries.  Each pivot row is stored as such a dict, scaled to 1
    at its pivot column (its smallest column) and zero at every other
    pivot column.  Because of that second property, reducing a row only
    subtracts the pivot rows whose pivot columns occur in it, in one pass,
    and the remainder (a dict, zero entries dropped) has no entry in any
    pivot column: its entries are the row's coordinates on the non-pivot
    columns.

    Far slower than the modular accumulators for ranks alone; meant for
    spaces where exact quotient coordinates are needed.
    """

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row) -> dict[int, Fraction]:
        """Remainder of one row modulo the accumulated span."""
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {j: Fraction(x) for j, x in items if x}
        for col in [j for j in row if j in self.pivot_rows]:
            c = row[col]
            for j, x in self.pivot_rows[col].items():
                v = row.get(j, 0) - c * x
                if v:
                    row[j] = v
                else:
                    del row[j]
        return row

    def add(self, row) -> bool:
        """Insert one row; returns True when it enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        inv = 1 / row[lead]
        row = {j: x * inv for j, x in row.items()}
        for pivot in self.pivot_rows.values():
            c = pivot.get(lead)
            if c:
                for j, x in row.items():
                    v = pivot.get(j, 0) - c * x
                    if v:
                        pivot[j] = v
                    else:
                        del pivot[j]
        self.pivot_rows[lead] = row
        return True

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self.pivot_rows))
