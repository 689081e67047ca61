"""Exact linear algebra over Q and over word-sized prime fields.

Scalars are python ints and fractions.Fraction; nothing here ever trusts a
float. There are two elimination engines and one oracle:

- RankAccumulator, incremental rank over F_p on dense numpy int64 rows;
  every modular rank in the package comes from it;
- ExactRowReducer, incremental reduced echelon form over Q on sparse dict
  rows, for spaces that need exact quotient coordinates; it takes no
  column count, since a sparse row names its own columns;
- bareiss_rank, fraction-free rank over Z, the exact oracle for tests.

A modular rank is reported only through certify, which compares the ranks
of one matrix over several primes. Default primes follow one rule,
blas_primes(width): the largest primes for which RankAccumulator on that
many columns stays on its float64 matmul path, which is exact by a
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


class RankAccumulator:
    """Incremental rank of a growing set of vectors over F_p.

    Holds a reduced echelon basis of the span; add() reduces incoming
    vectors against it and absorbs whatever is new. Once the rank reaches
    the ambient dimension further adds are no-ops (is_full).
    """

    def __init__(self, ncols: int, p: int):
        # int64 products of two residues overflow from p = 2**31 on
        if p >= 2**31:
            raise ValueError("prime %d is too large: need p < 2^31" % p)
        self.ncols = ncols
        self.p = p
        self._rows = np.zeros((max(16, min(ncols, 1024)), ncols), dtype=np.int64)
        self._pivcols = []
        self.rank = 0

    @property
    def is_full(self) -> bool:
        return self.rank >= self.ncols

    def _grow(self, need):
        if need <= self._rows.shape[0]:
            return
        cap = self._rows.shape[0]
        while cap < need:
            cap = min(max(cap * 2, need), self.ncols)
        bigger = np.zeros((cap, self.ncols), dtype=np.int64)
        bigger[: self.rank] = self._rows[: self.rank]
        self._rows = bigger

    def _reduce_block(self, block: np.ndarray) -> np.ndarray:
        """Zero out all pivot columns of `block` against the stored basis."""
        p = self.p
        E = self._rows[: self.rank]
        piv = np.asarray(self._pivcols, dtype=np.intp)
        if _blas_ok(p, self.rank):
            coef = block[:, piv].astype(np.float64)
            prod = coef @ E.astype(np.float64)
            block = (block - np.rint(prod).astype(np.int64) % p) % p
        else:
            for k in range(self.rank):
                col = block[:, self._pivcols[k]]
                mask = col != 0
                if mask.any():
                    block[mask] = (block[mask] - np.outer(col[mask], E[k])) % p
        return block

    def add(self, vectors) -> int:
        """Absorb vectors (2d array, one vector per row); returns the rank."""
        if self.is_full:
            return self.rank
        p = self.p
        block = np.array(vectors, dtype=np.int64, copy=True) % p
        if block.ndim == 1:
            block = block[None, :]
        if self.rank:
            block = self._reduce_block(block)
        # echelonize the batch on its own first; the stored basis is
        # back-substituted once per batch with a single matmul instead of
        # one rank-sized outer product per new pivot
        new_idx, new_piv = [], []
        for i in range(block.shape[0]):
            row = block[i]
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            row = row * pow(int(row[c]), p - 2, p) % p
            block[i] = row
            rest = block[i + 1 :, c]
            rmask = rest != 0
            if rmask.any():
                block[i + 1 :][rmask] = (
                    block[i + 1 :][rmask] - np.outer(rest[rmask], row)
                ) % p
            for j in new_idx:
                if block[j, c]:
                    block[j] = (block[j] - block[j, c] * row) % p
            new_idx.append(i)
            new_piv.append(c)
            if self.rank + len(new_idx) >= self.ncols:
                break
        if not new_idx:
            return self.rank
        fresh = block[new_idx]
        if self.rank:
            E = self._rows[: self.rank]
            coef = E[:, new_piv]
            if coef.any():
                if len(new_piv) * (p - 1) * (p - 1) < 2**53:
                    prod = coef.astype(np.float64) @ fresh.astype(np.float64)
                    E[:] = (E - np.rint(prod).astype(np.int64) % p) % p
                else:
                    # fresh rows are mutually reduced, so sequential
                    # column-clearing updates stay consistent
                    for t in range(len(new_piv)):
                        col = E[:, new_piv[t]]
                        mask = col != 0
                        if mask.any():
                            E[mask] = (E[mask] - np.outer(col[mask], fresh[t])) % p
        self._grow(self.rank + len(new_idx))
        self._rows[self.rank : self.rank + len(new_idx)] = fresh
        self._pivcols.extend(new_piv)
        self.rank += len(new_idx)
        return self.rank

    def reduce(self, vectors) -> np.ndarray:
        """Remainders of vectors modulo the accumulated span (for membership)."""
        block = np.array(vectors, dtype=np.int64, copy=True) % self.p
        if block.ndim == 1:
            block = block[None, :]
        if self.rank == 0:
            return block
        return self._reduce_block(block)

    def basis(self) -> np.ndarray:
        """Copy of the reduced echelon basis accumulated so far."""
        return self._rows[: self.rank].copy()


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
