"""Exact linear algebra over Q and over word-sized prime fields.

Scalars are python ints and fractions.Fraction; nothing here ever trusts a
float. There are two elimination engines and one oracle:

- RankAccumulator, incremental rank over F_p; it stores its reduced
  echelon basis as [I | X], only X on the free (non-pivot) columns, in
  numpy int64: rank x (ncols - rank) entries.  Every modular rank in the
  package comes from it;
- ExactRowReducer, incremental reduced echelon form over Q on sparse dict
  rows, for spaces that need exact quotient coordinates; its columns are
  any sortable keys, so callers key rows by their own basis elements.
  It stores each pivot row as the primitive integer multiple of its
  reduced echelon row and eliminates fraction-free; Fractions are made
  only where reduce returns a remainder;
- bareiss_rank, fraction-free rank over Z, the exact oracle for tests.

add_scaled is the one sparse axpy, dst += c * src on dict vectors.

All modular elimination is one kernel, _eliminate, C <- C - A @ B mod p:
one float64 matmul where that is exact and A has more than one column, a
loop of int64 updates over the columns of A otherwise.  The batch echelon
_rref recurses on halves down to leaves of at most 32 nonzero rows, which
it reduces by Gauss-Jordan one pivot at a time, and does every update
between rows through _eliminate (the shape of FFLAS-FFPACK's PLUQ,
Dumas-Giorgi-Pernet 2008, whose recursion also switches to iterative
elimination below a threshold).

Relation matrices reach RankAccumulator through add, seeded by
RankAccumulator.direct_sum where a span is the direct sum of smaller
ones plus fresh rows.  Every certified rank follows one walk rule,
certified_ranks: ranks_mod(p) ranks the caller's matrices over F_p, one
prime at a time; primes[0] is walked first, and the other primes only if
some matrix falls short of its column count there, since a full rank
mod p is the rank over Q.  certify then compares each matrix's ranks
over the primes walked.
Primes follow one rule, choose_primes: explicit ones
must be primes p with n < p < 2**31 in degree n; the default is
blas_primes(width), the largest primes for which the kernel on that many
columns stays on its float64 matmul path, which is exact by a counting
argument (all intermediate values stay under 2**53), never an
approximation.

Thread-safety: all functions are pure; RankAccumulator instances are not
shared between threads.  The float64 matmuls run on one BLAS thread:
importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set, because a second OpenBLAS thread mostly spins on these small
products, costing CPU time for little or no wall time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import UnluckyPrimeError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# _rref reduces blocks of at most this many nonzero rows by Gauss-Jordan
_LEAF_ROWS = 32


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


def choose_primes(width: int, n: int, primes=None) -> tuple:
    """The primes for ranks on `width` columns of a degree-n relation matrix:
    blas_primes(width), or `primes` once each is checked to be a prime p
    with n < p < 2**31.  Relation rows are integral up to a power of two,
    S_n representations need 1..n invertible, and int64 products of two
    residues overflow from 2**31 on."""
    if primes is None:
        return blas_primes(width)
    primes = tuple(primes)
    for p in primes:
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        if p <= n:
            raise ValueError("prime %d must exceed the degree %d" % (p, n))
        if p >= 2**31:
            raise ValueError("prime %d is too large: need p < 2^31" % p)
    return primes


def bareiss_rank(rows) -> int:
    """Rank over Q by fraction-free (integer-preserving) elimination.

    Rational entries are cleared row by row first, which does not change the
    rank. Intermediate entries are minors of the input, so everything stays
    in Z with exact divisions.
    """
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        m.append([int(x * scale) for x in row])
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


def certify(ranks: dict, ncols: int | None = None) -> int:
    """The rank of one matrix, given its ranks modulo several primes.

    Modular rank never exceeds the rational rank, so disagreement convicts
    the smaller values; UnluckyPrimeError names the offending primes.
    The rational rank never exceeds the column count either, so a matrix
    of `ncols` columns with that rank modulo one prime has it over Q: a
    smaller rank at another prime is then an unlucky prime, not an error.
    """
    if not ranks:
        raise ValueError("no primes given: a rank needs at least one prime")
    values = set(ranks.values())
    if ncols in values:
        return ncols
    if len(values) > 1:
        raise UnluckyPrimeError(ranks)
    return values.pop()


def certified_ranks(primes, ranks_mod, ncols) -> list:
    """The ranks over Q of matrices of ncols[k] columns each, from their
    ranks over F_p, the list ranks_mod(p), by the module's walk rule."""
    if not primes:
        raise ValueError("no primes given: a rank needs at least one prime")
    first, *rest = primes
    walked = {first: ranks_mod(first)}
    if any(r < c for r, c in zip(walked[first], ncols)):
        walked.update((p, ranks_mod(p)) for p in rest)
    return [certify({p: ranks[k] for p, ranks in walked.items()}, c)
            for k, c in enumerate(ncols)]


def _eliminate(C: np.ndarray, A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """C <- C - A @ B mod p, in place; returns C.

    Entries of all three are residues in [0, p).  The loop path needs A
    apart from C (a copy, never a view of it).  A single column of A takes
    the loop path: one masked int64 update is cheaper there than the
    float64 round trip.
    """
    if not A.shape[1]:
        return C
    if A.shape[1] > 1 and _blas_ok(p, A.shape[1]):
        # exact: dot products are integers below inner*(p-1)^2 < 2**53
        prod = A.astype(np.float64) @ B.astype(np.float64)
        np.rint(prod, out=prod)
        np.subtract(C, prod, out=prod)
        C[...] = prod
        np.remainder(C, p, out=C)
    else:
        # one rank-1 update per column of A, on the rows where it is nonzero
        for k in range(A.shape[1]):
            col = A[:, k]
            mask = col != 0
            if mask.any():
                C[mask] = (C[mask] - np.outer(col[mask], B[k])) % p
    return C


def _rref(block: np.ndarray, p: int):
    """(rows, pivots): the reduced echelon form of `block` over F_p, up to
    row order, rows[k] with its leading 1 at pivots[k].

    The pivots come in the order in which the rows of `block` enlarge the
    span: pivots[k] leads the remainder of the k-th such row modulo the
    rows before it.  The halving recursion and its leaves both keep this
    order, so the result does not depend on where the leaves start."""
    block = block[block.any(axis=1)]
    if len(block) <= _LEAF_ROWS:
        # Gauss-Jordan, one pivot at a time in row order (block is a copy)
        pivots, kept = [], []
        for r in range(len(block)):
            nz = np.flatnonzero(block[r])
            if not len(nz):
                continue
            c = int(nz[0])
            block[r] = block[r] * pow(int(block[r, c]), -1, p) % p
            col = block[:, c : c + 1].copy()
            col[r] = 0
            _eliminate(block, col, block[r : r + 1], p)
            pivots.append(c)
            kept.append(r)
        return block[kept], pivots
    h = len(block) // 2
    top, tpiv = _rref(block[:h], p)
    bottom = block[h:]
    bottom, bpiv = _rref(_eliminate(bottom, bottom[:, tpiv], top, p), p)
    _eliminate(top, top[:, bpiv], bottom, p)
    return np.concatenate([top, bottom]), tpiv + bpiv


class RankAccumulator:
    """Incremental rank of a growing set of vectors over F_p.

    Holds a reduced echelon basis of the span in the form [I | X]: row k
    is 1 at its pivot column _pivcols[k] and 0 at every other pivot
    column, so only X, its entries on the free (non-pivot) columns _free,
    is stored: rank x (ncols - rank) residues, at most ncols**2/4.

    reduce(T) subtracts T[:, pivots] @ X from the free columns of T.
    add(T) takes the reduced echelon form of that remainder (_rref),
    clears its fresh pivot columns out of X, appends its rows and moves
    those columns from the free set to the pivots.  Once the rank reaches
    the ambient dimension (is_full) no column is free and adds change
    nothing.
    """

    def __init__(self, ncols: int, p: int):
        # int64 products of two residues overflow from p = 2**31 on
        if p >= 2**31:
            raise ValueError("prime %d is too large: need p < 2^31" % p)
        self.ncols = ncols
        self.p = p
        self._pivcols = []
        self._free = np.arange(ncols)
        self._x = np.zeros((0, ncols), dtype=np.int64)

    @classmethod
    def direct_sum(cls, ncols: int, p: int, parts) -> "RankAccumulator":
        """An accumulator on ncols columns holding the union of the bases
        of `parts`, pairs (cols, acc) that send column j of acc (mod p) to
        column cols[j].  Images of distinct parts must be disjoint, so the
        union is already [I | X]: nothing is eliminated.  Its rank is the
        sum of the parts' ranks, and with increasing maps its basis is the
        one add would reach from the relabelled rows."""
        out = cls(ncols, p)
        taken = np.zeros(ncols, dtype=bool)
        maps = []
        for cols, acc in parts:
            cols = np.asarray(cols, dtype=np.int64)
            if acc.p != p or cols.shape != (acc.ncols,):
                raise ValueError("a part needs p = %d and one image per column" % p)
            if len(cols) and (cols.min() < 0 or cols.max() >= ncols):
                raise ValueError("column images fall outside 0..%d" % (ncols - 1))
            if taken[cols].any() or len(np.unique(cols)) < len(cols):
                raise ValueError("column images overlap or repeat")
            taken[cols] = True
            maps.append((cols, acc))
        out._pivcols = [c for cols, acc in maps for c in cols[acc._pivcols].tolist()]
        out._free = np.setdiff1d(np.arange(ncols), out._pivcols)
        out._x = np.zeros((out.rank, len(out._free)), dtype=np.int64)
        row = 0
        for cols, acc in maps:
            # a part's free columns stay free; _free is sorted
            at = np.searchsorted(out._free, cols[acc._free])
            out._x[row : row + acc.rank, at] = acc._x
            row += acc.rank
        return out

    @property
    def rank(self) -> int:
        return len(self._pivcols)

    @property
    def is_full(self) -> bool:
        return self.rank >= self.ncols

    def _remainder(self, vectors) -> np.ndarray:
        # the free columns of vectors, modulo the span
        block = np.array(vectors, dtype=np.int64, ndmin=2)
        if block.ndim != 2 or block.shape[1] != self.ncols:
            raise ValueError(
                "expected rows of width %d, got shape %s" % (self.ncols, block.shape)
            )
        block %= self.p
        coef = block[:, self._pivcols]
        block = block[:, self._free]
        return _eliminate(block, coef, self._x, self.p)

    def add(self, vectors) -> int:
        """Absorb vectors (2d array, one vector per row); returns the rank."""
        fresh, piv = _rref(self._remainder(vectors), self.p)
        if piv:
            keep = np.ones(len(self._free), dtype=bool)
            keep[piv] = False
            coef = self._x[:, piv]
            # drop the fresh pivot columns first, so that the old X is freed
            self._x = self._x[:, keep]
            fresh = fresh[:, keep]
            _eliminate(self._x, coef, fresh, self.p)
            self._x = np.concatenate([self._x, fresh])
            self._pivcols += self._free[piv].tolist()
            self._free = self._free[keep]
        return self.rank

    def reduce(self, vectors) -> np.ndarray:
        """Remainders of vectors modulo the accumulated span (for membership),
        0 on the pivot columns."""
        rem = self._remainder(vectors)
        out = np.zeros((len(rem), self.ncols), dtype=np.int64)
        out[:, self._free] = rem
        return out

    def basis(self) -> np.ndarray:
        """The reduced echelon basis accumulated so far, one row per pivot."""
        out = np.zeros((self.rank, self.ncols), dtype=np.int64)
        out[np.arange(self.rank), self._pivcols] = 1
        out[:, self._free] = self._x
        return out


def add_scaled(dst: dict, src: dict, c=1) -> None:
    """dst += c * src for sparse vectors, in place, dropping entries that
    cancel."""
    for k, x in src.items():
        v = dst.get(k, 0) + c * x
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)


def _integral(row) -> tuple:
    """(den, {column: int}) with row = {column: int} / den, zero entries
    dropped, den the lcm of the entries' denominators."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    row = {j: x for j, x in items if x}
    if all(type(x) is int for x in row.values()):
        return 1, row
    row = {j: Fraction(x) for j, x in row.items()}
    den = math.lcm(*(x.denominator for x in row.values()))
    return den, {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def _primitive(row: dict, lead) -> None:
    """Divide an int row, in place, by the gcd of its entries, signed so
    that its entry at lead is positive."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g


class ExactRowReducer:
    """Incremental reduced row echelon form over Q, on sparse rows.

    A row is a dict {column: value}, its columns any sortable keys and its
    values ints or Fractions; a dense sequence is read as its nonzero
    entries.  Each pivot row is stored as a dict of ints, the rational
    reduced echelon row (1 at its pivot column, its smallest column, and 0
    at every other pivot column) scaled to the primitive integer row with a
    positive pivot entry: one integer row per rational one.  Because of the
    zeros, reducing a row only eliminates the pivot columns that occur in
    it, one pivot row each, and the remainder has no entry in any pivot
    column: its entries are the row's coordinates on the non-pivot
    columns.

    Elimination is fraction-free: a row is cleared of denominators once,
    eliminated as row <- a*row - c*pivot with a and c coprime, and carries
    the product of the a's as its denominator.  Fractions are made only
    where reduce returns them.

    Far slower than the modular accumulators for ranks alone; meant for
    spaces where exact quotient coordinates are needed.
    """

    def __init__(self):
        self.pivot_rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _remainder(self, row) -> tuple:
        # (den, int row) with row / den the remainder of row mod the span
        den, row = _integral(row)
        pivots = self.pivot_rows
        for col in [j for j in row if j in pivots]:
            pivot = pivots[col]
            c, a = row[col], pivot[col]
            g = math.gcd(c, a)
            if g != 1:
                c //= g
                a //= g
            if a != 1:
                den *= a
                for j in row:
                    row[j] *= a
            add_scaled(row, pivot, -c)
        return den, row

    def reduce(self, row) -> dict:
        """Remainder of one row modulo the accumulated span, with Fraction
        values."""
        den, row = self._remainder(row)
        return {j: Fraction(x, den) for j, x in row.items()}

    def add(self, row) -> bool:
        """Insert one row; returns True when it enlarged the span."""
        row = self._remainder(row)[1]
        if not row:
            return False
        lead = min(row)
        _primitive(row, lead)
        a = row[lead]
        for col, pivot in self.pivot_rows.items():
            c = pivot.get(lead)
            if c:
                g = math.gcd(c, a)
                if a != g:
                    for j in pivot:
                        pivot[j] *= a // g
                add_scaled(pivot, row, -(c // g))
                _primitive(pivot, col)
        self.pivot_rows[lead] = row
        return True
