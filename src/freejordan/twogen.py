"""Two-generator free Jordan algebra, realized inside the free associative
algebra on two generators.

By Cohn and Shirshov the free Jordan algebra on two generators is special:
under the symmetrized product ab = (a.b + b.a)/2 it is the subalgebra of the
free associative algebra generated by the two letters, and that subalgebra
is exactly the fixed space of the reversal antiautomorphism.  Degree-n words
are packed into bitmask integers (bit per position, most significant bit
first).  The Jordan spanning rank is certified block by block, one block
per letter content, and built degree by degree, one prime at a time: each
normal Jordan monomial of degree n >= 2 is a product m o f of a lower one
with a factor x, y, xx, xy or yy, so a block's span mod p is spanned by
the products of the lower blocks' echelon bases with the factors.  Those
products are rows on the block's words, and since every such row is
reversal-fixed (which each batch checks) a block is ranked on one column
per reversal orbit {w, reverse(w)}, about half of its words.  A block
with more second letters than first is its letter-swap mirror.  That
keeps the rank cheap enough to be pushed through degree 14.  One walk
of the degrees per prime reports every degree's ranks, and the primes
are walked by the rule of `linalg.certified_ranks`: by Cohn and Shirshov
every block is full, so the first prime is the only one walked.

The graded dimension of the quotient that measures inner derivations
follows the closed counting formula

    2^n - reversible_dim(n) - necklaces(n) + bracelets(n)

so everything in this module reduces to Burnside counts and the modular
ranks of the span.
"""

from __future__ import annotations

from functools import cache, partial
from math import comb

import numpy as np

from .errors import InfeasibleError
from .linalg import RankAccumulator, certified_ranks, choose_primes
from .partitions import character, dim_irrep


def reversible_dim(n: int) -> int:
    """Dimension of the reversal-fixed space in degree n (closed formula)."""
    if n < 1:
        raise ValueError("degree must be positive")
    return (2 ** n + 2 ** ((n + 1) // 2)) // 2


def two_row_multiplicity(shape: tuple) -> int:
    """Multiplicity of S^shape in Jord(n), n = |shape|, for a shape with at
    most two rows: (f^shape + chi^shape(w0))/2, w0 of cycle type
    2^{n//2} 1^{n%2}.

    For such shapes it is the multiplicity of the GL_2-irreducible of that
    highest weight in J(2)_n (Schur-Weyl), and by Cohn-Shirshov J(2)_n is
    the reversal-fixed part of V^{(x)n}, dim V = 2.  The reversal permutes
    the tensor positions by the involution w0, so it fixes a space of
    dimension (f + chi(w0))/2 in each S^shape."""
    if len(shape) > 2:
        raise ValueError("shape %s has more than two rows" % (shape,))
    n = sum(shape)
    w0 = (2,) * (n // 2) + (1,) * (n % 2)
    return (dim_irrep(shape) + character(shape, w0)) // 2


def _totient(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def necklace_count(n: int) -> int:
    """Binary strings of length n up to rotation (Burnside over C_n)."""
    if n < 1:
        raise ValueError("degree must be positive")
    return sum(_totient(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def bracelet_count(n: int) -> int:
    """Binary strings of length n up to rotation and reflection."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n % 2:
        flips = n * 2 ** ((n + 1) // 2)
    else:
        flips = (n // 2) * (2 ** (n // 2 + 1) + 2 ** (n // 2))
    return (necklace_count(n) + flips // n) // 2


def b_dim_two_gen(n: int) -> int:
    """Graded dimension of the inner-derivation functor on two generators."""
    return 2 ** n - reversible_dim(n) - necklace_count(n) + bracelet_count(n)


def _reversal_orbits(n: int, ones: int) -> int:
    """Reversal orbits among the degree-n words with `ones` second letters:
    half of the words plus half of the palindromes."""
    palindromes = 0 if n % 2 == 0 and ones % 2 else comb(n // 2, ones // 2)
    return (comb(n, ones) + palindromes) // 2


# twice the product with each factor f of a normal monomial, 2(a o f) =
# a.f + f.a: (degree, second letters, the words of 2f with repeats)
_FACTORS = (
    (1, 0, (0b0,)),  # x
    (1, 1, (0b1,)),  # y
    (2, 0, (0b00, 0b00)),  # 2xx
    (2, 1, (0b01, 0b10)),  # 2(x o y)
    (2, 2, (0b11, 0b11)),  # 2yy
)


def _content_columns(n: int, ones: int):
    """(column, mirror, orbits) for the degree-n words with `ones` second
    letters, in increasing order: column[w] is the column of word w (-1
    for a word of another content), mirror[c] the column of the reverse
    of column c's word, and orbits the columns of the smaller word of each
    reversal orbit."""
    masks = np.arange(2 ** n)
    weight = np.zeros_like(masks)
    for i in range(n):
        weight += (masks >> i) & 1
    words = masks[weight == ones]
    rev = np.zeros_like(words)
    for i in range(n):
        rev |= ((words >> i) & 1) << (n - 1 - i)
    column = np.full(2 ** n, -1)
    column[words] = np.arange(len(words))
    return column, column[rev], np.flatnonzero(words <= rev)


def _lower_basis(d: int, ones: int, accs: dict):
    """(words, basis, orbit_of) for block (d, ones): its words in increasing
    order, the echelon basis in `accs` on its orbit columns, and for each
    word the orbit column of its orbit, so that basis[:, orbit_of] holds
    the basis rows on every word, reversal-fixed.  A block with more second
    letters than first is read off the block of its letter swap:
    complementing the bits reverses the order of the sorted words, so its
    orbit_of is that block's, reversed."""
    swap = 2 * ones > d
    column, mirror, orbits = _content_columns(d, d - ones if swap else ones)
    words = np.flatnonzero(column >= 0)
    position = np.zeros(len(mirror), dtype=np.int64)
    position[orbits] = np.arange(len(orbits))
    # every word is an orbit's smaller word or the reverse of one
    orbit_of = position[np.minimum(np.arange(len(mirror)), mirror)]
    if swap:
        words = ((1 << d) - 1) ^ words[::-1]
        orbit_of = orbit_of[::-1]
    return words, accs[d, d - ones if swap else ones].basis(), orbit_of


def _block(n: int, ones: int, p: int, accs: dict) -> RankAccumulator:
    """The span over F_p of block (n, ones), from the blocks of the two
    degrees below in `accs`.

    For n >= 2 the normal monomials of degree n are the products m o f of
    a normal monomial m of degree n - |f| with a factor f of _FACTORS,
    two-letter factors only where m has degree two or more.  Since
    a -> 2(a o f) is linear over Z, the block's span mod p is the sum of
    the products of the lower blocks' echelon bases with the factors, so
    its rank over F_p is that of every expanded monomial.  The block is
    ranked on one column per reversal orbit {w, reverse(w)}, the smaller
    word's: on the fixed space that projection is injective, so the rank
    is unchanged, and the orbit count is the column count, at which the
    products stop.

    The symmetry is checked, not assumed: each batch is built on all the
    words of the content first, and ArithmeticError is raised for a word
    of another content or unless every word and its reverse carry the
    same coefficient in every row.
    """
    column, mirror, orbits = _content_columns(n, ones)
    partners = mirror[orbits]
    acc = RankAccumulator(len(orbits), p)
    if n == 1:
        acc.add([[1]])  # the letter
        return acc
    for deg, dy, factor in _FACTORS:
        low = n - deg
        if low < deg or not 0 <= ones - dy <= low:
            continue
        words, basis, orbit_of = _lower_basis(low, ones - dy, accs)
        for start in range(0, len(basis), 256):
            rows = basis[start : start + 256][:, orbit_of]
            full = np.zeros((len(rows), len(mirror)), dtype=np.int64)
            for f in factor:
                for cols in (column[(words << deg) | f], column[(f << low) | words]):
                    if (cols < 0).any():
                        raise ArithmeticError(
                            "degree %d expansion leaves the content with %d second letters"
                            % (n, ones)
                        )
                    full[:, cols] += rows
            block = full[:, orbits]
            if not np.array_equal(block, full[:, partners]):
                raise ArithmeticError(
                    "degree %d expansion with %d second letters is not reversal-fixed"
                    % (n, ones)
                )
            acc.add(block)
            if acc.is_full:
                return acc
    return acc


def _span_ranks(n: int, p: int) -> list:
    """Ranks over F_p of the Jordan span's blocks (d, ones), ones =
    0..d//2, for d = 1..n, in that order, built degree by degree.  Only
    the last two degrees' bases are kept."""
    accs, ranks = {}, []
    for d in range(1, n + 1):
        accs = {key: acc for key, acc in accs.items() if key[0] >= d - 2}
        for ones in range(d // 2 + 1):
            accs[d, ones] = _block(d, ones, p, accs)
            ranks.append(accs[d, ones].rank)
    return ranks


def _span_dims(n: int, primes=None) -> list:
    """Ranks of the span of straightened Jordan monomials in degrees 1..n,
    each block certified over its reversal orbits by the walk rule of
    `linalg.certified_ranks`; refuses degrees above 14.  By Cohn-Shirshov
    every block is full, so one prime is walked."""
    if n < 1:
        raise ValueError("degree must be positive")
    # the widest content block has n//2 second letters
    width = _reversal_orbits(n, n // 2)
    if n > 14:
        raise InfeasibleError(
            "degree %d Jordan span needs a %d-column block (the reversal orbits "
            "of words with %d second letters)" % (n, width, n // 2),
            estimate="%d orbit columns, rank target %d" % (width, reversible_dim(n)),
        )
    primes = choose_primes(width, n, primes)
    blocks = [(d, ones) for d in range(1, n + 1) for ones in range(d // 2 + 1)]
    ranks = certified_ranks(primes, partial(_span_ranks, n),
                            [_reversal_orbits(d, ones) for d, ones in blocks])
    dims = [0] * n
    for (d, ones), rank in zip(blocks, ranks):
        dims[d - 1] += rank if 2 * ones == d else 2 * rank
    return dims


def jordan_span_dim(n: int, primes=None) -> int:
    """Rank of the span of straightened Jordan monomials in degree n;
    refuses degrees above 14.

    The span is block diagonal, one block per letter content, built
    degree by degree from the two degrees below (_block) and certified by
    _span_dims.  Swapping the two letters matches block (n, ones) with
    (n, n - ones), so only ones <= n//2 is ranked."""
    return _span_dims(n, primes)[-1]


@cache
def _predicted_dims(N: int) -> tuple:
    from .lambda_ring import dims_from_character, km_prediction

    a, b = km_prediction(2, N)
    return dims_from_character(a, 2).dims, dims_from_character(b, 2).dims


def two_gen_table(max_degree: int = 20, span_bound: int = 12, predictions: bool = True) -> list:
    """Per-degree comparison table: actual dimensions against predictions.

    Each row carries the degree, the reversible dimension, the Jordan
    spanning rank (None above span_bound), the inner-derivation dimension,
    the predicted counterparts, and match flags.  The spanning ranks of
    every degree come from one walk of the degrees (_span_dims).
    """
    pred_a = pred_b = None
    if predictions:
        pred_a, pred_b = _predicted_dims(max_degree)
    top = min(span_bound, max_degree)
    spans = _span_dims(top) if top >= 1 else []
    rows = []
    for n in range(1, max_degree + 1):
        rev = reversible_dim(n)
        span = spans[n - 1] if n <= len(spans) else None
        bdim = b_dim_two_gen(n)
        row = {
            "n": n,
            "reversible_dim": rev,
            "jordan_span_dim": span,
            "b_dim": bdim,
        }
        if predictions:
            row["predicted_dim"] = pred_a[n - 1]
            row["predicted_b_dim"] = pred_b[n - 1]
            row["dim_match"] = pred_a[n - 1] == rev
            row["b_dim_match"] = pred_b[n - 1] == bdim
        rows.append(row)
    return rows
