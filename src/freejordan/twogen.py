"""Two-generator free Jordan algebra, realized inside the free associative
algebra on two generators.

By Cohn and Shirshov the free Jordan algebra on two generators is special:
under the symmetrized product ab = (a.b + b.a)/2 it is the subalgebra of the
free associative algebra generated by the two letters, and that subalgebra
is exactly the fixed space of the reversal antiautomorphism.  Degree-n words
are packed into bitmask integers (bit per position, most significant bit
first).  The Jordan spanning rank is certified block by block, one block
per letter content: the expansions of normal Jordan monomials are int64
arrays of word masks, counted into rows, and since every such row is
reversal-fixed (which each batch checks) a block is ranked on one column
per reversal orbit {w, reverse(w)}, about half of its words.  That keeps
the rank cheap enough to be pushed through degree 14.

The graded dimension of the quotient that measures inner derivations
follows the closed counting formula

    2^n - reversible_dim(n) - necklaces(n) + bracelets(n)

so everything in this module reduces to Burnside counts and one modular
rank per degree.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from math import comb, gcd

import numpy as np

from .errors import InfeasibleError
from .linalg import certify, choose_primes, modular_ranks


def mask_to_word(mask: int, n: int) -> tuple:
    return tuple(((mask >> (n - 1 - i)) & 1) + 1 for i in range(n))


def _reverse_mask(mask: int, n: int) -> int:
    out = 0
    for _ in range(n):
        out = (out << 1) | (mask & 1)
        mask >>= 1
    return out


def reversible_dim(n: int) -> int:
    """Dimension of the reversal-fixed space in degree n (closed formula)."""
    if n < 1:
        raise ValueError("degree must be positive")
    return (2 ** n + 2 ** ((n + 1) // 2)) // 2


def reversible_basis(n: int) -> tuple:
    """Orbit representatives {w, reverse(w)} spanning the fixed space.

    Returned as sorted bitmask pairs (w, rev) with w <= rev; palindromes
    appear with the two entries equal.  The length must agree with
    reversible_dim, which the tests check directly.
    """
    out = []
    for mask in range(2 ** n):
        rev = _reverse_mask(mask, n)
        if mask <= rev:
            out.append((mask, rev))
    return tuple(out)


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


def _content_rows(n: int, ones: int):
    """Expansions of normal Jordan monomials with `ones` second letters.

    A normal monomial is a head pair followed by factors of degree one or
    two.  An expansion is an int64 array of word masks with repeats: the
    coefficient of a word is its count, and working with 2ab = a.b + b.a
    keeps it integral (the overall power of two never affects a rank).
    The walk extends a partial expansion one factor at a time, so shared
    prefixes are expanded once, pruning on the remaining letter budget.
    """
    letters = (np.array([0]), np.array([1]))
    if n == 1:
        yield letters[ones]
        return
    pairs = {(i, j): np.array([(i << 1) | j, (j << 1) | i])
             for i, j in ((0, 0), (0, 1), (1, 1))}

    # depth-first, children in the order: pair factors xx, xy, yy, then x, y
    stack = [(f, 2, a + b) for (a, b), f in reversed(pairs.items())
             if a + b <= ones and 2 - a - b <= n - ones]
    while stack:
        state, deg, y_used = stack.pop()
        if deg == n:
            yield state
            continue
        y_left = ones - y_used
        x_left = (n - ones) - (deg - y_used)
        factors = []
        if deg + 2 <= n:
            factors += [(f, 2, i + j) for (i, j), f in pairs.items()
                        if i + j <= y_left and 2 - i - j <= x_left]
        factors += [(letters[i], 1, i) for i in (0, 1)
                    if (y_left if i else x_left) >= 1]
        for f, df, dy in reversed(factors):
            # twice state o f: the words of state.f, then those of f.state
            words = np.concatenate(
                ((state[:, None] << df) | f, (f[:, None] << deg) | state), axis=None
            )
            stack.append((words, deg + df, y_used + dy))


def _content_columns(n: int, ones: int):
    """(column, mirror, orbits) for the degree-n words with `ones` second
    letters, in increasing order: column[w] is the column of word w (-1
    for a word of another content), mirror[c] the column of the reverse
    of column c's word, and orbits the columns of the smaller word of each
    reversal orbit."""
    words = np.array([m for m in range(2 ** n) if m.bit_count() == ones])
    rev = np.zeros_like(words)
    for i in range(n):
        rev |= ((words >> i) & 1) << (n - 1 - i)
    column = np.full(2 ** n, -1)
    column[words] = np.arange(len(words))
    return column, column[rev], np.flatnonzero(words <= rev)


def _block_ranks(n: int, ones: int, primes) -> dict:
    """Modular ranks of the Jordan span restricted to one letter content.

    Expansions of monomials with a fixed letter content only touch words of
    that content, so the full expansion matrix is block diagonal and each
    block can be ranked on its own.  Every row is the expansion of a Jordan
    monomial, hence reversal-fixed: its coefficients on w and on reverse(w)
    agree.  The block is therefore ranked on one column per reversal orbit
    {w, reverse(w)}, the smaller word's: on the fixed space that projection
    is injective (a fixed vector vanishing on every orbit's smaller word
    vanishes on its mirror too), so the rank is unchanged, and the orbit
    count is the column count, at which row generation stops.

    The symmetry is checked, not assumed: each batch is counted on all the
    words of its content first, and ArithmeticError is raised unless every
    word and its reverse carry the same coefficient in every row.
    """
    column, mirror, orbits = _content_columns(n, ones)
    nwords = len(mirror)
    # every word is an orbit's smaller word or the reverse of one
    partners = mirror[orbits]

    def batches():
        rows = _content_rows(n, ones)
        while chunk := list(islice(rows, min(128, max(16, len(orbits))))):
            full = np.zeros((len(chunk), nwords), dtype=np.int64)
            for k, row in enumerate(chunk):
                cols = column[row]
                if (cols < 0).any():
                    raise ArithmeticError(
                        "degree %d expansion leaves the content with %d second letters"
                        % (n, ones)
                    )
                full[k] = np.bincount(cols, minlength=nwords)
            block = full[:, orbits]
            if not np.array_equal(block, full[:, partners]):
                raise ArithmeticError(
                    "degree %d expansion with %d second letters is not reversal-fixed"
                    % (n, ones)
                )
            yield block

    return modular_ranks(batches(), len(orbits), primes)


def jordan_span_dim(n: int, primes=None) -> int:
    """Rank of the span of straightened Jordan monomials in degree n;
    refuses degrees above 14."""
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
    total = 0
    for ones in range(n // 2 + 1):
        # swapping the two letters matches the block with its mirror
        weight = 1 if 2 * ones == n else 2
        total += weight * certify(_block_ranks(n, ones, primes))
    return total


@cache
def _predicted_dims(N: int) -> tuple:
    from .lambda_ring import dims_from_character, km_prediction

    a, b = km_prediction(2, N)
    return dims_from_character(a, 2).dims, dims_from_character(b, 2).dims


def two_gen_table(max_degree: int = 20, span_bound: int = 12, predictions: bool = True) -> list:
    """Per-degree comparison table: actual dimensions against predictions.

    Each row carries the degree, the reversible dimension, the Jordan
    spanning rank (None above span_bound), the inner-derivation dimension,
    the predicted counterparts, and match flags.
    """
    pred_a = pred_b = None
    if predictions:
        pred_a, pred_b = _predicted_dims(max_degree)
    rows = []
    for n in range(1, max_degree + 1):
        rev = reversible_dim(n)
        span = jordan_span_dim(n) if n <= span_bound else None
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
