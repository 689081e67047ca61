"""Two-generator free Jordan algebra, realized inside the free associative
algebra on two generators.

By Cohn and Shirshov the free Jordan algebra on two generators is special:
under the symmetrized product ab = (a.b + b.a)/2 it is the subalgebra of the
free associative algebra generated by the two letters, and that subalgebra
is exactly the fixed space of the reversal antiautomorphism.  Degree-n words
are packed into bitmask integers (bit per position, most significant bit
first), which keeps the fixed-space construction and the Jordan spanning
rank cheap enough to be pushed through degree 14.

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


def _sym_concat(u: dict, v: dict, deg_u: int, deg_v: int) -> dict:
    """Twice the symmetrized product of two expanded elements.

    Working with 2*ab = a.b + b.a keeps all coefficients integral; the
    overall power of two never affects a rank.
    """
    out = {}
    for mu, cu in u.items():
        for mv, cv in v.items():
            c = cu * cv
            k = (mu << deg_v) | mv
            out[k] = out.get(k, 0) + c
            k = (mv << deg_u) | mu
            out[k] = out.get(k, 0) + c
    return out


def _content_rows(n: int, ones: int):
    """Expansions of normal Jordan monomials with `ones` second letters.

    A normal monomial is a head pair followed by factors of degree one or
    two; the walk extends a partial expansion one factor at a time so
    shared prefixes are expanded once, pruning on the remaining letter
    budget.
    """
    letters = ({0: 1}, {1: 1})
    if n == 1:
        yield letters[ones]
        return
    pairs = ((0, 0), (0, 1), (1, 1))

    def extend(state: dict, deg: int, y_used: int):
        if deg == n:
            yield state
            return
        y_left = ones - y_used
        x_left = (n - ones) - (deg - y_used)
        if deg + 2 <= n:
            for i, j in pairs:
                dy = i + j
                if dy <= y_left and 2 - dy <= x_left:
                    factor = _sym_concat(letters[i], letters[j], 1, 1)
                    yield from extend(
                        _sym_concat(state, factor, deg, 2), deg + 2, y_used + dy
                    )
        for i in (0, 1):
            if (y_left if i else x_left) >= 1:
                yield from extend(
                    _sym_concat(state, letters[i], deg, 1), deg + 1, y_used + i
                )

    for a, b in pairs:
        dy = a + b
        if dy <= ones and 2 - dy <= n - ones:
            yield from extend(_sym_concat(letters[a], letters[b], 1, 1), 2, dy)


@cache
def _fixed_dims_by_weight(n: int) -> tuple:
    """Reversal-orbit counts per second-letter count, degrees packed as bits."""
    counts = [0] * (n + 1)
    for mask in range(2 ** n):
        if mask <= _reverse_mask(mask, n):
            counts[bin(mask).count("1")] += 1
    return tuple(counts)


def _block_ranks(n: int, ones: int, primes) -> dict:
    """Modular ranks of the Jordan span restricted to one letter content.

    Expansions of monomials with a fixed letter content only touch words of
    that content, so the full expansion matrix is block diagonal and each
    block can be ranked on its own.  Rows stay inside the reversal-fixed
    subspace, which caps the block rank at the per-content orbit count; row
    generation stops early once every prime reaches the cap.
    """
    cols = [m for m in range(2 ** n) if bin(m).count("1") == ones]
    index = {m: i for i, m in enumerate(cols)}
    target = _fixed_dims_by_weight(n)[ones]

    def batches():
        rows = _content_rows(n, ones)
        while chunk := list(islice(rows, min(128, max(16, target)))):
            batch = np.zeros((len(chunk), len(cols)), dtype=np.int64)
            for k, row in enumerate(chunk):
                for mask, c in row.items():
                    batch[k, index[mask]] = c
            yield batch

    return modular_ranks(batches(), len(cols), primes, cap=target)


def jordan_span_dim(n: int, primes=None) -> int:
    """Rank of the span of straightened Jordan monomials in degree n;
    refuses degrees above 14."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n > 14:
        raise InfeasibleError(
            "degree %d Jordan span needs a %d-column expansion matrix" % (n, 2 ** n),
            estimate="2^%d columns, rank target %d" % (n, reversible_dim(n)),
        )
    # the widest content block has n//2 second letters
    primes = choose_primes(comb(n, n // 2), n, primes)
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
