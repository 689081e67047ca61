"""Matrices for irreducible S_n representations via Clifton's algorithm.

Permutations are 0-indexed tuples: p[k] is the image of k, and
compose(p, q)[k] = p[q[k]].  Tableaux hold the values 0..n-1.

For standard tableaux t_1..t_h of a shape, the matrix A(sigma) has entry
(i, j) determined by superimposing t_i on sigma t_j: it vanishes unless
each column of sigma t_j can be permuted so that every value lands in the
row it occupies in t_i, and is then the sign of that column permutation.
The representing matrix is rho(sigma) = A(id)^{-1} A(sigma); ranks of
stacked A-blocks are unchanged by dropping the A(id)^{-1} factor, so the
package works with A alone, in small integers.

clifton_matrix keeps nothing between calls (one matrix per permutation
adds up to gigabytes over a degree-10 shape); operad memoises them for
one call of multiplicity.
"""

from __future__ import annotations

import itertools
from functools import cache

import numpy as np

from .partitions import transpose


def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def inverse_perm(p: tuple) -> tuple:
    out = [0] * len(p)
    for k, v in enumerate(p):
        out[v] = k
    return tuple(out)


def compose_perms(p: tuple, q: tuple) -> tuple:
    """First apply q, then p."""
    return tuple(p[q[k]] for k in range(len(q)))


def perm_sign(p: tuple) -> int:
    seen = [False] * len(p)
    sign = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@cache
def standard_tableaux(shape: tuple) -> tuple:
    """All standard tableaux of the shape, sorted by row-reading word.

    Each tableau is a tuple of row tuples filled with 0..n-1.
    """
    n = sum(shape)
    rows = len(shape)
    results = []

    def place(value, filled):
        if value == n:
            results.append(tuple(tuple(r) for r in filled))
            return
        for i in range(rows):
            j = len(filled[i])
            if j >= shape[i]:
                continue
            if i > 0 and len(filled[i - 1]) <= j:
                continue
            filled[i].append(value)
            place(value + 1, filled)
            filled[i].pop()

    place(0, [[] for _ in range(rows)])
    results.sort(key=lambda t: tuple(itertools.chain.from_iterable(t)))
    return tuple(results)


@cache
def _shape_data(shape: tuple):
    """Row lookup table and column-major cell lists shared by all sigma."""
    tabs = standard_tableaux(shape)
    h = len(tabs)
    n = sum(shape)
    row_of = np.zeros((h, n), dtype=np.int8)
    for i, t in enumerate(tabs):
        for r, row in enumerate(t):
            for v in row:
                row_of[i, v] = r
    heights = transpose(shape)
    # cells enumerated column by column, top to bottom
    cellvals = np.zeros((h, n), dtype=np.int64)
    for j, t in enumerate(tabs):
        pos = 0
        for c, hc in enumerate(heights):
            for r in range(hc):
                cellvals[j, pos] = t[r][c]
                pos += 1
    segments = []
    pos = 0
    for hc in heights:
        segments.append((pos, hc))
        pos += hc
    return row_of, cellvals, tuple(segments)


def clifton_matrix(shape: tuple, sigma: tuple) -> np.ndarray:
    """A(sigma) as a read-only int8 matrix with entries in {-1, 0, 1}."""
    row_of, cellvals, segments = _shape_data(shape)
    h = row_of.shape[0]
    s = np.asarray(sigma, dtype=np.int64)
    images = s[cellvals]  # (j, cell) -> value in sigma t_j at that cell
    targets = row_of[:, images]  # (i, j, cell) -> required row under t_i
    acc = np.ones((h, h), dtype=np.int8)
    for start, hc in segments:
        seg = targets[:, :, start : start + hc]
        if hc == 1:
            acc *= seg[:, :, 0] == 0
            continue
        valid = np.all(np.sort(seg, axis=2) == np.arange(hc, dtype=np.int8), axis=2)
        inv = np.zeros((h, h), dtype=np.int64)
        for a in range(hc):
            for b in range(a + 1, hc):
                inv += seg[:, :, a] > seg[:, :, b]
        term = np.where(valid, 1 - 2 * (inv & 1), 0).astype(np.int8)
        acc *= term
    acc.setflags(write=False)
    return acc
