"""Partitions, irreducible S_n characters, and Kostka numbers.

Partitions are tuples of weakly decreasing positive integers. Characters
come from the Murnaghan-Nakayama rule, dimensions from hook lengths; both
are exact integers. All functions are memoized and pure, so concurrent
readers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import factorial


@cache
def partitions(n: int, max_part: int | None = None) -> tuple:
    """All partitions of n in reverse lexicographic order ((n,) first)."""
    if n < 0:
        raise ValueError("negative n")
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def transpose(shape: tuple) -> tuple:
    if not shape:
        return ()
    return tuple(
        sum(1 for part in shape if part > i) for i in range(shape[0])
    )


@cache
def dim_irrep(shape: tuple) -> int:
    """Dimension of the irreducible S_n-module, by the hook length formula."""
    n = sum(shape)
    cols = transpose(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(n) // hooks


def _strip_removals(shape: tuple, length: int):
    """Ways to remove a border strip of given length: (new shape, height)."""
    # border strip removal: work with the beta-set (first-column hook lengths)
    edges = [shape[i] + len(shape) - 1 - i for i in range(len(shape))]
    out = []
    taken = set(edges)
    for i, e in enumerate(edges):
        low = e - length
        if low < 0 or low in taken:
            continue
        new_edges = sorted(edges[:i] + [low] + edges[i + 1 :], reverse=True)
        height = sum(1 for x in edges if low < x < e)
        new_shape = tuple(
            x - (len(new_edges) - 1 - k)
            for k, x in enumerate(new_edges)
        )
        new_shape = tuple(x for x in new_shape if x > 0)
        out.append((new_shape, height))
    return out


@cache
def character(shape: tuple, cycle_type: tuple) -> int:
    """chi^shape on the conjugacy class of the given cycle type."""
    if sum(shape) != sum(cycle_type):
        raise ValueError("size mismatch: %s vs %s" % (shape, cycle_type))
    if not shape:
        return 1
    longest = max(cycle_type)
    rest = list(cycle_type)
    rest.remove(longest)
    rest = tuple(rest)
    total = 0
    for smaller, height in _strip_removals(shape, longest):
        total += (-1) ** height * character(smaller, rest)
    return total


@cache
def kostka(shape: tuple, content: tuple) -> int:
    """Number of semistandard tableaux of the given shape and content.

    Peels the largest entry off as a horizontal strip.
    """
    if sum(shape) != sum(content):
        return 0
    if not content:
        return 1
    last = content[-1]
    head = content[:-1]
    total = 0
    for smaller in _horizontal_strip_removals(shape, last):
        total += kostka(smaller, head)
    return total


def _horizontal_strip_removals(shape: tuple, size: int):
    """Shapes mu <= shape with shape/mu a horizontal strip of given size."""
    rows = len(shape)
    out = []

    def rec(i, remaining, acc):
        if i == rows:
            if remaining == 0:
                out.append(tuple(x for x in acc if x > 0))
            return
        below = shape[i + 1] if i + 1 < rows else 0
        lo = max(below, shape[i] - remaining)
        for keep in range(lo, shape[i] + 1):
            # horizontal strip: kept row i must not poke under row i-1's kept cells
            if i > 0 and keep > acc[-1]:
                continue
            rec(i + 1, remaining - (shape[i] - keep), acc + [keep])

    rec(0, size, [])
    return out


def zee(cycle_type: tuple) -> int:
    """Order of the centralizer of a permutation with this cycle type."""
    z = 1
    seen = {}
    for part in cycle_type:
        z *= part
        seen[part] = seen.get(part, 0) + 1
    for m in seen.values():
        z *= factorial(m)
    return z


@dataclass
class SnModule:
    """A (virtual) S_n-module given by multiplicities of irreducibles."""

    n: int
    mults: dict = field(default_factory=dict)

    def __post_init__(self):
        self.mults = {
            tuple(k): int(v) for k, v in self.mults.items() if v
        }
        for shape in self.mults:
            if sum(shape) != self.n:
                raise ValueError("%s is not a partition of %d" % (shape, self.n))

    def dimension(self) -> int:
        return sum(m * dim_irrep(s) for s, m in self.mults.items())

    def is_effective(self) -> bool:
        return all(m >= 0 for m in self.mults.values())

