import itertools
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freejordan.partitions import (
    SnModule,
    character,
    dim_irrep,
    kostka,
    partitions,
    transpose,
    zee,
)


# --- oracles ------------------------------------------------------------


@cache
def pentagonal_p(n):
    # Euler's recurrence, independent of the generator in partitions()
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (pentagonal_p(n - g1) + pentagonal_p(n - g2))
        k += 1
    return total


def brute_ssyt_count(shape, content):
    """Fill cells row by row, checking rows weakly / columns strictly."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    budget = list(content)

    def rec(idx, grid):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(1, len(content) + 1):
            if budget[v - 1] == 0:
                continue
            if j > 0 and grid[(i, j - 1)] > v:
                continue
            if i > 0 and grid[(i - 1, j)] >= v:
                continue
            budget[v - 1] -= 1
            grid[(i, j)] = v
            total += rec(idx + 1, grid)
            del grid[(i, j)]
            budget[v - 1] += 1
        return total

    return rec(0, {})


def brute_syt_count(shape):
    return brute_ssyt_count(shape, (1,) * sum(shape))


def cycle_type_of(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


# --- partition generation -----------------------------------------------


def test_partition_counts_match_pentagonal_recurrence():
    for n in range(13):
        assert len(partitions(n)) == pentagonal_p(n)


def test_partitions_reverse_lex_and_valid():
    for n in range(1, 11):
        ps = partitions(n)
        assert ps[0] == (n,)
        assert ps[-1] == (1,) * n
        for p in ps:
            assert sum(p) == n
            assert all(a >= b for a, b in zip(p, p[1:]))
            assert all(x > 0 for x in p)
        assert list(ps) == sorted(ps, reverse=True)
        assert len(set(ps)) == len(ps)


def test_transpose_involution():
    for n in range(1, 10):
        for p in partitions(n):
            assert transpose(transpose(p)) == p


# --- dimensions ----------------------------------------------------------


def test_dim_matches_standard_tableaux_count():
    for n in range(1, 7):
        for shape in partitions(n):
            assert dim_irrep(shape) == brute_syt_count(shape)


def test_sum_of_squares_is_group_order():
    for n in range(1, 9):
        assert sum(dim_irrep(p) ** 2 for p in partitions(n)) == factorial(n)


# --- characters ----------------------------------------------------------


def test_known_s4_character_table():
    # rows: shape, columns: classes (1^4), (2,1,1), (2,2), (3,1), (4)
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    table = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    for shape, row in table.items():
        assert [character(shape, mu) for mu in classes] == row


def test_character_at_identity_is_dimension():
    for n in range(1, 8):
        e = (1,) * n
        for shape in partitions(n):
            assert character(shape, e) == dim_irrep(shape)


def test_sign_representation_values():
    for n in range(1, 9):
        for mu in partitions(n):
            sign = (-1) ** (n - len(mu))
            assert character((1,) * n, mu) == sign
            assert character((n,), mu) == 1


def test_row_orthogonality():
    for n in range(1, 8):
        shapes = partitions(n)
        for lam, nu in itertools.product(shapes, repeat=2):
            dot = sum(
                character(lam, mu) * character(nu, mu) * factorial(n) // zee(mu)
                for mu in partitions(n)
            )
            assert dot == (factorial(n) if lam == nu else 0)


def test_transpose_twists_by_sign():
    for n in range(1, 8):
        for shape in partitions(n):
            for mu in partitions(n):
                sign = (-1) ** (n - len(mu))
                assert character(transpose(shape), mu) == sign * character(shape, mu)


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_character_constant_on_conjugacy_classes(n, data):
    perm = data.draw(st.permutations(range(n)))
    mu = cycle_type_of(perm)
    for shape in partitions(n):
        assert character(shape, mu) == character(shape, tuple(sorted(mu, reverse=True)))


# --- Kostka numbers -------------------------------------------------------


def test_kostka_against_brute_force():
    for n in range(1, 7):
        for shape in partitions(n):
            for content in partitions(n):
                assert kostka(shape, content) == brute_ssyt_count(shape, content)


def test_kostka_classics():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 1), (2, 1, 1)) == 2
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((2, 1, 1), (2, 2)) == 0
    for n in range(1, 8):
        for shape in partitions(n):
            assert kostka(shape, shape) == 1
            assert kostka(shape, (1,) * n) == dim_irrep(shape)
            # dominance: content (n,) only fits in the single-row shape
            assert kostka(shape, (n,)) == (1 if shape == (n,) else 0)


def test_kostka_content_order_irrelevant():
    for shape in partitions(5):
        for content in partitions(5):
            for perm in itertools.permutations(content):
                assert kostka(shape, perm) == kostka(shape, content)


# --- modules --------------------------------------------------------------


def test_snmodule_dimension_and_effectivity():
    m = SnModule(3, {(3,): 1, (2, 1): 2})
    assert m.dimension() == 1 + 2 * 2
    assert m.is_effective()
    assert SnModule(3, {}).dimension() == 0


def test_snmodule_drops_zeros_and_validates():
    assert SnModule(4, {(4,): 1, (3, 1): 0}) == SnModule(4, {(4,): 1})
    assert not SnModule(2, {(2,): -1, (1, 1): 3}).is_effective()
    with pytest.raises(ValueError):
        SnModule(3, {(4,): 1})


def test_regular_representation_decomposition():
    for n in range(1, 7):
        reg = SnModule(n, {p: dim_irrep(p) for p in partitions(n)})
        assert reg.dimension() == factorial(n)
