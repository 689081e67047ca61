import itertools
import random
from functools import cache
from math import factorial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freejordan.linalg import bareiss_rank
from freejordan.partitions import character, dim_irrep, partitions
from freejordan.symreps import (
    clifton_matrix,
    compose_perms,
    identity_perm,
    inverse_perm,
    perm_sign,
    standard_tableaux,
)


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


@cache
def a_identity_inverse(shape):
    """The int64 inverse of A(id), checked exactly: A(id) is unimodular."""
    a = clifton_matrix(shape, identity_perm(sum(shape))).astype(np.int64)
    inv = np.rint(np.linalg.inv(a)).astype(np.int64)
    assert np.array_equal(inv @ a, np.eye(len(a), dtype=np.int64))
    return inv


def int_rep_matrix(shape, sigma):
    """rho(sigma) = A(id)^{-1} A(sigma), exact in int64."""
    return a_identity_inverse(shape) @ clifton_matrix(shape, sigma)


def test_perm_helpers():
    p = (2, 0, 1, 4, 3)
    assert compose_perms(inverse_perm(p), p) == identity_perm(5)
    assert compose_perms(p, inverse_perm(p)) == identity_perm(5)
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign(identity_perm(7)) == 1


def test_tableau_counts_match_hook_formula():
    for n in range(8):
        for shape in partitions(n):
            assert len(standard_tableaux(shape)) == dim_irrep(shape)


def test_standard_tableaux_are_standard():
    for shape in partitions(6):
        for t in standard_tableaux(shape):
            for i, row in enumerate(t):
                assert all(a < b for a, b in zip(row, row[1:]))
                if i > 0:
                    assert all(t[i - 1][j] < row[j] for j in range(len(row)))


def test_worked_example_two_one():
    # shape (2,1), sigma = swap of 0 and 1
    a = clifton_matrix((2, 1), (1, 0, 2))
    assert a.tolist() == [[1, 0], [-1, -1]]
    assert clifton_matrix((2, 1), (0, 1, 2)).tolist() == [[1, 0], [0, 1]]


def test_single_row_and_single_column():
    for sigma in itertools.permutations(range(4)):
        assert clifton_matrix((4,), sigma).tolist() == [[1]]
        assert clifton_matrix((1, 1, 1, 1), sigma).tolist() == [[perm_sign(sigma)]]


def test_rep_is_homomorphism_exhaustive_small():
    for n in range(1, 5):
        perms = list(itertools.permutations(range(n)))
        for shape in partitions(n):
            rho = {s: int_rep_matrix(shape, s) for s in perms}
            for p, q in itertools.product(perms, repeat=2):
                assert np.array_equal(rho[compose_perms(p, q)], rho[p] @ rho[q])


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=40, deadline=None)
def test_rep_is_homomorphism_sampled(n, data):
    p = tuple(data.draw(st.permutations(range(n))))
    q = tuple(data.draw(st.permutations(range(n))))
    shape = data.draw(st.sampled_from(partitions(n)))
    left = int_rep_matrix(shape, compose_perms(p, q))
    right = int_rep_matrix(shape, p) @ int_rep_matrix(shape, q)
    assert np.array_equal(left, right)


def test_trace_equals_character():
    for n in range(1, 6):
        for shape in partitions(n):
            for sigma in itertools.permutations(range(n)):
                expected = character(shape, cycle_type_of(sigma))
                assert np.trace(int_rep_matrix(shape, sigma)) == expected


def test_trace_spot_checks_n6():
    rng = random.Random(20)
    perms = [tuple(rng.sample(range(6), 6)) for _ in range(8)]
    for shape in partitions(6):
        for sigma in perms:
            trace = np.trace(int_rep_matrix(shape, sigma))
            assert trace == character(shape, cycle_type_of(sigma))


def test_group_average_kills_nontrivial_irreducibles():
    for n in range(1, 5):
        for shape in partitions(n):
            perms = itertools.permutations(range(n))
            total = sum(int_rep_matrix(shape, s) for s in perms)
            if shape == (n,):
                assert total.tolist() == [[factorial(n)]]
            else:
                assert total.shape == (dim_irrep(shape),) * 2 and not total.any()


def test_raw_blocks_have_same_rank_as_rep_blocks():
    # stacking A(sigma) vs rho(sigma): ranks agree since the stacks differ
    # by a block-diagonal invertible left factor
    rng = random.Random(7)
    for shape in [(2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]:
        n = sum(shape)
        sigmas = [tuple(rng.sample(range(n), n)) for _ in range(3)]
        raw = []
        rep = []
        for s in sigmas:
            raw.extend([int(x) for x in row] for row in clifton_matrix(shape, s))
            rep.extend(int_rep_matrix(shape, s).tolist())
        assert bareiss_rank(raw) == bareiss_rank(rep)


def test_clifton_entries_are_signs():
    rng = random.Random(3)
    for shape in partitions(6):
        for _ in range(5):
            s = tuple(rng.sample(range(6), 6))
            a = clifton_matrix(shape, s)
            assert a.dtype == np.int8
            assert set(np.unique(a)) <= {-1, 0, 1}
