import random
from fractions import Fraction
from functools import partial
from itertools import permutations

import numpy as np
import pytest

from freejordan import tables
from freejordan.errors import InfeasibleError
from freejordan.linalg import RankAccumulator, blas_primes
from freejordan.operad import (
    _projected_widths,
    _row_batches,
    _sigma_expansion,
    _slot_kernels,
    _translate_span,
    _tree_basis,
    _tree_consequences,
    consequences,
    jord_module,
    jordan_identity_count,
    multiplicity,
    naive_dim,
    naive_module,
    tree_space_character,
)
from freejordan.partitions import SnModule, dim_irrep, partitions
from freejordan.symreps import clifton_matrix
from freejordan.trees import (
    monomial_key,
    monomial_slot_labels,
    monomial_to_tree,
    monomial_type,
    node,
    leaf,
    normal_types,
    straighten,
    type_swap_perms,
)
from test_trees import eval_monomials, eval_tree, random_symmetric, random_tree

# 31-bit primes: the band products are int64 on residues near 2^31
P31 = (2147483647, 2147483629)


def test_generator_counts():
    assert [len(consequences(n)) for n in range(4, 11)] == [
        1, 3, 8, 18, 40, 86, 182,
    ]
    assert [jordan_identity_count(n) for n in range(1, 9)] == [
        0, 0, 0, 1, 5, 30, 210, 1680,
    ]
    for n in (4, 5, 6):
        assert len(_tree_consequences(n)) == jordan_identity_count(n)


def test_consequences_on_one_table_equal_a_fresh_table_per_row(monkeypatch):
    import freejordan.operad as operad_mod
    from freejordan.multidegree import _Products

    class FreshPerRow(_Products):
        def rows(self, slots):
            # each slot tuple's row on a fresh table, in this table's ids
            indptr, ids, vals = [0], [], []
            for slot in slots:
                fresh = _Products()
                _, i, v = fresh.rows([[fresh.id(self.mons[j]) for j in slot]])
                if len(i):  # zero rows are dropped
                    indptr.append(indptr[-1] + len(i))
                    ids += [self.id(fresh.mons[j]) for j in i.tolist()]
                    vals += v.tolist()
            return np.array(indptr), np.array(ids, dtype=np.int64), np.array(vals)

    want = {n: consequences(n) for n in range(4, 9)}
    monkeypatch.setattr(operad_mod, "_Products", FreshPerRow)
    for n in range(4, 9):
        # the lower degrees' rows, appended, come from the cache: each
        # degree's own fresh rows are compared in turn
        assert consequences.__wrapped__(n) == want[n], n


def test_consequences_are_normal_multilinear():
    for n in (4, 5, 6):
        for gen in consequences(n):
            assert gen
            for m, c in gen.items():
                assert c != 0
                assert monomial_key(m[0], m[1]) == m
                assert monomial_type(m) in normal_types(n)
                assert sorted(monomial_slot_labels(m)) == list(range(1, n + 1))


def test_consequences_vanish_on_symmetric_matrices():
    # every generator is an identity of any special Jordan algebra
    rnd = random.Random(31)
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    for n in (4, 5, 6, 7):
        assign = {i: random_symmetric(rnd) for i in range(1, n + 1)}
        for gen in consequences(n):
            assert eval_monomials(gen, assign) == zero


def test_tree_consequences_vanish_on_symmetric_matrices():
    rnd = random.Random(13)
    for n in (4, 5):
        assign = {i: random_symmetric(rnd) for i in range(1, n + 1)}
        for gen in _tree_consequences(n):
            total = None
            for t, c in gen.items():
                val = eval_tree(t, assign)
                scaled = [[Fraction(c) * x for x in row] for row in val]
                total = scaled if total is None else [
                    [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, scaled)
                ]
            assert total == [[Fraction(0)] * 3 for _ in range(3)]


def test_straightening_stays_in_relation_span():
    # t - straighten(t) must be an honest consequence, for every tree
    for n in (4, 5):
        basis = _tree_basis(n)
        p = blas_primes(len(basis))[0]
        span = _translate_span(n, p)
        rows = []
        for t in basis:
            out = straighten(t)
            den = 1
            for c in out.values():
                den = max(den, c.denominator)
            vec = [0] * len(basis)
            vec[basis[t]] += den
            for m, c in out.items():
                vec[basis[monomial_to_tree(m)]] -= int(c * den)
            rows.append(vec)
        rem = span.reduce(np.array(rows, dtype=np.int64))
        assert not rem.any()


def test_six_leaf_blocked_shape_in_relation_span():
    n = 6
    basis = _tree_basis(n)
    p = blas_primes(len(basis))[1]
    span = _translate_span(n, p)
    rnd = random.Random(9)
    picks = [
        node(node(node(leaf(1), leaf(2)), leaf(3)),
             node(node(leaf(4), leaf(5)), leaf(6)))
    ]
    picks += [random_tree(rnd, range(1, 7)) for _ in range(10)]
    rows = []
    for t in picks:
        out = straighten(t)
        den = 1
        for c in out.values():
            den = max(den, c.denominator)
        vec = [0] * len(basis)
        vec[basis[t]] += den
        for m, c in out.items():
            vec[basis[monomial_to_tree(m)]] -= int(c * den)
        rows.append(vec)
    rem = span.reduce(np.array(rows, dtype=np.int64))
    assert not rem.any()


def test_naive_dims():
    assert [naive_dim(n) for n in range(1, 7)] == [1, 1, 3, 11, 55, 330]


def test_naive_dim_other_primes_agree():
    assert naive_dim(5, primes=(2147483647, 2147483629)) == 55


def test_naive_dim_infeasible():
    with pytest.raises(InfeasibleError) as ei:
        naive_dim(7)
    assert "degree 7" in str(ei.value)
    assert ei.value.estimate


def test_multiplicity_spot_values():
    assert multiplicity((3,), 3) == 1
    assert multiplicity((2, 1), 3) == 1
    assert multiplicity((1, 1, 1), 3) == 0
    assert multiplicity((4,), 4) == 1
    assert multiplicity((2, 2), 4) == 2
    assert multiplicity((1, 1, 1, 1), 4) == 0
    with pytest.raises(ValueError):
        multiplicity((2, 1), 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_jord_module_matches_published_table(n):
    m = jord_module(n)
    assert m.mults == tables.JORDAN_MODULE[n]
    assert m.dimension() == naive_dim(n)


def test_jord_module_degree_seven():
    m = jord_module(7)
    assert m.mults == tables.JORDAN_MODULE[7]
    assert m.dimension() == 2345


def test_jord_module_degree_eight():
    m = jord_module(8)
    assert m.mults == tables.JORDAN_MODULE[8]
    assert m.dimension() == 19089


@pytest.mark.slow
def test_jord_module_degree_nine():
    m = jord_module(9, workers=2)
    assert m.mults == tables.JORDAN_MODULE[9]
    assert m.dimension() == 175203


def test_jord_module_infeasible_by_default():
    with pytest.raises(InfeasibleError):
        jord_module(10)


def test_jord_module_serial_path():
    # one worker: the same pool as the default, on one thread
    m = jord_module(4, workers=1)
    assert m.mults == tables.JORDAN_MODULE[4]


def test_naive_module_integrality_checks_raise(monkeypatch):
    import freejordan.operad as operad_mod

    with monkeypatch.context() as m:
        # a trace on the identity class alone gives f_lambda / n! copies
        m.setattr(operad_mod, "tree_space_character",
                  lambda n, mu: int(mu == (1,) * n))
        with pytest.raises(ArithmeticError, match="not an integer"):
            naive_module(3)
    with monkeypatch.context() as m:
        m.setattr(operad_mod, "dim_irrep", lambda shape: 7)
        with pytest.raises(ArithmeticError, match="not a multiple"):
            naive_module(4)


def test_projected_widths_match_the_kernels_mod_p():
    # per shape and type: the character-formula width is the width of the
    # mod-p kernel, and Q is a quotient map: it kills every swap relation
    # and has full column rank
    for n in range(1, 9):
        for shape in partitions(n):
            widths = _projected_widths(shape, n)
            p = blas_primes(sum(widths))[0]
            kernels = _slot_kernels(shape, n, p, partial(clifton_matrix, shape))
            assert [q.shape[1] for q in kernels] == list(widths)
            a_id = clifton_matrix(shape, tuple(range(n))).T.astype(np.int64)
            for comp, q in zip(normal_types(n), kernels):
                for t in type_swap_perms(comp, n):
                    assert not ((a_id - clifton_matrix(shape, t).T) @ q % p).any()
                acc = RankAccumulator(dim_irrep(shape), p)
                assert acc.add(q.T) == q.shape[1]


@pytest.mark.parametrize("pair", ["blas", "31-bit"])
def test_row_batches_give_every_prime_its_own_rows(pair):
    # each prime's rows equal, mod p, the rows built generator by
    # generator in exact integers
    for n in range(4, 8):
        gens = _sigma_expansion(n)
        for shape in partitions(n):
            d = dim_irrep(shape)
            widths = _projected_widths(shape, n)
            primes = blas_primes(sum(widths)) if pair == "blas" else P31
            clifton = partial(clifton_matrix, shape)
            for p in primes:
                kernels = _slot_kernels(shape, n, p, clifton)
                got = np.concatenate(list(_row_batches(shape, n, kernels, clifton, p))) % p
                assert got.shape == (len(gens) * d, sum(widths))
                for g, terms in enumerate(gens):
                    bands = [np.zeros((d, d), dtype=object) for _ in widths]
                    for ti, sigma, c in terms:
                        bands[ti] += c * clifton_matrix(shape, sigma).T.astype(object)
                    want = np.concatenate(
                        [band @ q.astype(object) % p
                         for band, q in zip(bands, kernels)], axis=1)
                    assert (got[g * d : (g + 1) * d] == want).all()


def test_multiplicity_pulls_no_batch_once_some_prime_is_full(monkeypatch):
    import freejordan.operad as operad_mod

    n = 5
    # one generator per (permutation, type): their rows span every column,
    # so the rank is full long before the last batch
    expansion = tuple(((ti, sigma, 1),) for sigma in permutations(range(n))
                      for ti in range(len(normal_types(n))))
    monkeypatch.setattr(operad_mod, "_sigma_expansion", lambda m: expansion)
    pulled = []

    def counted(*args):
        for batch in _row_batches(*args):
            pulled.append((args[-1], batch))
            yield batch

    monkeypatch.setattr(operad_mod, "_row_batches", counted)
    # the sign representation has width 0: full before any batch
    assert multiplicity((1,) * n, n) == 0
    assert pulled == []
    shape = (3, 2)
    width = sum(_projected_widths(shape, n))
    assert multiplicity(shape, n) == 0
    assert 0 < len(pulled) < len(expansion) / 24
    # full at the first prime, so the second prime is never walked
    p = blas_primes(width)[0]
    assert {q for q, _ in pulled} == {p}
    # every batch pulled found the rank short of full, and the last filled it
    acc = RankAccumulator(width, p)
    for _, batch in pulled:
        assert not acc.is_full
        acc.add(batch)
    assert acc.is_full


def test_projected_widths_spot_values():
    # (4,3,2,1), the widest degree-10 shape, has 34 x 768 unprojected columns
    assert sum(_projected_widths((4, 3, 2, 1), 10)) == 3180
    assert sum(_projected_widths((5, 2, 1), 8)) == 215
    assert sum(_projected_widths((4, 2, 1, 1), 8)) == 178
    # the head swap acts by -1 on the sign representation: nothing is fixed
    assert _projected_widths((1, 1, 1), 3) == (0,)
    assert _projected_widths((3,), 3) == (1,)


def test_multiplicity_refuses_a_dropped_slot_swap(monkeypatch):
    import freejordan.operad as operad_mod

    monkeypatch.setattr(operad_mod, "type_swap_perms",
                        lambda comp, n: type_swap_perms(comp, n)[1:])
    with pytest.raises(ArithmeticError, match="character formula"):
        multiplicity((3, 2, 1), 6)


def test_multiplicity_with_31_bit_primes():
    # the band products are int64 on signed sums times residues near 2^31
    for shape in partitions(7):
        got = multiplicity(shape, 7, primes=(2147483647, 2147483629))
        assert got == tables.JORDAN_MODULE[7].get(shape, 0)


def test_jord_module_other_primes():
    m = jord_module(4, primes=(2147483647, 2147483629))
    assert m.mults == tables.JORDAN_MODULE[4]


def test_tree_space_character_identity_and_transposition():
    # identity fixes all trees; a transposition fixes those where the two
    # labels share a cherry or sit in symmetric positions
    assert tree_space_character(4, (1, 1, 1, 1)) == 15
    assert tree_space_character(2, (2,)) == 1
    total = sum(1 for t in _tree_basis(5))
    assert tree_space_character(5, (1, 1, 1, 1, 1)) == total == 105


def test_naive_module_matches_rank_method():
    for n in range(1, 6):
        assert naive_module(n).mults == jord_module(n).mults


@pytest.mark.slow
def test_naive_module_matches_rank_method_degree_six():
    assert naive_module(6).mults == jord_module(6).mults


def test_naive_module_infeasible():
    with pytest.raises(InfeasibleError):
        naive_module(7)


def test_module_sanity_against_dimension():
    for n in (4, 5):
        m = jord_module(n)
        assert isinstance(m, SnModule)
        assert m.is_effective()
        assert set(m.mults) <= set(partitions(n))
