"""Multilinear components of the free Jordan operad by the rank method.

Degree-n relations are the S_n-orbit form of `multidegree`'s degree-by-degree
scheme (Hentzel; Bremner-Peresi), which has the spanning argument: 1, 3, 8,
18, 40, 86, 182 generators for n = 4..10.  Everything is kept in the
normal-monomial span; the free cover of that span is one copy of kS_n per
association type, so a type's monomial space is the quotient by slot
symmetries (head swap, pair swaps, and the head/first-factor block swap).

For an irreducible of shape lambda the relation submodule's multiplicity is
the rank of a matrix with f_n * d_lambda rows built from one d_lambda-wide
column block per generator (and per slot symmetry), each block being the
Clifton matrix of the element: a monomial with slot-label permutation s
contributes A_lambda(s^{-1}), so relabeling acts by right multiplication and
one block carries the whole orbit.  A(id)^{-1} factors out of every row
block, so raw A matrices give the same rank as true representing matrices.
The multiplicity of the irreducible in the quotient is then
f_n * d_lambda - rank, certified modulo two primes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from itertools import islice, permutations, product
from math import factorial, isqrt

import numpy as np

from .errors import InfeasibleError
from .linalg import RankAccumulator, certify, choose_primes, modular_ranks
from .multidegree import _jordan_row, _slot_splits
from .partitions import SnModule, character, dim_irrep, partitions, zee
from .symreps import clifton_matrix, inverse_perm
from .trees import (
    all_trees,
    jordan_tree_element,
    leaf,
    monomial_key,
    monomial_slot_labels,
    monomial_type,
    node,
    normal_types,
    relabel_tree,
    substitute_leaf,
    type_swap_perms,
)


def jordan_identity_count(n: int) -> int:
    """Number of generators of the tree-level oracle `_tree_consequences`."""
    return 0 if n < 4 else factorial(n) // 24


@cache
def consequences(n: int) -> tuple:
    """Degree-n relation generators in normal form, as {monomial: coeff}.

    One fresh identity instance per tuple of (slot degree, slot type), on
    consecutive labels, plus lower generators times x_n or (x_{n-1} x_n):
    S_n-orbit representatives, as the `multidegree` docstring explains.
    """
    if n < 4:
        return ()
    out = []
    seen = set()
    for split in _slot_splits((n,)):
        degs = [s[0] for s in split]
        for comps in product(*(normal_types(d) for d in degs)):
            slots = tuple(zip(degs, comps))
            # the identity is symmetric in slots 1, 2, 4
            key = (tuple(sorted(slots[i] for i in (0, 1, 3))), slots[2])
            if key in seen:
                continue
            seen.add(key)
            labels = iter(range(1, n + 1))  # consumed slot by slot, in order
            elt = _jordan_row(*(
                monomial_key(tuple(islice(labels, min(d, 2))),
                             [tuple(islice(labels, c)) for c in comp])
                for d, comp in slots
            ))
            if elt:
                out.append(elt)
    for u in ((n,), (n - 1, n)):
        for lower in consequences(n - len(u)):
            out.append({monomial_key(m[0], m[1] + (u,)): c for m, c in lower.items()})
    return tuple(out)


@cache
def _tree_consequences(n: int) -> tuple:
    """The n!/24 lifting recursion (x_i <- x_i * x_n, and times x_n) on raw
    trees: the naive oracle's generators, independent of straightening."""
    if n < 4:
        return ()
    if n == 4:
        return (jordan_tree_element(leaf(1), leaf(2), leaf(3), leaf(4)),)
    out = []
    for lower in _tree_consequences(n - 1):
        for i in range(1, n):
            acc: dict = {}
            for t, c in lower.items():
                s = substitute_leaf(t, i, node(leaf(i), leaf(n)))
                acc[s] = acc.get(s, 0) + c
            out.append(acc)
        out.append({node(t, leaf(n)): c for t, c in lower.items()})
    return tuple(out)


# --- Hentzel blocks ----------------------------------------------------------


@cache
def _sigma_expansion(n: int) -> tuple:
    """Each generator as ((type index, inverse slot permutation, coeff), ...)."""
    types = {comp: i for i, comp in enumerate(normal_types(n))}
    rows = []
    for gen in consequences(n):
        terms = []
        for m, c in gen.items():
            labels = monomial_slot_labels(m)
            sigma = tuple(x - 1 for x in labels)
            terms.append((types[monomial_type(m)], inverse_perm(sigma), c))
        rows.append(tuple(terms))
    return tuple(rows)


def _relations(n: int):
    """Each relation as ((type index, permutation, coeff), ...): the slot
    swaps of every type, then the generators."""
    ident = tuple(range(n))
    for ti, comp in enumerate(normal_types(n)):
        for t in type_swap_perms(comp, n):
            yield ((ti, ident, 1), (ti, t, -1))
    yield from _sigma_expansion(n)


def _row_batches(shape: tuple, n: int):
    """The relation matrix over Z, d rows per relation, 24 relations to a
    batch, all in one buffer (RankAccumulator.add copies what it takes)."""
    d = dim_irrep(shape)
    relations = _relations(n)
    buf = np.empty((24 * d, len(normal_types(n)) * d), dtype=np.int64)
    while chunk := list(islice(relations, 24)):
        batch = buf[: len(chunk) * d]
        batch.fill(0)
        for k, terms in enumerate(chunk):
            for ti, sigma, c in terms:
                batch[k * d : (k + 1) * d, ti * d : (ti + 1) * d] += (
                    c * clifton_matrix(shape, sigma).T.astype(np.int64)
                )
        yield batch


def multiplicity(shape: tuple, n: int, primes=None) -> int:
    """Multiplicity of the shape-lambda irreducible in degree n."""
    if sum(shape) != n:
        raise ValueError("shape %s is not a partition of %d" % (shape, n))
    width = len(normal_types(n)) * dim_irrep(shape)
    # one prime at a time: a second accumulator on this width costs memory
    ranks = {p: modular_ranks(_row_batches(shape, n), width, (p,))[p]
             for p in choose_primes(width, n, primes)}
    return width - certify(ranks)


MAX_DEGREE = 9


def check_degree(n: int, max_degree: int = MAX_DEGREE) -> None:
    """Refuse degree n above max_degree before any relation or block is built.

    The estimate is the widest shape's f_n * d_lambda columns.  Above degree
    30 it uses the bound d_lambda <= sqrt(n!), so refusing stays instant.
    """
    if n <= max_degree:
        return
    f, g = 1, 1  # f_n = len(normal_types(n)) is a Fibonacci number
    for _ in range(n - 3):
        f, g = f + g, f
    d = max(map(dim_irrep, partitions(n))) if n <= 30 else isqrt(factorial(n))
    raise InfeasibleError(
        "degree %d is above max_degree %d" % (n, max_degree),
        estimate="%s%d x %d = %d columns in the widest shape"
        % ("" if n <= 30 else "at most ", f, d, f * d),
    )


def jord_module(n: int, primes=None, max_degree=MAX_DEGREE, workers=4) -> SnModule:
    """Full degree-n decomposition; distinct shapes run concurrently."""
    check_degree(n, max_degree)
    shapes = partitions(n)
    consequences(n)  # build shared input once, outside the pool
    with ThreadPoolExecutor(max_workers=workers) as pool:
        mults = list(pool.map(lambda s: multiplicity(s, n, primes), shapes))
    return SnModule(n, dict(zip(shapes, mults)))


# --- tree-level oracle --------------------------------------------------------


@cache
def _tree_basis(n: int) -> dict:
    return {t: i for i, t in enumerate(all_trees(tuple(range(1, n + 1))))}


@cache
def _perm_index_arrays(n: int) -> dict:
    """perm -> index array a with a[i] = basis index of the relabeled tree i."""
    basis = _tree_basis(n)
    trees = list(basis)
    out = {}
    for perm in permutations(range(1, n + 1)):
        mapping = {i + 1: perm[i] for i in range(n)}
        out[perm] = np.array(
            [basis[relabel_tree(t, mapping)] for t in trees], dtype=np.int64
        )
    return out


@cache
def _sparse_tree_gens(n: int) -> tuple:
    """Each tree-level generator as (basis index array, int coefficient array)."""
    basis = _tree_basis(n)
    out = []
    for gen in _tree_consequences(n):
        idx = np.array([basis[t] for t in gen], dtype=np.int64)
        co = np.array([int(c) for c in gen.values()], dtype=np.int64)
        out.append((idx, co))
    return tuple(out)


def _translate_span(n: int, p: int) -> RankAccumulator:
    """Accumulate every S_n-translate of every tree-level generator mod p."""
    acc = RankAccumulator(len(_tree_basis(n)), p)
    gens = _sparse_tree_gens(n)
    if not gens:
        return acc
    mods = [co % p for _, co in gens]
    for arr in _perm_index_arrays(n).values():
        block = np.zeros((len(gens), acc.ncols), dtype=np.int64)
        for k, (idx, _) in enumerate(gens):
            block[k, arr[idx]] = mods[k]
        acc.add(block)
    return acc


def naive_dim(n: int, primes=None) -> int:
    """dim Jord(n) from scratch: rank of all relation translates over all trees.

    Independent of straightening and of the representation theory; the
    costly cross-check the block method is validated against.  Refuses
    degrees above 6.
    """
    if n > 6:
        raise InfeasibleError(
            "naive rank at degree %d needs %d translate rows over a "
            "%d-dimensional space" % (n, jordan_identity_count(n) * factorial(n),
                                      _double_factorial(2 * n - 3)),
            estimate="%d rows" % (jordan_identity_count(n) * factorial(n)),
        )
    width = len(_tree_basis(n))
    primes = choose_primes(width, n, primes)
    return width - certify({p: _translate_span(n, p).rank for p in primes})


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@cache
def tree_space_character(n: int, mu: tuple) -> int:
    """Trace of a cycle-type-mu relabeling on the tree permutation basis."""
    perm = []
    start = 1
    for part in mu:
        cycle = list(range(start, start + part))
        perm.extend(cycle[1:] + cycle[:1])
        start += part
    mapping = {i + 1: perm[i] for i in range(n)}
    return sum(1 for t in all_trees(tuple(range(1, n + 1)))
               if relabel_tree(t, mapping) == t)


def naive_module(n: int, primes=None) -> SnModule:
    """Degree-n decomposition via isotypic projectors on the tree basis.

    Shares nothing with the Clifton path: ambient multiplicities come from
    fixed-point counts, and relation multiplicities from the rank of each
    isotypic projector applied to a row basis of the full translate span.
    Refuses degrees above 6.
    """
    if n > 6:
        raise InfeasibleError("degree %d tree projectors are too large" % n)
    primes = choose_primes(len(_tree_basis(n)), n, primes)
    shapes = partitions(n)
    ambient = {}
    for shape in shapes:
        tot = sum(
            Fraction(character(shape, mu) * tree_space_character(n, mu), zee(mu))
            for mu in partitions(n)
        )
        if tot.denominator != 1:
            raise ArithmeticError(
                "multiplicity of %s in the tree space is %s, not an integer"
                % (shape, tot)
            )
        ambient[shape] = int(tot)
    sub_ranks: dict = {shape: {} for shape in shapes}
    for p in primes:
        span = _translate_span(n, p).basis()
        class_sums = {mu: np.zeros_like(span) for mu in partitions(n)}
        for perm, arr in _perm_index_arrays(n).items():
            moved = np.zeros_like(span)
            moved[:, arr] = span
            mu = _cycle_type(perm)
            class_sums[mu] = (class_sums[mu] + moved) % p
        for shape in shapes:
            proj = np.zeros_like(span)
            for mu, block in class_sums.items():
                chi = character(shape, mu) % p
                if chi:
                    proj = (proj + chi * block) % p
            sub = RankAccumulator(proj.shape[1], p)
            sub.add(proj)
            sub_ranks[shape][p] = sub.rank
    mults = {}
    for shape in shapes:
        rank = certify(sub_ranks[shape])
        sub_mult, rem = divmod(rank, dim_irrep(shape))
        if rem:
            raise ArithmeticError(
                "isotypic rank %d for %s is not a multiple of its dimension %d"
                % (rank, shape, dim_irrep(shape))
            )
        value = ambient[shape] - sub_mult
        if value:
            mults[shape] = value
    return SnModule(n, mults)


def _cycle_type(perm: tuple) -> tuple:
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))
