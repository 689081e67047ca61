"""Multilinear components of the free Jordan operad by the rank method.

Degree-n relations are the S_n-orbit form of `multidegree`'s degree-by-degree
scheme (Hentzel; Bremner-Peresi), which has the spanning argument: 1, 3, 8,
18, 40, 86, 182 generators for n = 4..10.  Everything is kept in the
normal-monomial span; the free cover of that span is one copy of kS_n per
association type, so a type's monomial space is the quotient by slot
symmetries (head swap, pair swaps, and the head/first-factor block swap).

For an irreducible of shape lambda, each generator gives d_lambda rows,
one band per type, built from Clifton matrices: a monomial with slot-label
permutation s contributes A_lambda(s^{-1})^T to its type's band, so
relabeling acts by right multiplication and one block carries the whole
orbit.  A(id)^{-1} factors out of every row block, so raw A matrices give
the same rank as true representing matrices.  The slot symmetries are not
fed in as relation rows but quotiented out: type ti's band is multiplied
by Q_ti, a d_lambda x c_ti basis (mod p) of the kernel of the stacked
(A(id) - A(t))^T over its slot swaps t, so the matrix has sum_ti c_ti
columns instead of f_n * d_lambda (3,180 instead of 26,112 for (4,3,2,1)
in degree 10).  Each c_ti, the dimension of the vectors of S^lambda fixed
by the type's slot symmetries, is known before any elimination from the
character formula (1/|G|) sum_{g in G} chi^lambda(g), with G read off the
type's tree; a kernel of any other width mod p is refused with
ArithmeticError.  The multiplicity of the irreducible in the quotient is
sum_ti c_ti - rank, with the rank certified over the primes by the walk
rule of `linalg.certified_ranks`: each prime walked takes its own slot
kernels and one accumulator, and the generators' batches, built band by
band for that prime, until its rank is full.  The shape's Clifton
matrices are memoised for the whole call, so every prime's walk shares
them.  The fresh relation rows of consequences(n) are built on one
multidegree product table, which owns their straightening state.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache, partial
from itertools import islice, permutations, product
from math import factorial, isqrt

import numpy as np

from .errors import InfeasibleError
from .linalg import RankAccumulator, certified_ranks, choose_primes
from .multidegree import _appended, _Products, _slot_splits
from .partitions import SnModule, character, dim_irrep, partitions, zee
from .symreps import clifton_matrix, inverse_perm
from .trees import (
    all_trees,
    jordan_tree_element,
    leaf,
    monomial_key,
    monomial_slot_labels,
    monomial_to_tree,
    monomial_type,
    node,
    normal_types,
    relabel_tree,
    shape_key,
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
    table = _Products()
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
            elt = table.row(*(
                table.id(monomial_key(tuple(islice(labels, min(d, 2))),
                                      [tuple(islice(labels, c)) for c in comp]))
                for d, comp in slots
            ))
            if elt:
                out.append(elt)
    for u in ((n,), (n - 1, n)):
        for lower in consequences(n - len(u)):
            out.append({_appended(m, u): c for m, c in lower.items()})
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


@cache
def _type_symmetries(n: int) -> tuple:
    """Per type, its slot symmetries as {cycle type: count}.

    They are the leaf relabelings fixing the tree of the type's monomial on
    labels 1..n in slot order, read off the tree itself: independent of
    `type_swap_perms`, which the kernels use.
    """
    out = []
    for comp in normal_types(n):
        labels = iter(range(1, n + 1))
        tree = monomial_to_tree(monomial_key(
            tuple(islice(labels, min(n, 2))),
            [tuple(islice(labels, c)) for c in comp],
        ))
        counts: dict = {}
        for g in _tree_automorphisms(tree):
            mu = _cycle_type(tuple(g[i] for i in range(1, n + 1)))
            counts[mu] = counts.get(mu, 0) + 1
        out.append(counts)
    return tuple(out)


def _tree_automorphisms(t: tuple) -> list:
    """Every leaf relabeling (a dict) that maps the tree t to itself."""
    if t[0] == 1:
        return [{t[1]: t[1]}]
    a, b = t[1], t[2]
    out = [{**ga, **gb} for ga in _tree_automorphisms(a)
           for gb in _tree_automorphisms(b)]
    if shape_key(a) == shape_key(b):
        swap = dict(zip(_shape_leaves(a), _shape_leaves(b)))
        swap.update({v: k for k, v in swap.items()})
        out += [{k: swap[v] for k, v in g.items()} for g in out]
    return out


def _shape_leaves(t: tuple) -> tuple:
    """Leaves in an order that zips two trees of one shape isomorphically."""
    if t[0] == 1:
        return (t[1],)
    a, b = sorted(t[1:], key=shape_key)
    return _shape_leaves(a) + _shape_leaves(b)


@cache
def _projected_widths(shape: tuple, n: int) -> tuple:
    """Per type, c = dim of its slot-symmetry fixed space in S^lambda:
    (1/|G|) sum over g in G of chi^lambda(g), by the character formula."""
    out = []
    for comp, counts in zip(normal_types(n), _type_symmetries(n)):
        c, rem = divmod(sum(k * character(shape, mu) for mu, k in counts.items()),
                        sum(counts.values()))
        if rem:
            raise ArithmeticError(
                "character average of %s over the slot symmetries of type %s "
                "is not an integer" % (shape, comp))
        out.append(c)
    return tuple(out)


def _slot_kernels(shape: tuple, n: int, p: int, clifton) -> list:
    """Per type, a d x c basis Q of the kernel mod p of the stacked
    (A(id) - A(t))^T over the type's slot swaps t, refused unless c is the
    character-formula width; clifton(sigma) is the shape's A(sigma)."""
    d = dim_irrep(shape)
    a_id = clifton(tuple(range(n))).T.astype(np.int64)
    out = []
    for comp, width in zip(normal_types(n), _projected_widths(shape, n)):
        acc = RankAccumulator(d, p)
        swaps = type_swap_perms(comp, n)
        if swaps:
            acc.add(np.concatenate([a_id - clifton(t).T for t in swaps]))
        # remainders of the unit vectors: 0 on the pivot columns, and on
        # the free columns a map whose kernel is exactly the swaps' span
        rem = acc.reduce(np.eye(d, dtype=np.int64))
        q = rem[:, rem.any(axis=0)]
        if q.shape[1] != width:
            raise ArithmeticError(
                "slot swaps of type %s fix a %d-dimensional subspace of %s mod %d, "
                "the character formula gives %d" % (comp, q.shape[1], shape, p, width))
        out.append(q)
    return out


def _row_batches(shape: tuple, n: int, kernels: list, clifton, p: int):
    """The generator rows on the slot-symmetry quotient, for the prime p
    of kernels [Q_ti]: for each generator, d rows whose band of type ti
    is (sum of c * A(sigma)^T over its terms of that type) @ Q_ti.  Each
    batch of 24 generators is built one integer band at a time."""
    d = dim_irrep(shape)
    offsets = np.cumsum([0, *_projected_widths(shape, n)])
    gens = iter(_sigma_expansion(n))
    while chunk := list(islice(gens, 24)):
        batch = np.zeros((len(chunk) * d, offsets[-1]), dtype=np.int64)
        for ti in {ti for terms in chunk for ti, _, _ in terms}:
            band = np.zeros((len(chunk) * d, d), dtype=np.int64)
            for k, terms in enumerate(chunk):
                for tk, sigma, c in terms:
                    if tk == ti:
                        band[k * d : (k + 1) * d] += c * clifton(sigma).T.astype(np.int64)
            # signed small integers times residues: exact in int64
            if int(np.abs(band).sum(axis=1).max()) * (p - 1) >= 2**63:
                raise OverflowError("band sums too large for int64 products mod %d" % p)
            batch[:, offsets[ti] : offsets[ti + 1]] = band @ kernels[ti]
        yield batch


def multiplicity(shape: tuple, n: int, primes=None) -> int:
    """Multiplicity of the shape-lambda irreducible in degree n."""
    if sum(shape) != n:
        raise ValueError("shape %s is not a partition of %d" % (shape, n))
    width = sum(_projected_widths(shape, n))
    # the shape's Clifton matrices, for every prime's kernels and rows
    clifton = cache(partial(clifton_matrix, shape))

    def ranks_mod(p):
        acc = RankAccumulator(width, p)
        kernels = _slot_kernels(shape, n, p, clifton)
        batches = _row_batches(shape, n, kernels, clifton, p)
        while not acc.is_full and (batch := next(batches, None)) is not None:
            acc.add(batch)
        return [acc.rank]

    return width - certified_ranks(choose_primes(width, n, primes), ranks_mod, [width])[0]


MAX_DEGREE = 9


def check_degree(n: int) -> None:
    """Refuse degree n above MAX_DEGREE before any relation or block is built.

    The estimate is the widest shape's f_n * d_lambda columns.  Above degree
    30 it uses the bound d_lambda <= sqrt(n!), so refusing stays instant.
    """
    if n <= MAX_DEGREE:
        return
    f, g = 1, 1  # f_n = len(normal_types(n)) is a Fibonacci number
    for _ in range(n - 3):
        f, g = f + g, f
    d = max(map(dim_irrep, partitions(n))) if n <= 30 else isqrt(factorial(n))
    raise InfeasibleError(
        "degree %d is above max_degree %d" % (n, MAX_DEGREE),
        estimate="%s%d x %d = %d columns in the widest shape"
        % ("" if n <= 30 else "at most ", f, d, f * d),
    )


def jord_module(n: int, primes=None, workers=4) -> SnModule:
    """Full degree-n decomposition; distinct shapes run concurrently."""
    check_degree(n)
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
    return width - certified_ranks(primes, lambda p: [_translate_span(n, p).rank], [width])[0]


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
    width = len(_tree_basis(n))
    primes = choose_primes(width, n, primes)
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

    def ranks_mod(p):
        span = _translate_span(n, p).basis()
        class_sums = {mu: np.zeros_like(span) for mu in partitions(n)}
        for perm, arr in _perm_index_arrays(n).items():
            moved = np.zeros_like(span)
            moved[:, arr] = span
            mu = _cycle_type(perm)
            class_sums[mu] = (class_sums[mu] + moved) % p
        ranks = []
        for shape in shapes:
            proj = np.zeros_like(span)
            for mu, block in class_sums.items():
                chi = character(shape, mu) % p
                if chi:
                    proj = (proj + chi * block) % p
            ranks.append(RankAccumulator(width, p).add(proj))
        return ranks

    mults = {}
    ranks = certified_ranks(primes, ranks_mod, [width] * len(shapes))
    for shape, rank in zip(shapes, ranks):
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
