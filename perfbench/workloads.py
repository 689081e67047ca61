"""The four benchmark workloads: inputs from a seed, the calls, the checks.

Each workload is a list of steps.  A step calls the public API through the
module namespace handed to it (so that the traced run sees the calls it
wraps), and returns the value to compare with the step's expected answer.
A step that raises, or whose answer differs, is a failed check; later
steps still run.  Intermediate results pass between steps through `ctx`.

Expected answers are frozen here, in the benchmark's own files, rather
than read from `freejordan.tables`: a change to the program cannot change
what the benchmark accepts.

This module imports nothing from the package at import time; `import_api`
does that, inside the measured set-up of a run process.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import types

# -- frozen answers ------------------------------------------------------------

# irreducible decompositions of the multilinear component Jord(n)
JORDAN_MODULE = {
    1: {(1,): 1},
    2: {(2,): 1},
    3: {(2, 1): 1, (3,): 1},
    4: {(2, 1, 1): 1, (2, 2): 2, (3, 1): 1, (4,): 1},
    5: {
        (2, 1, 1, 1): 1, (2, 2, 1): 3, (3, 1, 1): 2, (3, 2): 3,
        (4, 1): 2, (5,): 1,
    },
    6: {
        (2, 1, 1, 1, 1): 1, (2, 2, 1, 1): 3, (2, 2, 2): 4, (3, 1, 1, 1): 4,
        (3, 2, 1): 8, (3, 3): 1, (4, 1, 1): 4, (4, 2): 6, (5, 1): 2, (6,): 1,
    },
    7: {
        (2, 1, 1, 1, 1, 1): 1, (2, 2, 1, 1, 1): 4, (2, 2, 2, 1): 7,
        (3, 1, 1, 1, 1): 5, (3, 2, 1, 1): 16, (3, 2, 2): 12, (3, 3, 1): 9,
        (4, 1, 1, 1): 8, (4, 2, 1): 18, (4, 3): 7, (5, 1, 1): 6, (5, 2): 8,
        (6, 1): 3, (7,): 1,
    },
    8: {
        (2, 1, 1, 1, 1, 1, 1): 1, (2, 2, 1, 1, 1, 1): 6, (2, 2, 2, 1, 1): 11,
        (2, 2, 2, 2): 10, (3, 1, 1, 1, 1, 1): 5, (3, 2, 1, 1, 1): 26,
        (3, 2, 2, 1): 34, (3, 3, 1, 1): 30, (3, 3, 2): 19, (4, 1, 1, 1, 1): 14,
        (4, 2, 1, 1): 41, (4, 2, 2): 32, (4, 3, 1): 34, (4, 4): 10,
        (5, 1, 1, 1): 16, (5, 2, 1): 32, (5, 3): 12, (6, 1, 1): 9, (6, 2): 12,
        (7, 1): 3, (8,): 1,
    },
    9: {
        (2, 1, 1, 1, 1, 1, 1, 1): 1, (2, 2, 1, 1, 1, 1, 1): 7,
        (2, 2, 2, 1, 1, 1): 18, (2, 2, 2, 2, 1): 22, (3, 1, 1, 1, 1, 1, 1): 6,
        (3, 2, 1, 1, 1, 1): 38, (3, 2, 2, 1, 1): 74, (3, 2, 2, 2): 44,
        (3, 3, 1, 1, 1): 58, (3, 3, 2, 1): 85, (3, 3, 3): 20,
        (4, 1, 1, 1, 1, 1): 20, (4, 2, 1, 1, 1): 84, (4, 2, 2, 1): 109,
        (4, 3, 1, 1): 107, (4, 3, 2): 86, (4, 4, 1): 44, (5, 1, 1, 1, 1): 31,
        (5, 2, 1, 1): 91, (5, 2, 2): 64, (5, 3, 1): 78, (5, 4): 22,
        (6, 1, 1, 1): 25, (6, 2, 1): 53, (6, 3): 24, (7, 1, 1): 12,
        (7, 2): 15, (8, 1): 4, (9,): 1,
    },
    10: {
        (2, 1, 1, 1, 1, 1, 1, 1, 1): 1, (2, 2, 1, 1, 1, 1, 1, 1): 7,
        (2, 2, 2, 1, 1, 1, 1): 26, (2, 2, 2, 2, 1, 1): 38, (2, 2, 2, 2, 2): 26,
        (3, 1, 1, 1, 1, 1, 1, 1): 8, (3, 2, 1, 1, 1, 1, 1): 53,
        (3, 2, 2, 1, 1, 1): 139, (3, 2, 2, 2, 1): 144, (3, 3, 1, 1, 1, 1): 93,
        (3, 3, 2, 1, 1): 226, (3, 3, 2, 2): 122, (3, 3, 3, 1): 114,
        (4, 1, 1, 1, 1, 1, 1): 26, (4, 2, 1, 1, 1, 1): 151,
        (4, 2, 2, 1, 1): 272, (4, 2, 2, 2): 162, (4, 3, 1, 1, 1): 257,
        (4, 3, 2, 1): 394, (4, 3, 3): 105, (4, 4, 1, 1): 143, (4, 4, 2): 138,
        (5, 1, 1, 1, 1, 1): 50, (5, 2, 1, 1, 1): 212, (5, 2, 2, 1): 263,
        (5, 3, 1, 1): 289, (5, 3, 2): 224, (5, 4, 1): 144, (5, 5): 16,
        (6, 1, 1, 1, 1): 58, (6, 2, 1, 1): 168, (6, 2, 2): 120, (6, 3, 1): 155,
        (6, 4): 50, (7, 1, 1, 1): 40, (7, 2, 1): 80, (7, 3): 35,
        (8, 1, 1): 16, (8, 2): 20, (9, 1): 4, (10,): 1,
    },
}

# dim Jord(x1, x2)_n for n = 1..19: the reversal-fixed words (OEIS A005418)
TWO_GEN_DIMS = (
    2, 3, 6, 10, 20, 36, 72, 136, 272, 528,
    1056, 2080, 4160, 8256, 16512, 32896, 65792, 131328, 262656,
)
PREDICTED_DIM_19 = 262658  # the predictor's value; the truth is 262656
CONTENT_DIM_9_1_1 = 55  # dim of the content-(9,1,1) component, any order
# H_0, H_1, ... of tag(truncated_free_jordan(g, N)); H_1 = 3g in closed form,
# H_2 = 275 for (g, N) = (3, 3) is the value of the first recorded run
HOMOLOGY_2_5 = (1, 6)
HOMOLOGY_3_3 = (1, 9, 275)

# -- seeded inputs -------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_pool() -> tuple:
    """The four primes just above 2**20 - 600: elimination with them stays
    exact on the float64 BLAS path for every matrix the workloads build."""
    out, n = [], 2**20 - 600
    while len(out) < 4:
        n += 1
        if _is_prime(n):
            out.append(n)
    return tuple(out)


def _prime_pair(rng: random.Random) -> list:
    return sorted(rng.sample(_prime_pool(), 2))


def _relabel(api, J, perm):
    """J with basis vector i renamed perm[i]: the same algebra, reordered."""
    n = J.dim
    labels = [None] * n
    for i in range(n):
        labels[perm[i]] = J.labels[i]
    parity = [0] * n
    for i in range(n):
        parity[perm[i]] = J.parity[i]
    degree = None
    if J.degree is not None:
        degree = [None] * n
        for i in range(n):
            degree[perm[i]] = J.degree[i]
    table = {
        (perm[i], perm[j]): {perm[k]: c for k, c in prod.items()}
        for (i, j), prod in J.table.items()
    }
    return api.tkk.AlgebraFD(J.kind, labels, table, parity=parity, degree=degree)


# -- workloads -----------------------------------------------------------------


class Workload:
    """A name, the package modules it imports, its inputs and its steps.

    plan(seed, nproc) makes the inputs and is pure benchmark code.  Each
    step is (check name, fn(api, inputs, ctx), expected), where expected is
    the answer or a function of the inputs that gives it.
    """

    def __init__(self, name, modules, plan, steps):
        self.name = name
        self.modules = modules
        self.plan = plan
        self.steps = steps

    def import_api(self):
        api = types.SimpleNamespace()
        for mod in self.modules:
            setattr(api, mod, importlib.import_module("freejordan." + mod))
        return api


def _mults(module) -> dict:
    return {tuple(s): m for s, m in module.mults.items() if m}


# multilinear ------------------------------------------------------------------


def _plan_multilinear(seed: int, nproc: int) -> dict:
    rng = random.Random(seed)
    return {
        "lambda": rng.choice([(5, 2, 1), (3, 2, 1, 1, 1)]),  # conjugates, d = 64
        "primes": _prime_pair(rng),
        "workers": min(2, nproc),
    }


def _jord7(api, inp, ctx):
    module = api.operad.jord_module(7, primes=inp["primes"], workers=inp["workers"])
    return _mults(module)


def _operad8(api, inp, ctx):
    lam = ",".join(map(str, inp["lambda"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli.main(["operad", "--degree", "8", "--lambda", lam, "--json"])
    return code, json.loads(out.getvalue())["multiplicity"]


MULTILINEAR = Workload(
    "multilinear",
    ("operad", "cli", "cache"),
    _plan_multilinear,
    [
        ("degree-7 module table", _jord7, JORDAN_MODULE[7]),
        (
            "degree-8 multiplicity through the CLI",
            _operad8,
            lambda inp: (0, JORDAN_MODULE[8][inp["lambda"]]),
        ),
    ],
)


# content ----------------------------------------------------------------------


def _plan_content(seed: int, nproc: int) -> dict:
    rng = random.Random(seed)
    return {
        "content": rng.choice([(9, 1, 1), (1, 9, 1), (1, 1, 9)]),
        "primes": _prime_pair(rng),
    }


CONTENT = Workload(
    "content",
    ("multidegree",),
    _plan_content,
    [
        (
            "dim of the content component",
            lambda api, inp, ctx: api.multidegree.multidegree_dim(
                inp["content"], primes=inp["primes"]
            ),
            CONTENT_DIM_9_1_1,
        ),
    ],
)


# counterexample ---------------------------------------------------------------


def _plan_counterexample(seed: int, nproc: int) -> dict:
    return {"primes": _prime_pair(random.Random(seed))}


def _km(api, inp, ctx):
    ctx["a"], _b = api.lambda_ring.km_prediction(19, 19)
    return api.lambda_ring.dims_from_character(ctx["a"], 2).dim(19)


def _schur(n):
    return lambda api, inp, ctx: _mults(api.lambda_ring.schur_decompose(ctx["a"], n))


def _span(n):
    def step(api, inp, ctx):
        span = api.twogen.jordan_span_dim(n, primes=inp["primes"])
        return span, api.twogen.reversible_dim(n)

    return step


def _residue(api, inp, ctx):
    check = api.series.check_sequence(2, TWO_GEN_DIMS)
    return check.first_nonzero, check.residue(19)


COUNTEREXAMPLE = Workload(
    "counterexample",
    ("series", "lambda_ring", "twogen"),
    _plan_counterexample,
    [
        (
            "predicted dim at degree 19 (series)",
            lambda api, inp, ctx: api.series.predict_dims(2, 19).dim(19),
            PREDICTED_DIM_19,
        ),
        ("first nonzero residue of the true dims", _residue, (19, 2)),
        ("predicted dim at degree 19 (characters)", _km, PREDICTED_DIM_19),
    ]
    + [("degree-%d module from characters" % n, _schur(n), JORDAN_MODULE[n])
       for n in range(1, 11)]
    + [("Jordan span equals reversible dim at degree %d" % n, _span(n),
        (TWO_GEN_DIMS[n - 1], TWO_GEN_DIMS[n - 1])) for n in range(1, 13)]
    + [
        (
            "reversible dim at degree 19",
            lambda api, inp, ctx: api.twogen.reversible_dim(19),
            TWO_GEN_DIMS[18],
        ),
    ],
)


# homology ---------------------------------------------------------------------


def _plan_homology(seed: int, nproc: int) -> dict:
    # the basis size is known only once J is built, so the input is the
    # seed of the shuffle that reorders it
    return {"relabel_seed": seed}


def _homology(g, N, kmax):
    def step(api, inp, ctx):
        J = api.tkk.truncated_free_jordan(g, N)
        perm = list(range(J.dim))
        random.Random("%d/%d/%d" % (inp["relabel_seed"], g, N)).shuffle(perm)
        L = api.tkk.tag(_relabel(api, J, perm))
        return api.tkk.ce_homology(L, kmax).dims

    return step


HOMOLOGY = Workload(
    "homology",
    ("tkk",),
    _plan_homology,
    [
        ("homology of tag(J(2,5)) to k=1", _homology(2, 5, 1), HOMOLOGY_2_5),
        ("homology of tag(J(3,3)) to k=2", _homology(3, 3, 2), HOMOLOGY_3_3),
    ],
)


WORKLOADS = {w.name: w for w in (MULTILINEAR, CONTENT, COUNTEREXAMPLE, HOMOLOGY)}


def expected(value, inputs: dict):
    """A step's frozen answer for these inputs."""
    return value(inputs) if callable(value) else value
