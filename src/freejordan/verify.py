"""One-shot verification suites: recompute, compare, report.

Each check names what it recomputes, where the expected value comes from
(a frozen table in tables.py, a closed formula, or an independent second
computation inside this package), the computed value, and pass/fail.
The suites are deliberately redundant with the test suite: they are the
user-facing way to reproduce the headline numbers on their own machine.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

from .tables import (
    JORDAN_MODULE,
    MULTIDEGREE_DIMS,
    MULTILINEAR_DIMS,
    PREDICTED_DIM_19_TWO_GEN,
    TWO_GEN_B_DIMS,
    TWO_GEN_DIMS,
    Z19_PINNED_MONOMIALS,
    Z19_RESIDUE,
)


@dataclass
class CheckResult:
    name: str
    expected: str
    provenance: str
    computed: str
    passed: bool
    seconds: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "provenance": self.provenance,
            "computed": self.computed,
            "passed": self.passed,
            "runtime": "%.2fs" % self.seconds,
        }


@dataclass
class VerificationReport:
    suite: str
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [r.to_json() for r in self.results],
        }

    def format_text(self) -> str:
        lines = []
        for r in self.results:
            mark = "pass" if r.passed else "FAIL"
            lines.append(
                "[%s] %-46s expected %s (%s), got %s  [%.2fs]"
                % (mark, r.name, r.expected, r.provenance, r.computed, r.seconds)
            )
        tally = sum(r.passed for r in self.results)
        lines.append(
            "%s: %d/%d checks passed" % (self.suite, tally, len(self.results))
        )
        return "\n".join(lines)


def _check(report, name, expected, provenance, compute):
    t0 = time.perf_counter()
    try:
        computed = compute()
        passed = computed == expected
    except Exception as err:  # a crash is a failing check, not a crash
        computed = "error: %s" % err
        passed = False
    report.results.append(
        CheckResult(
            name=name,
            expected=str(expected),
            provenance=provenance,
            computed=str(computed),
            passed=passed,
            seconds=time.perf_counter() - t0,
        )
    )


def suite_counterexample() -> VerificationReport:
    """The degree-19 story on two generators, from both directions."""
    from .lambda_ring import km_prediction, schur_decompose
    from .partitions import partitions
    from .series import check_sequence, conjecture_series, predict_dims
    from .twogen import reversible_dim, two_row_multiplicity

    rep = VerificationReport("counterexample")
    _check(
        rep,
        "series residue at degree 19",
        Z19_RESIDUE,
        "frozen value (tables.py)",
        lambda: check_sequence(2, TWO_GEN_DIMS[:19]).residue(19),
    )
    _check(
        rep,
        "residues vanish through degree 18",
        19,
        "defining property of the predictor",
        lambda: check_sequence(2, TWO_GEN_DIMS[:19]).first_nonzero,
    )
    _check(
        rep,
        "predicted dimension at degree 19",
        PREDICTED_DIM_19_TWO_GEN,
        "frozen value (tables.py)",
        lambda: predict_dims(2, 19).dim(19),
    )
    _check(
        rep,
        "actual dimension at degree 19",
        TWO_GEN_DIMS[18],
        "closed formula for reversal-fixed words",
        lambda: reversible_dim(19),
    )
    _check(
        rep,
        "prediction misses by 2 at degree 19",
        2,
        "difference of the two values above",
        lambda: predict_dims(2, 19).dim(19) - reversible_dim(19),
    )

    def two_row_gap(n):
        # only the two-row shapes: the full decomposition of degree 19 is
        # slow; one solve through degree 20 serves both degrees
        a, _b = km_prediction(20, 20)
        shapes = [s for s in partitions(n) if len(s) <= 2]
        predicted = schur_decompose(a, n, shapes).mults
        gap = {s: predicted.get(s, 0) - two_row_multiplicity(s) for s in shapes}
        return {s: k for s, k in gap.items() if k}

    _check(
        rep,
        "predicted minus actual in degree 19 is exactly one copy of S^(10,9)",
        {(10, 9): 1},
        "character recursion against the Cohn-Shirshov closed form",
        lambda: two_row_gap(19),
    )
    _check(
        rep,
        "predicted minus actual in degree 20 is {(11,9): 2, (10,10): 2}",
        {(11, 9): 2, (10, 10): 2},
        "character recursion against the Cohn-Shirshov closed form",
        lambda: two_row_gap(20),
    )

    def pinned():
        coeff = conjecture_series(2, TWO_GEN_DIMS[:19]).coeffs[19]
        return {e: coeff.get(e, 0) for e in Z19_PINNED_MONOMIALS}

    _check(
        rep,
        "pinned monomials of the z^19 coefficient",
        Z19_PINNED_MONOMIALS,
        "frozen values (tables.py)",
        pinned,
    )
    return rep


def suite_tables(max_degree: int = 6) -> VerificationReport:
    """Multilinear module structure against the lambda-ring prediction,
    the published multidegree dimensions against the prediction, and one
    of them against the rank method."""
    from .lambda_ring import km_prediction, schur_decompose
    from .multidegree import multidegree_dim
    from .operad import jord_module

    jord_module = functools.cache(jord_module)  # two checks per degree, one build
    max_degree = min(max_degree, 8)
    rep = VerificationReport("tables")
    a, _b = km_prediction(max_degree, max_degree)
    for n in range(1, max_degree + 1):
        _check(
            rep,
            "dim of the degree-%d multilinear part" % n,
            MULTILINEAR_DIMS[n],
            "frozen table (tables.py)",
            lambda n=n: jord_module(n).dimension(),
        )
        _check(
            rep,
            "degree-%d module decomposition" % n,
            JORDAN_MODULE[n],
            "frozen table (tables.py)",
            lambda n=n: jord_module(n).mults,
        )
        _check(
            rep,
            "degree-%d prediction matches the computation" % n,
            JORDAN_MODULE[n],
            "character recursion, independent pipeline",
            lambda n=n: schur_decompose(a, n).mults,
        )
    _check(
        rep,
        "dims of the %d published multidegree components" % len(MULTIDEGREE_DIMS),
        MULTIDEGREE_DIMS,
        "character pipeline + Kostka numbers",
        _multidegree_dims_from_characters,
    )
    _check(
        rep,
        "dim of the content-(9,1,1) component",
        MULTIDEGREE_DIMS[(9, 1, 1)],
        "published table (tables.py), rank method",
        lambda: multidegree_dim((9, 1, 1)),
    )
    return rep


def _multidegree_dims_from_characters() -> dict:
    """Each content delta of MULTIDEGREE_DIMS as sum over lambda of
    mult_lambda * K(lambda, delta), mult from the predicted characters."""
    from .lambda_ring import km_prediction, schur_decompose
    from .partitions import kostka

    degrees = {sum(delta) for delta in MULTIDEGREE_DIMS}
    a, _b = km_prediction(max(degrees), max(degrees))
    mults = {n: schur_decompose(a, n).mults for n in degrees}
    return {
        delta: sum(c * kostka(lam, delta) for lam, c in mults[sum(delta)].items())
        for delta in MULTIDEGREE_DIMS
    }


def suite_homology() -> VerificationReport:
    """Lie algebra homology of the smallest interesting cases."""
    from .tkk import (
        ce_homology,
        scalar_jordan,
        sl2_decompose,
        tag,
        truncated_free_jordan,
    )

    rep = VerificationReport("homology")
    _check(
        rep,
        "homology of the rank-one simple algebra",
        (1, 0, 0, 1),
        "classical vanishing",
        lambda: ce_homology(tag(scalar_jordan()), 3).dims,
    )
    heis = tag(truncated_free_jordan(1, 1, parities=(1,)))
    _check(
        rep,
        "homology dims over one odd generator",
        (1, 3, 5, 7, 9, 11),
        "closed form 2p+1",
        lambda: ce_homology(heis, 5).dims,
    )
    _check(
        rep,
        "highest weights over one odd generator",
        ((0,), (2,), (4,), (6,), (8,), (10,)),
        "closed form: one irreducible of weight 2p",
        lambda: sl2_decompose(ce_homology(heis, 5)),
    )
    return rep


def suite_dims(max_degree: int = 10) -> VerificationReport:
    """Two-generator dimensions: formula, spanning rank, quotient count."""
    from .twogen import _span_dims, b_dim_two_gen, reversible_dim

    max_degree = min(max_degree, 20)
    rep = VerificationReport("dims")
    _check(
        rep,
        "reversible dims through degree %d" % max_degree,
        list(TWO_GEN_DIMS[:max_degree]),
        "frozen table (tables.py)",
        lambda: [reversible_dim(n) for n in range(1, max_degree + 1)],
    )
    _check(
        rep,
        "quotient-space dims through degree %d" % max_degree,
        list(TWO_GEN_B_DIMS[:max_degree]),
        "frozen table (tables.py)",
        lambda: [b_dim_two_gen(n) for n in range(1, max_degree + 1)],
    )
    span_to = min(max_degree, 10)
    _check(
        rep,
        "Jordan span equals reversible through degree %d" % span_to,
        list(TWO_GEN_DIMS[1:span_to]),
        "closed formula vs rank computation",
        # every degree from one walk of the degrees, as two_gen_table reads them
        lambda: _span_dims(span_to)[1:] if span_to > 1 else [],
    )
    def orbit_counts():
        from itertools import product

        from .twogen import bracelet_count, necklace_count

        out = []
        for n in range(1, 11):
            words = list(product((0, 1), repeat=n))
            seen, neck = set(), 0
            for w in words:
                if w not in seen:
                    neck += 1
                    seen.update(w[i:] + w[:i] for i in range(n))
            seen, brac = set(), 0
            for w in words:
                if w not in seen:
                    brac += 1
                    group = [w[i:] + w[:i] for i in range(n)]
                    seen.update(group)
                    seen.update(tuple(reversed(g)) for g in group)
            out.append((necklace_count(n) == neck, bracelet_count(n) == brac))
        return all(a and b for a, b in out)

    _check(
        rep,
        "orbit counting formulas vs brute force (n <= 10)",
        True,
        "exhaustive orbit enumeration",
        orbit_counts,
    )
    return rep


SUITES = {
    "counterexample": suite_counterexample,
    "tables": suite_tables,
    "homology": suite_homology,
    "dims": suite_dims,
}


def run_suites(names, max_degree: int | None = None) -> list:
    """The reports of the named suites, in order.  max_degree goes to the
    suites that take one (tables, dims); one below 1 or one that no named
    suite takes raises ValueError, as does an unknown name."""
    for name in names:
        if name not in SUITES:
            raise ValueError(
                "unknown suite %r (have: %s)" % (name, ", ".join(sorted(SUITES)))
            )
    if max_degree is None:
        return [SUITES[name]() for name in names]
    if max_degree < 1:
        raise ValueError("max degree must be at least 1, got %d" % max_degree)
    takes = {name for name in names
             if "max_degree" in inspect.signature(SUITES[name]).parameters}
    if not takes:
        raise ValueError("suite %s takes no max degree" % ", ".join(names))
    return [SUITES[name](max_degree) if name in takes else SUITES[name]()
            for name in names]
