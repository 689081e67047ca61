"""Command line entry point.

Subcommands map one-to-one onto the library modules: predict-dims and
predict-modules run the two prediction pipelines, operad and multidegree
compute actual module structures, two-gen builds the comparison table on
two generators, tag handles structure-constant files and homology, and
verify replays the headline checks.  Output is text by default or --json;
predict-dims, operad and two-gen also take --csv.  Exit codes: 0 success
(and every check passing), 2 usage or input error, or an arithmetic
failure (ArithmeticError: ranks that disagree across primes, an inexact
division in the character solve), 3 a computation refused as infeasible.
Errors print one line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .errors import InfeasibleError


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=False, default=str))


def _emit_csv(rows, fieldnames) -> None:
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=fieldnames)
    w.writeheader()
    for r in rows:
        w.writerow({k: r.get(k, "") for k in fieldnames})
    sys.stdout.write(out.getvalue())


def _parse_partition(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise ValueError("expected comma-separated integers, got %r" % text)


# ------------------------------------------------------------- subcommands


def cmd_predict_dims(args) -> int:
    from .series import check_sequence, predict_dims

    seq = predict_dims(args.generators, args.degree)
    residues = check_sequence(args.generators, seq.dims).residues
    data = {
        "p": args.generators,
        "N": args.degree,
        "dims": list(seq.dims),
        "residues": list(residues),
    }
    if args.check_oeis_file:
        ref = []
        with open(args.check_oeis_file) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                ref.append(int(parts[-1]))
        upto = min(len(ref), len(seq.dims))
        mismatches = [
            n + 1 for n in range(upto) if ref[n] != seq.dims[n]
        ]
        data["oeis_file_terms_compared"] = upto
        data["oeis_file_matches"] = not mismatches
        if mismatches:
            data["first_mismatch_degree"] = mismatches[0]
        file_check = check_sequence(args.generators, ref[:upto])
        data["oeis_file_residues"] = list(file_check.residues)
        data["oeis_file_first_nonzero_residue"] = file_check.first_nonzero
    if args.json:
        _emit_json(data)
    elif args.csv:
        rows = [
            {"n": n + 1, "dim": d, "residue": r}
            for n, (d, r) in enumerate(zip(seq.dims, residues))
        ]
        _emit_csv(rows, ["n", "dim", "residue"])
    else:
        print("predicted dimensions on %d generators:" % args.generators)
        for n, (d, r) in enumerate(zip(seq.dims, residues), start=1):
            print("  %2d  %12d   residue %d" % (n, d, r))
        if args.check_oeis_file:
            print(
                "reference file: %s over %d terms"
                % (
                    "match" if data["oeis_file_matches"] else "MISMATCH",
                    data["oeis_file_terms_compared"],
                )
            )
    return 0 if data.get("oeis_file_matches", True) else 1


def cmd_predict_modules(args) -> int:
    from .lambda_ring import km_prediction, schur_decompose

    a, b = km_prediction(args.degree, args.degree)
    per_degree = {}
    for n in range(1, args.degree + 1):
        am = schur_decompose(a, n)
        bm = schur_decompose(b, n)
        per_degree[n] = {
            "a": {",".join(map(str, s)): m for s, m in sorted(am.mults.items())},
            "b": {",".join(map(str, s)): m for s, m in sorted(bm.mults.items())},
            "a_dim": am.dimension(),
            "b_dim": bm.dimension(),
        }
    data = {"d": args.degree, "N": args.degree, "degrees": per_degree}
    if args.json:
        _emit_json(data)
    else:
        for n, entry in per_degree.items():
            print("degree %d:" % n)
            print("  a: %s" % entry["a"])
            print("  b: %s" % entry["b"])
    return 0


def cmd_operad(args) -> int:
    from .cache import cached
    from .linalg import choose_primes
    from .operad import check_degree, consequences, multiplicity
    from .partitions import dim_irrep, partitions
    from .trees import normal_types

    n = args.degree
    if n < 1:
        raise ValueError("degree must be positive")
    check_degree(n)
    # checked before any relation is built; defaults depend on the shape
    primes = choose_primes(0, n, [args.prime]) if args.prime is not None else None
    shapes = (
        [_parse_partition(args.shape)] if args.shape is not None else list(partitions(n))
    )
    for shape in shapes:
        if sum(shape) != n or any(
            shape[i] < shape[i + 1] for i in range(len(shape) - 1)
        ) or shape[-1] < 1:
            raise ValueError("not a partition of %d: %s" % (n, shape))
    f_n = len(normal_types(n))
    j_n = len(consequences(n))
    reports = []
    total = 0
    for shape in shapes:
        d_lambda = dim_irrep(shape)
        key = {
            "n": n,
            "shape": list(shape),
            "primes": sorted(primes) if primes else "default",
        }
        mult = cached(
            "operad-mult", key, lambda s=shape: multiplicity(s, n, primes)
        )
        reports.append(
            {
                "n": n,
                "lambda": ",".join(map(str, shape)),
                "f_n": f_n,
                "j_n": j_n,
                "d_lambda": d_lambda,
                "rank": f_n * d_lambda - mult,
                "multiplicity": mult,
            }
        )
        total += mult * d_lambda
    full = len(shapes) == len(list(partitions(n)))
    if args.oracle:
        from .operad import naive_dim

        actual = naive_dim(n)
        print("# oracle: naive translate-span dim %d" % actual, file=sys.stderr)
        if full and actual != total:
            print("# oracle DISAGREES with the rank method", file=sys.stderr)
            return 1
    if args.json:
        _emit_json(reports if len(reports) > 1 else reports[0])
    elif args.csv:
        _emit_csv(reports, ["n", "lambda", "f_n", "j_n", "d_lambda", "rank", "multiplicity"])
    else:
        for r in reports:
            print(
                "n=%d lambda=(%s) mult=%d  (d_lambda=%d, relation rank %d of %d columns)"
                % (
                    r["n"],
                    r["lambda"],
                    r["multiplicity"],
                    r["d_lambda"],
                    r["rank"],
                    r["f_n"] * r["d_lambda"],
                )
            )
        if full:
            print("total multilinear dimension in degree %d: %d" % (n, total))
    return 0


def cmd_multidegree(args) -> int:
    from .multidegree import multidegree_dim, normal_monomials

    delta = _parse_partition(args.delta)
    dim = multidegree_dim(delta, primes=None)
    data = {
        "delta": list(delta),
        "degree": sum(delta),
        "dim": dim,
        "normal_monomials": len(normal_monomials(delta)),
    }
    if args.json:
        _emit_json(data)
    else:
        print(
            "content %s: dim %d (from %d normal monomials)"
            % (args.delta, dim, data["normal_monomials"])
        )
    return 0


def cmd_two_gen(args) -> int:
    from .twogen import two_gen_table

    rows = two_gen_table(
        max_degree=args.max_degree,
        span_bound=args.span_bound,
        predictions=not args.no_predictions,
    )
    fields = ["n", "reversible_dim", "jordan_span_dim", "b_dim"]
    if not args.no_predictions:
        fields += ["predicted_dim", "predicted_b_dim", "dim_match", "b_dim_match"]
    if args.json:
        _emit_json(rows)
    elif args.csv:
        _emit_csv(rows, fields)
    else:
        print("  ".join("%-14s" % f for f in fields))
        for r in rows:
            print(
                "  ".join(
                    "%-14s" % ("" if r.get(f) is None else r.get(f)) for f in fields
                )
            )
    return 0


def cmd_tag(args) -> int:
    from .tkk import AlgebraFD, ce_homology, sl2_decompose, tag

    with open(args.input) as fh:
        J = AlgebraFD.from_json(json.load(fh))
    J.check()
    L = tag(J)
    if args.homology is None:
        _emit_json(L.to_json())
        return 0
    h = ce_homology(L, args.homology)
    data = {
        "input_dim": J.dim,
        "tag_dim": L.dim,
        "homology_dims": list(h.dims),
        "chain_dims": list(h.chain_dims),
    }
    if h.degree_dims is not None:
        data["by_degree"] = [
            {",".join(map(str, k)): v for k, v in dd.items()} for dd in h.degree_dims
        ]
    if args.sl2:
        data["highest_weights"] = [list(t) for t in sl2_decompose(h)]
    if args.json:
        _emit_json(data)
    else:
        print("input dim %d, Lie algebra dim %d" % (J.dim, L.dim))
        print("homology dims: %s" % (data["homology_dims"],))
        print("chain dims:    %s" % (data["chain_dims"],))
        if args.sl2:
            for k, ws in enumerate(data["highest_weights"]):
                print("  H_%d highest weights: %s" % (k, ws))
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites

    names = [args.suite] if args.suite else list(SUITES)
    reports = run_suites(names, max_degree=args.max_degree)
    if args.json:
        _emit_json([r.to_json() for r in reports])
    else:
        for r in reports:
            print(r.format_text())
            print()
    return 0 if all(r.passed for r in reports) else 1


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freejordan",
        description="Exact computations with free Jordan algebras.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, csv=False):
        p.add_argument("--json", action="store_true", help="JSON output")
        if csv:
            p.add_argument("--csv", action="store_true", help="CSV output")

    p = sub.add_parser("predict-dims", help="dimension predictions from the series")
    p.add_argument("--generators", type=int, required=True, metavar="p")
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--check-oeis-file", metavar="PATH", help="b-file to compare against")
    common(p, csv=True)
    p.set_defaults(fn=cmd_predict_dims)

    p = sub.add_parser("predict-modules", help="predicted module decompositions")
    p.add_argument("--degree", type=int, required=True, metavar="N")
    common(p)
    p.set_defaults(fn=cmd_predict_modules)

    p = sub.add_parser("operad", help="multilinear module structure, by rank")
    p.add_argument("--degree", type=int, required=True, metavar="n")
    p.add_argument("--lambda", dest="shape", metavar="PART", help="one partition, e.g. 3,1")
    p.add_argument("--prime", type=int,
                   help="use one prime n < p < 2^31; a single prime is not certified")
    p.add_argument("--oracle", action="store_true", help="cross-check with the naive span")
    common(p, csv=True)
    p.set_defaults(fn=cmd_operad)

    p = sub.add_parser("multidegree", help="one multigraded component dimension")
    p.add_argument("--delta", required=True, metavar="d1,d2,...", help="generator content")
    common(p)
    p.set_defaults(fn=cmd_multidegree)

    p = sub.add_parser("two-gen", help="two-generator dimension table")
    p.add_argument("--max-degree", type=int, default=20, metavar="N")
    p.add_argument("--span-bound", type=int, default=12, metavar="B")
    p.add_argument("--no-predictions", action="store_true")
    common(p, csv=True)
    p.set_defaults(fn=cmd_two_gen)

    p = sub.add_parser("tag", help="Lie algebra from structure constants, and homology")
    p.add_argument("--input", required=True, metavar="J.json")
    p.add_argument("--homology", type=int, metavar="KMAX")
    p.add_argument("--sl2", action="store_true", help="decompose homology by weight")
    common(p)
    p.set_defaults(fn=cmd_tag)

    p = sub.add_parser("verify", help="replay the headline checks")
    p.add_argument("--suite", metavar="NAME", help="one of the named suites")
    p.add_argument("--max-degree", type=int, metavar="N")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleError as err:
        print("refused: %s" % err, file=sys.stderr)
        if err.estimate:
            print("estimated size: %s" % err.estimate, file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, RuntimeError, ArithmeticError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
