"""Command line layer, disk cache, and verification suites."""

import json
import time

import pytest

import freejordan.cache as cache_mod
import freejordan.cli as cli_mod
import freejordan.twogen as twogen_mod
from freejordan.cache import cache_get, cache_put, cached
from freejordan.cli import main
from freejordan.errors import UnluckyPrimeError
from freejordan.tables import MULTIDEGREE_DIMS, TWO_GEN_B_DIMS, TWO_GEN_DIMS
from freejordan.verify import (
    VerificationReport,
    _check,
    _multidegree_dims_from_characters,
    run_suites,
    suite_tables,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FREEJORDAN_CACHE", str(tmp_path / "cache"))


# ------------------------------------------------------------------- cache


def test_cache_round_trip():
    params = {"n": 6, "shape": [3, 2, 1]}
    assert cache_get("op", params) is None
    cache_put("op", params, 8)
    assert cache_get("op", params) == 8
    assert cache_get("op", {"n": 6, "shape": [3, 3]}) is None


def test_cached_computes_once():
    calls = []

    def compute():
        calls.append(1)
        return 42

    assert cached("slow", {"k": 1}, compute) == 42
    assert cached("slow", {"k": 1}, compute) == 42
    assert len(calls) == 1


def test_cache_source_change_is_a_miss(monkeypatch):
    cache_put("op", {"n": 1}, "old")
    monkeypatch.setattr(cache_mod, "source_digest", lambda: "edited source")
    assert cache_get("op", {"n": 1}) is None


def test_corrupt_entry_recomputed_with_warning(capsys):
    cache_put("op", {"n": 2}, 7)
    path = cache_mod._entry_path("op", {"n": 2})
    path.write_text("{ not json")
    assert cache_get("op", {"n": 2}) is None
    assert "corrupt cache entry" in capsys.readouterr().err
    assert cached("op", {"n": 2}, lambda: 7) == 7
    assert cache_get("op", {"n": 2}) == 7  # repaired


def test_cache_key_order_does_not_matter():
    cache_put("op", {"a": 1, "b": 2}, "v")
    assert cache_get("op", {"b": 2, "a": 1}) == "v"


# ------------------------------------------------------------------ verify


def test_verify_fast_suites_pass():
    for report in run_suites(["counterexample", "homology"]):
        assert report.passed, report.format_text()


def test_verify_report_json_shape():
    (report,) = run_suites(["homology"])
    blob = report.to_json()
    assert blob["suite"] == "homology"
    assert blob["passed"] is True
    for chk in blob["checks"]:
        assert set(chk) == {
            "name", "expected", "provenance", "computed", "passed", "runtime",
        }
        assert chk["runtime"].endswith("s")


def test_verify_check_catches_exceptions():
    report = VerificationReport(suite="x")

    def boom():
        raise RuntimeError("nope")

    _check(report, "exploding check", 1, "n/a", boom)
    assert not report.passed
    assert "nope" in report.results[0].computed
    assert "FAIL" in report.format_text()


def test_verify_tables_builds_each_module_once(monkeypatch):
    import freejordan.operad as operad_mod

    calls = []
    real = operad_mod.jord_module

    def counting(n, *a, **k):
        calls.append(n)
        return real(n, *a, **k)

    monkeypatch.setattr(operad_mod, "jord_module", counting)
    report = suite_tables(4)
    assert report.passed
    assert report.results[-1].name == "dim of the content-(9,1,1) component"
    assert sorted(calls) == [1, 2, 3, 4]


def test_verify_certifies_every_published_multidegree_dim():
    # the character pipeline with Kostka numbers, independent of the rank
    # method, gives all 22 frozen values
    assert len(MULTIDEGREE_DIMS) == 22
    assert _multidegree_dims_from_characters() == MULTIDEGREE_DIMS


def test_verify_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["no-such-suite"])


# --------------------------------------------------------------------- cli


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_predict_dims_json(capsys):
    code, out, _ = run_cli(capsys, "predict-dims", "--generators", "2",
                           "--degree", "10", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 2 and data["N"] == 10
    assert data["dims"] == list(TWO_GEN_DIMS[:10])
    assert data["residues"] == [0] * 10


def test_cli_predict_dims_reference_file(capsys, tmp_path):
    # a b-file holding the *actual* two-generator dims disagrees at 19,
    # and its own residue sequence first fails there with value 2
    from freejordan.twogen import reversible_dim

    bfile = tmp_path / "b.txt"
    bfile.write_text(
        "# actual dims\n"
        + "\n".join("%d %d" % (n, reversible_dim(n)) for n in range(1, 21))
    )
    code, out, _ = run_cli(capsys, "predict-dims", "--generators", "2",
                           "--degree", "20", "--check-oeis-file", str(bfile),
                           "--json")
    assert code == 1
    data = json.loads(out)
    assert data["oeis_file_matches"] is False
    assert data["first_mismatch_degree"] == 19
    assert data["oeis_file_first_nonzero_residue"] == 19
    assert data["oeis_file_residues"][18] == 2


def test_cli_predict_modules(capsys):
    code, out, _ = run_cli(capsys, "predict-modules", "--degree", "4", "--json")
    assert code == 0
    assert json.loads(out) == {
        "d": 4,
        "N": 4,
        "degrees": {
            "1": {"a": {"1": 1}, "b": {}, "a_dim": 1, "b_dim": 0},
            "2": {"a": {"2": 1}, "b": {"1,1": 1}, "a_dim": 1, "b_dim": 1},
            "3": {"a": {"2,1": 1, "3": 1}, "b": {"2,1": 1}, "a_dim": 3, "b_dim": 2},
            "4": {
                "a": {"2,1,1": 1, "2,2": 2, "3,1": 1, "4": 1},
                "b": {"2,1,1": 1, "3,1": 2},
                "a_dim": 11,
                "b_dim": 9,
            },
        },
    }


def test_cli_operad_full_degree(capsys):
    code, out, _ = run_cli(capsys, "operad", "--degree", "4", "--json")
    assert code == 0
    rows = json.loads(out)
    assert {r["lambda"]: r["multiplicity"] for r in rows} == {
        "4": 1, "3,1": 1, "2,2": 2, "2,1,1": 1, "1,1,1,1": 0,
    }
    for r in rows:
        assert r["f_n"] == 2 and r["j_n"] == 1
        assert r["rank"] == r["f_n"] * r["d_lambda"] - r["multiplicity"]
    code, out, _ = run_cli(capsys, "operad", "--degree", "4", "--lambda", "2,2")
    assert code == 0
    assert "relation rank 2 of 4 columns" in out


def test_cli_operad_single_shape_and_cache_hit(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "operad", "--degree", "5",
                           "--lambda", "3,2", "--json")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 3

    import freejordan.operad as operad_mod

    def poisoned(*a, **k):
        raise AssertionError("rank recomputed despite cache")

    monkeypatch.setattr(operad_mod, "multiplicity", poisoned)
    code, out, _ = run_cli(capsys, "operad", "--degree", "5",
                           "--lambda", "3,2", "--json")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 3


def test_cli_operad_prime_gets_its_own_entry(capsys):
    code, out, _ = run_cli(capsys, "operad", "--degree", "4",
                           "--lambda", "2,2", "--prime", "1073741789", "--json")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 2


@pytest.mark.parametrize("degree, prime", [("4", "2"), ("5", "3")])
def test_cli_operad_rejects_a_prime_not_above_the_degree(capsys, degree, prime):
    # without the check both print wrong totals (18 for 11, 60 for 55), exit 0
    code, out, err = run_cli(capsys, "operad", "--degree", degree, "--prime", prime)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceed the degree" in err


def test_cli_operad_refuses_prime_zero(capsys):
    # 0 used to read as no prime: the default primes ran, exit 0
    code, out, err = run_cli(capsys, "operad", "--degree", "4", "--prime", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not prime" in err


@pytest.mark.parametrize("prime", ["4294967311", "2305843009213693951"])
def test_cli_operad_refuses_a_prime_from_2_31(capsys, prime):
    # int64 overflow used to print a total of 4 instead of 55, exit 0
    code, out, err = run_cli(capsys, "operad", "--degree", "5", "--prime", prime)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "2^31" in err


def test_cli_operad_oracle_agrees(capsys):
    code, out, err = run_cli(capsys, "operad", "--degree", "5", "--json", "--oracle")
    assert code == 0
    assert "oracle" in err and "DISAGREES" not in err
    rows = json.loads(out)
    assert sum(r["multiplicity"] * r["d_lambda"] for r in rows) == 55


def test_cli_operad_bad_partition(capsys):
    code, _, err = run_cli(capsys, "operad", "--degree", "4", "--lambda", "2,3")
    assert code == 2
    assert "partition" in err


def test_cli_operad_refuses_above_the_degree_bound(capsys):
    # one shape or all, the bound applies before any generator or block is
    # built, so the refusal is immediate
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "operad", "--degree", "10", "--lambda", "4,3,2,1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and not out
    assert "refused" in err
    assert "34 x 768 = 26112 columns in the widest shape" in err


def test_cli_multidegree(capsys):
    code, out, _ = run_cli(capsys, "multidegree", "--delta", "2,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["degree"] == 3


def test_cli_multidegree_refusal(capsys):
    code, _, err = run_cli(capsys, "multidegree", "--delta", "9,9,9")
    assert code == 3
    assert "refused" in err and "estimated size" in err


def test_cli_multidegree_refuses_large_span_quickly(capsys):
    # (7, 2, 2) passes the degree and MAX_PARTS checks, but its 30,300
    # columns give an echelon basis of up to 1.8 GB; the refusal comes
    # before any monomial is built
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "multidegree", "--delta", "7,2,2")
    assert code == 3
    assert time.perf_counter() - start < 1
    assert "estimated size: up to 108900 spanning monomials" in err


def test_cli_multidegree_garbage(capsys):
    code, _, err = run_cli(capsys, "multidegree", "--delta", "2,x")
    assert code == 2


def test_cli_multidegree_states_the_generator_limit(capsys):
    code, _, err = run_cli(capsys, "multidegree", "--delta", "1,1,1,1")
    assert code == 2
    assert "4 generators in use; at most 3 are supported" in err
    assert "max_parts" not in err


def test_cli_two_gen_table(capsys):
    code, out, _ = run_cli(capsys, "two-gen", "--max-degree", "8",
                           "--span-bound", "8", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["reversible_dim"] for r in rows] == list(TWO_GEN_DIMS[:8])
    assert [r["b_dim"] for r in rows] == list(TWO_GEN_B_DIMS[:8])
    assert all(r["dim_match"] and r["b_dim_match"] for r in rows)


def test_cli_two_gen_refuses_a_span_bound_past_14_before_any_span(capsys, monkeypatch):
    import freejordan.twogen as twogen_mod

    def no_walk(*args):
        raise AssertionError("a block was built before the refusal")

    monkeypatch.setattr(twogen_mod, "_span_ranks", no_walk)
    code, out, err = run_cli(capsys, "two-gen", "--max-degree", "16",
                             "--span-bound", "15", "--no-predictions")
    assert code == 3 and not out
    assert "3235-column block" in err


def test_cli_two_gen_csv(capsys):
    import csv as csv_mod
    import io

    code, out, _ = run_cli(capsys, "two-gen", "--max-degree", "5",
                           "--span-bound", "5", "--no-predictions", "--csv")
    assert code == 0
    rows = list(csv_mod.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    assert rows[4]["reversible_dim"] == "20"


def test_cli_tag_structure_and_homology(capsys, tmp_path):
    from freejordan.tkk import AlgebraFD, truncated_free_jordan

    J = truncated_free_jordan(2, 2)
    path = tmp_path / "J.json"
    path.write_text(json.dumps(J.to_json()))

    from freejordan.tkk import b_space

    b = len(b_space(J).basis)
    code, out, _ = run_cli(capsys, "tag", "--input", str(path))
    assert code == 0
    L = AlgebraFD.from_json(json.loads(out))
    assert L.kind == "lie"
    assert L.dim == 3 * J.dim + b

    code, out, _ = run_cli(capsys, "tag", "--input", str(path),
                           "--homology", "1", "--sl2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tag_dim"] == 3 * J.dim + b
    assert data["homology_dims"][0] == 1
    assert data["highest_weights"][0] == [0]


def test_cli_tag_rejects_non_jordan_table(capsys, tmp_path):
    blob = {
        "kind": "jordan",
        "dim": 2,
        "labels": ["a", "b"],
        "parity": [0, 0],
        "table": [[0, 0, [1, 1, 1]], [0, 1, [0, 1, 1]], [1, 0, [0, 1, 1]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, _, err = run_cli(capsys, "tag", "--input", str(path), "--homology", "1")
    assert code == 2


@pytest.mark.parametrize("labels, parity, table, dim", [
    (["a"], [0], [[0]], 1),  # a row without its pair
    (["a"], [0], 5, 1),  # a table that is not a list
    (["a"], [0], [[0, 0, [3, 1, 1]]], 1),  # a product outside the basis
    (["a", "b"], [0], [[0, 0, [0, 1, 1]]], 2),  # one parity bit for two vectors
    (["a"], [0], [[0, 4, [0, 1, 1]]], 1),  # a pair outside the basis
    (["a"], [0], [[0, 0, [0, 1, 1]]], 5),  # a dim that is not the label count
], ids=["labels0-parity0-table0", "labels1-parity1-5", "labels2-parity2-table2",
        "labels3-parity3-table3", "labels4-parity4-table4", "dim-not-labels"])
def test_cli_tag_rejects_malformed_structure_constants(capsys, tmp_path, labels,
                                                       parity, table, dim):
    blob = {"kind": "jordan", "dim": dim, "labels": labels,
            "parity": parity, "table": table}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "tag", "--input", str(path), "--homology", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("degree", [None, 1]),
    ("sl2_weight", [None, 0]),
    ("parity", ["x", 0]),
    ("parity", [2, 0]),
    ("degree", [1, [1, 0]]),
], ids=["degree-null", "sl2_weight-null", "parity-x", "parity-2", "degree-mixed"])
def test_cli_tag_names_a_malformed_grading(capsys, tmp_path, field, value):
    # the first two used to end in a TypeError traceback, the parity bits
    # in a message about the jordan symmetry; degrees of mixed lengths were
    # accepted without --homology
    blob = {"kind": "jordan", "labels": ["a", "b"], "table": [[0, 0, [0, 1, 1]]],
            field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "tag", "--input", str(path), "--homology", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s " % field) and err.count("\n") == 1


def test_cli_tag_refuses_a_non_jordan_input(capsys, tmp_path):
    # it used to exit 0 with homology dims [1, 6]
    from test_tkk import non_jordan_j25

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(non_jordan_j25().to_json()))
    code, out, err = run_cli(capsys, "tag", "--input", str(path), "--homology", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a Jordan algebra" in err


def test_cli_tag_blames_j_for_a_doubled_product(capsys, tmp_path):
    # the [L_a, L_{aa}] probe passed this J(2,4), and tag then blamed the
    # TAG algebra for a failed Jacobi triple
    from test_tkk import doubled_product
    from freejordan.tkk import truncated_free_jordan

    J = truncated_free_jordan(2, 4)
    bad = doubled_product(J, J.labels.index("2"), J.labels.index("12"))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out, err = run_cli(capsys, "tag", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "not a Jordan algebra" in err and "Jacobi" not in err


@pytest.mark.parametrize("field", ["table", "labels"])
def test_cli_tag_names_a_missing_field(capsys, tmp_path, field):
    blob = {"kind": "jordan", "labels": ["a"], "table": [[0, 0, [0, 1, 1]]]}
    del blob[field]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "tag", "--input", str(path), "--homology", "1")
    assert code == 2
    assert out == ""
    assert err == "error: structure constants lack the %s field\n" % field


def test_cli_tag_refuses_a_negative_homology_degree(capsys, tmp_path):
    # used to print "homology dims: []" and exit 0
    from freejordan.tkk import truncated_free_jordan

    path = tmp_path / "J.json"
    path.write_text(json.dumps(truncated_free_jordan(2, 2).to_json()))
    code, out, err = run_cli(capsys, "tag", "--input", str(path), "--homology", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "kmax" in err


def test_cli_tag_missing_input_file_exits_two(capsys, tmp_path):
    # the OSError class of the exit codes
    path = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "tag", "--input", str(path), "--homology", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "absent.json" in err
    assert "Traceback" not in err


def test_cli_verify_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counterexample", "--json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["passed"] is True


@pytest.mark.parametrize("suite", ["counterexample", "homology"])
def test_cli_verify_refuses_a_max_degree_its_suite_ignores(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-degree", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert suite in err


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_cli_verify_refuses_a_max_degree_below_one(capsys, degree):
    # on dims, 0 used to pass every check vacuously (exit 0) and -3 to
    # fail some (exit 1)
    code, out, err = run_cli(capsys, "verify", "--suite", "dims", "--max-degree", degree)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "at least 1" in err


def test_cli_verify_max_degree_without_a_suite_goes_to_tables_and_dims(
        capsys, monkeypatch):
    import freejordan.verify as verify_mod

    seen = []

    def takes_one(name):
        def suite(max_degree=6):
            seen.append((name, max_degree))
            return VerificationReport(name)
        return suite

    def takes_none(name):
        def suite():
            seen.append((name, None))
            return VerificationReport(name)
        return suite

    for name in list(verify_mod.SUITES):
        spy = takes_one if name in ("tables", "dims") else takes_none
        monkeypatch.setitem(verify_mod.SUITES, name, spy(name))
    code, _, _ = run_cli(capsys, "verify", "--max-degree", "3")
    assert code == 0
    assert seen == [("counterexample", None), ("tables", 3), ("homology", None),
                    ("dims", 3)]


def test_cli_arithmetic_error_exits_two(capsys, monkeypatch):
    def unlucky(args):
        raise UnluckyPrimeError({1048573: 5, 1048571: 4})

    monkeypatch.setattr(cli_mod, "cmd_two_gen", unlucky)
    code, _, err = run_cli(capsys, "two-gen", "--max-degree", "3")
    assert code == 2
    assert err.startswith("error: rank disagreement")
    assert "1048571" in err
    assert "Traceback" not in err


def test_cli_two_gen_rows_not_reversal_fixed_exit_two(capsys, monkeypatch):
    # xy without its reverse yx, first so that no block is full before it
    factors = [(2, 1, (0b01,))] + [f for f in twogen_mod._FACTORS if f[:2] != (2, 1)]
    monkeypatch.setattr(twogen_mod, "_FACTORS", tuple(factors))
    code, _, err = run_cli(capsys, "two-gen", "--max-degree", "4", "--no-predictions")
    assert code == 2
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "reversal-fixed" in err
    assert "Traceback" not in err


def test_cli_operad_dropped_slot_swap_exit_two(capsys, monkeypatch):
    import freejordan.operad as operad_mod

    swaps = operad_mod.type_swap_perms
    monkeypatch.setattr(operad_mod, "type_swap_perms",
                        lambda comp, n: swaps(comp, n)[1:])
    code, _, err = run_cli(capsys, "operad", "--degree", "6", "--lambda", "3,2,1")
    assert code == 2
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "character formula" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["predict-modules", "--degree", "4"],
    ["multidegree", "--delta", "2,1"],
    ["tag", "--input", "J.json"],
    ["verify", "--suite", "homology"],
])
def test_cli_csv_only_where_a_subcommand_writes_it(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--csv"])
    assert exc.value.code == 2


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["predict-dims", "--generators", "2"])  # missing --degree
    assert exc.value.code == 2
