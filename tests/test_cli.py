import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from torickstab import fibration, invariants, jsonio, quadrature, toricmetrics
from torickstab.cli import EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from torickstab.polynomial import Polynomial
from torickstab.polytope import AffineFunction
from torickstab.weights import WeightFn, soliton_weight_pair

from conftest import moved_canonical

INTERVAL = json.dumps({"facets": [
    {"normal": [1], "offset": 1}, {"normal": [-1], "offset": 1}]})
P2 = json.dumps({"facets": [
    {"normal": [1, 0], "offset": 1},
    {"normal": [0, 1], "offset": 1},
    {"normal": [-1, -1], "offset": 1}]})
UNBOUNDED = json.dumps({"facets": [{"normal": [1], "offset": 1}]})
FIB = json.dumps({
    "fiber": json.loads(INTERVAL),
    "factors": [{"n": 1, "k": 2, "p": [1], "c": 2}],
})


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_polytope_info(capsys):
    code, rep = _run(capsys, "polytope-info", "--polytope", P2)
    assert code == EXIT_OK
    assert rep["results"]["dim"] == 2
    assert rep["results"]["volume"] == "9/2"
    assert rep["results"]["canonical_fano"] is True
    verts = {tuple(int(c) for c in v) for v in rep["results"]["vertices"]}
    assert verts == {(-1, -1), (2, -1), (-1, 2)}


def test_futaki_all_affine(capsys):
    code, rep = _run(capsys, "futaki", "--polytope", INTERVAL,
                     "--v", '"x+2"', "--w", '"4*x+4"', "--all-affine")
    assert code == EXIT_OK
    rows = rep["results"]
    assert len(rows) == 2  # constant and coordinate directions
    linear = rows[1]
    assert linear["boundary"]["value"] == pytest.approx(4.0 / 3.0)
    assert linear["fano_closed_form"]["value"] == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize("argv, message", [
    (["futaki", "--polytope", P2, "--v", "1", "--w", "3"],
     "SchemaError: direction: need --direction or --all-affine"),
    (["fibration", "enumerate", "--fiber", INTERVAL],
     "SchemaError: factor: enumerate needs at least one --factor")],
    ids=["futaki-no-direction", "enumerate-no-factor"])
def test_a_command_missing_its_one_required_choice_exits_2(capsys, argv, message):
    assert main(argv) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == {"error": message}


def test_verify_futaki_rejects_a_grid_past_the_simplex_cap(capsys):
    # resolution 10^5 on P^2 would bisect to 2^27 simplices
    assert main(["verify", "futaki", "--grid", "100000"]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == {"error": (
        "ValueError: grid resolution 100000 needs 134217728 simplices, "
        "more than MAX_SIMPLICES = 131072")}


def test_extremal(capsys):
    code, rep = _run(capsys, "extremal", "--polytope", INTERVAL,
                     "--v", "1", "--w0", "1")
    assert code == EXIT_OK
    assert rep["results"]["ell_ext"]["a"] == "2"
    assert rep["results"]["ell_ext"]["zeta"] == ["0"]


def test_soliton_inline_weight(capsys):
    code, rep = _run(capsys, "soliton", "--polytope", INTERVAL,
                     "--weight", '{"poly": "x+2"}')
    assert code == EXIT_OK
    xi = rep["results"]["xi0"][0]
    assert -1.0 < xi < 0.0
    assert xi == pytest.approx(-0.5276195198969627, abs=1e-8)
    assert rep["results"]["converged"] is True


def test_reeb_via_fibration(capsys):
    code, rep = _run(capsys, "fibration", "reeb", "--spec", FIB, "--s", "3")
    assert code == EXIT_OK
    assert rep["results"]["xi0"][0] == pytest.approx(0.13148290817953467,
                                                     abs=1e-8)


def test_fibration_soliton_with_a_base_weight(capsys):
    # p v with v = x + 3 moves the soliton off the v = 1 value -0.5276...
    code, rep = _run(capsys, "fibration", "soliton", "--spec", FIB, "--v", '"x+3"')
    assert code == EXIT_OK and rep["results"]["converged"] is True
    v = WeightFn.affine_power(AffineFunction([1], 3), 1)
    want = fibration.pv_soliton_pipeline(jsonio.fibration_from_json(json.loads(FIB)), v).xi0
    assert rep["results"]["xi0"] == list(want)
    assert abs(want[0] + 0.5276195198969627) > 1e-3


@pytest.mark.parametrize("s", ["-0.5", "inf"])
@pytest.mark.parametrize("command", [["reeb", "--polytope", P2, "--weight", "1"],
                                     ["fibration", "reeb", "--spec", FIB]],
                         ids=["reeb", "fibration-reeb"])
def test_reeb_exponent_must_be_finite_and_positive(capsys, command, s):
    code = main(command + ["--s", s])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert not captured.out
    assert "finite and positive" in json.loads(captured.err)["error"]


def test_fibration_enumerate(capsys):
    code, rep = _run(capsys, "fibration", "enumerate",
                     "--fiber", INTERVAL, "--factor", "n=1,k=2")
    assert code == EXIT_OK
    tuples = {tuple(t[0]) for t in rep["results"]["tuples"]}
    assert tuples == {(-1,), (0,), (1,)}
    assert rep["results"]["count"] == 3


def test_successive_calls_parse_their_own_factor_lists(capsys):
    # the parser is built once per process; --factor appends must not leak between calls
    one = ["fibration", "enumerate", "--fiber", INTERVAL, "--factor", "n=1,k=2"]
    two = one + ["--factor", "n=1,k=1"]
    reports = [_run(capsys, *argv)[1] for argv in (one, two, one)]
    k2, k1 = {"n": 1, "k": 2}, {"n": 1, "k": 1}
    assert [r["inputs"]["factors"] for r in reports] == [[k2], [k2, k1], [k2]]
    assert [r["results"]["count"] for r in reports] == [3, 3, 3]


def test_polytope_info_cut_cube(capsys):
    cube = [{"normal": [s * int(i == j) for j in range(3)], "offset": 1}
            for i in range(3) for s in (1, -1)]
    cut = json.dumps({"facets": cube + [{"normal": [1, 1, 1], "offset": 2}]})
    code, rep = _run(capsys, "polytope-info", "--polytope", cut)
    assert code == EXIT_OK
    assert rep["results"]["volume"] == "47/6"
    assert [f["sigma_mass"] for f in rep["results"]["facets"]] == [
        "7/2", "4", "7/2", "4", "7/2", "4", "1/2"]


def test_fibration_validate_rejects(capsys):
    bad = json.dumps({
        "fiber": json.loads(INTERVAL),
        "factors": [{"n": 1, "k": 1, "p": [1], "c": 1}],
    })
    code = main(["fibration", "validate", "--spec", bad])
    capsys.readouterr()
    assert code == EXIT_VALIDATION


def test_verify_quadrature_all_pass(capsys):
    code, rep = _run(capsys, "verify", "quadrature")
    assert code == EXIT_OK
    assert rep["results"]["all_pass"] is True
    assert all(row["pass"] for row in rep["results"]["checks"])


def test_verify_quadrature_checks_the_exp_integral_exactly(capsys):
    # the closed form of int exp(x/2 + y/5) over P^2 against Hermite--Genocchi at
    # machine precision
    code, rep = _run(capsys, "verify", "quadrature")
    rows = {row["check"]: row for row in rep["results"]["checks"]}
    row = rows["P2 exp(x/2 + y/5) vs divided differences at the vertices"]
    assert code == EXIT_OK and row["pass"] and row["tol"] == 1e-12


def test_verify_all_leaves_numpy_random_unloaded():
    # the suites draw no numpy random numbers: a fresh interpreter that runs them
    # never imports numpy.random (5.7 MB of resident memory)
    script = ("import sys\n"
              "from torickstab.cli import main\n"
              "code = main(['verify', 'all', '--out', sys.argv[1]])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", script, str(Path(tmp) / "report.json")],
                              capture_output=True, text=True, timeout=300, check=True,
                              env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["0", "False"], proc


def test_verify_identities_checks_closed_form_curvature(capsys):
    code, rep = _run(capsys, "verify", "identities")
    assert code == EXIT_OK
    rows = {row["check"]: row for row in rep["results"]["checks"]}
    row = rows["scal_v closed form vs direct FD (bump metric)"]
    assert row["pass"] and row["residual"] <= row["tol"] == 1e-5


def test_unbounded_polytope_exits_validation(capsys):
    code = main(["polytope-info", "--polytope", UNBOUNDED])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.startswith('{"error": "Unbounded:'), err


def test_solver_iteration_cap_exits_solver(capsys):
    code, rep = _run(capsys, "soliton", "--polytope", INTERVAL,
                     "--weight", '{"poly": "x+2"}', "--max-iter", "1")
    assert code == EXIT_SOLVER
    assert rep["results"]["partial"]["converged"] is False


@pytest.mark.parametrize("argv", [
    ["soliton", "--weight", '"x1+2"', "--tol", "inf"],
    ["soliton", "--weight", '"x1+2"', "--tol", "nan"],
    ["soliton", "--weight", '"x1+2"', "--tol", "-1"],
    ["soliton", "--weight", '"x1+2"', "--max-iter", "-5"],
    ["soliton", "--weight", '"x1+2"', "--max-iter", "0"],
    ["reeb", "--weight", '"x1+2"', "--tol", "nan"],
    ["futaki", "--all-affine", "--w", "1", "--tol", "nan",
     "--v", '{"sum": [{"exp": {"zeta": ["1/3", "0"], "a": 0}}, 1]}'],
    # the exact and closed-form paths check tol as the adaptive path does, in the quadrature
    ["futaki", "--all-affine", "--v", '"x1/2+1"', "--w", '"3*x1+4"', "--tol", "nan"],
    ["futaki", "--all-affine", "--v", '"x1/2+1"', "--w", '"3*x1+4"', "--tol", "inf"],
    ["futaki", "--all-affine", "--v", '"x1/2+1"', "--w", '"3*x1+4"', "--tol", "-1"],
    ["futaki", "--all-affine", "--w", "1", "--tol", "nan",
     "--v", '{"exp": {"zeta": ["1/3", "0"], "a": 0}}'],
    ["extremal", "--v", "1", "--w0", '"x1+2"', "--tol", "nan"],
    ["fibration", "weights", "--spec", FIB, "--tol", "nan"],
    ["fibration", "soliton", "--spec", FIB, "--tol", "inf"],
    ["fibration", "reeb", "--spec", FIB, "--tol", "-1"],
], ids=["soliton-tol-inf", "soliton-tol-nan", "soliton-tol-negative", "soliton-max-iter-negative",
        "soliton-max-iter-0", "reeb-tol-nan", "futaki-adaptive-tol-nan",
        "futaki-exact-tol-nan", "futaki-exact-tol-inf", "futaki-exact-tol-negative",
        "futaki-closed-form-tol-nan", "extremal-exact-tol-nan", "fibration-weights-tol-nan",
        "fibration-soliton-tol-inf", "fibration-reeb-tol-negative"])
def test_invalid_tolerance_or_iteration_cap_exits_validation(capsys, argv):
    code = main(argv if argv[0] == "fibration" else argv + ["--polytope", P2])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert not captured.out
    assert json.loads(captured.err)["error"].startswith("ValueError:")


@pytest.mark.parametrize("argv, inputs", [
    (["soliton", "--polytope", INTERVAL, "--weight", '{"poly": "x+2"}'],
     ["polytope", "weight"]),
    (["reeb", "--polytope", INTERVAL, "--weight", '{"poly": "x+2"}'],
     ["polytope", "weight", "s"]),
    (["fibration", "soliton", "--spec", FIB], ["fibration"]),
], ids=["soliton", "reeb", "fibration-soliton"])
def test_iteration_cap_partial_report_form(capsys, tmp_path, argv, inputs):
    csv_path = tmp_path / "trace.csv"
    code, rep = _run(capsys, *argv, "--max-iter", "1", "--csv", str(csv_path))
    assert code == EXIT_SOLVER
    assert list(rep) == ["command", "version", "inputs", "results", "timings"]
    assert rep["command"] == " ".join(argv[:2] if argv[0] == "fibration" else argv[:1])
    assert list(rep["inputs"]) == inputs
    assert list(rep["results"]) == ["error", "partial"]
    assert rep["results"]["error"] == "no convergence in 1 iterations"
    partial = rep["results"]["partial"]
    assert set(partial) == {"xi0", "converged", "iterations", "objective",
                            "grad_norm", "hessian_min_eigenvalue", "trace"}
    assert partial["converged"] is False and partial["iterations"] == 1
    assert not csv_path.exists()  # no trace file for a partial result


@pytest.mark.parametrize("command", ["soliton", "reeb"])
@pytest.mark.parametrize("extra", [["--v", '"x+3"'], ["--fibration", FIB]], ids=["v", "fibration"])
def test_solver_fibration_route_is_gone(capsys, command, extra):
    # `fibration soliton|reeb --spec` is the one fibration route
    with pytest.raises(SystemExit) as info:
        main([command, "--polytope", INTERVAL, "--weight", '"x+2"', *extra])
    assert info.value.code == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["validate", "--spec", FIB, "--tol", "1e-9"],
    ["validate", "--spec", FIB, "--max-iter", "5"],
    ["validate", "--spec", FIB, "--csv", "t.csv"],
    ["validate", "--spec", FIB, "--v", '"x+3"'],
    ["enumerate", "--fiber", INTERVAL, "--factor", "n=1,k=2", "--spec", FIB],
    ["enumerate", "--fiber", INTERVAL, "--factor", "n=1,k=2", "--tol", "1e-3"],
    ["weights", "--spec", FIB, "--csv", "t.csv"],
    ["weights", "--spec", FIB, "--max-iter", "5"],
    ["weights", "--spec", FIB, "--fiber", INTERVAL],
    ["soliton", "--spec", FIB, "--s", "3"],
    ["soliton", "--spec", FIB, "--factor", "n=1,k=2"],
    ["reeb", "--spec", FIB, "--fiber", INTERVAL],
], ids=["validate-tol", "validate-max-iter", "validate-csv", "validate-v", "enumerate-spec",
        "enumerate-tol", "weights-csv", "weights-max-iter", "weights-fiber", "soliton-s",
        "soliton-factor", "reeb-fiber"])
def test_fibration_subcommands_take_only_the_options_they_read(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(["fibration", *argv])
    assert info.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reports_are_deterministic(capsys):
    def strip(rep):
        rep.pop("timings", None)
        return rep

    _, a = _run(capsys, "futaki", "--polytope", P2, "--v", "1",
                "--w", "3", "--all-affine")
    _, b = _run(capsys, "futaki", "--polytope", P2, "--v", "1",
                "--w", "3", "--all-affine")
    assert strip(a) == strip(b)


def test_csv_trace(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code, _ = _run(capsys, "soliton", "--polytope", INTERVAL,
                   "--weight", '{"poly": "x+2"}', "--csv", str(path))
    assert code == EXIT_OK
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iteration", "xi1", "objective", "step"]
    assert len(rows) > 2
    float(rows[1][1])  # entries parse as floats


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["polytope-info", "--polytope", INTERVAL, "--out", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK
    with open(path) as f:
        rep = json.load(f)
    assert rep["results"]["volume"] == "2"


def test_futaki_values_are_the_exact_values_in_floats(capsys):
    # every row of an exact report reads value == float(exact), with no
    # cancellation noise from subtracting the boundary and bulk floats
    f1 = jsonio.polytope_to_json(moved_canonical("F1", (), ()))
    moved_p2 = jsonio.polytope_to_json(
        moved_canonical("P2", (), (Fraction(3, 11), Fraction(-5, 11))))
    v = json.dumps({"affine_powers": [{"zeta": [1, 0], "a": 3, "pow": 2},
                                      {"zeta": [1, 1], "a": 5, "pow": 1}]})
    for poly in (f1, moved_p2):
        code, rep = _run(capsys, "futaki", "--all-affine", "--polytope", json.dumps(poly),
                         "--v", v, "--w", '"2*x1*x2-x2+7"')
        assert code == EXIT_OK
        rows = rep["results"]
        assert len(rows) == 3
        for row in rows:
            for report in row.values():
                assert report["value"] == float(Fraction(report["exact"]))
    assert set(rows[0]) == {"boundary"}  # the moved P^2 is not canonical


def test_polytope_info_rejects_a_redundant_half_space(capsys):
    square = json.dumps({"facets": [
        {"normal": [1, 0], "offset": 1}, {"normal": [-1, 0], "offset": 1},
        {"normal": [0, 1], "offset": 1}, {"normal": [0, -1], "offset": 1},
        {"normal": [1, 0], "offset": 5}]})
    assert main(["polytope-info", "--polytope", square]) == EXIT_VALIDATION
    assert "NotDelzant" in json.loads(capsys.readouterr().err)["error"]


def test_file_argument_named_with_a_leading_digit(capsys, tmp_path, monkeypatch):
    (tmp_path / "2d.json").write_text(INTERVAL)
    monkeypatch.chdir(tmp_path)
    code, rep = _run(capsys, "polytope-info", "--polytope", "2d.json")
    assert code == EXIT_OK
    assert rep["results"]["volume"] == "2"


@pytest.mark.parametrize("arg, message", [
    ('{"facets": [', "polytope: invalid JSON"),
    ("missing.json", "polytope: cannot read 'missing.json'"),
], ids=["malformed-inline", "missing-file"])
def test_bad_json_argument_exits_validation(capsys, tmp_path, monkeypatch, arg, message):
    monkeypatch.chdir(tmp_path)
    assert main(["polytope-info", "--polytope", arg]) == EXIT_VALIDATION
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_malformed_file_exits_validation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"facets": [')
    assert main(["polytope-info", "--polytope", str(path)]) == EXIT_VALIDATION
    assert "polytope: invalid JSON" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("argv, path", [
    (["validate"], "spec"),
    (["weights"], "spec"),
    (["soliton"], "spec"),
    (["reeb"], "spec"),
    (["enumerate", "--factor", "n=1,k=2"], "fiber"),
], ids=["validate", "weights", "soliton", "reeb", "enumerate"])
def test_fibration_missing_input_exits_validation(capsys, argv, path):
    assert main(["fibration", *argv]) == EXIT_VALIDATION
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"SchemaError: {path}: argument is missing"


def test_enumerate_rejects_a_cscK_factor(capsys):
    code = main(["fibration", "enumerate", "--fiber", P2, "--factor", "n=1,s=2"])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == (
        "ValueError: factor 0 has no Fano constant k")


def _p2_spec(factor):
    return json.dumps({"fiber": json.loads(P2), "factors": [factor]})


@pytest.mark.parametrize("argv, error", [
    (["polytope-info", "--polytope",
      '{"facets": [{"normal": [1.5], "offset": 1}, {"normal": [-1], "offset": 1}]}'],
     "polytope.facets[0].normal[0]: not an integer: 3/2"),
    (["polytope-info", "--polytope",
      '{"facets": [{"normal": [true], "offset": 1}, {"normal": [-1], "offset": 1}]}'],
     "polytope.facets[0].normal[0]: not a number or 'p/q' string: True (a boolean)"),
    (["extremal", "--polytope", INTERVAL, "--v", "1", "--w0", "true"],
     "w0: not a number or 'p/q' string: True (a boolean)"),
    (["polytope-info", "--polytope", '{"facets": 3}'],
     "polytope: expected an object with a 'facets' list"),
    (["fibration", "validate", "--spec", _p2_spec({"n": 1, "k": 1, "p": [0]})],
     "fibration.factors[0].p: length 1 != dim 2"),
    (["fibration", "validate", "--spec", _p2_spec({"n": 1, "k": 1, "p": [0.5, 0]})],
     "fibration.factors[0].p[0]: not an integer: 1/2"),
    (["fibration", "validate", "--spec", _p2_spec({"n": 1.5, "k": 1, "p": [0, 0]})],
     "fibration.factors[0].n: not an integer: 3/2"),
    (["fibration", "validate", "--spec", _p2_spec({"n": 1, "k": 1.5, "p": [0, 0]})],
     "fibration.factors[0].k: not an integer: 3/2"),
    (["futaki", "--polytope", P2, "--w", "1", "--all-affine",
      "--v", '{"affine_powers": [{"zeta": [1], "a": 3}]}'],
     "v.affine_powers[0].zeta: length 1 != dim 2"),
    (["futaki", "--polytope", P2, "--w", "1", "--all-affine",
      "--v", '{"affine_powers": [{"a": 3}]}'],
     "v.affine_powers[0]: affine function needs 'zeta'"),
    (["futaki", "--polytope", P2, "--w", "1", "--all-affine",
      "--v", '{"exp": {"zeta": [1]}}'],
     "v.exp.zeta: length 1 != dim 2"),
    (["futaki", "--polytope", P2, "--v", "1", "--w", "1", "--direction", '{"zeta": [1]}'],
     "direction.zeta: length 1 != dim 2"),
    (["futaki", "--polytope", P2, "--w", "1", "--direction", "[1, 0]",
      "--v", '{"poly": {"-1,0": 1}}'],
     "v.poly: multi-index '-1,0' is not 2 nonnegative integers"),
    # Python's json reads Infinity, which no Fraction holds
    (["polytope-info", "--polytope",
      '{"facets": [{"normal": [1], "offset": Infinity}, {"normal": [-1], "offset": 1}]}'],
     "polytope.facets[0].offset: not a number or 'p/q' string: inf "
     "(cannot convert Infinity to integer ratio)"),
    (["futaki", "--polytope", P2, "--w", "1", "--all-affine",
      "--v", '{"exp": {"zeta": [-Infinity, 0]}}'],
     "v.exp.zeta[0]: not a number or 'p/q' string: -inf "
     "(cannot convert Infinity to integer ratio)"),
], ids=["fractional-normal", "boolean-normal", "boolean-w0", "facets-not-a-list", "short-twist", "fractional-twist",
        "fractional-n", "fractional-k", "short-affine-factor", "factor-without-zeta",
        "short-exp", "short-direction", "negative-exponent", "infinite-offset",
        "infinite-exp-zeta"])
def test_integer_fields_and_vector_lengths_are_checked(capsys, argv, error):
    assert main(argv) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == f"SchemaError: {error}"


@pytest.mark.parametrize("text, factor, error", [
    ("n=1,k=2,s=3", {"n": 1, "k": 2, "s": 3}, ": factor needs exactly one of 'k' or 's'"),
    ("n=1,k=2,x=4", {"n": 1, "k": 2, "x": 4}, ": unknown factor field(s) ['x']"),
    ("n=1.5,k=2", {"n": 1.5, "k": 2}, ".n: not an integer: 3/2"),
    ("k=2", {"k": 2}, ": factor needs a dimension 'n'"),
], ids=["k-and-s", "unknown-key", "fractional-n", "no-n"])
def test_factor_flag_and_spec_factor_share_one_schema(capsys, text, factor, error):
    assert main(["fibration", "enumerate", "--fiber", INTERVAL,
                 "--factor", "n=1,k=1", "--factor", text]) == EXIT_VALIDATION
    flag_error = json.loads(capsys.readouterr().err)["error"]
    spec = json.dumps({"fiber": json.loads(INTERVAL), "factors": [{**factor, "p": [0]}]})
    assert main(["fibration", "validate", "--spec", spec]) == EXIT_VALIDATION
    spec_error = json.loads(capsys.readouterr().err)["error"]
    assert flag_error == f"SchemaError: factor[1]{error}"
    assert spec_error == f"SchemaError: fibration.factors[0]{error}"


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_verify_rejects_a_grid_below_one(capsys, grid):
    assert main(["verify", "futaki", "--grid", grid]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"ValueError: grid resolution must be at least 1, got {grid}")


def test_json_readers_check_lengths_and_integers():
    with pytest.raises(jsonio.SchemaError, match=r"^ell.zeta: length 1 != dim 2$"):
        jsonio.affine_from_json({"zeta": [1], "a": 3}, 2, "ell")
    with pytest.raises(jsonio.SchemaError, match=r"^ell: affine function needs 'zeta'$"):
        jsonio.affine_from_json({"a": 3}, 2, "ell")
    with pytest.raises(jsonio.SchemaError, match=r"^polytope.dim: not an integer: 3/2$"):
        jsonio.polytope_from_json({"dim": 1.5, "facets": json.loads(INTERVAL)["facets"]})
    with pytest.raises(jsonio.SchemaError, match=r"^poly: not an integer: 1/2$"):
        jsonio.poly_from_json({"1/2,0": 1}, 2)
    # an exact integer in another spelling is still an integer
    assert jsonio.polytope_from_json(
        {"facets": [{"normal": ["2/2"], "offset": 1}, {"normal": [-1.0], "offset": 1}]}
    ).volume() == 2


_FACETS = json.loads(INTERVAL)["facets"]


@pytest.mark.parametrize("read, obj, message", [
    (lambda o: jsonio.affine_from_json(o, 1, "ell"), {"zeta": 1}, "ell.zeta: expected a list"),
    (lambda o: jsonio.parse_poly(o, 1), "x +", "poly: cannot parse 'x +'"),
    (lambda o: jsonio.parse_poly(o, 1), "x % 2", "poly: unsupported syntax in 'x % 2'"),
    (jsonio.polytope_from_json, {"facets": [{"normal": [1]}]},
     "polytope.facets[0]: facet needs 'normal' and 'offset'"),
    (jsonio.polytope_from_json, {"dim": 2, "facets": _FACETS},
     "polytope: declared dim 2 != facet dim 1"),
    (lambda o: jsonio.affine_from_json(o, 1, "ell"), None, "ell: cannot read an affine function"),
    (lambda o: jsonio.weight_from_json(o, 1), None, "weight: cannot read a weight"),
    (lambda o: jsonio.weight_from_json(o, 1), {"affine_powers": [2]},
     "weight.affine_powers[0]: expected an object"),
    (jsonio.fibration_from_json, {"factors": []}, "fibration: expected an object with a 'fiber'"),
    (jsonio.fibration_from_json, {"fiber": {"facets": _FACETS}, "factors": [2]},
     "fibration.factors[0]: expected an object, got 2"),
    (lambda o: jsonio.weight_from_json(o, 2), {"affine_powers": [
        {"zeta": [1, 0], "a": 2, "power": 3}]},
     "weight.affine_powers[0]: unknown affine field(s) ['power']"),
    (lambda o: jsonio.affine_from_json(o, 2), {"zeta": [1, 0], "b": 5},
     "affine: unknown affine field(s) ['b']"),
    (jsonio.fibration_from_json, {"fiber": {"facets": _FACETS}, "factor": [{"n": 1, "k": 2}]},
     "fibration: unknown fibration field(s) ['factor']"),
    (lambda o: jsonio.weight_from_json(o, 1), {"scalar": 2, "1": 3},
     "weight: unknown weight field(s) ['1']"),
    (lambda o: jsonio.weight_from_json(o, 1), {"sum": [1, 2], "scalar": 2},
     "weight: unknown weight field(s) ['scalar']"),
    (lambda o: jsonio.weight_from_json(o, 1), {"exp": {"zeta": [1], "c": 3}},
     "weight.exp: unknown affine field(s) ['c']"),
    (jsonio.polytope_from_json, {"facets": _FACETS, "dims": 1},
     "polytope: unknown polytope field(s) ['dims']"),
    (jsonio.polytope_from_json, {"facets": [{"normal": [1], "offset": 1, "b": 2}, _FACETS[1]]},
     "polytope.facets[0]: unknown facet field(s) ['b']"),
], ids=["vector", "parse", "syntax", "facet", "dim", "affine", "weight", "affine_powers",
        "fiber", "factor", "affine-power-field", "affine-field", "fibration-field",
        "term-field", "sum-field", "exp-field", "polytope-field", "facet-field"])
def test_json_readers_reject_malformed_input(read, obj, message):
    with pytest.raises(jsonio.SchemaError, match=f"^{re.escape(message)}"):
        read(obj)


@pytest.mark.parametrize("expr", [
    "x^True+2", "x*True+2", "x*'3'+4", "x*None+2", "x*1j+2", "x*1e999+2",
])
def test_poly_constants_must_be_finite_numbers(capsys, expr):
    """A constant is a finite int or float and not a bool; an exponent a non-bool int."""
    code = main(["extremal", "--polytope", INTERVAL, "--v", json.dumps(expr), "--w0", "1"])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"].startswith("SchemaError: v: ")


def test_parse_poly_operators_and_rejected_forms():
    assert jsonio.parse_poly("-x", 1) == Polynomial(1, {(1,): -1})
    assert jsonio.parse_poly("+x", 1) == Polynomial(1, {(1,): 1})
    assert jsonio.parse_poly("(x+1)^3", 1) == Polynomial(1, {(3,): 1, (2,): 3, (1,): 3, (0,): 1})
    assert jsonio.parse_poly("x/2", 1) == Polynomial(1, {(1,): Fraction(1, 2)})
    assert jsonio.parse_poly("x1*x2", 2) == Polynomial(2, {(1, 1): 1})
    for expr, dim, message in [
        ("x/x", 1, "division only by nonzero constants"),
        ("x/0", 1, "division only by nonzero constants"),
        ("y", 1, "unknown variable 'y'"),
        ("x3", 2, "variable 'x3' out of range for dim 2"),
        ("x^-1", 1, "exponent must be a nonnegative integer"),
        ("2^x", 1, "exponent must be a nonnegative integer"),
    ]:
        with pytest.raises(jsonio.SchemaError, match=message):
            jsonio.parse_poly(expr, dim)


def test_weight_strings_read_as_polynomials(capsys):
    assert jsonio.weight_from_json("1/2", 1) == WeightFn(1, coeff=Fraction(1, 2))
    assert jsonio.weight_from_json("x/2+1", 1) == WeightFn.affine_power(
        AffineFunction([Fraction(1, 2)], 1))
    assert jsonio.weight_from_json("x1^2 + 1/3", 2) == WeightFn.from_polynomial(
        Polynomial(2, {(2, 0): 1, (0, 0): Fraction(1, 3)}))
    assert jsonio.weight_from_json("3*x1*x2^2 - 1/2", 2) == WeightFn.from_polynomial(
        Polynomial(2, {(1, 2): 3, (0, 0): Fraction(-1, 2)}))
    for polytope, v in ((INTERVAL, "x/2+1"), (P2, "x1^2 + 1/3")):
        assert _run(capsys, "extremal", "--polytope", polytope, "--v", json.dumps(v),
                    "--w0", "1")[0] == EXIT_OK
    assert main(["extremal", "--polytope", INTERVAL, "--v", '"3/0"', "--w0", "1"]) \
        == EXIT_VALIDATION
    assert "division only by nonzero constants" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("args, path", [
    (["extremal", "--v", '"3/0"', "--w0", "1"], "v"),
    (["extremal", "--v", '"x+2"', "--w0", '"x^-1"'], "w0"),
    (["futaki", "--all-affine", "--v", '"y+1"', "--w", "1"], "v"),
    (["futaki", "--all-affine", "--v", "1", "--w", '"3/0"'], "w"),
    (["extremal", "--v", '{"poly": "3/0"}', "--w0", "1"], "v.poly"),
])
def test_unparsable_weight_strings_name_their_field(capsys, args, path):
    assert main(args + ["--polytope", INTERVAL]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"SchemaError: {path}: ")


def test_futaki_of_the_soliton_pair_of_a_fractional_affine_v(capsys):
    # w = 2(2v + <x, grad v>) = 3 x1 + 4 for v = x1/2 + 1 and m = 2
    code, rep = _run(capsys, "futaki", "--polytope", P2, "--all-affine",
                     "--v", '"x1/2+1"', "--w", '"3*x1+4"')
    assert code == EXIT_OK
    assert [row["boundary"]["exact"] for row in rep["results"]] == ["0", "9/4", "-9/8"]
    assert all(row["boundary"]["exact"] == row["fano_closed_form"]["exact"]
               for row in rep["results"])


def test_futaki_closed_form_row_only_for_the_soliton_pair(capsys):
    # w = 5 is not the soliton pair 3 x1 + 4 of v = x1/2 + 1: the closed form
    # 0, 9/4, -9/8 would be the wrong invariant
    code, rep = _run(capsys, "futaki", "--polytope", P2, "--all-affine",
                     "--v", '"x1/2+1"', "--w", "5")
    assert code == EXIT_OK
    assert [set(row) for row in rep["results"]] == [{"boundary"}] * 3
    assert [row["boundary"]["exact"] for row in rep["results"]] == ["-9/2", "9", "-9/2"]
    # the pair written as another sum of the same polynomial keeps the row
    code, rep = _run(capsys, "futaki", "--polytope", P2, "--all-affine",
                     "--v", '"x1/2+1"', "--w", '{"sum": ["3*x1", 4]}')
    assert [row["fano_closed_form"]["exact"] for row in rep["results"]] == ["0", "9/4", "-9/8"]


def test_futaki_closed_form_row_for_a_non_polynomial_pair(capsys):
    v = WeightFn.exp_affine([Fraction(1, 3), 0])
    pair = jsonio.weight_to_json(soliton_weight_pair(v, 2)[1])
    args = ["futaki", "--polytope", P2, "--all-affine", "--v", json.dumps(jsonio.weight_to_json(v))]
    code, rep = _run(capsys, *args, "--w", json.dumps(pair))
    assert code == EXIT_OK
    assert all(row["boundary"]["value"] == pytest.approx(row["fano_closed_form"]["value"],
                                                         abs=1e-12)
               for row in rep["results"])
    code, rep = _run(capsys, *args, "--w", json.dumps({"sum": [pair, pair]}))
    assert code == EXIT_OK
    assert [set(row) for row in rep["results"]] == [{"boundary"}] * 3


def test_futaki_certifies_v_once(capsys, monkeypatch):
    calls = []
    original = invariants.require_positive

    def counting(w, polytope, name="weight"):
        calls.append(name)
        return original(w, polytope, name)

    monkeypatch.setattr(invariants, "require_positive", counting)
    code, rep = _run(capsys, "futaki", "--polytope", P2, "--all-affine",
                     "--v", '"x1/2+1"', "--w", '"3*x1+4"')
    assert code == EXIT_OK
    assert all("fano_closed_form" in row for row in rep["results"])
    assert calls == ["v"]


def test_verify_futaki_takes_no_adaptive_cubature(capsys, monkeypatch):
    """Every soliton pair of the suite is one closed-form or polynomial term."""
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive cubature called")

    monkeypatch.setattr(quadrature, "_adaptive", refuse)
    code, rep = _run(capsys, "verify", "futaki", "--grid", "20")
    assert code == EXIT_OK
    assert all(row["pass"] for row in rep["results"]["checks"])


def test_verify_futaki_takes_one_metric_call_per_case(capsys, monkeypatch):
    # each case's whole affine basis shares one Scal_v per node
    numeric, calls = toricmetrics.futaki_numeric, []

    def counted(p, u, v, w, ell, grid):
        calls.append(len(ell))
        return numeric(p, u, v, w, ell, grid)

    monkeypatch.setattr(toricmetrics, "futaki_numeric", counted)
    code, rep = _run(capsys, "verify", "futaki", "--grid", "20")
    assert code == EXIT_OK and len(rep["results"]["checks"]) == 30
    assert calls == [2, 2, 2, 3, 3, 3]


@pytest.mark.parametrize("v", [
    '{"exp": {"zeta": ["800", "0"], "a": 0}}',
    '{"exp": {"zeta": ["800", "0"], "a": 0}, "affine_powers": [{"zeta": [1, 0], "a": 2, "pow": -1}]}',
    '{"sum": [{"exp": {"zeta": ["800", "0"], "a": 0}}, 1]}',
], ids=["closed-form", "cubature", "sum"])
def test_a_non_finite_futaki_value_exits_validation(capsys, v):
    # exp(800 x1) overflows on P^2: the report once held "value": NaN, which is not JSON
    with np.errstate(all="ignore"):
        code = main(["futaki", "--polytope", P2, "--all-affine", "--v", v, "--w", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert not captured.out
    assert json.loads(captured.err)["error"].startswith("NonFiniteIntegral:")


def test_a_non_finite_integral_writes_no_numpy_warning(capsys):
    # numpy's overflow warnings once went to stderr ahead of the JSON error (7 lines);
    # turned into exceptions here, any warning the command lets out fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["futaki", "--polytope", P2, "--all-affine",
                     "--v", '{"exp": {"zeta": ["800", "0"], "a": 0}}', "--w", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION and not captured.out
    assert json.loads(captured.err)["error"].startswith("NonFiniteIntegral:")
    assert np.geterr()["over"] == "warn"  # the library's callers keep numpy's settings


def test_verify_futaki_passes_at_the_default_grid(capsys):
    code, rep = _run(capsys, "verify", "futaki")
    assert code == EXIT_OK
    rows = rep["results"]["checks"]
    assert len(rows) == 30 and all(row["pass"] and row["suite"] == "futaki" for row in rows)


NON_FANO_FIB = json.dumps({
    "fiber": json.loads(INTERVAL),
    "factors": [{"n": 1, "s": -4, "p": [1], "c": 3}],
})


def test_fibration_weights_match_the_library(capsys):
    code, rep = _run(capsys, "fibration", "weights", "--spec", NON_FANO_FIB)
    assert code == EXIT_OK
    fw = fibration.extremal_fibration_weights(jsonio.fibration_from_json(json.loads(NON_FANO_FIB)))
    results = rep["results"]
    assert results["ell_ext"] == {"zeta": ["24/13"], "a": "6/13"}
    assert results["ell_ext"] == jsonio.affine_to_json(fw.ell_ext)
    assert results["residuals"] == list(fw.residuals) == [0.0, 0.0]
    for key in ("p", "q", "w_tilde"):
        assert results[key] == jsonio.weight_to_json(getattr(fw, key))


def test_fibration_validate_leaves_out_fano_on_a_non_fano_spec(capsys):
    code, rep = _run(capsys, "fibration", "validate", "--spec", NON_FANO_FIB)
    assert code == EXIT_OK
    assert rep["results"] == {"admissible": True}


def test_monomial_map_weight_reads_as_its_polynomial_string(capsys):
    assert jsonio.weight_to_json(jsonio.weight_from_json({"1,0": "3", "0,0": 1}, 2)) == (
        jsonio.weight_to_json(jsonio.weight_from_json("3*x1+1", 2)))
    reports = [_run(capsys, "extremal", "--polytope", P2, "--v", v, "--w0", "1")
               for v in ('{"1,0": "1", "0,0": 2}', '"x1+2"')]
    assert [code for code, _ in reports] == [EXIT_OK, EXIT_OK]
    assert reports[0][1]["results"]["ell_ext"] == reports[1][1]["results"]["ell_ext"]
    assert reports[0][1]["inputs"]["v"] == reports[1][1]["inputs"]["v"]


def test_extremal_extra_source(capsys):
    code, rep = _run(capsys, "extremal", "--polytope", INTERVAL, "--v", "1", "--w0", "1",
                     "--extra-source", '"x"')
    assert code == EXIT_OK
    interval = jsonio.polytope_from_json(json.loads(INTERVAL))
    expected = invariants.extremal_affine(interval, 1, 1,
                                          extra_source=jsonio.parse_poly("x", 1))
    assert rep["results"]["ell_ext"] == jsonio.affine_to_json(expected.function)
    assert rep["results"]["ell_ext"] == {"zeta": ["1"], "a": "2"}
