"""The benchmark's ops: what each workload runs and the oracle each answer must meet.

An op turns plain generated data into library objects, calls the public API
(or `torickstab.cli.main` in-process) and returns a plain, comparable output.
Its oracle gets that output and the outputs of the other ops of the pass, and
returns None when the answer is right or a one-line reason when it is wrong.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import torickstab.cli
from torickstab import fibration, invariants, quadrature, solvers, toricmetrics
from torickstab.polynomial import Polynomial
from torickstab.polytope import AffineFunction, DelzantPolytope, HalfSpace
from torickstab.weights import WeightFn, soliton_weight_pair

import gen

# Oracle tolerances, fixed per kind of op.
SOLITON_TOL = 1e-8       # exp-weighted moments / max(1, F), criterion 3 style
REEB_TOL = 1e-6          # boundary Futaki of the Sasaki-Einstein pair / max(1, V), criterion 10
EXTREMAL_TOL = 1e-8      # Futaki residuals of the fibration's extremal function
CLOSED_FORM_TOL = 1e-6   # |boundary - closed form| on the three-way check
NUMERIC_TOL = 1e-3       # |boundary - metric numeric| on the three-way check
METRIC_RESOLUTION = 400

# The `solve` ops that run past the per-op deadline at this commit (see
# README.md). They run once per run, after the timed passes and under the same
# deadline, and count in `failed` and `attempted`; in a timed pass they would
# only add the deadline three times over and hide any gain that stays above it.
UNTIMED = ("reeb/F1/one", "fibration/F1/0,-1/soliton", "soliton/P3/affine")


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]


# -- plain data -> library objects ------------------------------------------------------


def make_polytope(poly) -> DelzantPolytope:
    return DelzantPolytope([HalfSpace(u, c) for u, c in zip(poly["normals"], poly["offsets"])])


def make_weight(weight, dim):
    if weight["kind"] == "one":
        return WeightFn.constant(dim, 1)
    if weight["kind"] == "affine":
        return WeightFn.affine_power(AffineFunction(*weight["affine"]), 1)
    return WeightFn.exp_affine(weight["zeta"], 0)


def _coordinate(dim, i):
    return WeightFn.from_polynomial(Polynomial.linear([int(j == i) for j in range(dim)]))


def _affine_basis(dim):
    return [AffineFunction.constant(dim, 1)] + [AffineFunction.coordinate(dim, i)
                                                for i in range(dim)]


def solver_output(result):
    return {"xi0": [float(z) for z in result.xi0], "objective": float(result.objective),
            "iterations": result.iterations}


# -- oracles for the solvers --------------------------------------------------------------


def soliton_residual(polytope, p, xi):
    """max_i |int x_i e^<xi,x> p dx| / max(1, int e^<xi,x> p dx): zero at the soliton field."""
    base = p * WeightFn.exp_affine([Fraction(z) for z in xi], 0)
    scale = max(1.0, abs(quadrature.integrate_weighted(polytope, base, tol=1e-10).value))
    # the moments vanish at the answer: an absolute floor keeps the cubature from chasing roundoff
    moments = [quadrature.integrate_weighted(polytope, base * _coordinate(polytope.dim, i),
                                             tol=1e-10, abs_floor=1e-13 * scale).value
               for i in range(polytope.dim)]
    return max(abs(m) for m in moments) / scale


def reeb_residual(polytope, p, s, xi, volume):
    """max |Fut(v, w)(l')| / max(1, V) over l' in {1, x_1..x_r} for the Sasaki-Einstein pair.

    With ell = <xi, x> + 1 on a canonical Fano polytope, the divergence theorem
    gives Fut(v, w)(l') = 2 int p ell^(-s-1) <zeta - c xi, x> dx for
    l' = <zeta, x> + c when v = p ell^-s and
    w = [2(r - s + 1) p + 2<x, grad p>] ell^-s + 2(s - 1) p ell^(-s-1),
    so every value vanishes exactly at the critical point of V. For p = 1 and
    s = r + 1 this is the pair of criterion 10. Fut is the boundary formula of
    invariants.futaki_boundary, 2 int_bd v l' dsigma - int w l' dx, with an
    absolute floor: on a symmetric polytope some of these integrals vanish.
    """
    r = polytope.dim
    scale = max(1.0, abs(volume))
    ell = AffineFunction([Fraction(z) for z in xi], 1)
    power = lambda e: WeightFn.affine_power(ell, e)  # noqa: E731
    x_grad_p = soliton_weight_pair(p, 0)[1]  # 2 <x, grad p>
    v = p * power(-s)
    w = (p.scale(2 * (r - s + 1)) + x_grad_p) * power(-s) + p.scale(2 * (s - 1)) * power(-s - 1)
    worst = 0.0
    for b in _affine_basis(r):
        b_w = WeightFn.from_polynomial(b.as_polynomial())
        bnd = quadrature.integrate_boundary(polytope, v * b_w, tol=1e-10,
                                            abs_floor=1e-12 * scale)
        bulk = quadrature.integrate_weighted(polytope, w * b_w, tol=1e-10,
                                             abs_floor=1e-12 * scale)
        worst = max(worst, abs(2 * bnd.value - bulk.value))
    return worst / scale


def _check_soliton(polytope_fn, weight_fn):
    def check(out, _):
        res = soliton_residual(polytope_fn(), weight_fn(), out["xi0"])
        return None if res <= SOLITON_TOL else f"soliton moment {res:.2e} > {SOLITON_TOL}"
    return check


def _check_reeb(polytope_fn, weight_fn, s):
    def check(out, _):
        res = reeb_residual(polytope_fn(), weight_fn(), s, out["xi0"], out["objective"])
        return None if res <= REEB_TOL else f"Reeb Futaki {res:.2e} > {REEB_TOL}"
    return check


# -- solve ---------------------------------------------------------------------------------


def solve_ops(inputs):
    ops = []
    for entry in inputs["polygons"]:
        poly = entry["polytope"]
        r = poly["dim"]
        for kind, weight in entry["weights"].items():
            P = lambda poly=poly: make_polytope(poly)  # noqa: E731
            W = lambda weight=weight, r=r: make_weight(weight, r)  # noqa: E731
            ops.append(Op(f"soliton/{poly['name']}/{kind}",
                          lambda P=P, W=W: solver_output(solvers.tian_zhu_soliton(P(), W())),
                          _check_soliton(P, W)))
            ops.append(Op(f"reeb/{poly['name']}/{kind}",
                          lambda P=P, W=W, r=r: solver_output(solvers.msy_reeb(P(), W(), r + 1)),
                          _check_reeb(P, W, r + 1)))
    for fib in inputs["fibrations"]:
        ops.extend(_fibration_ops(fib))
    p3 = inputs["p3"]
    P = lambda: make_polytope(p3["polytope"])  # noqa: E731
    W = lambda: make_weight(p3["weight"], 3)  # noqa: E731
    ops.append(Op("soliton/P3/affine",
                  lambda: solver_output(solvers.tian_zhu_soliton(P(), W())),
                  _check_soliton(P, W)))
    return ops


def _fibration_ops(fib):
    fiber, n, k = fib["fiber"], fib["n"], fib["k"]
    name = fiber["name"]

    def enumerate_twists():
        found = fibration.enumerate_fano(make_polytope(fiber), [fibration.BaseFactor(n, k=k)])
        return sorted(tuple(int(c) for c in p) for (p,) in found)

    def check_twists(out, _):
        want = [tuple(p) for p in fib["twists"]]
        return None if [tuple(p) for p in out] == want else f"twists {out} != {want}"

    P = lambda: make_polytope(fiber)  # noqa: E731
    ops = [Op(f"fibration/{name}/enumerate", enumerate_twists, check_twists)]
    for twist in fib["twists"]:
        tag = f"fibration/{name}/{','.join(map(str, twist))}"

        def spec(twist=twist):
            return fibration.FibrationSpec(
                make_polytope(fiber), [(fibration.BaseFactor(n, k=k), twist, k)])

        def p_weight(twist=twist):
            return WeightFn.affine_power(AffineFunction(twist, k), n)

        def weights(spec=spec):
            fw = fibration.extremal_fibration_weights(spec())
            return {"ell_ext": [float(z) for z in fw.ell_ext.zeta] + [float(fw.ell_ext.const)],
                    "residuals": [float(x) for x in fw.residuals]}

        def check_weights(out, _):
            worst = max(abs(x) for x in out["residuals"])
            return None if worst <= EXTREMAL_TOL else f"extremal residual {worst:.2e}"

        ops.append(Op(f"{tag}/weights", weights, check_weights))
        ops.append(Op(f"{tag}/soliton",
                      lambda spec=spec: solver_output(fibration.pv_soliton_pipeline(spec())),
                      _check_soliton(P, p_weight)))
        ops.append(Op(f"{tag}/reeb",
                      lambda spec=spec: solver_output(
                          fibration.pv_soliton_pipeline(spec(), reeb=True)),
                      _check_reeb(P, p_weight, fiber["dim"] + n + 1)))
    return ops


# -- metric --------------------------------------------------------------------------------


def metric_ops(inputs):
    ops = [Op("verify/all", lambda: cli_call(inputs["verify"]), _check_verify)]
    for case in inputs["three_way"]:
        poly = case["polytope"]
        potential = "bump" if case["bump"] else "guillemin"
        ops.append(Op(f"three-way/{poly['name']}/{case['base']['kind']}/{potential}",
                      lambda case=case: three_way(case), _check_three_way))
    return ops


def three_way(case):
    """Boundary formula, Fano closed form and metric-side FD value of one Futaki invariant."""
    poly = case["polytope"]
    p = make_polytope(poly)
    v, w = soliton_weight_pair(make_weight(case["base"], poly["dim"]), poly["dim"])
    if case["bump"]:
        u = toricmetrics.scaled_bump(p, Polynomial(poly["dim"], case["bump"]))
    else:
        u = toricmetrics.SymplecticPotential(p)
    ell = AffineFunction(case["ell"], 0)
    return {
        "boundary": invariants.futaki_boundary(p, v, w, ell).value,
        "closed_form": invariants.futaki_fano(p, v, list(case["ell"])).value,
        "numeric": toricmetrics.futaki_numeric(
            p, u, v, w, ell, toricmetrics.GridSpec(resolution=METRIC_RESOLUTION)).value,
    }


def _check_three_way(out, _):
    closed = abs(out["boundary"] - out["closed_form"])
    numeric = abs(out["boundary"] - out["numeric"])
    if closed > CLOSED_FORM_TOL:
        return f"|boundary - closed form| = {closed:.2e}"
    if numeric > NUMERIC_TOL:
        return f"|boundary - numeric| = {numeric:.2e}"
    return None


def _check_verify(out, _):
    if out["exit"] != 0 or not out["results"]["all_pass"]:
        failing = [row["check"] for row in out["results"]["checks"] if not row["pass"]]
        return f"verify exit {out['exit']}, failing {failing}"
    return None


# -- exact ---------------------------------------------------------------------------------


class CliError(Exception):
    """The CLI exited nonzero: it reported a validation or solver failure."""


def cli_call(argv):
    """Run `torickstab.cli.main(argv)` in-process; the JSON report without its timings."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = torickstab.cli.main(list(argv))
    if code not in (0, torickstab.cli.EXIT_VALIDATION) or not out.getvalue():
        raise CliError(f"exit {code}: {err.getvalue().strip()}")
    report = json.loads(out.getvalue())
    report.pop("timings", None)
    return {"exit": code, "results": report["results"]}


def exact_ops(inputs):
    ops = []
    for case in inputs:
        label = case["label"]
        for kind, poly in (("canonical", case["polytope"]), ("moved", case["moved"])):
            ops.append(Op(f"polytope-info/{label}/{kind}",
                          lambda poly=poly: cli_call(
                              ["polytope-info", "--polytope", gen.polytope_json(poly)]),
                          _check_info(case, poly)))
        for kind, poly in (("canonical", case["polytope"]), ("moved", case["moved"])):
            shift = poly["shift"]
            argv = ["futaki", "--all-affine", "--polytope", gen.polytope_json(poly),
                    "--v", json.dumps(gen.product_weight(case["v_sol"], shift)),
                    "--w", json.dumps(gen.soliton_w(case["v_sol"], case["dim"], shift))]
            ops.append(Op(f"futaki/{label}/{kind}", lambda argv=argv: cli_call(argv),
                          _check_futaki(label, kind)))
        for kind, poly in (("canonical", case["polytope"]), ("moved", case["moved"])):
            shift = poly["shift"]
            argv = ["extremal", "--polytope", gen.polytope_json(poly),
                    "--v", json.dumps(gen.product_weight(case["v_ext"], shift)),
                    "--w0", json.dumps(gen.product_weight(case["w0_ext"], shift))]
            ops.append(Op(f"extremal/{label}/{kind}", lambda argv=argv: cli_call(argv),
                          _check_extremal(case, kind)))
        argv = ["fibration", "enumerate", "--fiber", gen.polytope_json(case["polytope"])]
        for k in case["enumerate"]["k"]:
            argv += ["--factor", f"n=1,k={k}"]
        ops.append(Op(f"enumerate/{label}", lambda argv=argv: cli_call(argv),
                      _check_enumerate(case)))
        spec = {"fiber": json.loads(gen.polytope_json(case["polytope"])),
                "factors": [{**f, "p": list(f["p"]), "c": f["k"]}
                            for f in case["spec"]["factors"]]}
        argv = ["fibration", "validate", "--spec", json.dumps(spec)]
        ops.append(Op(f"validate/{label}", lambda argv=argv: cli_call(argv), _check_validate))
    return ops


def _check_info(case, poly):
    dim = case["dim"]
    volume = Fraction(gen.DEGREE[case["name"]], 1)
    for k in range(2, dim + 1):
        volume /= k
    want_vertices = sorted(tuple(v) for v in poly["vertices"])

    def check(out, _):
        res = out["results"]
        got_vertices = sorted(tuple(Fraction(c) for c in v) for v in res["vertices"])
        if Fraction(res["volume"]) != volume:
            return f"volume {res['volume']} != {volume}"
        if got_vertices != want_vertices:
            return "vertices differ from the generator's"
        # int_bd 1 dsigma = r vol on the canonical polytope, and facets move rigidly
        mass = sum(Fraction(f["sigma_mass"]) for f in res["facets"])
        if mass != dim * volume:
            return f"boundary mass {mass} != {dim * volume}"
        if res["canonical_fano"] != (not any(poly["shift"])):
            return "canonical_fano flag wrong"
        return None
    return check


def _exact_rows(out, key):
    return [Fraction(row[key]["exact"]) for row in out["results"]]


def _check_futaki(label, kind):
    def check(out, outputs):
        boundary = _exact_rows(out, "boundary")
        if kind == "canonical":
            closed = _exact_rows(out, "fano_closed_form")
            return None if boundary == closed else f"boundary {boundary} != closed {closed}"
        # Fut on Delta + t of the pulled-back pair equals Fut on Delta of l'(. + t)
        ref = outputs.get(f"futaki/{label}/canonical")
        if ref is None:
            return "canonical futaki op did not finish"
        want = _exact_rows(ref, "boundary")
        return None if boundary == want else f"translated {boundary} != {want}"
    return check


def _ell(out):
    ell = out["results"]["ell_ext"]
    return [Fraction(z) for z in ell["zeta"]], Fraction(ell["a"])


def _check_extremal(case, kind):
    def check(out, outputs):
        zeta, a = _ell(out)
        if kind == "moved":
            # the extremal function moves with the polytope: l'(x) = l(x - t)
            ref = outputs.get(f"extremal/{case['label']}/canonical")
            if ref is None:
                return "canonical extremal op did not finish"
            zeta0, a0 = _ell(ref)
            a_want = a0 - sum(z * t for z, t in zip(zeta0, case["moved"]["shift"]))
            return None if (zeta, a) == (zeta0, a_want) else "translated ell_ext mismatch"
        p = make_polytope(case["polytope"])
        v = _product(case["v_ext"], case["dim"])
        w = _product(case["w0_ext"], case["dim"]) * WeightFn.from_polynomial(
            Polynomial.linear(zeta, a))
        residuals = [invariants.futaki_boundary(p, v, w, b).exact
                     for b in _affine_basis(case["dim"])]
        return None if all(x == 0 for x in residuals) else f"exact residuals {residuals}"
    return check


def _product(factors, dim):
    out = WeightFn.constant(dim, 1)
    for zeta, a, power in factors:
        out = out * WeightFn.affine_power(AffineFunction(zeta, a), power)
    return out


def _check_enumerate(case):
    # the twists come from the generator's own search: their number does not
    # depend on the lattice basis
    want = sorted(tuple(tuple(p) for p in combo)
                  for combo in itertools.product(*case["enumerate"]["twists"]))

    def check(out, _):
        res = out["results"]
        got = sorted(tuple(tuple(p) for p in combo) for combo in res["tuples"])
        if res["count"] != len(want) or got != want:
            return f"enumeration found {res['count']} tuples, want {len(want)}"
        return None
    return check


def _check_validate(out, _):
    res = out["results"]
    return None if res == {"admissible": True, "fano": True} else f"validate said {res}"


def warm_up():
    """Fill gm_rule's cache and take each kind of op once on the segment [-1, 1]."""
    for dim in (1, 2, 3):
        for order in (quadrature.GM_ORDER_LOW, quadrature.GM_ORDER_HIGH):
            quadrature.gm_rule(dim, order)
    segment = {"dim": 1, "normals": [(1,), (-1,)], "offsets": [1, 1], "shift": (0,)}
    p = make_polytope(segment)
    x_plus_2 = WeightFn.affine_power(AffineFunction([1], 2), 1)
    solvers.tian_zhu_soliton(p, x_plus_2)
    solvers.msy_reeb(p, x_plus_2, 2)
    v, w = soliton_weight_pair(x_plus_2, 1)
    toricmetrics.futaki_numeric(p, toricmetrics.SymplecticPotential(p), v, w,
                                AffineFunction([1], 0), toricmetrics.GridSpec(resolution=50))
    cli_call(["polytope-info", "--polytope", gen.polytope_json(segment)])
