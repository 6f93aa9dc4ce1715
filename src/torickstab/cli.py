"""Command-line front end: JSON specs in, JSON/CSV reports out."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, fibration, invariants, jsonio, solvers, toricmetrics
from .errors import MaxIterations, TorickstabError
from .jsonio import SchemaError
from .polynomial import Polynomial
from .polytope import AffineFunction, DelzantPolytope, HalfSpace
from .quadrature import DEFAULT_TOL, integrate_boundary, integrate_poly, integrate_weighted
from .weights import WeightFn, soliton_weight_pair

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _load_json(arg: str, path: str):
    """Inline JSON, or else the path of a JSON file.

    An argument that does not parse is a path, unless it starts with `{` or `[`.
    """
    if arg is None:
        raise SchemaError(path, "argument is missing")
    try:
        return json.loads(arg)
    except json.JSONDecodeError as e:
        if arg.lstrip().startswith(("{", "[")):
            raise SchemaError(path, f"invalid JSON: {e}")
    try:
        with open(arg) as f:
            return json.load(f)
    except OSError as e:
        raise SchemaError(path, f"cannot read {arg!r}: {e}")
    except json.JSONDecodeError as e:
        raise SchemaError(path, f"invalid JSON: {e}")


def _emit(args, command, inputs, results, normalization=None) -> None:
    """Write the JSON report to `--out`, or print it."""
    report = {"command": command, "version": __version__, "inputs": inputs,
              "results": results}
    if normalization is not None:
        report["normalization"] = normalization
    report["timings"] = {"seconds": round(time.monotonic() - args.started, 6)}
    text = json.dumps(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _write_trace_csv(path, result):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        dim = len(result.xi0)
        writer.writerow(["iteration"] + [f"xi{i + 1}" for i in range(dim)]
                        + ["objective", "step"])
        for it, (xi, obj, step) in enumerate(result.trace):
            writer.writerow([it] + [repr(float(z)) for z in xi]
                            + [repr(float(obj)), repr(float(step))])


# -- commands ----------------------------------------------------------------------


def cmd_polytope_info(args):
    p = jsonio.polytope_from_json(_load_json(args.polytope, "polytope"))
    facets = []
    for h, facet in p.facets():
        facets.append({
            "normal": [int(c) for c in h.normal],
            "offset": jsonio.num_to_json(h.offset),
            "sigma_mass": jsonio.num_to_json(facet.sigma_measure()),
        })
    results = {
        "dim": p.dim,
        "vertices": [[jsonio.num_to_json(c) for c in v] for v in p.vertices],
        "volume": jsonio.num_to_json(p.volume()),
        "canonical_fano": p.is_canonical_fano(),
        "facets": facets,
    }
    _emit(args, "polytope-info", {"polytope": jsonio.polytope_to_json(p)}, results)
    return EXIT_OK


def _inputs(args, *names):
    """(polytope, the weight of each named option, inputs-echo) from --polytope and those options."""
    p = jsonio.polytope_from_json(_load_json(args.polytope, "polytope"))
    weights = [jsonio.weight_from_json(_load_json(getattr(args, name), name), p.dim, name)
               for name in names]
    echo = {"polytope": jsonio.polytope_to_json(p)}
    echo.update((name, jsonio.weight_to_json(w)) for name, w in zip(names, weights))
    return p, *weights, echo


def cmd_futaki(args):
    p, v, w, echo = _inputs(args, "v", "w")
    if args.all_affine:
        directions = invariants._affine_basis(p.dim)
    elif args.direction is not None:
        directions = [jsonio.affine_from_json(
            _load_json(args.direction, "direction"), p.dim, "direction")]
    else:
        raise SchemaError("direction", "need --direction or --all-affine")
    rows = [{"boundary": jsonio.futaki_report_to_json(rep)} for rep in invariants.futaki_boundary(
        p, v, w, directions, tol=args.tol, normalization=args.normalization)]
    pair = soliton_weight_pair(v, p.dim)[1] if p.is_canonical_fano() else None
    # the closed form holds for the soliton pair only: w must be it, as polynomials or term for term
    if pair is not None and (w.to_polynomial() == pair.to_polynomial() if w.is_polynomial
                             and pair.is_polynomial else w.terms() == pair.terms()):
        for row, rep in zip(rows, invariants._futaki_fano(  # futaki_boundary certified v
                p, v, [list(ell.zeta) for ell in directions], args.normalization, args.tol)):
            row["fano_closed_form"] = jsonio.futaki_report_to_json(rep)
    _emit(args, "futaki", echo, rows, normalization=args.normalization)
    return EXIT_OK


def cmd_extremal(args):
    p, v, w0, echo = _inputs(args, "v", "w0")
    extra = None
    if args.extra_source is not None:
        extra = jsonio.weight_from_json(
            _load_json(args.extra_source, "extra_source"), p.dim, "extra_source")
    result = invariants.extremal_affine(p, v, w0, extra_source=extra, tol=args.tol)
    _emit(args, "extremal", echo, jsonio.extremal_to_json(result))
    return EXIT_OK


def _run_solver(command, echo, solve, args):
    """Run `solve()` and report its result, or the partial result and exit 3
    when it hits the iteration cap; `--csv` writes the trace on success."""
    try:
        result = solve()
    except MaxIterations as e:
        _emit(args, command, echo, {
            "error": str(e),
            "partial": jsonio.solver_result_to_json(e.result) if e.result else None,
        })
        return EXIT_SOLVER
    if args.csv:
        _write_trace_csv(args.csv, result)
    _emit(args, command, echo, jsonio.solver_result_to_json(result))
    return EXIT_OK


def cmd_soliton(args):
    p, weight, echo = _inputs(args, "weight")
    return _run_solver("soliton", echo, lambda: solvers.tian_zhu_soliton(
        p, weight, tol=args.tol, max_iter=args.max_iter), args)


def cmd_reeb(args):
    p, weight, echo = _inputs(args, "weight")
    s = args.s if args.s is not None else p.dim + 1
    echo["s"] = s
    return _run_solver("reeb", echo, lambda: solvers.msy_reeb(
        p, weight, s, tol=args.tol, max_iter=args.max_iter), args)


def _parse_factor(text: str, path: str) -> fibration.BaseFactor:
    """`n=1,k=2`, read by the rules of a spec's factors."""
    fields = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    return jsonio._factor_from_json(fields, path)


def cmd_fibration_enumerate(args):
    fiber = jsonio.polytope_from_json(_load_json(args.fiber, "fiber"))
    factors = [_parse_factor(t, f"factor[{i}]") for i, t in enumerate(args.factor)]
    if not factors:
        raise SchemaError("factor", "enumerate needs at least one --factor")
    tuples = fibration.enumerate_fano(fiber, factors)
    results = {"count": len(tuples), "tuples": [[list(p_a) for p_a in combo] for combo in tuples]}
    _emit(args, "fibration enumerate", {
        "fiber": jsonio.polytope_to_json(fiber),
        "factors": [{"n": f.n, "k": f.k} for f in factors],
    }, results)
    return EXIT_OK


def cmd_fibration(args):
    spec = jsonio.fibration_from_json(_load_json(args.spec, "spec"))
    echo = {"fibration": jsonio.fibration_to_json(spec)}
    command = f"fibration {args.subcommand}"
    if args.subcommand == "validate":
        fibration.validate(spec)
        results = {"admissible": True}
        if all(f.is_fano for f, _, _ in spec.factors) and spec.fiber.is_canonical_fano():
            results["fano"] = fibration.fano_check(spec)
    elif args.subcommand == "weights":
        fw = fibration.extremal_fibration_weights(spec, tol=args.tol)
        results = {
            "p": jsonio.weight_to_json(fw.p),
            "q": jsonio.weight_to_json(fw.q),
            "w_tilde": jsonio.weight_to_json(fw.w_tilde),
            "ell_ext": jsonio.affine_to_json(fw.ell_ext),
            "residuals": list(fw.residuals),
        }
    else:  # soliton or reeb
        v = 1
        if args.v is not None:
            v = jsonio.weight_from_json(_load_json(args.v, "v"), spec.fiber.dim, "v")
        reeb = {"reeb": True, "s": args.s} if args.subcommand == "reeb" else {}
        return _run_solver(command, echo, lambda: fibration.pv_soliton_pipeline(
            spec, v, tol=args.tol, max_iter=args.max_iter, **reeb), args)
    _emit(args, command, echo, results)
    return EXIT_OK


# -- verification suites --------------------------------------------------------------


def _interval_and_p2():
    """[-1, 1] and the canonical P^2, built afresh for each suite."""
    return (DelzantPolytope([HalfSpace((1,), 1), HalfSpace((-1,), 1)]),
            DelzantPolytope([HalfSpace((1, 0), 1), HalfSpace((0, 1), 1), HalfSpace((-1, -1), 1)]))


def _check(name, residual, tol):
    """One `verify` row: the check passes when |residual| <= tol."""
    return {"check": name, "residual": float(residual), "tol": tol,
            "pass": bool(abs(residual) <= tol)}


def _suite_quadrature():
    import math

    rows = []
    interval, p2 = _interval_and_p2()
    r = integrate_weighted(interval, WeightFn.exp_affine([1], 0))
    rows.append(_check("interval exp(x) vs 2 sinh 1", r.value - 2 * math.sinh(1.0), 1e-11))
    r = integrate_weighted(
        interval, WeightFn.affine_power(AffineFunction([1], 2), -3))
    rows.append(_check("interval (x+2)^-3 vs 4/9", r.value - 4.0 / 9.0, 1e-11))
    f = Polynomial(2, {(2, 1): Fraction(3), (1, 0): Fraction(-2), (0, 0): Fraction(1)})
    lhs = integrate_boundary(p2, WeightFn.from_polynomial(f)).exact
    rhs = integrate_poly(p2, f.scale(2)
                         + Polynomial.linear([1, 0]) * f.partial(0)
                         + Polynomial.linear([0, 1]) * f.partial(1))
    rows.append(_check("divergence identity on canonical Fano", float(lhs - rhs), 0.0))
    # Hermite--Genocchi on the triangle: 2! vol = 9 times exp[z_0, z_1, z_2] at the values
    # z = (-0.7, 0.8, -0.1) of the exponent at the vertices, sum_i e^z_i / prod_j!=i (z_i - z_j)
    w = WeightFn.exp_affine([Fraction(1, 2), Fraction(1, 5)], 0)
    z = [float(w.exp_part.eval_exact(vertex)) for vertex in p2.vertices]
    exact = 9.0 * sum(math.exp(a) / math.prod(a - b for j, b in enumerate(z) if j != i)
                      for i, a in enumerate(z))
    r = integrate_weighted(p2, w)
    rows.append(_check("P2 exp(x/2 + y/5) vs divided differences at the vertices",
                       r.value - exact, 1e-12))
    return rows


def _suite_futaki(grid_resolution):
    rows = []
    interval, p2 = _interval_and_p2()
    cases = [
        ("P1 v=1", interval, WeightFn.constant(1, 1), 1),
        ("P1 v=x+2", interval,
         WeightFn.affine_power(AffineFunction([1], 2), 1), 1),
        ("P1 v=exp(0.3x)", interval,
         WeightFn.exp_affine([Fraction(3, 10)], 0), 1),
        ("P2 v=1", p2, WeightFn.constant(2, 1), 2),
        ("P2 v=x1+2", p2,
         WeightFn.affine_power(AffineFunction([1, 0], 2), 1), 2),
        ("P2 v=exp(0.3x1)", p2,
         WeightFn.exp_affine([Fraction(3, 10), 0], 0), 2),
    ]
    for name, p, v, m in cases:
        vv, ww = soliton_weight_pair(v, m)
        u = toricmetrics.SymplecticPotential(p)
        grid = toricmetrics.GridSpec(resolution=grid_resolution)
        basis = invariants._affine_basis(p.dim)
        boundary = invariants.futaki_boundary(p, vv, ww, basis)  # certifies v for both
        fano = invariants._futaki_fano(p, vv, [ell.zeta for ell in basis], "polytope", DEFAULT_TOL)
        numeric = toricmetrics.futaki_numeric(p, u, vv, ww, basis, grid)
        for d, (fb, ff, fn) in enumerate(zip(boundary, fano, numeric)):
            rows.append(_check(f"{name} dir {d}: boundary vs closed form",
                               abs(fb.value - ff.value), 1e-6))
            rows.append(_check(f"{name} dir {d}: boundary vs metric numeric",
                               abs(fb.value - fn.value), 1e-3))
    return rows


def _suite_identities():
    rows = []
    interval, p2 = _interval_and_p2()
    u1 = toricmetrics.SymplecticPotential(interval)
    xs = np.linspace(-0.95, 0.95, 21)[:, None]
    res = np.max(np.abs(toricmetrics.scal(u1, xs, h=1e-3) - 2.0))
    rows.append(_check("P1 Guillemin Scal = 2", res, 1e-8))
    u2 = toricmetrics.scaled_bump(
        p2, Polynomial(2, {(4, 0): Fraction(1, 20), (2, 2): Fraction(1, 30)}))
    rng = random.Random(7)
    pts = []
    while len(pts) < 50:  # from the box [-1, 2]^2 around P^2, 0.05 inside every facet
        x = np.array([rng.random() * 3.0 - 1.0 for _ in range(2)])
        if u2.facet_values(x).min() > 0.05:
            pts.append(x)
    pts = np.array(pts)
    v = WeightFn.exp_affine([Fraction(3, 10), Fraction(1, 10)], 0)
    d = toricmetrics.scal_v_direct(u2, v, pts, h=2.5e-4)
    g = toricmetrics.scal_v_divergence(u2, v, pts, h=2.5e-4)
    rows.append(_check("scal_v direct vs divergence (bump metric)",
                       np.max(np.abs(d - g)), 1e-6))
    # The two FD forms share their truncation error, so the closed form is
    # checked against one of them too; at h = 2.5e-4 that error is 4.5e-6.
    rows.append(_check("scal_v closed form vs direct FD (bump metric)",
                       np.max(np.abs(toricmetrics._scal_v_abreu(u2, v, pts) - d)), 1e-5))
    spec = fibration.FibrationSpec(
        interval, [(fibration.BaseFactor(1, k=2), (1,), 2)])
    fw = fibration.extremal_fibration_weights(spec)
    sample = np.linspace(-0.9, 0.9, 11)[:, None]
    lhs = fw.w_tilde.eval(sample)
    rhs = fw.p.eval(sample) * (fw.ell_ext.eval(sample) - fw.q.eval(sample))
    rows.append(_check("w_tilde = p (ell_ext - q) pointwise", np.max(np.abs(lhs - rhs)), 1e-12))
    return rows


def cmd_verify(args):
    suites = {
        "quadrature": _suite_quadrature,
        "futaki": lambda: _suite_futaki(args.grid),
        "identities": _suite_identities,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    rows = []
    for name in names:
        for row in suites[name]():
            row["suite"] = name
            rows.append(row)
    ok = all(row["pass"] for row in rows)
    _emit(args, "verify", {"suite": args.suite}, {"all_pass": ok, "checks": rows})
    return EXIT_OK if ok else EXIT_VALIDATION


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torickstab",
        description="Weighted Futaki invariants, soliton/Reeb solvers and "
                    "Fano fibration enumeration on Delzant polytopes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, text, func):  # no abbreviations: `--s` must not read as `--spec`
        sp = parent.add_parser(name, help=text, allow_abbrev=False)
        sp.add_argument("--out", help="write the JSON report to a file")
        sp.set_defaults(func=func)
        return sp

    def common(sp, solver=False):
        sp.add_argument("--tol", type=float,
                        default=solvers.DEFAULT_TOL if solver else DEFAULT_TOL)
        if solver:
            sp.add_argument("--max-iter", type=int, default=solvers.DEFAULT_MAX_ITER)
            sp.add_argument("--csv", help="write the iteration trace as CSV")

    sp = command(sub, "polytope-info", "vertices, volume, boundary measure", cmd_polytope_info)
    sp.add_argument("--polytope", required=True)

    sp = command(sub, "futaki", "weighted Futaki invariant", cmd_futaki)
    sp.add_argument("--polytope", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--w", required=True)
    sp.add_argument("--direction")
    sp.add_argument("--all-affine", action="store_true")
    sp.add_argument("--normalization", choices=["polytope", "symplectic"],
                    default="polytope")
    common(sp)

    sp = command(sub, "extremal", "extremal affine function", cmd_extremal)
    sp.add_argument("--polytope", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--w0", required=True)
    sp.add_argument("--extra-source")
    common(sp)

    for name, func in (("soliton", cmd_soliton), ("reeb", cmd_reeb)):
        sp = command(sub, name, f"{name} solver", func)
        sp.add_argument("--polytope", required=True)
        sp.add_argument("--weight", required=True)
        if name == "reeb":
            sp.add_argument("--s", type=float)
        common(sp, solver=True)

    fib = sub.add_parser("fibration", help="fibration spec operations").add_subparsers(
        dest="subcommand", required=True)
    sp = command(fib, "enumerate", "Fano twists of Fano factors over a fiber",
                 cmd_fibration_enumerate)
    sp.add_argument("--fiber")
    sp.add_argument("--factor", action="append", default=[], help="e.g. n=1,k=2 (repeatable)")
    for name, text in (("validate", "admissibility, and the Fano check when it applies"),
                       ("weights", "fibration weights and their extremal affine function"),
                       ("soliton", "soliton solver for the weight p*v"),
                       ("reeb", "Reeb solver for the weight p*v")):
        sp = command(fib, name, text, cmd_fibration)
        sp.add_argument("--spec")
        if name in ("soliton", "reeb"):
            sp.add_argument("--v")
        if name == "reeb":
            sp.add_argument("--s", type=float)
        if name != "validate":
            common(sp, solver=name != "weights")

    sp = command(sub, "verify", "oracle cross-check suites", cmd_verify)
    sp.add_argument("suite",
                    choices=["quadrature", "futaki", "identities", "all"])
    sp.add_argument("--grid", type=int, default=100,
                    help="metric oracle resolution: at least grid^r evaluated nodes")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.started = time.monotonic()
    try:
        with np.errstate(all="ignore"):  # an overflow is a typed error, so stderr stays JSON
            return args.func(args)
    except (SchemaError, TorickstabError, ValueError) as e:
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
