"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single summary line;
running pytest -v gives one pass/fail line per criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from torickstab.fibration import (
    BaseFactor,
    FibrationSpec,
    enumerate_fano,
    extremal_fibration_weights,
)
from torickstab.invariants import extremal_affine, futaki_boundary, futaki_fano
from torickstab.polynomial import Polynomial, integrate_monomial_std_simplex
from torickstab.polytope import AffineFunction, Simplex
from torickstab.quadrature import (
    _adaptive,
    _rule_batch,
    integrate_boundary,
    integrate_poly,
    integrate_weighted,
)
from torickstab.solvers import msy_reeb, tian_zhu_soliton
from torickstab.toricmetrics import (
    GridSpec,
    SymplecticPotential,
    _refined,
    futaki_numeric,
    scal,
    scal_v_direct,
    scal_v_divergence,
    scaled_bump,
)
from torickstab.weights import WeightFn, soliton_weight_pair

from conftest import make_polytope, one_row


def _affine_basis(dim):
    return [AffineFunction.constant(dim, 1)] + [
        AffineFunction.coordinate(dim, i) for i in range(dim)]


def _frac(x):
    return Fraction(x).limit_denominator(10 ** 15)


def test_criterion_01_fano_enumeration(interval):
    start = time.monotonic()
    out = enumerate_fano(interval, [BaseFactor(n=1, k=2)])
    elapsed = time.monotonic() - start
    assert sorted(t[0] for (t,) in out) == [-1, 0, 1]
    assert elapsed < 1.0
    print(f"criterion 1 PASS: enumeration {{-1,0,1}} in {elapsed:.3f}s")


def test_criterion_02_soliton_symmetry(interval, square):
    start = time.monotonic()
    for p in (interval, square):
        res = tian_zhu_soliton(p, WeightFn.constant(p.dim, 1))
        assert np.linalg.norm(res.xi0) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 2 PASS: symmetric soliton fields vanish in {elapsed:.3f}s")


def test_criterion_03_soliton_oracle(interval):
    start = time.monotonic()
    p_weight = WeightFn.affine_power(AffineFunction([1], 2), 1)
    res = tian_zhu_soliton(interval, p_weight)
    xi = res.xi0[0]

    # independent root: bisection on the analytic antiderivative of
    # g(a) = int x e^{ax} (x+2) dx over [-1, 1]
    def g(a):
        def F(x):
            return math.exp(a * x) * (
                (a * a * x * x - 2 * a * x + 2) / a ** 3
                + 2 * (a * x - 1) / a ** 2)
        return F(1.0) - F(-1.0)

    lo, hi = -1.0, -1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
    oracle = 0.5 * (lo + hi)
    assert abs(xi - oracle) <= 1e-8

    v = p_weight * WeightFn.exp_affine([_frac(xi)], 0)
    rep = futaki_fano(interval, v, [1])
    assert abs(rep.value) <= 1e-9
    # the solve ran on the closed form: its critical-point moment again by cubature
    x = WeightFn.from_polynomial(Polynomial.linear([1]))
    (moment,) = _adaptive(interval.triangulate(), one_row((v * x).eval), 1e-12, 1e-14)
    assert abs(moment.value) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 3 PASS: soliton root {xi:.12f} vs oracle, "
          f"residual Futaki {rep.value:.2e}, {elapsed:.3f}s")


def test_criterion_04_reeb_oracle(interval):
    p_weight = WeightFn.affine_power(AffineFunction([1], 2), 1)
    res = msy_reeb(interval, p_weight, 3)
    xi = res.xi0[0]

    # independent root of h(a) = int x (ax+1)^{-4} (x+2) dx via u = ax + 1
    def h(a):
        def F(u):
            return (-1.0 / u - (a - 1.0) / u ** 2
                    - (1.0 - 2.0 * a) / (3.0 * u ** 3))
        return (F(1.0 + a) - F(1.0 - a)) / a ** 3

    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h(mid) > 0 else (lo, mid)
    oracle = 0.5 * (lo + hi)
    assert abs(xi - oracle) <= 1e-8
    assert res.hessian_min_eigenvalue > 0
    for step_xi, _, _ in res.trace:
        aff = AffineFunction([_frac(z) for z in step_xi], 1)
        assert interval.vertex_min(aff) > 0
    print(f"criterion 4 PASS: Reeb root {xi:.12f} vs oracle, "
          f"iterates feasible, Hessian min eig {res.hessian_min_eigenvalue:.3e}")


def test_criterion_05_three_way_agreement(interval, p2):
    start = time.monotonic()
    cases = []
    for p in (interval, p2):
        e1 = [1] + [0] * (p.dim - 1)
        cases += [
            (p, WeightFn.constant(p.dim, 1)),
            (p, WeightFn.affine_power(AffineFunction(e1, 2), 1)),
            (p, WeightFn.exp_affine([Fraction(3, 10)] + [Fraction(0)]
                                    * (p.dim - 1), 0)),
        ]
    grid = GridSpec(resolution=400)
    worst_closed, worst_numeric = 0.0, 0.0
    for p, base in cases:
        v, w = soliton_weight_pair(base, p.dim)
        u = SymplecticPotential(p)
        for i in range(p.dim):
            zeta = [1 if j == i else 0 for j in range(p.dim)]
            ell = AffineFunction(zeta, 0)
            fb = futaki_boundary(p, v, w, ell).value
            ff = futaki_fano(p, v, zeta).value
            fn = futaki_numeric(p, u, v, w, ell, grid).value
            worst_closed = max(worst_closed, abs(fb - ff))
            worst_numeric = max(worst_numeric, abs(fb - fn))
    elapsed = time.monotonic() - start
    assert worst_closed <= 1e-6
    assert worst_numeric <= 1e-3
    assert elapsed < 60.0
    print(f"criterion 5 PASS: three-way agreement, boundary vs closed form "
          f"{worst_closed:.2e}, vs metric {worst_numeric:.2e}, {elapsed:.1f}s")


def test_criterion_06_metric_independence(interval, p2):
    worst = 0.0
    for p, res in ((interval, 200), (p2, 150)):
        bumps = [
            Polynomial(p.dim, {(4,) + (0,) * (p.dim - 1): Fraction(1, 30)}),
            Polynomial(p.dim, {(2,) * p.dim if p.dim > 1 else (3,):
                               Fraction(1, 50)}),
            Polynomial(p.dim, {(0,) * (p.dim - 1) + (2,): Fraction(1, 20),
                               (1,) + (0,) * (p.dim - 1): Fraction(1, 40)}),
        ]
        v, w = soliton_weight_pair(
            WeightFn.affine_power(
                AffineFunction([1] + [0] * (p.dim - 1), 2), 1), p.dim)
        ell = AffineFunction([1] + [0] * (p.dim - 1), 0)
        grid = GridSpec(resolution=res)
        base = futaki_numeric(p, SymplecticPotential(p), v, w, ell, grid).value
        for bump in bumps:
            other = futaki_numeric(p, scaled_bump(p, bump), v, w, ell,
                                   grid).value
            worst = max(worst, abs(base - other))
    assert worst <= 1e-3
    print(f"criterion 6 PASS: Futaki value metric-independent to {worst:.2e} "
          f"across Guillemin and three bumped potentials")


def test_criterion_07_curvature_anchors(interval):
    u = SymplecticPotential(interval)
    xs = np.linspace(-0.95, 0.95, 39)[:, None]
    scal_residual = float(np.max(np.abs(scal(u, xs, h=1e-3) - 2.0)))
    assert scal_residual <= 1e-8

    total = _rule_batch(_refined(interval, 200), one_row(lambda x: scal(u, x, h=1e-3)))[0].sum()
    boundary_mass = integrate_boundary(
        interval, WeightFn.constant(1, 1)).exact
    assert total == pytest.approx(4.0, abs=1e-6)
    assert 2 * boundary_mass == 4

    v = WeightFn.exp_affine([Fraction(1, 4)], 0)
    rng = np.random.default_rng(2024)
    pts = (rng.random(200) * 1.8 - 0.9)[:, None]
    identity_residual = float(np.max(np.abs(
        scal_v_direct(u, v, pts, h=2.5e-4)
        - scal_v_divergence(u, v, pts, h=2.5e-4))))
    assert identity_residual <= 1e-6
    print(f"criterion 7 PASS: Scal residual {scal_residual:.2e}, "
          f"integral 4 = 2 x boundary mass, identity residual "
          f"{identity_residual:.2e} at 200 points")


def test_criterion_08_extremal_function(interval, p2, square, f1):
    one1 = WeightFn.constant(1, 1)
    res = extremal_affine(interval, one1, one1)
    assert res.function.const == 2 and res.function.zeta == (0,)

    worst_linear = 0.0
    for p in (p2, square):
        one = WeightFn.constant(p.dim, 1)
        sym = extremal_affine(p, one, one)
        worst_linear = max(worst_linear,
                           max(abs(float(z)) for z in sym.function.zeta))
    assert worst_linear <= 1e-10

    worst_residual = 0.0
    for p in (interval, p2, square, f1):
        one = WeightFn.constant(p.dim, 1)
        out = extremal_affine(p, one, one, tol=1e-12)
        worst_residual = max(worst_residual, max(abs(r) for r in out.residuals))
    assert worst_residual <= 1e-10
    print(f"criterion 8 PASS: interval constant 2 exact, symmetric linear "
          f"parts {worst_linear:.1e}, residuals {worst_residual:.1e}")


def test_criterion_09_quadrature_oracles(interval, p2, f1):
    std2 = Simplex(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                    (Fraction(0), Fraction(1))))
    assert integrate_monomial_std_simplex((2, 1)) == Fraction(1, 60)
    assert integrate_poly(p2, Polynomial.constant(2, 1)) == Fraction(9, 2)

    rng = np.random.default_rng(20240501)
    domains = [interval, p2, f1]
    worst_rel = 0.0
    for case in range(100):
        p = domains[case % 3]
        coeffs = {}
        for _ in range(4):
            alpha = tuple(int(a) for a in rng.integers(0, 4, p.dim))
            coeffs[alpha] = Fraction(int(rng.integers(-9, 10)), 7)
        poly = Polynomial(p.dim, coeffs)
        exact = float(integrate_poly(p, poly))
        (approx,) = _adaptive(p.triangulate(), one_row(poly.eval), 1e-12, 1e-14)
        approx = approx.value
        worst_rel = max(worst_rel,
                        abs(approx - exact) / max(1.0, abs(exact)))
    assert worst_rel <= 1e-12

    exp_res = integrate_weighted(interval, WeightFn.exp_affine([1], 0)).value
    assert abs(exp_res - 2 * math.sinh(1.0)) <= 1e-11
    pow_res = integrate_weighted(
        interval, WeightFn.affine_power(AffineFunction([1], 2), -3)).value
    assert abs(pow_res - 4.0 / 9.0) <= 1e-11

    f = Polynomial(2, {(2, 1): Fraction(3), (1, 0): -2, (0, 0): 1})
    lhs = integrate_boundary(p2, WeightFn.from_polynomial(f)).exact
    rhs = integrate_poly(p2, f.scale(2)
                         + Polynomial.linear([1, 0]) * f.partial(0)
                         + Polynomial.linear([0, 1]) * f.partial(1))
    assert lhs == rhs
    print(f"criterion 9 PASS: exact monomials, 100 random polynomials to "
          f"{worst_rel:.1e}, closed forms to 1e-11, divergence identity exact")


def test_criterion_10_reeb_futaki_vanishes(interval, p2, f1):
    worst = 0.0
    for p in (interval, p2, f1):
        m = p.dim
        res = msy_reeb(p, WeightFn.constant(m, 1), m + 1, tol=1e-8)
        ell0 = AffineFunction([_frac(z) for z in res.xi0], 1)
        v = WeightFn.affine_power(ell0, -(m + 1))
        w = WeightFn.affine_power(ell0, -(m + 2), coeff=2 * m)
        for ell in _affine_basis(m):
            val = futaki_boundary(p, v, w, ell, tol=1e-9).value
            worst = max(worst, abs(val))
        # the solve and these values ran on the closed form: the moments
        # int x_i w dx, which vanish at the critical point, again by cubature
        for ell in _affine_basis(m)[1:]:
            x_w = WeightFn.affine_power(ell, 1) * w
            (moment,) = _adaptive(p.triangulate(), one_row(x_w.eval), 1e-12, 1e-14)
            worst = max(worst, abs(moment.value))
    assert worst <= 1e-6
    print(f"criterion 10 PASS: boundary Futaki at the volume-minimizing Reeb "
          f"field vanishes to {worst:.2e} on all affine directions")
