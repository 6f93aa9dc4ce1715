import math
from fractions import Fraction

import numpy as np
import pytest

from torickstab.errors import (MaxIterations, NonFiniteIntegral, NotPositive,
                               NotPositiveDefinite, OriginNotInterior)
from torickstab.invariants import futaki_boundary, futaki_fano
from torickstab.polynomial import Polynomial
from torickstab.polytope import AffineFunction
from torickstab.quadrature import integrate_products, integrate_weighted
from torickstab import quadrature, solvers
from torickstab.solvers import BOUNDARY_FRACTION, _newton_loop, msy_reeb, tian_zhu_soliton
from torickstab.weights import WeightFn

from conftest import CANONICAL_NORMALS, POLYGONS, make_polytope


def _p_affine():
    return WeightFn.affine_power(AffineFunction([1], 2), 1)


def _soliton_gradient(xi):
    """g(xi) = int_{-1}^{1} x e^{xi x} (x + 2) dx via antiderivatives."""
    a = xi

    def F(x):
        # antiderivative of (x^2 + 2x) e^{ax}
        return math.exp(a * x) * (
            (a * a * x * x - 2 * a * x + 2) / a ** 3
            + 2 * (a * x - 1) / a ** 2)

    return F(1.0) - F(-1.0)


def _reeb_gradient_factor(xi):
    """h(xi) = int_{-1}^{1} x (xi x + 1)^{-4} (x + 2) dx via u = xi x + 1."""

    def F(u):
        return -1.0 / u - (xi - 1.0) / u ** 2 - (1.0 - 2.0 * xi) / (3.0 * u ** 3)

    return (F(1.0 + xi) - F(1.0 - xi)) / xi ** 3


def _bisect(f, lo, hi, increasing, steps=200):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        val = f(mid)
        if (val < 0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_soliton_symmetric_cases(interval, square):
    for p in (interval, square):
        res = tian_zhu_soliton(p, WeightFn.constant(p.dim, 1))
        assert np.linalg.norm(res.xi0) <= 1e-12
        assert res.converged


def test_soliton_matches_independent_root(interval):
    res = tian_zhu_soliton(interval, _p_affine())
    xi = res.xi0[0]
    assert -1.0 < xi < 0.0
    oracle = _bisect(_soliton_gradient, -1.0, -1e-6, increasing=True)
    assert xi == pytest.approx(oracle, abs=1e-10)
    assert xi == pytest.approx(-0.5276195198969627, abs=1e-10)
    # first-order condition: gradient of the exact functional vanishes
    assert abs(_soliton_gradient(xi)) <= 1e-9


def test_soliton_futaki_vanishes_at_optimum(interval):
    res = tian_zhu_soliton(interval, _p_affine())
    v = _p_affine() * WeightFn.exp_affine([Fraction(res.xi0[0]).limit_denominator(
        10 ** 15)], 0)
    rep = futaki_fano(interval, v, [1])
    assert abs(rep.value) <= 1e-9


def test_soliton_descent_is_monotone(interval):
    res = tian_zhu_soliton(interval, _p_affine())
    objectives = [f for _, f, _ in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(objectives, objectives[1:]))
    assert res.hessian_min_eigenvalue > 0


def test_reeb_matches_independent_root(interval):
    res = msy_reeb(interval, _p_affine(), 3)
    xi = res.xi0[0]
    oracle = _bisect(_reeb_gradient_factor, 1e-9, 1.0 - 1e-9, increasing=False)
    assert xi == pytest.approx(oracle, abs=1e-10)
    assert xi == pytest.approx(0.13148290817953467, abs=1e-10)
    assert res.hessian_min_eigenvalue > 0


def test_reeb_symmetric_case(p2):
    res = msy_reeb(p2, WeightFn.constant(2, 1), 4)
    assert np.linalg.norm(res.xi0) <= 1e-12


def test_reeb_iterates_stay_feasible(interval):
    res = msy_reeb(interval, _p_affine(), 3)
    for xi, _, _ in res.trace:
        aff = AffineFunction([Fraction(z).limit_denominator(10 ** 15)
                              for z in xi], 1)
        assert interval.vertex_min(aff) > 0


@pytest.mark.parametrize("name", POLYGONS)
def test_reeb_with_affine_p_never_reaches_the_adaptive_cubature(name, monkeypatch):
    # p = x1 + 2 and s = r + 1: every moment has sigma <= r + deg Q, the log case
    def refuse(*args):
        raise AssertionError("adaptive cubature called")

    monkeypatch.setattr(quadrature, "_adaptive", refuse)
    polytope = make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS[name]])
    res = msy_reeb(polytope, WeightFn.affine_power(AffineFunction([1, 0], 2), 1), 3)
    assert res.converged and res.iterations > 0
    assert res.grad_norm <= solvers.DEFAULT_TOL * max(abs(res.objective), 1.0)


@pytest.mark.parametrize("polytope, p, s", [
    (make_polytope(((1,), 1), ((-1,), 1)), WeightFn.exp_affine([8], 0), 2),
    (make_polytope(((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)), WeightFn.exp_affine([6, 0], 0), 3),
], ids=["interval", "P2"])
def test_reeb_shortened_steps_stay_in_the_cone(polytope, p, s):
    # a steep weight drives xi towards the boundary of the cone, so steps are
    # cut below 1; the step rule alone must keep every iterate inside it
    res = msy_reeb(polytope, p, s)
    assert res.converged
    assert min(t for _, _, t in res.trace[1:]) < 1
    for xi, _, _ in res.trace:
        assert polytope.vertex_min(AffineFunction([Fraction(z) for z in xi], 1)) > 0


def test_origin_must_be_interior():
    shifted = make_polytope(((1,), 0), ((-1,), 2))  # [0, 2]
    with pytest.raises(OriginNotInterior):
        tian_zhu_soliton(shifted, WeightFn.constant(1, 1))
    with pytest.raises(OriginNotInterior):
        msy_reeb(shifted, WeightFn.constant(1, 1), 3)


@pytest.mark.parametrize("solve", [tian_zhu_soliton, lambda p, w: msy_reeb(p, w, 3)],
                         ids=["soliton", "reeb"])
def test_weight_must_be_positive(interval, solve):
    # x + 1 vanishes at the vertex -1 of [-1, 1]
    with pytest.raises(NotPositive):
        solve(interval, WeightFn.affine_power(AffineFunction([1], 1), 1))


@pytest.mark.parametrize("s", [0, -0.5, -2, math.inf])
@pytest.mark.parametrize("name", ["p2", "f1"])
def test_reeb_exponent_must_be_finite_and_positive(request, name, s):
    # V is not strictly convex for s <= 0; at s = -0.5 on P^2, xi = 0 is its maximum
    with pytest.raises(ValueError, match="finite and positive"):
        msy_reeb(request.getfixturevalue(name), WeightFn.constant(2, 1), s)


def test_a_critical_point_with_an_indefinite_hessian_is_no_minimiser(p2):
    # the Reeb weights g^(k) of g(t) = (1 + t)^(1/2), s = -1/2 taken past msy_reeb's
    # check: the gradient vanishes at xi = 0 by symmetry, and the Hessian there is
    # negative definite
    def weights(xi):
        ell = AffineFunction([Fraction(z) for z in xi], 1)
        return tuple(WeightFn.affine_power(ell, Fraction(1, 2) - k, coeff=c)
                     for k, c in enumerate((1, Fraction(1, 2), Fraction(-1, 4))))

    with pytest.raises(NotPositiveDefinite):
        _newton_loop(p2, WeightFn.constant(2, 1), weights, 1e-10, 10)


def test_max_iterations_carries_partial_result(interval):
    with pytest.raises(MaxIterations) as info:
        tian_zhu_soliton(interval, _p_affine(), max_iter=1)
    partial = info.value.result
    assert partial is not None and not partial.converged
    assert len(partial.trace) >= 1


def test_an_overflowing_trial_point_is_a_rejected_step(interval, monkeypatch):
    # a Hessian 2^11 times too small at xi = 0 sends the first trial point to xi = -1024,
    # where exp(<xi, x>) overflows and F is not finite: the line search must halve the
    # step as it halves any rejected one, and the iteration then finds the soliton's xi
    def weights(xi):
        g = WeightFn.exp_affine([Fraction(float(z)) for z in xi], 0)
        return g, g, g.scale(Fraction(1, 2 ** 11) if not any(xi) else 1)

    raised = []

    def integrate(*args, **kwargs):
        try:
            return integrate_products(*args, **kwargs)
        except NonFiniteIntegral:
            raised.append(args)
            raise

    monkeypatch.setattr(solvers, "integrate_products", integrate)
    with np.errstate(all="ignore"):
        res = _newton_loop(interval, _p_affine(), weights, 1e-10, 50)
    assert raised and res.converged
    assert res.trace[1][2] <= 2.0 ** -10  # the first step was halved past the overflow
    assert res.xi0[0] == pytest.approx(tian_zhu_soliton(interval, _p_affine()).xi0[0], abs=1e-9)


def test_the_line_search_gives_up_with_the_partial_result(interval, monkeypatch):
    # F is finite at xi = 0 only, where the first call integrates it: every trial
    # point is rejected, and after 60 halvings the solver stops at xi = 0
    calls = []

    def integrate(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise NonFiniteIntegral("F is not finite")
        return integrate_products(*args, **kwargs)

    monkeypatch.setattr(solvers, "integrate_products", integrate)
    with pytest.raises(MaxIterations, match="line search failed to find a descent step") as info:
        tian_zhu_soliton(interval, _p_affine())
    partial = info.value.result
    assert len(calls) == 61 and partial.xi0 == (0.0,) and not partial.converged
    assert partial.iterations == 1 and partial.trace == [((0.0,), partial.objective, 0.0)]


def _reeb_s2_gradient_factor(xi):
    """int_{-1}^{1} x (x + 2) (xi x + 1)^{-3} dx via u = xi x + 1."""

    def F(u):
        return math.log(u) - (2 * xi - 2) / u - (1 - 2 * xi) / (2 * u * u)

    return (F(1.0 + xi) - F(1.0 - xi)) / xi ** 3


def test_reeb_converges_below_objective_noise(interval):
    # near the optimum the Armijo decrease of V falls below V's own cubature
    # error and roundoff; the line search must accept such steps, not stall
    res = msy_reeb(interval, _p_affine(), 2)
    assert res.converged
    oracle = _bisect(_reeb_s2_gradient_factor, 1e-3, 1.0 - 1e-3, increasing=False)
    assert res.xi0[0] == pytest.approx(oracle, abs=1e-10)
    bl2p2 = make_polytope(((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((0, -1), 1),
                          ((-1, 0), 1))
    res = msy_reeb(bl2p2, WeightFn.exp_affine([Fraction(3, 10), 0], 0), 3)
    assert res.converged and res.iterations < 10


def test_reeb_f1_at_defaults_is_sasaki_einstein(f1):
    res = msy_reeb(f1, WeightFn.constant(2, 1), 3)
    assert res.converged
    ell0 = AffineFunction([Fraction(z).limit_denominator(10 ** 15) for z in res.xi0], 1)
    v = WeightFn.affine_power(ell0, -3)
    w = WeightFn.affine_power(ell0, -4, coeff=4)
    basis = [AffineFunction.constant(2, 1)] + [AffineFunction.coordinate(2, i)
                                               for i in range(2)]
    for ell in basis:
        assert abs(futaki_boundary(f1, v, w, ell, tol=1e-9).value) <= 1e-6


def test_p3_soliton_meets_moment_residual():
    p3 = make_polytope(((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, -1), 1))
    p_weight = WeightFn.affine_power(AffineFunction([1, 0, 0], 2), 1)
    res = tian_zhu_soliton(p3, p_weight)
    assert res.converged
    base = p_weight * WeightFn.exp_affine(
        [Fraction(z).limit_denominator(10 ** 15) for z in res.xi0], 0)
    scale = max(1.0, integrate_weighted(p3, base, tol=1e-10).value)
    for i in range(3):
        x_i = WeightFn.from_polynomial(Polynomial.linear([int(j == i) for j in range(3)]))
        moment = integrate_weighted(p3, base * x_i, tol=1e-10, abs_floor=1e-13 * scale)
        assert abs(moment.value) / scale <= 1e-8


def test_hessian_eigenvalue_matches_weighted_moments(f1):
    # the reported eigenvalue is that of the full Hessian of moments x_i x_j at xi0,
    # integrated one product weight at a time; F1 has no symmetry, so its
    # off-diagonal moments are nonzero
    def second_moments(base):
        return np.array([[integrate_weighted(f1, base * WeightFn.from_polynomial(
            Polynomial.linear([int(k == i) for k in range(2)])
            * Polynomial.linear([int(k == j) for k in range(2)]))).value
            for j in range(2)] for i in range(2)])

    one = WeightFn.constant(2, 1)
    res = tian_zhu_soliton(f1, one)
    xi = [Fraction(float(z)) for z in res.xi0]
    hess = second_moments(WeightFn.exp_affine(xi, 0))
    assert abs(hess[0, 1]) > 1e-3
    assert res.hessian_min_eigenvalue == pytest.approx(np.linalg.eigvalsh(hess)[0], rel=1e-12)
    res = msy_reeb(f1, one, 3)
    xi = [Fraction(float(z)) for z in res.xi0]
    hess = 12 * second_moments(WeightFn.affine_power(AffineFunction(xi, 1), -5))
    assert abs(hess[0, 1]) > 1e-3
    assert res.hessian_min_eigenvalue == pytest.approx(np.linalg.eigvalsh(hess)[0], rel=1e-12)


def _p2_affine():
    return WeightFn.affine_power(AffineFunction([1, 0], 2), 1)


_BOTH_SOLVERS = pytest.mark.parametrize(
    "solve", [tian_zhu_soliton, lambda p, w, **kw: msy_reeb(p, w, 3, **kw)], ids=["soliton", "reeb"])


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
@_BOTH_SOLVERS
def test_tolerance_must_be_finite_and_positive(p2, solve, tol):
    # tol = inf once stopped at xi = 0 as "converged"; nan and -1 ran max_iter steps
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve(p2, _p2_affine(), tol=tol)


@pytest.mark.parametrize("max_iter", [-5, 0, 1.5, True])
@_BOTH_SOLVERS
def test_iteration_cap_must_be_an_integer_of_at_least_one(p2, solve, max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
        solve(p2, _p2_affine(), max_iter=max_iter)


def _min_vertex_value(polytope, xi):
    """min over the vertices of 1 + <xi, x>, exact on the float xi."""
    return min(1 + sum(Fraction(float(z)) * c for z, c in zip(xi, v)) for v in polytope.vertices)


@pytest.mark.parametrize("p, s, steps, xi", [
    (WeightFn.exp_affine([5], 0), 1, [1, 1 / 4, 1 / 8, 1 / 16, 1 / 16, 1 / 4, 1, 1, 1],
     0.9990237177701401),
    # at xi = 10/11, 1 + xi x is a multiple of x + 11/10 and the gradient vanishes exactly
    (WeightFn.affine_power(AffineFunction([1], Fraction(11, 10)), 4), 3,
     [1, 1, 1 / 2, 1, 1, 1, 1, 1], 10 / 11),
], ids=["exp", "pole-at-the-zero-of-p"])
def test_reeb_step_rule_where_the_cone_limits_it(interval, monkeypatch, p, s, steps, xi):
    # every step t = 2^-k that msy_reeb's fraction-to-boundary rule returns is the
    # largest one (k <= 200) whose vertex values of 1 + <xi + t d, x> stay at or
    # above 5 % of the current minimum, checked exactly on Fraction vertex values
    seen = []
    newton_loop = solvers._newton_loop

    def recording(*args):
        *head, limit_step = args

        def rule(xi, d):
            seen.append((xi, d, limit_step(xi, d)))
            return seen[-1][2]
        return newton_loop(*head, rule)

    monkeypatch.setattr(solvers, "_newton_loop", recording)
    res = msy_reeb(interval, p, s)
    for x0, d, t in seen:
        floor = (1.0 - BOUNDARY_FRACTION) * float(_min_vertex_value(interval, x0))

        def admissible(t):
            return float(_min_vertex_value(interval, x0 + t * d)) >= floor

        assert t == 2.0 ** round(math.log2(t)) and 2.0 ** -200 <= t <= 1
        assert admissible(t) and (t == 1 or not admissible(2 * t))
    assert [t for _, _, t in seen] == steps and min(steps) < 1
    assert res.converged and res.xi0[0] == pytest.approx(xi, abs=1e-9)


def test_an_exp_reeb_solve_takes_one_cubature_per_trial_point(monkeypatch):
    # exp(<zeta, x>) (1 + <xi, x>)^-s has no closed form once xi != 0: each trial point
    # integrates F, its gradient and its Hessian in one adaptive cubature of 1 + r + r(r+1)/2
    # columns, and an accepted point's moments serve the next iterate
    adaptive, products = quadrature._adaptive, solvers.integrate_products
    columns, trials = [], []

    def counted(simplices, evaluate, *args):
        res = adaptive(simplices, evaluate, *args)
        columns.append(len(res))
        return res

    def trial(polytope, ws, prods, **kwargs):
        trials.append(ws[0])
        return products(polytope, ws, prods, **kwargs)

    monkeypatch.setattr(quadrature, "_adaptive", counted)
    monkeypatch.setattr(solvers, "integrate_products", trial)
    polytope = make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS["F1"]])
    res = msy_reeb(polytope, WeightFn.exp_affine([Fraction(3, 10), Fraction(-1, 5)], 0), 3)
    assert res.converged and res.iterations >= 2 and len(trials) >= res.iterations + 1
    # at xi = 0 the pole 1^-s folds away and the exp keeps its closed form; every other trial
    # point takes one cubature
    moving = [w for w in trials if any(any(aff.zeta) for aff, p in w.affine_powers if p < 0)]
    assert len(moving) == len(trials) - 1 and columns == [1 + 2 + 3] * len(moving)


def test_origins_are_exact_and_trial_points_take_six_closed_forms(monkeypatch):
    # at xi = 0, exp(0) and 1^(-s-k) fold away and p g^(k) is a polynomial: one exact batch for
    # the soliton's one weight, and one for the Reeb's three, which differ only in their
    # coefficients 1, -s and s(s + 1). Past xi = 0 each of the six products takes one
    # integrate_weighted call and one closed-form evaluation, and the six share three divided
    # differences: the soliton's degrees deg p + 0, 1, 2, or the Reeb's (s + k, deg p + k)
    products, counts, trials = solvers.integrate_products, [0, 0, 0, 0], []

    def counting(name, k):
        inner = getattr(quadrature, name)

        def counted(*args, **kwargs):
            counts[k] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(quadrature, name, counted)

    def trial(*args, **kwargs):
        before = list(counts)
        res = products(*args, **kwargs)
        trials.append([b - a for a, b in zip(before, counts)])
        return res

    for k, name in enumerate(["_closed_form", "integrate_weighted", "_exact_products"]):
        counting(name, k)
    for name in ("_exp_dd", "_pole_dd", "_log_dd"):
        counting(name, 3)
    monkeypatch.setattr(solvers, "integrate_products", trial)
    for name in POLYGONS:
        polytope = make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS[name]])
        for p in (WeightFn.constant(2, 1), WeightFn.affine_power(AffineFunction([1, 0], 2), 1)):
            for origin_batches, solve in ((1, tian_zhu_soliton), (1, lambda *a: msy_reeb(*a, 3))):
                trials.clear()
                assert solve(polytope, p).converged
                assert trials[0] == [0, 0, origin_batches, 0]
                assert all(t == [6, 6, 0, 3] for t in trials[1:]), (name, p, trials)
    assert counts[0] == counts[1] == 306 and counts[2] == 20 and counts[3] == 153


def _separate_newton_loop(polytope, p, weights, tol, max_iter, limit_step=lambda xi, d: 1.0):
    """A reference Newton loop: F alone at each trial point, then the gradient and the
    Hessian at the accepted point, each with integrate_weighted or integrate_products."""
    r, qtol = polytope.dim, tol * 1e-2
    x = [AffineFunction.coordinate(r, i) for i in range(r)]
    upper = np.triu_indices(r)
    xi, t, trace = np.zeros(r), 0.0, []
    res = integrate_weighted(polytope, p * weights(xi)[0], tol=qtol)
    f_val, f_err = res.value, res.error_estimate
    for it in range(max_iter):
        grad = np.array([m.value for m in integrate_products(
            polytope, p * weights(xi)[1], [(c,) for c in x], tol=qtol)])
        hess = np.empty((r, r))
        hess[upper] = hess[upper[::-1]] = [m.value for m in integrate_products(
            polytope, p * weights(xi)[2], [(x[i], x[j]) for i, j in zip(*upper)], tol=qtol)]
        trace.append((tuple(xi), f_val, t))
        if np.linalg.norm(grad) <= tol * max(abs(f_val), 1.0):
            return tuple(xi), f_val, it, trace
        step = np.linalg.solve(hess, -grad)
        t, slope = limit_step(xi, step), float(grad @ step)
        noise = f_err + solvers.NOISE_ULPS * np.spacing(abs(f_val))
        while True:
            cand = xi + t * step
            res = integrate_weighted(polytope, p * weights(cand)[0], tol=qtol)
            if res.value <= f_val + solvers.ARMIJO_C * t * slope + noise:
                break
            t *= 0.5
        xi, f_val, f_err = cand, res.value, res.error_estimate
    raise AssertionError("the reference loop did not converge")


def _solve_and_separate_loop(kind, polytope, p, monkeypatch):
    """The solver's result, and the separate loop's with the solver's weights and step rule."""
    seen = {}

    def loop(polytope, p, weights, tol, max_iter, limit_step=lambda xi, d: 1.0):
        seen.update(weights=weights, limit_step=limit_step, tol=tol, max_iter=max_iter)
        return _newton_loop(polytope, p, weights, tol, max_iter, limit_step)

    monkeypatch.setattr(solvers, "_newton_loop", loop)
    res = tian_zhu_soliton(polytope, p) if kind == "soliton" else msy_reeb(polytope, p, 3)
    return res, _separate_newton_loop(polytope, p, seen["weights"], seen["tol"],
                                      seen["max_iter"], seen["limit_step"])


@pytest.mark.parametrize("name", sorted(POLYGONS))
@pytest.mark.parametrize("kind", ["soliton", "reeb"])
def test_closed_form_solves_match_the_separate_integration_loop(name, kind, monkeypatch):
    # with a closed form every moment is its own integrate_weighted call, so integrating
    # F, the gradient and the Hessian together at each trial point changes no bit
    polytope = make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS[name]])
    p = WeightFn.affine_power(AffineFunction([1, Fraction(1, 2)], 3), 1)
    res, ref = _solve_and_separate_loop(kind, polytope, p, monkeypatch)
    assert res.converged and res.iterations >= 1
    assert (res.xi0, res.objective, res.iterations, res.trace) == ref


_EXP_P = WeightFn.exp_affine([Fraction(3, 10), Fraction(-1, 5)], 0)  # exp(3 x1 / 10 - x2 / 5)
_ROOT_P = WeightFn.affine_power(AffineFunction([1, 0], 2), Fraction(1, 2))  # (x1 + 2)^(1/2)


@pytest.mark.parametrize("name, kind, p", [(name, "reeb", _EXP_P) for name in sorted(POLYGONS)]
                         + [("P2", "soliton", _ROOT_P)])
def test_cubature_solves_match_the_cold_separate_loop(name, kind, p, monkeypatch):
    # without a closed form each trial point's cubature starts from the accepted point's
    # refinement, where the separate loop starts every cubature from the triangulation
    polytope = make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS[name]])
    res, (xi, objective, iterations, _) = _solve_and_separate_loop(kind, polytope, p, monkeypatch)
    assert res.converged and res.iterations == iterations >= 2
    assert max(abs(a - b) for a, b in zip(res.xi0, xi)) <= 1e-12
    assert abs(res.objective - objective) <= 1e-13 * abs(objective)


def test_trial_points_refine_from_the_accepted_point(monkeypatch):
    # an exp Reeb solve hands fewer simplices to the rule than cold cubatures of its trial points
    rule_batch, products = quadrature._rule_batch, solvers.integrate_products
    simplices, trials = [0], []

    def counted(verts, *args):
        simplices[0] += len(verts)
        return rule_batch(verts, *args)

    def trial(polytope, ws, prods, tol, mesh):
        trials.append((polytope, ws, prods, tol))
        return products(polytope, ws, prods, tol=tol, mesh=mesh)

    monkeypatch.setattr(quadrature, "_rule_batch", counted)
    monkeypatch.setattr(solvers, "integrate_products", trial)
    polytope = make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS["F1"]])
    assert msy_reeb(polytope, _EXP_P, 3).converged
    warm, simplices[0] = simplices[0], 0
    for polytope, ws, prods, tol in trials:
        integrate_products(polytope, ws, prods, tol=tol)
    assert 0 < warm < simplices[0]


def test_a_rejected_trial_point_drops_its_refinement(p2, monkeypatch):
    # a Hessian 4 times too small at xi = 0 makes the first step too long for the Armijo test:
    # each trial point starts from the mesh the last accepted point left, never a rejected one's
    def weights(xi):
        g = WeightFn.exp_affine([Fraction(float(z)) for z in xi], 0)
        return g, g, g.scale(Fraction(1, 4) if not any(xi) else 1)

    products, calls = solvers.integrate_products, []

    def trial(*args, mesh, **kwargs):
        start = list(mesh)
        res = products(*args, mesh=mesh, **kwargs)
        calls.append((start, list(mesh), res[0].value))
        return res

    monkeypatch.setattr(solvers, "integrate_products", trial)
    res = _newton_loop(p2, _ROOT_P, weights, 1e-10, 50)
    accepted, last = {f for _, f, _ in res.trace}, []
    assert res.converged and res.trace[1][2] < 1 and len(calls) > res.iterations + 1
    for start, end, f in calls:
        assert len(start) == len(last) and all(a is b for a, b in zip(start, last))
        assert len(end) == 2 and len(end[0]) >= len(start and start[0])
        last = end if f in accepted else last
