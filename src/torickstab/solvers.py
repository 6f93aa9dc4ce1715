"""Newton solvers for the soliton vector field and the Reeb minimizer.

Both functionals are smooth and strictly convex on their feasible sets, with
gradients and Hessians given by moment integrals over the polytope, so damped
Newton iterations converge globally from xi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import MaxIterations, NotPositiveDefinite, OriginNotInterior
from .exactlinalg import frac
from .polytope import AffineFunction, DelzantPolytope
from .quadrature import integrate_products, integrate_weighted
from .weights import WeightFn, as_weight, require_positive

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
ARMIJO_C = 1e-4
BOUNDARY_FRACTION = 0.95  # Reeb steps keep >= 5% of the previous boundary margin
NOISE_ULPS = 4  # ulps of |F| granted to the Armijo test on top of F's error estimate


@dataclass
class SolverResult:
    xi0: tuple
    objective: float
    grad_norm: float
    hessian_min_eigenvalue: float
    iterations: int
    trace: list = field(default_factory=list)  # (xi, objective, step length)
    converged: bool = True


def _check_origin(polytope: DelzantPolytope):
    if not polytope.contains_interior([Fraction(0)] * polytope.dim):
        raise OriginNotInterior("the functional is proper only when 0 is interior")


def _moment_products(dim: int):
    """Products (x_i,) and (x_i, x_j) for i <= j, and those (i, j) as index arrays."""
    x = [AffineFunction.coordinate(dim, i) for i in range(dim)]
    upper = np.triu_indices(dim)
    return [(xi,) for xi in x], [(x[i], x[j]) for i, j in zip(*upper)], upper


def _newton_loop(polytope, objective, derivatives, feasible, limit_step, tol, max_iter):
    """Shared damped-Newton driver.

    objective(xi) returns (F, error estimate of F); derivatives(xi) returns
    (grad, hess) and is called only at accepted iterates; feasible(xi) says
    whether xi is admissible; limit_step(xi, direction) caps the initial step.
    """
    r = polytope.dim
    xi = np.zeros(r)
    trace = []
    f_val, f_err = objective(xi)
    grad, hess = derivatives(xi)
    min_eig = float(np.linalg.eigvalsh(hess)[0])
    for it in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(grad))
        trace.append((tuple(xi), f_val, 0.0 if it == 1 else trace_step))
        if gnorm <= tol * max(abs(f_val), 1.0):
            return SolverResult(tuple(xi), f_val, gnorm, min_eig, it - 1, trace)
        if min_eig <= 0:
            raise NotPositiveDefinite(
                f"Hessian minimum eigenvalue {min_eig:.3e} at iterate {it}"
            )
        step = np.linalg.solve(hess, -grad)
        t = limit_step(xi, step)
        # Armijo backtracking on F; a decrease below F's own noise (cubature
        # error plus a few ulps) cannot be resolved and is not asked for
        slope = float(grad @ step)
        noise = f_err + NOISE_ULPS * np.spacing(abs(f_val))
        accepted = False
        for _ in range(60):
            cand = xi + t * step
            if feasible(cand):
                f_new, err_new = objective(cand)
                if f_new <= f_val + ARMIJO_C * t * slope + noise:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            raise MaxIterations(
                "line search failed to find a descent step",
                result=SolverResult(tuple(xi), f_val, gnorm, min_eig, it, trace,
                                    converged=False),
            )
        xi, f_val, f_err = cand, f_new, err_new
        grad, hess = derivatives(xi)
        min_eig = float(np.linalg.eigvalsh(hess)[0])
        trace_step = t
    gnorm = float(np.linalg.norm(grad))
    result = SolverResult(tuple(xi), f_val, gnorm, min_eig, max_iter, trace,
                          converged=False)
    raise MaxIterations(f"no convergence in {max_iter} iterations", result=result)


def tian_zhu_soliton(polytope: DelzantPolytope, p, tol=DEFAULT_TOL,
                     max_iter=DEFAULT_MAX_ITER) -> SolverResult:
    """Minimize F(xi) = int exp(<xi,x>) p(x) dx; the critical point is the
    soliton vector field, where the p-weighted exp-barycenter sits at 0."""
    _check_origin(polytope)
    require_positive(p, polytope, name="p")
    p = as_weight(p, polytope.dim)
    r = polytope.dim
    firsts, seconds, upper = _moment_products(r)
    qtol = tol * 1e-2  # moments two orders tighter than the solver

    def base(xi):
        return p * WeightFn.exp_affine([frac(float(z)) for z in xi], 0)

    def objective(xi):
        res = integrate_weighted(polytope, base(xi), tol=qtol)
        return res.value, res.error_estimate

    def derivatives(xi):
        moments = [res.value for res in
                   integrate_products(polytope, base(xi), firsts + seconds, tol=qtol)]
        hess = np.empty((r, r))
        hess[upper] = hess[upper[::-1]] = moments[r:]
        return np.array(moments[:r]), hess

    return _newton_loop(polytope, objective, derivatives, lambda xi: True,
                        lambda xi, d: 1.0, tol, max_iter)


def msy_reeb(polytope: DelzantPolytope, p, s, tol=DEFAULT_TOL,
             max_iter=DEFAULT_MAX_ITER) -> SolverResult:
    """Minimize V(xi) = int (<xi,x>+1)^(-s) p(x) dx over the cone where
    <xi,x>+1 > 0 on the polytope; the optimum is the normalized Reeb field."""
    _check_origin(polytope)
    require_positive(p, polytope, name="p")
    p = as_weight(p, polytope.dim)
    r = polytope.dim
    s = float(s)
    firsts, seconds, upper = _moment_products(r)
    qtol = tol * 1e-2

    def min_vertex(xi):
        aff = AffineFunction([frac(float(z)) for z in xi], 1)
        return float(polytope.vertex_min(aff))

    def feasible(xi):
        return min_vertex(xi) > 0

    def limit_step(xi, d):
        # fraction-to-boundary: keep the min-vertex value of ell above
        # (1 - BOUNDARY_FRACTION) of its current value
        cur = min_vertex(xi)
        t = 1.0
        for _ in range(200):
            if min_vertex(xi + t * d) >= (1.0 - BOUNDARY_FRACTION) * cur:
                return t
            t *= 0.5
        return t

    def base(xi, e):
        aff = AffineFunction([frac(float(z)) for z in xi], 1)
        return p * WeightFn.affine_power(aff, frac(e))

    def objective(xi):
        res = integrate_weighted(polytope, base(xi, -s), tol=qtol)
        return res.value, res.error_estimate

    def derivatives(xi):
        g = integrate_products(polytope, base(xi, -s - 1), firsts, tol=qtol)
        h = integrate_products(polytope, base(xi, -s - 2), seconds, tol=qtol)
        hess = np.empty((r, r))
        hess[upper] = hess[upper[::-1]] = s * (s + 1) * np.array([res.value for res in h])
        return -s * np.array([res.value for res in g]), hess

    return _newton_loop(polytope, objective, derivatives, feasible, limit_step,
                        tol, max_iter)
