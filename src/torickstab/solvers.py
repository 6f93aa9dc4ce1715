"""Newton solvers for the soliton vector field and the Reeb minimizer.

Both fields minimize a functional F(xi) = int g(<xi, x>) p(x) dx that is
smooth and strictly convex on its feasible set: g = exp for the soliton and
g(t) = (1 + t)^(-s) for the Reeb field. The gradient and Hessian are the
moments int g'(<xi, x>) x_i p dx and int g''(<xi, x>) x_i x_j p dx, so one
damped Newton loop, `_newton_loop`, serves both; each solver supplies only
the weights g, g', g'' (the soliton's are one weight). The iterations converge
globally from xi = 0, where g^(k) is a constant: polynomial p has exact moments.
Each trial point integrates F and all its moments in one call; they are
closed forms for polynomial p (also times one exp(affine) for the soliton,
and for integer s for the Reeb field, with one divided-difference evaluation
per degree deg p + k, k = 0, 1, 2, see quadrature._closed_form) and one
adaptive cubature otherwise.
That cubature starts from the mesh the last accepted point's cubature ended
on (the first one of a solve from the triangulation), and builds its columns
in place. F's noise in the Armijo test is its error estimate, a rounding
bound on the closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import MaxIterations, NonFiniteIntegral, NotPositiveDefinite, OriginNotInterior
from .exactlinalg import frac
from .polytope import AffineFunction, DelzantPolytope
from .quadrature import integrate_products, integrate_weighted  # noqa: F401, perfbench traces it here
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


def _newton_loop(polytope, p, weights, tol, max_iter, limit_step=lambda xi, d: 1.0):
    """Damped Newton minimization of F(xi) = int g(<xi, x>) p(x) dx from xi = 0.

    weights(xi) is (g, g', g'') as weights x -> g^(k)(<xi, x>); equal ones may be one object,
    and p g^(k) is built once per object. Each trial point takes F, its gradient and its Hessian
    from one integrate_products call over the products (), (x_i,) and (x_i, x_j) with weights
    p g^(k), two orders tighter than `tol`, and an accepted point keeps them. It keeps its
    cubature's final mesh with them too (see quadrature._adaptive), where the next trial
    point's cubature starts; a rejected trial point's mesh is dropped with its moments, and
    the mesh does not outlive the solve.
    limit_step(xi, direction) caps the initial step; every shorter step must stay admissible.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter}")
    if not polytope.contains_interior([Fraction(0)] * polytope.dim):
        raise OriginNotInterior("the functional is proper only when 0 is interior")
    require_positive(p, polytope, name="p")
    p = as_weight(p, polytope.dim)
    r, qtol = polytope.dim, tol * 1e-2
    x = [AffineFunction.coordinate(r, i) for i in range(r)]
    upper = np.triu_indices(r)
    products = [()] + [(c,) for c in x] + [(x[i], x[j]) for i, j in zip(*upper)]

    def integrals(xi, start):  # F, its error estimate, gradient, Hessian and cubature mesh at xi
        gs, mesh = weights(xi), list(start)  # the trial's own mesh
        pg = {id(g): p * g for g in {id(g): g for g in gs}.values()}  # p g once per distinct g
        res = integrate_products(polytope, [pg[id(gs[len(e)])] for e in products], products,
                                 tol=qtol, mesh=mesh)
        hess = np.empty((r, r))
        hess[upper] = hess[upper[::-1]] = [m.value for m in res[1 + r:]]
        return (res[0].value, res[0].error_estimate, np.array([m.value for m in res[1:1 + r]]),
                hess, mesh)

    def stopped(iterations):
        return SolverResult(tuple(xi), f_val, gnorm, min_eig, iterations, trace, converged=False)

    xi, t, trace = np.zeros(r), 0.0, []
    f_val, f_err, grad, hess, mesh = integrals(xi, [])
    for it in range(max_iter + 1):
        gnorm = float(np.linalg.norm(grad))
        min_eig = float(np.linalg.eigvalsh(hess)[0])
        if it == max_iter:
            raise MaxIterations(f"no convergence in {max_iter} iterations", result=stopped(it))
        trace.append((tuple(xi), f_val, t))
        if min_eig <= 0:
            raise NotPositiveDefinite(f"Hessian minimum eigenvalue {min_eig:.3e} at iterate {it + 1}")
        if gnorm <= tol * max(abs(f_val), 1.0):
            return SolverResult(tuple(xi), f_val, gnorm, min_eig, it, trace)
        step = np.linalg.solve(hess, -grad)
        t = limit_step(xi, step)
        # Armijo backtracking on F; a decrease below F's own noise (its error
        # estimate plus a few ulps) cannot be resolved and is not asked for
        slope = float(grad @ step)
        noise = f_err + NOISE_ULPS * np.spacing(abs(f_val))
        for _ in range(60):
            cand = xi + t * step
            try:
                new = integrals(cand, mesh)
            except NonFiniteIntegral:  # F or a moment overflows at the trial point: reject it
                new = (math.inf,)
            if new[0] <= f_val + ARMIJO_C * t * slope + noise:
                break
            t *= 0.5
        else:
            raise MaxIterations("line search failed to find a descent step",
                                result=stopped(it + 1))
        xi, (f_val, f_err, grad, hess, mesh) = cand, new


def tian_zhu_soliton(polytope: DelzantPolytope, p, tol=DEFAULT_TOL,
                     max_iter=DEFAULT_MAX_ITER) -> SolverResult:
    """Minimize F(xi) = int exp(<xi,x>) p(x) dx; the critical point is the
    soliton vector field, where the p-weighted exp-barycenter sits at 0."""

    def weights(xi):
        return (WeightFn.exp_affine([frac(float(z)) for z in xi], 0),) * 3

    return _newton_loop(polytope, p, weights, tol, max_iter)


def msy_reeb(polytope: DelzantPolytope, p, s, tol=DEFAULT_TOL,
             max_iter=DEFAULT_MAX_ITER) -> SolverResult:
    """Minimize V(xi) = int (<xi,x>+1)^(-s) p(x) dx over the cone where
    <xi,x>+1 > 0 on the polytope; the optimum is the normalized Reeb field.
    V is strictly convex only for a finite exponent s > 0."""
    s = float(s)
    if not (np.isfinite(s) and s > 0):
        raise ValueError(f"the exponent s must be finite and positive, got {s}")
    verts = np.array([[float(c) for c in v] for v in polytope.vertices])

    def limit_step(xi, d):
        # fraction-to-boundary: the largest t = 2^-k <= 1 (k <= 200) keeping each vertex value of
        # 1 + <xi + t d, x> >= 5% of the current minimum, and so every shorter t (it is linear)
        now, rate = 1 + verts @ xi, verts @ d
        down, floor = rate < 0, (1.0 - BOUNDARY_FRACTION) * now.min()
        room = np.min((now[down] - floor) / -rate[down], initial=1.0)
        return max(2.0 ** (math.frexp(room)[1] - 1), 2.0 ** -200)

    def weights(xi):
        ell = AffineFunction([frac(float(z)) for z in xi], 1)
        return tuple(WeightFn.affine_power(ell, frac(-s - k), coeff=c)
                     for k, c in enumerate((1, -s, s * (s + 1))))

    return _newton_loop(polytope, p, weights, tol, max_iter, limit_step)
