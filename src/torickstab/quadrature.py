"""Integration over Delzant polytopes and their boundaries.

Three integrand families are supported: exact rational polynomials, and
polynomial x exp(affine) / polynomial x (positive affine)^s via adaptive
Grundmann--Moeller simplex cubature with an embedded degree-7/degree-9 pair
and longest-edge bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import add, mul

import numpy as np

from .errors import DegenerateSimplex, MaxDepthExceeded, SingularOnDomain
from .exactlinalg import frac
from .polynomial import Polynomial, compositions, dict_product, linear_terms
from .polytope import DelzantPolytope, Simplex, _bisect_all, moment_table
from .weights import WeightFn, WeightSum, as_weight

DEFAULT_TOL = 1e-12
ABS_FLOOR = 1e-14
MAX_DEPTH = 40

# Embedded Grundmann--Moeller pair: order s rule is exact to degree 2s+1.
GM_ORDER_LOW = 3   # degree 7
GM_ORDER_HIGH = 4  # degree 9


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int
    exact: Fraction = None  # set on the exact rational path
    converged: bool = True


# -- exact polynomial path ------------------------------------------------------


def integrate_monomial_simplex(simplex: Simplex, alpha) -> Fraction:
    """Exact integral of x^alpha over a simplex."""
    return integrate_poly_simplex(simplex, Polynomial.monomial(simplex.dim, alpha))


def integrate_poly_simplex(simplex: Simplex, poly: Polynomial) -> Fraction:
    return _dot_shifted(lambda degree: moment_table([simplex], degree), poly, [[]])[0]


def integrate_poly(polytope: DelzantPolytope, poly: Polynomial) -> Fraction:
    """Exact integral of a rational polynomial over the polytope.

    A linear functional of the polytope's cached moment table.
    """
    return _dot_shifted(polytope.moments, poly, [[]])[0]


# -- Grundmann--Moeller rules ----------------------------------------------------


@lru_cache(maxsize=None)
def gm_rule(dim: int, order: int):
    """Grundmann--Moeller rule on the standard dim-simplex, exact to degree 2*order+1.

    Returns (barycentric points (P, dim+1) float array, weights (P,) float array);
    weights sum to the simplex volume 1/dim!.
    """
    s, n = order, dim
    d = 2 * s + 1
    points = []
    weights = []
    for i in range(s + 1):
        denom = d + n - 2 * i
        w = (
            Fraction((-1) ** i)
            * Fraction(denom) ** d
            / (Fraction(2) ** (2 * s) * factorial(i) * factorial(d + n - i))
        )
        for k in compositions(s - i, n + 1):
            points.append([Fraction(2 * kj + 1, denom) for kj in k])
            weights.append(w)
    pts = np.array([[float(c) for c in p] for p in points])
    wts = np.array([float(w) for w in weights])
    # exactness sanity: weights must sum to vol(std simplex)
    assert abs(wts.sum() - 1.0 / factorial(n)) < 1e-12
    return pts, wts


# -- adaptive integration ---------------------------------------------------------

# Most nodes handed to one integrand call: a 3-D round can reach 10^5 nodes,
# and evaluating them at once raises the peak memory for no gain in speed.
EVAL_CHUNK = 1 << 15


def _rule_batch(verts, evaluate):
    """Degree-9 value, |9 - 7| error and degree-9 rule on |f| per simplex.

    The nodes of both rules on every simplex go through `evaluate` together,
    in calls of at most EVAL_CHUNK nodes.
    """
    dim = verts.shape[2]
    pts_hi, wts_hi = gm_rule(dim, GM_ORDER_HIGH)
    pts_lo, wts_lo = gm_rule(dim, GM_ORDER_LOW)
    flat = (np.vstack([pts_hi, pts_lo]) @ verts).reshape(-1, dim)
    f = np.concatenate([evaluate(flat[i:i + EVAL_CHUNK])
                        for i in range(0, len(flat), EVAL_CHUNK)])
    f = f.reshape(len(verts), -1)
    f_hi = f[:, :len(wts_hi)]
    scale = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1]))
    value = scale * (f_hi @ wts_hi)
    err = np.abs(value - scale * (f[:, len(wts_hi):] @ wts_lo))
    return value, err, scale * (np.abs(f_hi) @ wts_hi)


def _adaptive(simplices, evaluate, tol, abs_floor, max_depth) -> QuadratureResult:
    """Round-based adaptive cubature.

    Each round bisects every simplex whose error exceeds its share target / S
    of the target max(tol * int|f|, abs_floor) and evaluates all children in
    one batch; int|f| is estimated by the degree-9 rule applied to |f|.
    """
    verts = np.array([s.float_vertices() for s in simplices])
    value, err, mass = _rule_batch(verts, evaluate)
    depth = np.zeros(len(verts), dtype=int)
    subdivisions = 0
    while True:
        total_err = float(err.sum())
        target = max(tol * float(mass.sum()), abs_floor)
        if not total_err > target:  # a NaN integrand stops here too
            return QuadratureResult(float(value.sum()), total_err, subdivisions)
        split = err > target / len(err)
        if depth[split].max() >= max_depth:
            result = QuadratureResult(float(value.sum()), total_err, subdivisions,
                                      converged=False)
            raise MaxDepthExceeded(
                f"bisection depth {max_depth} reached (error estimate {total_err:.3e})",
                result=result,
            )
        keep = ~split
        children = _bisect_all(verts[split])
        c_value, c_err, c_mass = _rule_batch(children, evaluate)
        verts = np.concatenate([verts[keep], children])
        value = np.concatenate([value[keep], c_value])
        err = np.concatenate([err[keep], c_err])
        mass = np.concatenate([mass[keep], c_mass])
        depth = np.concatenate([depth[keep], np.repeat(depth[split] + 1, 2)])
        subdivisions += len(children) // 2


def _check_singularities(polytope: DelzantPolytope, weight):
    for aff, p in weight.singular_factors():
        vmin = polytope.vertex_min(aff)
        if vmin <= 0:
            raise SingularOnDomain(
                f"affine factor {aff} with exponent {p} attains {vmin} on the polytope"
            )


def integrate_weighted(polytope: DelzantPolytope, integrand, tol=DEFAULT_TOL,
                       abs_floor=ABS_FLOOR, max_depth=MAX_DEPTH) -> QuadratureResult:
    """Integral of a grammar weight (or polynomial) over the polytope.

    Purely polynomial integrands take the exact rational path. Otherwise an
    adaptive embedded GM 7/9 scheme with longest-edge bisection runs until the
    summed rule discrepancy meets max(tol*int|f|, abs_floor), refining in
    batched rounds (see _adaptive).
    """
    w = as_weight(integrand, polytope.dim)
    if w.is_polynomial:
        return integrate_products(polytope, w, [()])[0]
    _check_singularities(polytope, w)
    return _adaptive(polytope.triangulate(), w.eval, tol, abs_floor, max_depth)


# -- boundary integration -----------------------------------------------------------


def integrate_boundary(polytope: DelzantPolytope, integrand, tol=DEFAULT_TOL,
                       abs_floor=ABS_FLOOR, max_depth=MAX_DEPTH) -> QuadratureResult:
    """Integral over the polytope boundary with the lattice measure d(sigma).

    A polynomial integrand is exact, read off the facets' moment tables by
    integrate_products. Otherwise each facet is pulled back to its lattice chart,
    where d(sigma) is Lebesgue, and integrated adaptively as an (r-1)-dimensional
    polytope integral; a point facet (r = 1) has d(sigma)-mass 1.
    """
    w = as_weight(integrand, polytope.dim)
    if w.is_polynomial:
        return integrate_products(polytope, w, [()], boundary=True)[0]
    _check_singularities(polytope, w)
    value = 0.0
    err = 0.0
    subdivisions = 0
    for _, facet in polytope.facets():
        if facet.subpolytope is None:
            value += float(w.eval(np.array([float(c) for c in facet.origin])))
            continue
        pulled = w.compose_affine(facet.basis, facet.origin)
        res = integrate_weighted(facet.subpolytope, pulled, tol, abs_floor, max_depth)
        value += res.value
        err += res.error_estimate
        subdivisions += res.subdivisions
    return QuadratureResult(value, err, subdivisions)


def integrate_products(polytope: DelzantPolytope, integrand, products, boundary=False,
                       tol=DEFAULT_TOL) -> list:
    """Integrals of integrand * prod(ells), one per tuple `ells` of AffineFunctions.

    Over the polytope, or with boundary=True over its boundary with d(sigma). A
    polynomial integrand is expanded once and pulled back once per facet chart
    x = origin + B t, where ell becomes ell(origin) + sum_k <zeta, B_k> t_k; every
    result is then exact, a dot product with shifted moments (see _dot_shifted).
    Other integrands take integrate_weighted / integrate_boundary once per product.
    """
    w = as_weight(integrand, polytope.dim)
    if not w.is_polynomial:
        integrate = integrate_boundary if boundary else integrate_weighted
        return [integrate(polytope, w * _multiplier(polytope.dim, tuple(ells)), tol=tol)
                for ells in products]
    lines = [[(ell.const, ell.zeta) for ell in ells] for ells in products]
    poly = w.to_polynomial()
    if not boundary:
        exact = _dot_shifted(polytope.moments, poly, lines)
    else:
        exact = [0] * len(products)
        for _, f in polytope.facets():  # a point facet (r = 1) has dimension 0 and mass 1
            table = f.subpolytope.moments if f.subpolytope else lambda _: {(): 1}
            pulled = [[(sum(map(mul, zeta, f.origin), c),
                        [sum(map(mul, zeta, col)) for col in zip(*f.basis)])
                       for c, zeta in factors] for factors in lines]
            exact = list(map(add, exact, _dot_shifted(
                table, poly.compose_affine(f.basis, f.origin), pulled)))
    return [QuadratureResult(float(e), 0.0, 0, exact=e) for e in exact]


@lru_cache(maxsize=256)
def _multiplier(dim, ells):
    """prod(ells) as a polynomial weight, cached: a Newton solve asks for it at every step."""
    return WeightFn.from_polynomial(
        Polynomial(dim, _expand([(ell.const, ell.zeta) for ell in ells], dim)))


def _dot_shifted(table, poly, lines):
    """int poly * prod(c + <zeta, t>) for each list of (c, zeta) factors, read off
    table(degree) as sum_beta [t^beta] prod * sum_alpha c_alpha m_(alpha + beta)."""
    moments = table(poly.degree() + max(map(len, lines), default=0))
    mults = [_expand(factors, poly.dim) for factors in lines]
    shifted = {beta: sum((c * moments[tuple(map(add, a, beta))] for a, c in poly.coeffs.items()),
                         Fraction(0)) for beta in set().union(*mults)}
    return [sum((d * shifted[beta] for beta, d in q.items()), Fraction(0)) for q in mults]


def _expand(factors, dim):
    """prod(c + <zeta, t>) over the (c, zeta) factors, as {beta: coefficient}."""
    out = {(0,) * dim: 1}
    for c, zeta in factors:
        out = dict_product(out, linear_terms(zeta, c))
    return out


# -- closed-form exp integrals ---------------------------------------------------------


CONFLUENCE_GAP = 1e-4


def exp_divided_difference(values):
    """Divided difference of exp at the given nodes.

    Recursive Newton table for well-separated nodes; below the confluence gap
    the value is computed from the Taylor series about the mean, where the
    divided difference of t^k is the complete homogeneous symmetric polynomial
    h_{k-r} of the (centered) nodes.
    """
    z = sorted(float(v) for v in values)
    r = len(z) - 1
    if r == 0:
        return np.exp(z[0])
    if z[-1] - z[0] < CONFLUENCE_GAP:
        return _exp_dd_series(z)
    table = [np.exp(v) for v in z]
    for level in range(1, r + 1):
        nxt = []
        for i in range(r + 1 - level):
            dz = z[i + level] - z[i]
            if abs(dz) < CONFLUENCE_GAP:
                nxt.append(_exp_dd_series(z[i:i + level + 1]))
            else:
                nxt.append((table[i + 1] - table[i]) / dz)
        table = nxt
    return table[0]


def _exp_dd_series(z):
    r = len(z) - 1
    mean = sum(z) / len(z)
    c = [v - mean for v in z]
    # h_j = complete homogeneous symmetric polynomial of degree j in c
    h = [1.0]
    total = 0.0
    j = 0
    while True:
        total += h[j] / factorial(r + j)
        if abs(h[j] / factorial(r + j)) < 1e-18 * max(1.0, abs(total)) and j > 0:
            break
        if j > 200:
            break
        # Newton-like recursion h_{j+1} = sum_i c_i^{...}: use power sums
        j += 1
        pk = [sum(ci ** k for ci in c) for k in range(1, j + 1)]
        hj = sum(pk[k - 1] * h[j - k] for k in range(1, j + 1)) / j
        h.append(hj)
    return np.exp(mean) * total


def exp_affine_simplex_exact(simplex: Simplex, xi) -> float:
    """Closed-form integral of exp(<xi, x>) over a simplex.

    Equals r! * vol(S) * (divided difference of exp at the vertex values).
    """
    vol = simplex.volume()
    if vol == 0:
        raise DegenerateSimplex("simplex has zero volume")
    xi = [frac(v) for v in xi]
    vals = [float(sum(z * c for z, c in zip(xi, v))) for v in simplex.vertices]
    r = simplex.dim
    return factorial(r) * float(vol) * exp_divided_difference(vals)
