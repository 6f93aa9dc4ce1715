"""Weighted Futaki invariants and the extremal affine function on toric data."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import IllConditioned, NotCanonicalFano
from .exactlinalg import solve
from .polytope import AffineFunction, DelzantPolytope
from .quadrature import DEFAULT_TOL, integrate_products
from .weights import as_weight, require_positive

CONDITION_LIMIT = 1e12


@dataclass
class FutakiReport:
    direction: AffineFunction
    value: float
    method: str  # fano_closed_form | boundary_formula | metric_numeric
    exact: Fraction  # None off the exact path
    error_estimate: float


@dataclass
class ExtremalFunction:
    function: AffineFunction
    gram_condition_number: float
    residuals: list = field(default_factory=list)
    gram_min_eigenvalue: float = 0.0


def _report(direction, method, *terms) -> FutakiReport:
    """The report of sum(coef * res) over (coef, QuadratureResult) terms."""
    exact = None
    if all(res.exact is not None for _, res in terms):
        exact = sum(c * res.exact for c, res in terms)
    value = float(exact) if exact is not None else sum(c * res.value for c, res in terms)
    return FutakiReport(direction, value, method, exact,
                        sum(abs(c) * res.error_estimate for c, res in terms))


def futaki_fano(polytope: DelzantPolytope, v, zeta, tol=DEFAULT_TOL):
    """Closed-form Futaki value on a canonical Fano polytope.

    Valid for the weight pair (v, 2(m + <d log v, x>) v): the invariant in the
    affine direction <zeta, x> reduces to 2 * integral of <zeta, x> v(x) dx.
    A list of zeta vectors gives a list of reports from one expansion of v.
    """
    if not polytope.is_canonical_fano():
        raise NotCanonicalFano("closed form requires the canonical Fano presentation")
    require_positive(v, polytope, name="v")
    return _futaki_fano(polytope, v, zeta, tol)


def _futaki_fano(polytope, v, zeta, tol):
    """futaki_fano for a v already certified positive on a canonical Fano polytope."""
    many = isinstance(zeta[0], (list, tuple))
    directions = [AffineFunction(z, 0) for z in (zeta if many else [zeta])]
    integrals = integrate_products(polytope, v, [(ell,) for ell in directions], tol=tol)
    reports = [_report(ell, "fano_closed_form", (2, res))
               for ell, res in zip(directions, integrals)]
    return reports if many else reports[0]


def futaki_boundary(polytope: DelzantPolytope, v, w, ell, tol=DEFAULT_TOL):
    """Boundary-formula Futaki value: 2*int_{bd} v ell dsigma - int w ell dx.

    Given a list of directions it returns a list of reports, sharing one
    expansion of each weight and one pull-back of v per facet.
    """
    require_positive(v, polytope, name="v")
    many = not isinstance(ell, AffineFunction)
    directions = [(d,) for d in (ell if many else [ell])]
    bnd = integrate_products(polytope, v, directions, boundary=True, tol=tol)
    bulk = integrate_products(polytope, w, directions, tol=tol)
    reports = [_report(d, "boundary_formula", (2, b), (-1, m))
               for (d,), b, m in zip(directions, bnd, bulk)]
    return reports if many else reports[0]


def _affine_basis(dim: int):
    basis = [AffineFunction.constant(dim, 1)]
    basis += [AffineFunction.coordinate(dim, i) for i in range(dim)]
    return basis


def extremal_affine(polytope: DelzantPolytope, v, w0, extra_source=None,
                    tol=DEFAULT_TOL) -> ExtremalFunction:
    """Affine function ell making Fut of (v, w0*ell - v*extra_source) vanish.

    Solves the Gram system over the basis {1, x_1, ..., x_r}; the Gram matrix
    is positive definite whenever w0 > 0. When all integrals land on the exact
    rational path the system is solved exactly. The residuals are the invariant
    of the resulting pair over the basis by the boundary formula: the boundary
    half is the right-hand side's, the bulk half is integrated afresh.
    """
    r, n = polytope.dim, polytope.dim + 1
    require_positive(v, polytope, name="v")
    require_positive(w0, polytope, name="w0")
    v = as_weight(v, r)
    w0 = as_weight(w0, r)
    basis = _affine_basis(r)
    singles = [(b,) for b in basis]
    entries = integrate_products(polytope, w0, [(bi, bj) for bi in basis for bj in basis], tol=tol)
    bnd = integrate_products(polytope, v, singles, boundary=True, tol=tol)
    sources = [()] * n
    if extra_source is not None:
        src = as_weight(extra_source, r)
        sources = [(res,) for res in integrate_products(polytope, v * src, singles, tol=tol)]

    def system(key):
        gram = [[getattr(res, key) for res in entries[i:i + n]] for i in range(0, n * n, n)]
        rhs = [2 * getattr(b, key) + sum(getattr(res, key) for res in s)
               for b, s in zip(bnd, sources)]
        return gram, rhs

    gram, rhs = system("value")
    eigs = np.linalg.eigvalsh(gram)
    cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0 else float("inf")
    if eigs[0] <= 0 or cond > CONDITION_LIMIT:
        raise IllConditioned(
            f"Gram matrix condition number {cond:.3e}, min eigenvalue {eigs[0]:.3e}"
        )

    if all(res.exact is not None for res in entries + bnd + [x for s in sources for x in s]):
        coeffs = solve(*system("exact"))
        ell = AffineFunction(coeffs[1:], coeffs[0])
    else:
        coeffs = np.linalg.solve(gram, rhs)
        ell = AffineFunction([float(c) for c in coeffs[1:]], float(coeffs[0]))

    w_eff = w0 * ell.as_polynomial()
    if extra_source is not None:
        w_eff = w_eff + (v * src).scale(-1)
    bulk = integrate_products(polytope, w_eff, singles, tol=tol)
    residuals = [_report(d, "boundary_formula", (2, b), (-1, m)).value
                 for d, b, m in zip(basis, bnd, bulk)]
    return ExtremalFunction(
        function=ell,
        gram_condition_number=cond,
        residuals=residuals,
        gram_min_eigenvalue=float(eigs[0]),
    )


def barycenter(polytope: DelzantPolytope, v, tol=DEFAULT_TOL):
    """v-weighted barycenter of the polytope. Exact when v is polynomial."""
    require_positive(v, polytope, name="v")
    coords = [(AffineFunction.coordinate(polytope.dim, i),) for i in range(polytope.dim)]
    mass, *moms = integrate_products(polytope, v, [()] + coords, tol=tol)
    if mass.exact is not None:
        return tuple(m.exact / mass.exact for m in moms)
    return tuple(m.value / mass.value for m in moms)
