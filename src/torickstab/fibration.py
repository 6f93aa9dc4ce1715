"""Semi-simple principal torus fibrations over cscK bases.

A fibration spec pairs a toric fiber polytope with base factors (B_a, n_a,
curvature) twisted by lattice vectors p_a and offsets c_a. The induced fiber
weights are the polynomial p(x) = prod(<p_a,x>+c_a)^{n_a} and the curvature
sum q(x) = sum s_a/(<p_a,x>+c_a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from operator import mul

from .errors import NotAdmissible, NotCanonicalFano
from .exactlinalg import _integer, frac
from .invariants import extremal_affine
from .polytope import AffineFunction, DelzantPolytope
from .quadrature import DEFAULT_TOL
from .solvers import (DEFAULT_MAX_ITER, DEFAULT_TOL as SOLVER_TOL, SolverResult, msy_reeb,
                      tian_zhu_soliton)
from .weights import WeightFn, WeightSum, as_weight, require_positive, soliton_weight_pair


@dataclass(frozen=True)
class BaseFactor:
    """One cscK base factor: complex dimension n and scalar curvature data.

    Fano factors carry the positive integer k with s = 2 n k; general cscK
    factors carry s directly.
    """

    n: int
    k: int = None
    s: Fraction = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "base factor dimension n"))
        if self.n < 1:
            raise ValueError("base factor dimension must be at least 1")
        if (self.k is None) == (self.s is None):
            raise ValueError("specify exactly one of k (Fano) or s (cscK)")
        if self.k is not None:
            object.__setattr__(self, "k", _integer(self.k, "Fano constant k"))
            if self.k < 1:
                raise ValueError("Fano constant k must be a positive integer")
            object.__setattr__(self, "s", Fraction(2 * self.n * self.k))
        else:
            object.__setattr__(self, "s", frac(self.s))

    @property
    def is_fano(self) -> bool:
        return self.k is not None


@dataclass(frozen=True)
class FibrationSpec:
    fiber: DelzantPolytope
    factors: tuple = ()  # of (BaseFactor, p_a lattice vector, c_a rational)

    def __post_init__(self):
        norm = []
        for a, (factor, p_a, c_a) in enumerate(self.factors):
            if len(p_a) != self.fiber.dim:
                raise ValueError(f"factor {a}: twist p has length {len(p_a)}, "
                                 f"the fiber dimension {self.fiber.dim}")
            norm.append((factor, tuple(_integer(z, f"factor {a}: twist p entry") for z in p_a),
                         frac(c_a)))
        object.__setattr__(self, "factors", tuple(norm))

    def twist_affine(self, a: int) -> AffineFunction:
        _, p_a, c_a = self.factors[a]
        return AffineFunction(p_a, c_a)


@dataclass
class FibrationWeights:
    p: WeightFn
    q: object  # WeightFn or WeightSum
    w_tilde: object
    ell_ext: AffineFunction
    residuals: list = field(default_factory=list)


def validate(spec: FibrationSpec) -> None:
    """Admissibility: every twist affine <p_a,x>+c_a strictly positive on the fiber."""
    for a in range(len(spec.factors)):
        aff = spec.twist_affine(a)
        vmin = spec.fiber.vertex_min(aff)
        if vmin <= 0:
            worst = min(spec.fiber.vertices, key=aff.eval_exact)
            raise NotAdmissible(
                f"factor {a}: {aff} attains {vmin} at vertex {worst}",
                factor_index=a,
                vertex=worst,
            )


def fibration_weight(spec: FibrationSpec) -> WeightFn:
    """Fiber weight polynomial p(x) = prod(<p_a,x>+c_a)^{n_a}."""
    validate(spec)
    p = WeightFn.constant(spec.fiber.dim, 1)
    for a, (factor, _, _) in enumerate(spec.factors):
        p = p * WeightFn.affine_power(spec.twist_affine(a), factor.n)
    return p


def base_curvature_weight(spec: FibrationSpec):
    """Curvature weight q(x) = sum_a s_a/(<p_a,x>+c_a)."""
    validate(spec)
    terms = [WeightFn.affine_power(spec.twist_affine(a), -1, coeff=factor.s)
             for a, (factor, _, _) in enumerate(spec.factors) if factor.s != 0]
    return WeightSum(terms) if terms else WeightFn.constant(spec.fiber.dim, 0)


def extremal_fibration_weights(spec: FibrationSpec, tol=DEFAULT_TOL) -> FibrationWeights:
    """Weights (p, q, w_tilde = p*(ell_ext - q)) with ell_ext killing the Futaki
    invariant of the pair on every affine direction."""
    p = fibration_weight(spec)
    q = base_curvature_weight(spec)
    ext = extremal_affine(spec.fiber, p, p, extra_source=q, tol=tol)
    ell = ext.function
    w_tilde = p * ell.as_polynomial() + (p * q).scale(-1)
    return FibrationWeights(p=p, q=q, w_tilde=w_tilde, ell_ext=ell,
                            residuals=ext.residuals)


def soliton_fibration_weights(spec: FibrationSpec, v):
    """Soliton weight pair of the total space: soliton pair of p*v in the fiber dimension."""
    pv = fibration_weight(spec) * as_weight(v, spec.fiber.dim)
    require_positive(pv, spec.fiber, "v")
    return soliton_weight_pair(pv, spec.fiber.dim)


def fano_check(spec: FibrationSpec) -> bool:
    """Anticanonical class check: fiber canonical Fano, factors Fano with c_a = k_a,
    and every twist affine strictly positive on the fiber."""
    if not spec.fiber.is_canonical_fano():
        raise NotCanonicalFano("Fano check requires the canonical fiber presentation")
    for a, (factor, _, c_a) in enumerate(spec.factors):
        if not factor.is_fano:
            raise ValueError(f"factor {a} has no Fano constant k")
        if c_a != factor.k:
            return False
        if spec.fiber.vertex_min(spec.twist_affine(a)) <= 0:
            return False
    return True


def enumerate_fano(fiber: DelzantPolytope, factors):
    """All lattice twist tuples (p_1..p_k) with <p_a,x>+k_a > 0 on the fiber.

    A factor's twists are the interior lattice points of k_a P*, the dilated
    polar polytope conv(u_j) of the fiber (see _admissible_lattice); the tuples
    are their product, in lexicographic order per factor.
    """
    if not fiber.is_canonical_fano():
        raise NotCanonicalFano("enumeration requires the canonical fiber presentation")
    per_factor = []
    for a, factor in enumerate(factors):
        if not factor.is_fano:
            raise ValueError(f"factor {a} has no Fano constant k")
        per_factor.append(_admissible_lattice(fiber, factor.k))
    return list(itertools.product(*per_factor))


def _admissible_lattice(fiber: DelzantPolytope, k: int):
    """Integer c with <c, v> + k > 0 at every vertex v, in lexicographic order.

    With 0 interior, {c : <c, v> + k >= 0 at every vertex} is k conv(u_j / b_j)
    for the half-spaces <u_j, x> + b_j >= 0, so coordinate i of a candidate runs
    from ceil(k min_j u_ji / b_j) to floor(k max_j u_ji / b_j). Each candidate is
    tested as <c, q v> + q k > 0 in integers for the vertices' common denominator
    q (1 on a canonical Fano polytope).
    """
    q, scaled = fiber.integer_vertices()
    rows = [(tuple(v), q * k) for v in scaled]
    polar = [[k * u / h.offset for u in h.normal] for h in fiber.halfspaces]
    box = [range(ceil(min(col)), floor(max(col)) + 1) for col in zip(*polar)]
    return [cand for cand in itertools.product(*box)
            if all(sum(map(mul, cand, w)) + b > 0 for w, b in rows)]


def pv_soliton_pipeline(spec: FibrationSpec, v=1, tol=SOLVER_TOL, max_iter=DEFAULT_MAX_ITER,
                        reeb: bool = False, s=None) -> SolverResult:
    """Soliton (or Reeb) solve for a Fano fibration with weight p*v.

    With reeb=True runs the volume minimization with exponent s (defaulting to
    fiber dim + total base dim + 1), certifying the Sasaki--Einstein Reeb field.
    """
    if not fano_check(spec):
        raise NotAdmissible("spec fails the Fano condition (c_a = k_a, strict positivity)")
    p = fibration_weight(spec)
    v = as_weight(v, spec.fiber.dim)
    pv = p * v
    if reeb:
        if s is None:
            m = spec.fiber.dim
            n = sum(factor.n for factor, _, _ in spec.factors)
            s = m + n + 1
        return msy_reeb(spec.fiber, pv, s, tol=tol, max_iter=max_iter)
    return tian_zhu_soliton(spec.fiber, pv, tol=tol, max_iter=max_iter)
