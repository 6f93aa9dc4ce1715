"""Weight functions on the moment polytope.

The grammar is  c * prod_i (affine_i)^{p_i} * exp(affine) * poly  and finite
sums of such terms. It is closed under products, the soliton log-derivative
construction and affine pullbacks, which is everything the library needs.

A weight takes its canonical form when it is built: a term merges repeated
affine factors (exponents add, zero exponents drop, first-seen order is kept),
folds each constant factor of rational value into its coefficient, and of a
constant c > 0 with a fractional power p folds c^floor(p) and keeps
c^(p - floor(p)); it drops exp(0), and a sum of one term is that term. However
it is built, a weight with the same factors is the same value, with one hash
and one integration path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, floor, lcm, prod

import numpy as np

from .errors import NotPositive
from .exactlinalg import frac
from .polynomial import Polynomial, _symmetric_partials, compositions, expand, linear_terms
from .polytope import AffineFunction, DelzantPolytope, _bisect_all, barycentric_coefficients
from .workspace import Workspace


class Positivity(Enum):
    POSITIVE = "positive"
    NOT_POSITIVE = "not_positive"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class WeightFn:
    """Single grammar term c * prod (affine)^p * exp(affine) * poly."""

    coeff: Fraction
    affine_powers: tuple  # of (AffineFunction, Fraction exponent)
    exp_part: object  # AffineFunction or None
    poly_part: object  # Polynomial or None
    dim: int

    def __init__(self, dim, coeff=1, affine_powers=(), exp_part=None, poly_part=None):
        parts = [("exp part", exp_part), ("polynomial part", poly_part)]
        for name, part in parts + [("affine factor", aff) for aff, _ in affine_powers]:
            if part is not None and part.dim != dim:
                raise ValueError(f"{name} has dimension {part.dim}, the weight {dim}")
        merged, coeff, powers = {}, frac(coeff), []  # first-seen order
        for aff, p in affine_powers:
            merged[aff] = merged[aff] + frac(p) if aff in merged else frac(p)
        for aff, p in merged.items():  # c^p (integer p, c != 0), 0^p (p > 0) and 1^p fold
            if not any(aff.zeta):
                if aff.const == 1 or p.denominator == 1 and (aff.const or p > 0):
                    coeff *= aff.const ** p.numerator
                    continue
                if aff.const > 0:  # c^p = c^floor(p) c^(p - floor(p)), the first part folded
                    coeff *= aff.const ** floor(p)
                    p -= floor(p)
            if p:
                powers.append((aff, p))
        if poly_part is not None and poly_part.is_constant():
            coeff *= poly_part.constant_value()
            poly_part = None
        exp_part = exp_part if exp_part is None or any(exp_part.zeta) or exp_part.const else None
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "affine_powers", tuple(powers))
        object.__setattr__(self, "exp_part", exp_part)
        object.__setattr__(self, "poly_part", poly_part)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, dim, c=1):
        return cls(dim, coeff=c)

    @classmethod
    def exp_affine(cls, zeta, const=0):
        aff = AffineFunction(zeta, const)
        return cls(aff.dim, exp_part=aff)

    @classmethod
    def affine_power(cls, affine: AffineFunction, exponent=1, coeff=1):
        return cls(affine.dim, coeff=coeff, affine_powers=((affine, frac(exponent)),))

    @classmethod
    def from_polynomial(cls, poly: Polynomial):
        return cls(poly.dim, poly_part=poly)

    # -- structure ------------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.exp_part is None and all(
            p.numerator > 0 and p.denominator == 1 for _, p in self.affine_powers
        )

    def singular_factors(self):
        """Affine factors whose exponent is negative or fractional."""
        return [(aff, p) for aff, p in self.affine_powers if p.numerator < 0 or p.denominator != 1]

    def to_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise ValueError("weight is not purely polynomial")
        forms = [(linear_terms(aff.zeta, aff.const), int(p)) for aff, p in self.affine_powers]
        if self.poly_part is not None:
            forms.append((self.poly_part.coeffs, 1))
        dens = [lcm(*(c.denominator for c in form.values())) for form, _ in forms]
        ints = [{a: c.numerator * (n // c.denominator) for a, c in form.items()}
                for (form, _), n in zip(forms, dens)]
        out = expand([(tuple(e for _, e in forms), self.coeff.numerator)], ints, self.dim)
        den = self.coeff.denominator * prod(n ** e for n, (_, e) in zip(dens, forms))
        return Polynomial(self.dim, {b: Fraction(v, den) for b, v in out.items()})

    def terms(self):
        return (self,)

    # -- algebra ---------------------------------------------------------------

    def scale(self, c) -> "WeightFn":
        return WeightFn(self.dim, self.coeff * frac(c), self.affine_powers,
                        self.exp_part, self.poly_part)

    def __mul__(self, other):
        other = as_weight(other, self.dim)
        if isinstance(other, WeightSum):
            return WeightSum([self * t for t in other.terms()])
        exp_part = self.exp_part
        if other.exp_part is not None:
            if exp_part is None:
                exp_part = other.exp_part
            else:
                exp_part = AffineFunction(
                    tuple(a + b for a, b in zip(exp_part.zeta, other.exp_part.zeta)),
                    exp_part.const + other.exp_part.const,
                )
        poly = self.poly_part
        if other.poly_part is not None:
            poly = other.poly_part if poly is None else poly * other.poly_part
        return WeightFn(self.dim, self.coeff * other.coeff,
                        self.affine_powers + other.affine_powers, exp_part, poly)

    def __add__(self, other):
        return WeightSum(self.terms() + tuple(as_weight(other, self.dim).terms()))

    def compose_affine(self, matrix, offset) -> "WeightFn":
        """Pullback under x = offset + matrix @ t."""
        factors = tuple((aff.compose_affine(matrix, offset), p)
                        for aff, p in self.affine_powers)
        exp_part = None if self.exp_part is None else self.exp_part.compose_affine(matrix, offset)
        poly = None if self.poly_part is None else self.poly_part.compose_affine(matrix, offset)
        new_dim = len(matrix[0]) if matrix else 0
        return WeightFn(new_dim, self.coeff, factors, exp_part, poly)

    # -- evaluation -------------------------------------------------------------

    def eval(self, pts):
        return self._jet(pts, 0)[0]

    def grad(self, pts):
        return self._jet(pts, 1)[1]

    def hess(self, pts):
        return self._jet(pts, 2)[2]

    def _jet(self, pts, order, work=None):
        """[value, gradient, Hessian][:order + 1] at (r,) or (N, r) points, in one pass.

        With a = c * prod l^p * exp(m), g = grad log a = sum p zeta / l + grad m
        and dg = Hess log a = -sum p zeta zeta^T / l^2, the product rule with the
        polynomial part q gives a q, a (g q + dq) and
        a ((g g^T + dg) q + (g dq^T + dq g^T) + Hess q), all on length-N columns
        (skipping zero entries of a factor's zeta): g and dq one per i, dg and the
        Hessian one per i <= j, written to [i, j] and [j, i] so the Hessian is
        exactly symmetric. Returns (N,), (N, r) and (N, r, r) views of columns
        taken from the Workspace `work` (or a fresh one), as are the temporaries;
        the factor, exp and q values are fresh arrays from their `eval`.
        """
        single = np.ndim(pts) == 1
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n, r = pts.shape
        if r != self.dim:
            raise ValueError(f"a point of dimension {r} for a weight of dimension {self.dim}")
        work = work or Workspace()
        jet = [work.take(*shape) for shape in ((n,), (r, n), (r, r, n))[:order + 1]]
        q = self.poly_part
        with work.frame():
            a = jet[0] if q is None else work.take(n)
            a.fill(float(self.coeff))
            if order:
                s, tmp, g = work.take(n), work.take(n), work.take(r, n)
                g.fill(0.0)
            if order == 2:
                dg = work.take(r, r, n)
                dg.fill(0.0)
            for aff, p in self.affine_powers:
                vals = aff.eval(pts)
                if order:
                    np.divide(float(p), vals, out=s)
                    nonzero = [(i, float(z)) for i, z in enumerate(aff.zeta) if z]
                    for i, z in nonzero:
                        g[i] += np.multiply(s, z, out=tmp)
                    if order == 2:
                        s /= vals
                        for (i, y), (j, z) in combinations_with_replacement(nonzero, 2):
                            dg[i, j] -= np.multiply(s, y * z, out=tmp)
                if p.denominator != 1:
                    np.power(vals, float(p), out=vals)
                elif p != 1:
                    vals **= int(p)  # as `**` computes it: a square for p = 2
                a *= vals
            if self.exp_part is not None:
                a *= np.exp(self.exp_part.eval(pts))
                if order:
                    g += self.exp_part.floats[0][:, None]
            if q is not None:
                qv = q.eval(pts)
                np.multiply(a, qv, out=jet[0])
            if order:
                grad = jet[1]
                if q is None:
                    np.multiply(g, a, out=grad)
                else:
                    dq = [d.eval(pts) for d in _symmetric_partials(q, 1).values()]
                    np.multiply(g, qv, out=grad)
                    for row, d in zip(grad, dq):
                        row += d
                    grad *= a
            if order == 2:
                hess = jet[2]
                ddq = {} if q is None else _symmetric_partials(q, 2)
                for i, j in combinations_with_replacement(range(r), 2):
                    h = np.multiply(g[i], g[j], out=hess[i, j])
                    h += dg[i, j]
                    if q is not None:
                        h *= qv
                        np.multiply(g[i], dq[j], out=tmp)
                        tmp += np.multiply(dq[i], g[j], out=s)
                        h += tmp
                        h += ddq[i, j].eval(pts)
                    h *= a
                    hess[j, i] = h
        jet[1:] = [part.transpose(*axes) for part, axes in zip(jet[1:], ((1, 0), (2, 0, 1)))]
        return [out[0] for out in jet] if single else jet

    # -- positivity ---------------------------------------------------------------

    def positivity_on(self, polytope: DelzantPolytope) -> Positivity:
        """Exact verdict on w > 0: affine factors positive at every vertex and the
        exp part keep the sign; the rest is one polynomial for `_polynomial_sign`."""
        rest = [(aff, p) for aff, p in self.affine_powers if polytope.vertex_min(aff) <= 0]
        if any(p < 0 or p.denominator != 1 for _, p in rest):
            return Positivity.NOT_POSITIVE
        remainder = WeightFn(self.dim, self.coeff, rest, None, self.poly_part)
        return _polynomial_sign(remainder.to_polynomial(), polytope)[0]

    def __repr__(self):
        bits = [f"coeff={self.coeff}"]
        if self.affine_powers:
            bits.append(f"affine_powers={self.affine_powers}")
        if self.exp_part is not None:
            bits.append(f"exp={self.exp_part}")
        if self.poly_part is not None:
            bits.append(f"poly={self.poly_part}")
        return "WeightFn(" + ", ".join(bits) + ")"


class WeightSum:
    """Finite sum of two or more grammar terms: WeightSum([t]) is t itself."""

    __slots__ = ("_terms", "dim")

    def __new__(cls, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("empty weight sum")
        if len(terms) == 1:
            return terms[0]
        self = super().__new__(cls)
        self._terms = terms
        self.dim = terms[0].dim
        return self

    def terms(self):
        return self._terms

    @property
    def is_polynomial(self):
        return all(t.is_polynomial for t in self._terms)

    def singular_factors(self):
        return [f for t in self._terms for f in t.singular_factors()]

    def to_polynomial(self):
        return sum((t.to_polynomial() for t in self._terms), Polynomial.constant(self.dim, 0))

    def scale(self, c):
        return WeightSum([t.scale(c) for t in self._terms])

    def __mul__(self, other):
        return WeightSum([t * s for t in self._terms for s in as_weight(other, self.dim).terms()])

    def __add__(self, other):
        return WeightSum(self._terms + tuple(as_weight(other, self.dim).terms()))

    def compose_affine(self, matrix, offset):
        return WeightSum([t.compose_affine(matrix, offset) for t in self._terms])

    def eval(self, pts):
        return self._jet(pts, 0)[0]

    def grad(self, pts):
        return self._jet(pts, 1)[1]

    def hess(self, pts):
        return self._jet(pts, 2)[2]

    def _jet(self, pts, order, work=None):
        """The terms' jets added in order, into the first term's columns."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            return [part[0] for part in self._jet(pts[None, :], order, work)]
        work = work or Workspace()
        first, *rest = self._terms
        jet = first._jet(pts, order, work)
        for t in rest:
            with work.frame():
                for out, part in zip(jet, t._jet(pts, order, work)):
                    out += part
        return jet

    def positivity_on(self, polytope):
        """Certify the polynomial terms as one sum and every other term alone."""
        poly = [t for t in self._terms if t.is_polynomial]
        verdicts = [t.positivity_on(polytope) for t in self._terms if not t.is_polynomial]
        if poly:
            verdicts.append(_polynomial_sign(WeightSum(poly).to_polynomial(), polytope)[0])
        if all(v is Positivity.POSITIVE for v in verdicts):
            return Positivity.POSITIVE
        if len(verdicts) == 1:
            return verdicts[0]
        return Positivity.INDETERMINATE

    def __repr__(self):
        return "WeightSum(" + " + ".join(repr(t) for t in self._terms) + ")"


def as_weight(w, dim=None, name="weight"):
    """Coerce numbers and polynomials to weight grammar objects; given dim, a weight of
    another dimension is a ValueError that names the argument."""
    if isinstance(w, Polynomial):
        w = WeightFn.from_polynomial(w)
    elif isinstance(w, AffineFunction):
        w = WeightFn.affine_power(w, 1)
    elif not isinstance(w, (WeightFn, WeightSum)):
        if dim is None:
            raise ValueError("dim required to coerce a scalar to a weight")
        return WeightFn.constant(dim, w)
    if dim is not None and w.dim != dim:
        raise ValueError(f"{name} has dimension {w.dim}, the polytope {dim}")
    return w


BERNSTEIN_DEPTH = 16  # bisection generations before a simplex is left undecided


def _polynomial_sign(poly: Polynomial, polytope: DelzantPolytope):
    """(verdict, witness) for poly > 0 on the polytope, from the signs of its exact
    Bernstein coefficients on the simplices of its triangulation, read off
    `barycentric_coefficients` once.

    All coefficients > 0 certify a simplex. A vertex coefficient <= 0 is the
    value there, and that vertex is the witness of NOT_POSITIVE (the witness is
    None for the other verdicts). Undecided simplices are bisected exactly along
    their longest edge for BERNSTEIN_DEPTH generations, then the verdict is
    INDETERMINATE. The simplices are held as integer coordinates over one
    denominator q, doubled each generation, so `_bisect_all` halves integers,
    and each half's row is split off its parent's (`_halving`).
    """
    if poly.is_constant():
        if poly.constant_value() > 0:
            return Positivity.POSITIVE, None
        return Positivity.NOT_POSITIVE, polytope.vertices[0]
    d, r = poly.degree(), polytope.dim
    q = lcm(*(c.denominator for v in polytope.vertices for c in v))
    pending = [[[int(c * q) for c in v] for v in s.vertices] for s in polytope.triangulate()]
    betas, _, rows = barycentric_coefficients(poly, pending, q)
    corners = [betas.index(tuple(d * (i == k) for k in range(r + 1))) for i in range(r + 1)]
    for depth in range(BERNSTEIN_DEPTH + 1):
        undecided = []
        for vertices, row in zip(pending, rows):
            for corner, vertex in zip(corners, vertices):
                if row[corner] <= 0:
                    return Positivity.NOT_POSITIVE, tuple(Fraction(c, q) for c in vertex)
            if min(row) <= 0:
                undecided.append((vertices, row))
        if not undecided or depth == BERNSTEIN_DEPTH:
            return (Positivity.INDETERMINATE if undecided else Positivity.POSITIVE), None
        doubled = 2 * np.array([vertices for vertices, _ in undecided], dtype=object)
        halves, q = _bisect_all(doubled), 2 * q
        moved = (halves != np.repeat(doubled, 2, axis=0)).any(axis=2).argmax(axis=1).tolist()
        pending, rows = halves.tolist(), [[0] * len(betas) for _ in halves]
        for k, half in enumerate(rows):  # halves 2s and 2s + 1 move the ends of one edge of s
            for src, dst, factor in _halving(d, r + 1, moved[k], moved[k ^ 1]):
                half[dst] += factor * undecided[k // 2][1][src]


@lru_cache(maxsize=None)
def _halving(d, n, a, b):
    """(src, dst, factor) with half[dst] = sum factor row[src]: the degree-d row of
    `barycentric_coefficients` on the half of an n-vertex simplex whose vertex a moves to the
    midpoint of edge (a, b), over the doubled denominator, from the simplex's row. De Casteljau
    at 1/2: lambda_a = mu_a / 2, lambda_b = mu_b + mu_a / 2 in the half's mu, times 2^d."""
    betas = list(compositions(d, n))
    at, out = {beta: k for k, beta in enumerate(betas)}, []
    for src, beta in enumerate(betas):
        for k in range(beta[b] + 1):
            gamma = tuple(beta[m] + k * ((m == a) - (m == b)) for m in range(n))
            out.append((src, at[gamma], comb(beta[b], k) << (d - beta[a] - k)))
    return out


def require_positive(w, polytope, name="weight"):
    verdict = as_weight(w, polytope.dim, name).positivity_on(polytope)
    if verdict is not Positivity.POSITIVE:
        raise NotPositive(f"{name} not certified positive on the polytope ({verdict.value})")


# -- weight pair synthesis -------------------------------------------------------


def soliton_weight_pair(v, m: int):
    """Weights making a v-soliton a weighted-cscK metric: w = 2(m + <dlog v, x>) v, built
    as 2(m v + <x, grad v>), one term of w per term of v (see _soliton_term)."""
    v = as_weight(v)
    return v, WeightSum([_soliton_term(t, m) for t in v.terms()])


def _soliton_term(t: WeightFn, m: int) -> WeightFn:
    """2(m t + <x, grad t>) for t = c prod l_i^p_i exp(mu) q as one term 2c prod l_i^(p_i - 1)
    exp(mu) P, P = (m q + <zeta_mu, x> q + <x, grad q>) prod l_i + q sum_i p_i <zeta_i, x>
    prod_(j != i) l_j over the l_i with zeta_i != 0; a constant factor keeps its power."""
    q = t.poly_part.coeffs if t.poly_part is not None else {(0,) * t.dim: 1}
    mu = linear_terms(t.exp_part.zeta, 0) if t.exp_part is not None else {}
    # m q + <x, grad q>, q and <zeta_mu, x>, then l_i and <zeta_i, x> per moving factor
    forms = [{a: (m + sum(a)) * c for a, c in q.items()}, q, mu]
    moving = [(aff, p) for aff, p in t.affine_powers if any(aff.zeta)]
    for aff, _ in moving:
        forms += [linear_terms(aff.zeta, aff.const), linear_terms(aff.zeta, 0)]
    rest = (1, 0) * len(moving)
    terms = [((1, 0, 0) + rest, 1), ((0, 1, 1) + rest, 1)]
    terms += [((0, 1, 0) + rest[:2 * i] + (0, 1) + rest[2 * i + 2:], p)
              for i, (_, p) in enumerate(moving)]
    powers = tuple((aff, p - 1 if any(aff.zeta) else p) for aff, p in t.affine_powers)
    return WeightFn(t.dim, 2 * t.coeff, powers, t.exp_part,
                    Polynomial(t.dim, expand(terms, forms, t.dim)))


def sasaki_weight_pair(xi, a, m: int, polytope: DelzantPolytope):
    """Sasaki--Einstein realization: (ell^-(m+1), 2 m a ell^-(m+2)) for ell = <xi,x>+a."""
    ell = AffineFunction(xi, a)
    if polytope.vertex_min(ell) <= 0:
        raise NotPositive(f"affine function {ell} not positive on the polytope")
    v = WeightFn.affine_power(ell, -(m + 1))
    w = WeightFn.affine_power(ell, -(m + 2), coeff=2 * m * frac(a))
    return v, w


def equivalent_sasaki_pair(xi, a, m: int, polytope: DelzantPolytope):
    """Alternative realization of the same soliton: the soliton pair of ell^-(m+2),
    (ell^-(m+2), 2(-2 ell + (m+2) a) ell^-(m+3)) for ell = <xi,x>+a."""
    v = WeightFn.affine_power(AffineFunction(xi, a), -(m + 2))
    require_positive(v, polytope, "v")
    return soliton_weight_pair(v, m)
