"""Multivariate polynomials with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .exactlinalg import frac


class Polynomial:
    """Polynomial in `dim` variables, stored as multi-index -> Fraction coefficient.

    Canonical form: zero coefficients are dropped. Immutable by convention.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=None):
        self.dim = dim
        clean = {}
        for alpha, c in (coeffs or {}).items():
            c = frac(c)
            if c != 0:
                clean[tuple(int(a) for a in alpha)] = c
        self.coeffs = clean

    @classmethod
    def constant(cls, dim: int, c) -> "Polynomial":
        return cls(dim, {(0,) * dim: frac(c)})

    @classmethod
    def monomial(cls, dim: int, alpha, c=1) -> "Polynomial":
        return cls(dim, {tuple(alpha): frac(c)})

    @classmethod
    def linear(cls, zeta, const=0) -> "Polynomial":
        """<zeta, x> + const."""
        dim = len(zeta)
        coeffs = {(0,) * dim: frac(const)}
        for i, z in enumerate(zeta):
            alpha = tuple(1 if j == i else 0 for j in range(dim))
            coeffs[alpha] = frac(z)
        return cls(dim, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(sum(a) == 0 for a in self.coeffs)

    def constant_value(self) -> Fraction:
        return self.coeffs.get((0,) * self.dim, Fraction(0))

    def degree(self) -> int:
        return max((sum(a) for a in self.coeffs), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, Fraction(0)) + c
        return Polynomial(self.dim, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "Polynomial":
        c = frac(c)
        return Polynomial(self.dim, {a: v * c for a, v in self.coeffs.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return Polynomial(self.dim, out)

    def power(self, n: int) -> "Polynomial":
        result = Polynomial.constant(self.dim, 1)
        for _ in range(int(n)):
            result = result * self
        return result

    def partial(self, i: int) -> "Polynomial":
        out = {}
        for a, c in self.coeffs.items():
            if a[i] == 0:
                continue
            b = list(a)
            b[i] -= 1
            out[tuple(b)] = c * a[i]
        return Polynomial(self.dim, out)

    def gradient(self):
        return [self.partial(i) for i in range(self.dim)]

    def eval_exact(self, x) -> Fraction:
        x = [frac(v) for v in x]
        total = Fraction(0)
        for a, c in self.coeffs.items():
            term = c
            for xi, ai in zip(x, a):
                for _ in range(ai):
                    term *= xi
            total += term
        return total

    def eval(self, pts):
        """Float evaluation; pts is (r,) or (N, r) ndarray-like."""
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        total = np.zeros(pts.shape[0])
        for a, c in self.coeffs.items():
            term = np.full(pts.shape[0], float(c))
            for i, ai in enumerate(a):
                if ai:
                    term *= pts[:, i] ** ai
            total += term
        return total[0] if single else total

    def compose_affine(self, matrix, offset) -> "Polynomial":
        """Substitute x = offset + matrix @ t; returns a polynomial in t.

        matrix is dim x new_dim (rows indexed by the old variables).
        """
        new_dim = len(matrix[0]) if matrix else 0
        subs = [
            Polynomial.linear([matrix[i][j] for j in range(new_dim)], offset[i])
            for i in range(self.dim)
        ]
        pow_cache = [{0: Polynomial.constant(new_dim, 1)} for _ in range(self.dim)]

        def xpow(i, n):
            cache = pow_cache[i]
            if n not in cache:
                cache[n] = xpow(i, n - 1) * subs[i]
            return cache[n]

        out = Polynomial.constant(new_dim, 0)
        for a, c in self.coeffs.items():
            term = Polynomial.constant(new_dim, c)
            for i, ai in enumerate(a):
                if ai:
                    term = term * xpow(i, ai)
            out = out + term
        return out

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = [f"{c}*x^{a}" for a, c in sorted(self.coeffs.items())]
        return "Polynomial(" + " + ".join(parts) + ")"


def compositions(total, parts):
    """Tuples of `parts` nonnegative ints summing to `total`, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def integrate_monomial_std_simplex(beta) -> Fraction:
    """Dirichlet formula on the standard simplex: prod(beta_i!) / (r + |beta|)!."""
    r = len(beta)
    num = 1
    for b in beta:
        num *= factorial(b)
    return Fraction(num, factorial(r + sum(beta)))
