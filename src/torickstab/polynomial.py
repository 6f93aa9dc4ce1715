"""Multivariate polynomials with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from math import factorial, lcm, prod
from operator import add

import numpy as np

from .exactlinalg import frac


class Polynomial:
    """Polynomial in `dim` variables, stored as multi-index -> Fraction coefficient.

    Canonical form: zero coefficients are dropped. Immutable by convention.
    """

    __slots__ = ("dim", "coeffs", "_hash")

    def __init__(self, dim: int, coeffs=None):
        self.dim = dim
        self._hash = None  # computed on first use
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
        return cls(len(zeta), linear_terms([frac(z) for z in zeta], frac(const)))

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
        return Polynomial(self.dim, dict_product(self.coeffs, other.coeffs))

    def power(self, n: int) -> "Polynomial":
        """self^n for an integer n >= 0."""
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        return Polynomial(self.dim, expand([((int(n),), 1)], [self.coeffs], self.dim))

    def partial(self, i: int) -> "Polynomial":
        out = {}
        for a, c in self.coeffs.items():
            if a[i] == 0:
                continue
            b = list(a)
            b[i] -= 1
            out[tuple(b)] = c * a[i]
        return Polynomial(self.dim, out)

    def eval_exact(self, x) -> Fraction:
        self._check_dim(len(x))
        x = [frac(v) for v in x]
        return sum((c * prod(map(pow, x, a)) for a, c in self.coeffs.items()), Fraction(0))

    def eval(self, pts):
        """Float evaluation at (r,) or (N, r) points: a float or a fresh (N,) array."""
        single = np.ndim(pts) == 1
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        self._check_dim(pts.shape[1])
        total = np.zeros(len(pts))
        for a, c in self.coeffs.items():
            term = np.full(len(pts), float(c))
            for i, ai in enumerate(a):
                if ai == 1:
                    term *= pts[:, i]
                elif ai:
                    term *= pts[:, i] ** ai  # as `**` computes it: a square for ai = 2
            total += term
        return total[0] if single else total

    def _check_dim(self, dim):
        if dim != self.dim:
            raise ValueError(f"a point of dimension {dim} for a polynomial in {self.dim} variables")

    def compose_affine(self, matrix, offset) -> "Polynomial":
        """Substitute x = offset + matrix @ t; returns a polynomial in t.

        matrix is dim x new_dim (rows indexed by the old variables). It runs in
        integers: q x_i = L_i(t) over the common denominator q of offset and matrix,
        and sum_a c_a x^a = sum_a D c_a q^(d - |a|) prod_i L_i^(a_i) / (D q^d).
        """
        new_dim = len(matrix[0]) if matrix else 0
        rows = [(frac(offset[i]), [frac(m) for m in (matrix[i] if matrix else ())])
                for i in range(self.dim)]
        q = lcm(*(c.denominator for o, row in rows for c in [o, *row]))
        den = lcm(*(c.denominator for c in self.coeffs.values()))
        d = self.degree()
        forms = [linear_terms([int(m * q) for m in row], int(o * q)) for o, row in rows]
        out = expand([(a, c.numerator * (den // c.denominator) * q ** (d - sum(a)))
                      for a, c in self.coeffs.items()], forms, new_dim)
        return Polynomial(new_dim, {b: Fraction(v, den * q ** d) for b, v in out.items()})

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.coeffs.items())))
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = [f"{c}*x^{a}" for a, c in sorted(self.coeffs.items())]
        return "Polynomial(" + " + ".join(parts) + ")"


def linear_terms(zeta, const):
    """const + <zeta, t> as {exponent: coefficient}, zero terms left out."""
    zero, *units = _unit_exponents(len(zeta))
    terms = {e: z for e, z in zip(units, zeta) if z}
    return {zero: const, **terms} if const else terms


@lru_cache(maxsize=None)
def _unit_exponents(dim):
    """The zero exponent tuple and the dim unit ones, built once per dimension."""
    return ((0,) * dim,) + tuple(tuple(int(j == k) for j in range(dim)) for k in range(dim))


def expand(terms, forms, dim):
    """sum c prod_i forms[i]^a_i over the (a, c) in terms, forms and result given as
    {exponent: coefficient} dicts in `dim` variables: the one expansion of products of
    powers. Each power of a form is built once and shared by every term."""
    one = (0,) * dim
    powers = [[{one: 1}, form] for form in forms]
    out = {}
    for a, c in terms:
        term = {one: c}
        for form, table, e in zip(forms, powers, a):
            if e:
                while len(table) <= e:
                    table.append(dict_product(table[-1], form))
                term = dict_product(term, table[e])
        for b, v in term.items():
            out[b] = out.get(b, 0) + v
    return out


def dict_product(f, g):
    """Product of two polynomials given as {exponent: coefficient} dicts."""
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            key = tuple(map(add, a, b))
            out[key] = out.get(key, 0) + x * y
    return out


def _symmetric_partials(poly: Polynomial, order: int):
    """Partial derivatives of the given order, keyed by sorted index tuple: the
    one table of polynomial derivatives, for a potential's bump and a weight's
    polynomial part."""
    return {idx: reduce(Polynomial.partial, idx, poly)
            for idx in combinations_with_replacement(range(poly.dim), order)}


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
    return Fraction(prod(map(factorial, beta)), factorial(len(beta) + sum(beta)))
