"""Delzant moment polytopes with exact rational data.

Vertices, triangulations, facet sub-polytopes and the lattice boundary measure
are all computed in exact rational arithmetic. The boundary measure convention
is d(sigma) = Lebesgue measure in lattice coordinates of the facet hyperplane,
equivalently dL_j wedge d(sigma) = dVol for the primitive facet function L_j.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm, prod
from operator import mul

import numpy as np

from . import exactlinalg as xla
from .errors import DegenerateSimplex, NotDelzant, NotFullDimensional, Unbounded
from .exactlinalg import _integer, frac
from .polynomial import Polynomial, compositions, expand, linear_terms


@dataclass(frozen=True)
class AffineFunction:
    """ell(x) = <zeta, x> + const with rational data."""

    zeta: tuple
    const: Fraction
    _hash = None  # computed on first use (not a dataclass field)

    def __init__(self, zeta, const=0):
        object.__setattr__(self, "zeta", tuple(frac(z) for z in zeta))
        object.__setattr__(self, "const", frac(const))

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.zeta, self.const)))
        return self._hash

    @cached_property
    def integers(self):
        """(c, zeta, n): the integers with ell = (c + <zeta, x>) / n, n least, computed once."""
        n = lcm(self.const.denominator, *(z.denominator for z in self.zeta))
        c, *zeta = [x.numerator * (n // x.denominator) for x in (self.const, *self.zeta)]
        return c, zeta, n

    @cached_property
    def floats(self):
        """(zeta, const) as a float array and a float, rounded once per object."""
        return np.array([float(z) for z in self.zeta]), float(self.const)

    @classmethod
    def constant(cls, dim, c=1):
        return cls((0,) * dim, c)

    @classmethod
    def coordinate(cls, dim, i):
        return cls(tuple(1 if j == i else 0 for j in range(dim)), 0)

    @property
    def dim(self):
        return len(self.zeta)

    def eval_exact(self, x) -> Fraction:
        return sum((z * frac(v) for z, v in zip(self.zeta, x, strict=True)), self.const)

    def eval(self, pts):
        """ell at (r,) or (N, r) points: a float or a fresh (N,) array."""
        zeta, const = self.floats
        return np.asarray(pts, dtype=float) @ zeta + const

    def compose_affine(self, matrix, offset) -> "AffineFunction":
        """Pullback under x = offset + matrix @ t."""
        zeta = [sum(map(mul, self.zeta, map(frac, column))) for column in zip(*matrix)]
        return AffineFunction(zeta, self.const + sum(map(mul, self.zeta, map(frac, offset))))

    def as_polynomial(self) -> Polynomial:
        return Polynomial.linear(self.zeta, self.const)

    def __repr__(self):
        return f"AffineFunction(zeta={self.zeta}, const={self.const})"


@dataclass(frozen=True)
class HalfSpace:
    """{x : <normal, x> + offset >= 0} with primitive integer normal."""

    normal: tuple
    offset: Fraction

    def __init__(self, normal, offset):
        normal = tuple(_integer(n, "half-space normal entry") for n in normal)
        if all(n == 0 for n in normal):
            raise ValueError("half-space normal must be nonzero")
        if gcd(*normal) != 1:
            raise ValueError(f"half-space normal {normal} is not primitive")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", frac(offset))

    @property
    def dim(self):
        return len(self.normal)

    def value(self, x) -> Fraction:
        return sum((frac(n) * frac(v) for n, v in zip(self.normal, x)), self.offset)


@dataclass(frozen=True)
class Simplex:
    """r+1 rational points spanning a full-dimensional simplex."""

    vertices: tuple

    def __init__(self, vertices):
        object.__setattr__(
            self, "vertices", tuple(tuple(frac(c) for c in v) for v in vertices)
        )

    @property
    def dim(self):
        return len(self.vertices) - 1

    def edge_matrix(self):
        return _edge_matrix(self.vertices)

    def volume(self) -> Fraction:
        return Fraction(abs(_det(self.edge_matrix())), factorial(self.dim))

    def float_vertices(self):
        return np.array([[float(c) for c in v] for v in self.vertices])


def _edge_matrix(vertices):
    """The r x r matrix with columns v_k - v_0, k = 1..r."""
    v0 = vertices[0]
    return [[v[i] - v0[i] for v in vertices[1:]] for i in range(len(v0))]


_triu_indices = lru_cache(maxsize=None)(np.triu_indices)  # edge pairs (i < j) per vertex count


def _bisect_all(verts):
    """Longest-edge bisection of every simplex in the batch (S, k, r) -> (2S, k, r).

    Ties go to the first edge in (i, j) order; children of simplex s sit at
    2s and 2s + 1. A float batch is halved in floating point, a Fraction batch
    (dtype=object) exactly, and so is an integer one (Python ints, all even).
    """
    s, k, _ = verts.shape
    first, second = _triu_indices(k, 1)
    d2 = np.sum((verts[:, first] - verts[:, second]) ** 2, axis=2)
    best = np.argmax(d2, axis=1)
    rows, i, j = np.arange(s), first[best], second[best]
    mid = verts[rows, i] + verts[rows, j]
    mid = mid // 2 if isinstance(verts.flat[0], int) else mid / 2
    out = np.repeat(verts, 2, axis=0)
    out[2 * rows, i] = mid
    out[2 * rows + 1, j] = mid
    return out


class MomentTable(Mapping):
    """Read-only {alpha: Fraction}, held as integer `numerators` over one `denominator`."""

    def __init__(self, numerators, denominator):
        self.numerators, self.denominator = numerators, denominator

    def __getitem__(self, alpha):
        return Fraction(self.numerators[alpha], self.denominator)

    def __iter__(self):
        return iter(self.numerators)

    def __len__(self):
        return len(self.numerators)


def moment_table(simplices, degree):
    """Exact moments, summed over the simplices, of x^alpha for every |alpha| <= degree.

    On a simplex with vertices v_0, ..., v_r (Baldoni, Berline, De Loera,
    Koeppe & Vergne, Math. Comp. 80 (2011)):

        int_S x^alpha dx = |det E| alpha! / (|alpha| + r)! [t^alpha] prod_i 1 / (1 - <v_i, t>).

    The series coefficients G are filled in graded order, one pass per vertex,
    G(alpha) += sum_j v_ij G(alpha - e_j), in integers after scaling every
    vertex by the common denominator q. Then |det E| = |D| / q^r for the
    integer edge determinant D, and the table is a MomentTable of integers
    over the one denominator (degree + r)! q^(degree + r).
    """
    dim = simplices[0].dim
    alphas = [a for k in range(degree + 1) for a in compositions(k, dim)]
    index = {a: i for i, a in enumerate(alphas)}
    lower = [[(j, index[a[:j] + (a[j] - 1,) + a[j + 1:]]) for j in range(dim) if a[j]]
             for a in alphas]
    q = lcm(*(c.denominator for s in simplices for v in s.vertices for c in v))
    sums = [0] * len(alphas)
    for simplex in simplices:
        points = [[c.numerator * (q // c.denominator) for c in v] for v in simplex.vertices]
        d = abs(_det(_edge_matrix(points)))
        if d == 0:
            raise DegenerateSimplex("simplex has zero volume")
        g = [1] + [0] * (len(alphas) - 1)
        for p in points:
            for i in range(1, len(alphas)):
                g[i] += sum(p[j] * g[k] for j, k in lower[i])
        for i, gi in enumerate(g):
            sums[i] += d * gi
    top = degree + dim
    return MomentTable({
        a: total * prod(map(factorial, a)) * (factorial(top) // factorial(sum(a) + dim))
        * q ** (degree - sum(a)) for a, total in zip(alphas, sums)}, factorial(top) * q ** top)


def barycentric_coefficients(poly, simplices, q, factors=()):
    """f = poly * prod ell^p on each simplex as an integer form in barycentric coordinates.

    For (AffineFunction ell, zeta != 0, integer p >= 1) factors (a weight folds constant ones),
    d = deg f and den the common denominator of poly's coefficients, returns (betas, scale,
    rows) with, for each simplex of r + 1 vertices v_i (given as the integer vectors q v_i),

        sum_k rows[s][k] lambda^betas[k] = scale f(sum_i lambda_i v_i)  when sum_i lambda_i = 1,

    homogeneous of degree d, over the betas = compositions(d, r + 1). The
    Bernstein coefficients are rows[s][k] betas[k]! / (d! scale) (Farouki, CAGD
    29 (2012)), so they have the signs of the row, and the entry of beta = d e_i
    is scale f(v_i). A factor (c + <zeta, x>) / n in integers is sum_i (q c + <zeta, q v_i>)
    lambda_i / (n q). One `expand` per simplex, in integers.
    """
    d, r = poly.degree(), len(simplices[0]) - 1
    den = lcm(*(c.denominator for c in poly.coeffs.values()))
    lines = [(ell.integers, int(p)) for ell, p in factors]
    powers = tuple(p for _, p in lines)
    # den q^d poly(y / q), homogenised with y_r, times the lines: integer coefficients
    homog = [(a + (d - sum(a),) + powers, c.numerator * (den // c.denominator) * q ** (d - sum(a)))
             for a, c in poly.coeffs.items()]
    betas = list(compositions(d + sum(powers), r + 1))
    rows, ones = [], linear_terms([1] * (r + 1), 0)
    for points in simplices:
        # y_k = sum_i q v_ik lambda_i, y_r = sum_i lambda_i and each line's vertex values
        forms = [linear_terms(column, 0) for column in zip(*points)] + [ones] + [linear_terms(
            [q * c + sum(map(mul, zeta, v)) for v in points], 0) for (c, zeta, _), _ in lines]
        lam = expand(homog, forms, r + 1)
        rows.append([lam.get(b, 0) for b in betas])
    return betas, den * q ** (d + sum(powers)) * prod(
        ell.integers[2] ** int(p) for ell, p in factors), rows


@lru_cache(maxsize=None)  # the closed form's lambda-index rows per (dim, degree)
def _lambda_index(dim, degree):  # each beta as vertex indices, i repeated beta_i + 1 times
    return np.array([np.repeat(np.arange(dim + 1), np.add(b, 1))
                     for b in compositions(degree, dim + 1)])


def _det(rows):
    """Exact determinant of r >= 1 int or Fraction rows: explicit to 3 x 3, Laplace above."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def _vertex_incidence(halfspaces, dim, cone=False):
    """({vertex: indices of the half-spaces through it}, ray), exact, by Cramer's rule.

    The offsets are scaled to integers b by their common denominator q. Each
    dim-subset of the rows (a, b) with determinant D != 0, made positive, gives
    integer numerators num of the point num / (D q) on its hyperplanes. The point
    is a vertex iff <a, num> + b D >= 0 for every row, and the zeros of those
    integers are its incident half-spaces. The incidence set holds a nonsingular
    subset, so it names the vertex: a later subset through the same vertex
    builds no Fraction.

    With cone, the row (0, 1) of t >= 0 joins those of the cone {(x, t) : <a, x> + b t >= 0}
    over P, so the same loop finds the recession rays (homogenization). A subset through that
    row has D = 0, and num holds the signed (dim - 1)-minors of its other normals: the
    direction of the line they cut out. Once P has a vertex the normals span R^dim, so the
    recession cone {d : <a, d> >= 0} is pointed, and it is nonzero iff it has an extreme ray,
    on such a line: iff some nonzero num has <a, num> of one sign on every row. ray is the
    first one, oriented into the cone, or None (always None without cone).
    """
    q = lcm(*(h.offset.denominator for h in halfspaces))
    rows = [(h.normal, h.offset.numerator * (q // h.offset.denominator)) for h in halfspaces]
    found, ray, t_row = {}, None, ((0,) * dim, 1)
    for subset in itertools.combinations(rows + [t_row] if cone else rows, dim):
        a = [n for n, _ in subset]
        d = 0 if subset[-1] is t_row else _det(a)  # the row of t >= 0 has normal 0
        if d == 0 and (ray or subset[-1] is not t_row):  # no point, and no new ray to find
            continue
        num = [_det([row[:i] + (-b,) + row[i + 1:] for row, (_, b) in zip(a, subset)])
               for i in range(dim)]
        if d < 0:
            d, num = -d, [-x for x in num]
        values = [sum(map(mul, n, num)) + b * d for n, b in rows]
        if d == 0:
            sign = 1 if min(values) >= 0 else -1 if max(values) <= 0 else 0
            if sign and any(num):
                ray = tuple(sign * x for x in num)
        elif min(values) >= 0:
            incident = tuple(j for j, v in enumerate(values) if v == 0)
            if incident not in found:
                found[incident] = tuple(Fraction(x, d * q) for x in num)
    return {v: incident for incident, v in found.items()}, ray


class DelzantPolytope:
    """Bounded full-dimensional polytope satisfying the Delzant condition."""

    # caches, set per instance on first use; _moments is (degree, MomentTable)
    _triangulation = _facets = _moments = _int_vertices = _barycentric = None
    _vertex_mins = _divided_differences = None  # <= 64-entry memos: vertex_min's, _closed_form's

    def __init__(self, halfspaces):
        halfspaces = list(halfspaces)
        if not halfspaces:
            raise ValueError("need at least one half-space")
        self.dim = halfspaces[0].dim
        if any(h.dim != self.dim for h in halfspaces):
            raise ValueError("inconsistent half-space dimensions")
        self.halfspaces = tuple(halfspaces)
        incidence, ray = _vertex_incidence(self.halfspaces, self.dim, cone=True)
        if not incidence:
            raise NotFullDimensional("no vertices: intersection empty or degenerate")
        if ray:
            raise Unbounded("half-space intersection has a recession direction")
        # a polytope is lower-dimensional iff some half-space is tight at every vertex
        if set.intersection(*map(set, incidence.values())):
            raise NotFullDimensional("vertices span a lower-dimensional set")
        self.vertices = tuple(sorted(incidence))
        # vertex <-> facet incidence
        self.facet_adjacency = tuple(incidence[v] for v in self.vertices)
        self._check_delzant()

    @classmethod
    def _from_incidence(cls, halfspaces, vertices, facet_adjacency):
        """A polytope from its sorted vertices and their incidence, taken as given.

        For data already known to describe a bounded Delzant polytope, such as a
        facet of one: none of the constructor's boundedness or Delzant checks.
        """
        p = cls.__new__(cls)
        p.dim = halfspaces[0].dim
        p.halfspaces = tuple(halfspaces)
        p.vertices = tuple(vertices)
        p.facet_adjacency = tuple(facet_adjacency)
        return p

    def _check_delzant(self):
        unused = set(range(len(self.halfspaces))).difference(*self.facet_adjacency)
        if unused:
            raise NotDelzant(f"half-space {min(unused)} contains no vertex: it is redundant")
        for v, incident in zip(self.vertices, self.facet_adjacency):
            if len(incident) != self.dim:
                raise NotDelzant(
                    f"vertex {v} lies on {len(incident)} facets, expected {self.dim}",
                    vertex=v,
                )
            d = _det([self.halfspaces[j].normal for j in incident])
            if abs(d) != 1:
                raise NotDelzant(
                    f"vertex {v}: incident normal determinant {d}, expected +-1",
                    vertex=v,
                    determinant=d,
                )

    # -- queries -------------------------------------------------------------

    def is_canonical_fano(self) -> bool:
        """True iff every facet offset equals 1 (so 0 is interior)."""
        return all(h.offset == 1 for h in self.halfspaces)

    def contains_interior(self, x) -> bool:
        return all(h.value(x) > 0 for h in self.halfspaces)

    def integer_vertices(self):
        """(q, [q v for each vertex v]) for the vertices' common denominator q, cached."""
        if self._int_vertices is None:
            q = lcm(*(c.denominator for v in self.vertices for c in v))
            self._int_vertices = q, [[c.numerator * (q // c.denominator) for c in v]
                                     for v in self.vertices]
        return self._int_vertices

    def vertex_min(self, affine: AffineFunction) -> Fraction:
        """Exact minimum of an affine function over the polytope: at a vertex, in integers."""
        memo = self._vertex_mins  # for shared poles; a miss empties it at 64 entries
        if memo is None or (affine not in memo and len(memo) >= 64):
            memo = self._vertex_mins = {}
        if affine not in memo:
            (q, verts), (const, zeta, den) = self.integer_vertices(), affine.integers
            low = min(sum(a * b for a, b in zip(zeta, v, strict=True)) for v in verts)
            memo[affine] = Fraction(low + const * q, den * q)
        return memo[affine]

    # -- triangulation -------------------------------------------------------

    def triangulate(self):
        """Deterministic fan triangulation from the lexicographically smallest vertex."""
        if self._triangulation is None:
            self._triangulation = tuple(_triangulate(self))
        return self._triangulation

    def volume(self) -> Fraction:
        """The zeroth moment."""
        return self.moments(0)[(0,) * self.dim]

    def moments(self, degree):
        """Exact moments {alpha: int x^alpha dx} over the polytope, a MomentTable.

        Holds every |alpha| <= degree, and possibly higher degrees: the table
        is built once from the triangulation and rebuilt only to grow.
        """
        if self._moments is None or self._moments[0] < degree:
            self._moments = (degree, moment_table(self.triangulate(), degree))
        return self._moments[1]

    def barycentric(self, powers, poly):
        """f(sum_i lambda_i v_i) = sum_{|beta| = d} c_beta(S) lambda^beta on each simplex S for
        f = poly * prod ell^p over the (ell, p) of powers (poly None is 1), cached. Returns each
        beta as a row of vertex indices; the (S, B) floats r! vol(S) beta! c_beta(S), integer
        quotients rounded once; and the (S, r + 1, r) float vertices, derived once per polytope."""
        if self._barycentric is None:
            simplices = self.triangulate()
            q, scaled = self.integer_vertices()
            at = dict(zip(self.vertices, scaled))  # each vertex in integers over q
            self._barycentric = ({}, [factorial(self.dim) * s.volume() for s in simplices],
                                 np.array([s.float_vertices() for s in simplices]),
                                 (q, [[at[v] for v in s.vertices] for s in simplices]))
        tables, vols, verts, (q, simplices) = self._barycentric
        if (powers, poly) not in tables:
            betas, scale, rows = barycentric_coefficients(
                Polynomial.constant(self.dim, 1) if poly is None else poly, simplices, q, powers)
            table = [[v.numerator * prod(map(factorial, b)) * c / (v.denominator * scale)
                      for b, c in zip(betas, row)] for v, row in zip(vols, rows)]
            tables[powers, poly] = (_lambda_index(self.dim, sum(betas[0])), np.array(table), verts)
        return tables[powers, poly]

    # -- facets ---------------------------------------------------------------

    def facets(self):
        """Facets as (HalfSpace, Facet) pairs carrying the lattice embedding.

        The embedding x = origin + basis @ t identifies the facet with a
        polytope in t-space where Lebesgue measure is exactly d(sigma).
        """
        if self._facets is None:
            self._facets = tuple(
                (h, _build_facet(self, j)) for j, h in enumerate(self.halfspaces)
            )
        return self._facets

    def translated(self, t):
        """The polytope Delta + t (t rational vector)."""
        t = [frac(v) for v in t]
        return DelzantPolytope(
            [
                HalfSpace(h.normal, h.offset - sum(frac(n) * ti for n, ti in zip(h.normal, t)))
                for h in self.halfspaces
            ]
        )

    def __repr__(self):
        return f"DelzantPolytope(dim={self.dim}, facets={len(self.halfspaces)}, vertices={len(self.vertices)})"


@dataclass(frozen=True)
class Facet:
    """A facet with its lattice-coordinate chart.

    origin + basis @ t maps t-space (dim r-1) onto the facet hyperplane; in
    these coordinates the lattice boundary measure d(sigma) is Lebesgue.
    For dim-0 facets (r = 1) the facet is the single point `origin` with
    d(sigma)-mass 1 and subpolytope None.
    """

    origin: tuple
    basis: tuple  # r x (r-1) integer matrix, rows indexed by ambient coords
    subpolytope: object  # DelzantPolytope of dim r-1, or None when r == 1

    def sigma_measure(self) -> Fraction:
        """Total d(sigma)-mass of the facet."""
        if self.subpolytope is None:
            return Fraction(1)
        return self.subpolytope.volume()


def _triangulate(p: DelzantPolytope):
    """Fan triangulation read off the vertex-facet incidence.

    A face is named by the set of facets through it; its vertices are the
    vertices on all of them. In a simple polytope, F meets H_j in a facet of F
    exactly when some vertex of F lies on H_j. The polytope and every lower face
    are coned from their lexicographically smallest vertex over each facet that
    misses it, down to the edges. A negatively oriented simplex has its second
    and third vertices swapped.
    """
    incidence = [set(adj) for adj in p.facet_adjacency]

    def fan(face, members, root):
        if len(face) == p.dim - 1:  # an edge
            return [members]
        cones = []
        for j in sorted(set().union(*(incidence[i] for i in members)) - face - incidence[root]):
            sub = [i for i in members if j in incidence[i]]
            cones.extend([root] + cone for cone in fan(face | {j}, sub, sub[0]))
        return cones

    scaled = p.integer_vertices()[1]
    simplices = []
    for cone in fan(frozenset(), list(range(len(p.vertices))), 0):
        verts = [p.vertices[i] for i in cone]
        if _det(_edge_matrix([scaled[i] for i in cone])) < 0:  # the sign, in integers
            verts[1], verts[2] = verts[2], verts[1]
        simplices.append(Simplex(verts))
    return simplices


def _build_facet(p: DelzantPolytope, j: int) -> Facet:
    """Facet j in its lattice chart, from the parent's vertices and incidence.

    Its half-spaces are the facets k that share a vertex with j (in parent
    order), pulled back to the chart x = origin + basis @ t, with basis columns
    1.. of V = unimodular_completion, and made primitive. In the hyperplane of a
    simple polytope's facet those neighbours cut out exactly the facet, so
    `_vertex_incidence` on them finds the parent's vertices on facet j in chart
    coordinates, each with the neighbours through it.
    """
    h = p.halfspaces[j]
    incident = [i for i, adj in enumerate(p.facet_adjacency) if j in adj]
    origin = p.vertices[incident[0]]  # vertices are sorted, so this is lex-min
    if p.dim == 1:
        return Facet(origin, (), None)
    r = p.dim
    v_mat = xla.unimodular_completion(h.normal)
    basis = tuple(tuple(v_mat[i][k] for k in range(1, r)) for i in range(r))
    q, scaled = p.integer_vertices()
    at = scaled[incident[0]]  # q * origin, in integers
    sub_halfspaces = []
    for k in sorted({k for i in incident for k in p.facet_adjacency[i]} - {j}):
        other = p.halfspaces[k]
        zeta = [sum(map(mul, other.normal, column)) for column in zip(*basis)]
        g = gcd(*zeta)
        # the chart offset L_k(origin) / g = (<u_k, q origin> b + a q) / (q b g) for offset a / b
        a, b = other.offset.numerator, other.offset.denominator
        offset = Fraction(sum(map(mul, other.normal, at)) * b + a * q, q * b * g)
        sub_halfspaces.append(HalfSpace([z // g for z in zeta], offset))
    incidence, _ = _vertex_incidence(sub_halfspaces, r - 1)  # a facet of P is bounded
    vertices = sorted(incidence)
    sub = DelzantPolytope._from_incidence(
        sub_halfspaces, vertices, [incidence[t] for t in vertices])
    return Facet(origin, basis, sub)
