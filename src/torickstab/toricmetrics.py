"""Explicit toric metrics as numerical oracles for the curvature integrals.

A symplectic potential (Guillemin, optionally plus a polynomial bump) defines
a toric Kahler metric through the inverse Hessian H. `futaki_numeric` takes
the weighted scalar curvature Scal_v = -sum_ij d_i d_j (v H_ij) in closed form
from the analytic third and fourth derivatives of the potential (Abreu's
formula, `_scal_v_abreu`, elementwise on length-N columns of nodes) and
integrates the Futaki integrand with the Gauss pair on a refined triangulation.
H comes from one batched root-free Cholesky factorisation G = L D L^T of the
Hessian per chunk of nodes (`_ldl_inverse`), whose pivots D give det G = prod D
and are the one positive-definiteness test of the production path; a bumped
potential runs it when it is built, at the Gauss pair's nodes in every simplex
of the triangulation, the nodes `futaki_numeric` starts from. The kernel's
blocks (facet values, G and H, P_f, q_f, Q_fg, t and the integrand) are plain
numpy expressions on fresh arrays. Only v's jet is written into a `Workspace`,
one per `futaki_numeric` call, which the integrand resets once per chunk of
nodes, so every chunk takes the jet's buffers again in the same order: with
the jet on fresh arrays the C heap was trimmed and faulted in again after
every chunk.
`scal`, `scal_v_direct` and `scal_v_divergence` evaluate the same curvatures
by central finite differences of H (inverted by LAPACK in `hess_inv`); they
are the independent oracle for the closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np

from .errors import NonFiniteIntegral, NotPositiveDefinite, TooCloseToBoundary
from .invariants import _report
from .polynomial import Polynomial, _symmetric_partials
from .polytope import AffineFunction, DelzantPolytope, _bisect_all
from .quadrature import MAX_SIMPLICES, _gauss_pair, _results, _rule_batch
from .weights import as_weight

DEFAULT_FD_STEP = 1e-4
FD_BOUNDARY_FRACTION = 0.1  # per-point step capped at this fraction of the least facet value
BUMP_HALVINGS = 60  # halvings `scaled_bump` tries before giving up


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid of `futaki_numeric`: >= resolution^r nodes on the fewest simplices."""

    resolution: int = 400

    def __post_init__(self):
        r = self.resolution
        if isinstance(r, bool) or not isinstance(r, numbers.Integral):
            raise ValueError(f"grid resolution must be an integer, got {r!r}")
        if r < 1:
            raise ValueError(f"grid resolution must be at least 1, got {r}")


class SymplecticPotential:
    """Guillemin potential of a Delzant polytope, plus an optional bump.

    u(x) = 1/2 sum_j L_j log L_j + bump(x); the Hessian is analytic:
    Hess u = 1/2 sum_j u_j u_j^T / L_j + Hess(bump). With a bump it raises
    `NotPositiveDefinite` unless Hess u is positive definite at the Gauss pair's
    nodes (`quadrature._gauss_pair`) in every simplex of `polytope.triangulate()`:
    14, 100 or 728 strictly interior nodes per simplex for r = 1, 2, 3, which move
    with the lattice basis when the polytope is one simplex, such as P^2.
    """

    def __init__(self, polytope: DelzantPolytope, bump: Polynomial = None):
        self.polytope = polytope
        self.bump = bump
        hs = polytope.halfspaces
        self.normals = np.array([[float(c) for c in h.normal] for h in hs])
        self.offsets = np.array([float(h.offset) for h in hs])
        r = polytope.dim
        if bump is not None:
            if bump.dim != r:
                raise ValueError("bump dimension does not match the polytope")
            # second to fourth partials of the bump, one per sorted index tuple
            self._bump_partials = {k: _symmetric_partials(bump, k) for k in (2, 3, 4)}
            self._validate()
        else:
            self._bump_partials = None

    def _validate(self):
        simplices = _refined(self.polytope, 1)  # resolution 1: the triangulation itself
        nodes = np.matmul(_gauss_pair(self.polytope.dim)[0], simplices)
        _ldl_inverse(self.hess(nodes.reshape(-1, self.polytope.dim)))

    def facet_values(self, x):
        """L_j(x) for every facet, (N, F); x is (N, r) or (r,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.array([_combine(uf, x.T) + c for uf, c in zip(self.normals, self.offsets)]).T

    def hess(self, x):
        """Analytic Hessian of the potential at interior points; (N, r, r)."""
        return self._facets_and_hess(np.atleast_2d(np.asarray(x, float)))[1].transpose(2, 0, 1)

    def _facets_and_hess(self, x):
        """The facet values L (F, N) and the Hessian G (r, r, N) at (N, r) points,
        on length-N columns."""
        L = self.facet_values(x).T
        if L.min() <= 0:
            raise TooCloseToBoundary("potential Hessian needs interior points")
        half = 0.5 / L
        G = np.empty((x.shape[1],) * 2 + (len(x),))
        for i, j in combinations_with_replacement(range(x.shape[1]), 2):
            G[i, j] = _combine(self.normals[:, i] * self.normals[:, j], half)
            if self._bump_partials is not None:
                G[i, j] += self._bump_partials[2][i, j].eval(x)
            G[j, i] = G[i, j]
        return L, G


def scaled_bump(polytope: DelzantPolytope, poly: Polynomial) -> SymplecticPotential:
    """Halve the bump until the potential Hessian is positive definite."""
    scale = Fraction(1)
    for _ in range(BUMP_HALVINGS):
        try:
            return SymplecticPotential(polytope, poly.scale(scale))
        except NotPositiveDefinite:
            scale /= 2
    raise NotPositiveDefinite("bump could not be scaled into convexity")


def _prepare(u: SymplecticPotential, x, h):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lmin = u.facet_values(x).min(axis=1)
    if lmin.min() <= 0:
        raise TooCloseToBoundary(f"minimum facet value {lmin.min():.3e}: not an interior point")
    # shrink the step near the boundary so stencils stay strictly interior
    h_pt = np.minimum(h, FD_BOUNDARY_FRACTION * lmin / np.linalg.norm(u.normals, axis=1).max())
    return x, h_pt


def hess_inv(u: SymplecticPotential, x):
    """Inverse Hessian H (the torus-direction metric); (r, r) or (N, r, r)."""
    single = np.asarray(x, dtype=float).ndim == 1
    hess = u.hess(np.atleast_2d(np.asarray(x, dtype=float)))  # raises off the interior
    if np.linalg.eigvalsh(hess).min() <= 0:
        raise NotPositiveDefinite("potential Hessian not positive definite")
    H = np.linalg.inv(hess)
    return H[0] if single else H


def _ldl_inverse(G):
    """Inverse and pivots of a batch of symmetric matrices; H (N, r, r), D (N, r).

    Root-free Cholesky G = L D L^T with L unit lower triangular, then
    H = M^T D^-1 M with M = L^-1, all on length-N columns with Python loops
    over r, so one loop serves every dimension. G is positive definite exactly
    when every pivot D_j is positive, so this is also the positive-definiteness
    test: it raises `NotPositiveDefinite` before dividing by a pivot that is
    not positive (or not a number). det G = prod D and log det G = sum log D.
    Like `np.linalg.inv`, and unlike the adjugate, it keeps the relative error
    of H within a small multiple of eps cond(G) next to a facet, where cond(G)
    is of order 1/L. G is left as it is: H and D are fresh arrays, and each
    pivot term is subtracted on its own, in order, from a copy of G's column.
    """
    n, r = G.shape[:2]
    d = np.empty((r, n))
    low, scaled = {}, {}  # L_ij and L_ij D_j for i > j
    for j in range(r):
        dj = d[j]
        dj[...] = G[:, j, j]
        for k in range(j):
            dj -= low[j, k] * scaled[j, k]
        if not dj.min() > 0:
            raise NotPositiveDefinite(
                f"pivot {j} of the potential Hessian is not positive at "
                f"{np.sum(~(dj > 0))} of {n} points")
        for i in range(j + 1, r):
            s = scaled[i, j] = G[:, i, j].copy()
            for k in range(j):
                s -= low[i, k] * scaled[j, k]
            low[i, j] = s / dj
    inv_d = 1.0 / d
    m = {}  # M_ij for i > j: M_ij = -(L_ij + sum_{j<k<i} L_ik M_kj)
    for j in range(r):
        for i in range(j + 1, r):
            s = low[i, j].copy()
            for k in range(j + 1, i):
                s += low[i, k] * m[k, j]
            m[i, j] = -s
    H = np.empty((r, r, n))
    for i in range(r):
        for j in range(i, r):
            # H_ij = sum_{k >= j} M_ki M_kj / D_k, with M_jj = 1
            h = inv_d[j].copy() if i == j else m[j, i] * inv_d[j]
            for k in range(j + 1, r):
                h += m[k, i] * m[k, j] * inv_d[k]
            H[i, j] = H[j, i] = h
    return H.transpose(2, 0, 1), d.T


def _matrix_double_divergence(mfun, x, h_pt):
    """sum_ij d_i d_j M_ij by central differences; mfun(x) -> (N, r, r)."""
    n, r = x.shape
    total = np.zeros(n)
    m0 = mfun(x)
    for i in range(r):
        xp = x.copy()
        xp[:, i] += h_pt
        xm = x.copy()
        xm[:, i] -= h_pt
        mp, mm = mfun(xp), mfun(xm)
        total += (mp[:, i, i] - 2.0 * m0[:, i, i] + mm[:, i, i]) / h_pt ** 2
        for j in range(i + 1, r):
            xpp = xp.copy()
            xpp[:, j] += h_pt
            xpm = xp.copy()
            xpm[:, j] -= h_pt
            xmp = xm.copy()
            xmp[:, j] += h_pt
            xmm = xm.copy()
            xmm[:, j] -= h_pt
            mixed = (mfun(xpp)[:, i, j] - mfun(xpm)[:, i, j]
                     - mfun(xmp)[:, i, j] + mfun(xmm)[:, i, j]) / (4.0 * h_pt ** 2)
            total += 2.0 * mixed
    return total


def _vector_divergence(gfun, x, h_pt):
    """sum_i d_i G_i by central differences; gfun(x) -> (N, r)."""
    n, r = x.shape
    total = np.zeros(n)
    for i in range(r):
        xp = x.copy()
        xp[:, i] += h_pt
        xm = x.copy()
        xm[:, i] -= h_pt
        total += (gfun(xp)[:, i] - gfun(xm)[:, i]) / (2.0 * h_pt)
    return total


def scal(u: SymplecticPotential, x, h: float = DEFAULT_FD_STEP):
    """Scalar curvature Scal = -sum_ij d_i d_j H_ij; scalar or (N,) array."""
    return scal_v_divergence(u, 1, x, h)


def scal_v_direct(u: SymplecticPotential, v, x, h: float = DEFAULT_FD_STEP):
    """Weighted scalar curvature v*Scal + 2*Lap(v) + <H, Hess v>, with the
    positive Laplacian Lap(v) = -sum_i d_i(H_ij v_j)."""
    single = np.asarray(x, dtype=float).ndim == 1
    xb, h_pt = _prepare(u, x, h)
    v = as_weight(v, u.polytope.dim)
    hinv = partial(hess_inv, u)
    s = -_matrix_double_divergence(hinv, xb, h_pt)

    def flux(pts):
        return np.einsum("nij,nj->ni", hinv(pts), v.grad(pts))

    lap = -_vector_divergence(flux, xb, h_pt)
    trace = np.einsum("nij,nij->n", hinv(xb), v.hess(xb))
    out = v.eval(xb) * s + 2.0 * lap + trace
    return float(out[0]) if single else out


def scal_v_divergence(u: SymplecticPotential, v, x, h: float = DEFAULT_FD_STEP):
    """Weighted scalar curvature in divergence form: -sum_ij d_i d_j (v H_ij)."""
    single = np.asarray(x, dtype=float).ndim == 1
    xb, h_pt = _prepare(u, x, h)
    v = as_weight(v, u.polytope.dim)
    hinv = partial(hess_inv, u)

    def vh(pts):
        return v.eval(pts)[:, None, None] * hinv(pts)

    out = -_matrix_double_divergence(vh, xb, h_pt)
    return float(out[0]) if single else out


def _scal_v_abreu(u: SymplecticPotential, v, x, work=None):
    """Weighted scalar curvature -sum_ij d_i d_j (v H_ij) in closed form; (N,).

    Everything is a length-N column: the facet values L (F, N), G = Hess u and
    H = G^-1 (r, r, N), from `_ldl_inverse`, which raises `NotPositiveDefinite`
    if G is not positive definite at some node. With the symmetric tensors
    T = d^3 u, D = d^4 u, the identities d_k H = -H G_k H and
    d_k d_l H = H G_k H G_l H + H G_l H G_k H - H G_kl H give, with
    t_c = sum_ab H_ab T_abc,
      d_j = sum_i d_i H_ij = -(H t)_j,
      sum_ij d_i d_j H_ij = t.H t + |T|_H^2 - <D, H x H>,
      Scal_v = -(v sum_ij d_i d_j H_ij + 2 <grad v, d> + <H, Hess v>).
    The Guillemin parts T = sum_f a_f u_f^(x3), a_f = -1/(2 L_f^2), and
    D = sum_f u_f^(x4) / L_f^3 enter through P_f = H u_f and Q_fg = u_f.P_g for
    f <= g, q_f = Q_ff: t = sum_f a_f q_f u_f, |T|_H^2 = sum_fg a_f a_g Q_fg^3 and
    <D, H x H> = sum_f q_f^2 / L_f^3. Near a facet q_f is O(L_f), so this keeps
    the roundoff at O(eps / L^2) where contracting the tensors entry by entry
    loses O(eps / L^3). A bump adds its bounded partials, one column per sorted
    index tuple, contracted by symmetry: T_bump into t, and into |T|_H^2 through
    2 sum_f a_f T_bump[P_f, P_f, P_f] + sum_cd H_cd tr(H T_c H T_d); D_bump
    through the pairings (H_ab H_cd + H_ac H_bd + H_ad H_bc) / 3 of each
    arrangement. `v` is a weight; x is (N, r) with interior points. The columns
    are fresh arrays, the (N,) result included, and each sum adds its terms in
    the order of the formulas above. `work` is handed on to `v._jet`, whose
    columns and temporaries are the only arrays taken from a `Workspace`.
    """
    r = x.shape[1]
    normals = u.normals
    L, G = u._facets_and_hess(x)
    H = _ldl_inverse(G.transpose(2, 0, 1))[0].transpose(1, 2, 0)
    inv_l = 1.0 / L
    alpha = -0.5 * inv_l * inv_l
    P = np.array([_combine(uf, H) for uf in normals])  # P_f = H u_f
    q = np.array([_combine(uf, pf) for uf, pf in zip(normals, P)])  # q_f = Q_ff
    aq = alpha * q
    norm_t = (aq * aq * q).sum(axis=0)
    for f, g in combinations(range(len(normals)), 2):
        Q = _combine(normals[f], P[g])
        term = 2.0 * Q  # one fresh column a pair, multiplied in place in the formula's order
        for factor in (Q, Q, alpha[f], alpha[g]):
            term *= factor
        norm_t += term
    t = np.array([_combine(normals[:, i], aq) for i in range(r)])
    trace_d = ((q * inv_l) ** 2 * inv_l).sum(axis=0)
    if u.bump is not None:
        tb = {}  # one column per sorted tuple, looked up by every arrangement of it
        for idx, d in u._bump_partials[3].items():
            tb.update(dict.fromkeys(permutations(idx), d.eval(x)))
        for a, b, c in product(range(r), repeat=3):
            t[c] += H[a, b] * tb[a, b, c]
        for a, b, c in u._bump_partials[3]:
            norm_t += (2.0 * len(set(permutations((a, b, c))))) * tb[a, b, c] * (
                alpha * [pf[a] * pf[b] * pf[c] for pf in P]).sum(axis=0)
        K = {(c, i, j): _sum_products((H[i, a], tb[a, j, c]) for a in range(r))  # (H T_c)_ij
             for c, i, j in product(range(r), repeat=3)}
        for c, d in combinations_with_replacement(range(r), 2):
            trace = _sum_products((K[c, i, j], K[d, j, i]) for i, j in product(range(r), repeat=2))
            norm_t += (1.0 if c == d else 2.0) * H[c, d] * trace
        for (a, b, c, d), poly in u._bump_partials[4].items():
            pairs = _sum_products([(H[a, b], H[c, d]), (H[a, c], H[b, d]), (H[a, d], H[b, c])])
            trace_d += len(set(permutations((a, b, c, d)))) / 3.0 * poly.eval(x) * pairs
    ht = [_sum_products((H[i, j], t[j]) for j in range(r)) for i in range(r)]
    second = _sum_products(zip(t, ht)) + norm_t - trace_d
    value, grad, hess = v._jet(x, 2, work)
    hess = hess.transpose(1, 2, 0)
    return -(value * second - 2.0 * _sum_products(zip(grad.T, ht))
             + _sum_products((H[i, j], hess[i, j]) for i, j in product(range(r), repeat=2)))


def _combine(coeffs, rows):
    """sum_k coeffs[k] rows[k] over the nonzero coefficients only (normals are mostly 0),
    added in order; a coefficient of 1 or -1 takes no product."""
    terms = [(c, row) for c, row in zip(coeffs, rows) if c]
    if not terms:
        return np.zeros(np.shape(rows[0]))
    (c, row), *rest = terms
    out = row * c
    for c, row in rest:
        if c == 1:
            out += row
        elif c == -1:
            out -= row
        else:
            out += row * c
    return out


def _sum_products(pairs):
    """The sum of a * b over the (a, b) of pairs, added in order into the first product."""
    (a, b), *rest = pairs
    out = a * b
    for a, b in rest:
        out += a * b
    return out


def _refined(polytope: DelzantPolytope, resolution: int):
    """The fewest simplices holding resolution^r pair nodes, each k or k + 1 bisections
    below the triangulation; (S, r+1, r). Past MAX_SIMPLICES a ValueError, before any bisection."""
    verts = np.array([s.float_vertices() for s in polytope.triangulate()])
    want = max(len(verts), -(-int(resolution) ** polytope.dim // len(_gauss_pair(polytope.dim)[0])))
    if want > MAX_SIMPLICES:
        raise ValueError(f"grid resolution {resolution} needs {want} simplices, "
                         f"more than MAX_SIMPLICES = {MAX_SIMPLICES}")
    while len(verts) < want:
        split = want - len(verts)
        verts = np.concatenate([_bisect_all(verts[:split]), verts[split:]])
    return verts


class Workspace:
    """Float buffers handed out in order: the k-th `take(*shape)` after a `reset()`
    returns a view of the k-th buffer, allocated when first asked for and replaced by
    a larger one only if it is too small. A caller taking the same shapes in the same
    order after each reset, with no more nodes than the first time, allocates nothing."""

    __slots__ = ("_buffers", "_top")

    def __init__(self):
        self._buffers, self._top = [], 0

    def take(self, *shape):
        top, size = self._top, math.prod(shape)
        self._top = top + 1
        if top == len(self._buffers):
            self._buffers.append(np.empty(size))
        elif self._buffers[top].size < size:
            self._buffers[top] = np.empty(size)
        return self._buffers[top][:size].reshape(shape)

    def reset(self):
        self._top = 0


def futaki_numeric(polytope: DelzantPolytope, u: SymplecticPotential, v, w,
                   ell, grid: GridSpec = None):
    """Metric-side Futaki value: integral of (Scal_v - w) * ell over the polytope.

    Scal_v is taken in closed form from the potential's derivatives, once at each
    node of the Gauss pair (`quadrature._rule_batch`) on the triangulation bisected to
    the fewest simplices that hold resolution^r nodes (`_refined`), all strictly
    interior, so no boundary truncation is needed. A list of directions gives a list of
    reports from one Scal_v per node times one column of ell values per direction.
    Value and error estimate are the adaptive cubature's (`quadrature._results`):
    with no finite-difference truncation left, the |high - low| gap is the cubature
    error, and the U eps int|f| term the rounding of each simplex's sum. A value or
    error estimate that is not finite raises NonFiniteIntegral with the list of
    reports; a potential `u` on other half-spaces than the polytope's, or a grid of
    more than MAX_SIMPLICES simplices, is a ValueError; and an empty list of
    directions gives an empty list.
    """
    grid = grid or GridSpec()
    v, w = as_weight(v, polytope.dim, "v"), as_weight(w, polytope.dim, "w")
    if set(u.polytope.halfspaces) != set(polytope.halfspaces):
        raise ValueError("u is a potential on another polytope: its half-spaces differ")
    many = not isinstance(ell, AffineFunction)
    directions = list(ell) if many else [ell]
    if any(d.dim != polytope.dim for d in directions):
        raise ValueError(f"ell has a direction of another dimension than {polytope.dim}")
    if not directions:
        return []
    verts = _refined(polytope, grid.resolution)
    work = Workspace()  # v's jet, the same buffers for every chunk

    def integrand(x):  # a fresh (K, n) block
        work.reset()
        scal_v = _scal_v_abreu(u, v, x, work) - w.eval(x)
        return np.array([d.eval(x) for d in directions]) * scal_v

    results = _results(polytope.dim, *_rule_batch(verts, integrand))
    reports = [_report(d, "metric_numeric", (1, r)) for d, r in zip(directions, results)]
    if not np.isfinite([(r.value, r.error_estimate) for r in results]).all():
        raise NonFiniteIntegral("metric-side Futaki value is not finite", result=reports)
    return reports if many else reports[0]
