import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torickstab import invariants, quadrature, toricmetrics
from torickstab.errors import NonFiniteIntegral, NotPositiveDefinite, TooCloseToBoundary
from torickstab.exactlinalg import solve
from torickstab.invariants import futaki_boundary
from torickstab.polynomial import Polynomial
from torickstab.polytope import AffineFunction
from torickstab.quadrature import _gauss_pair, _rule_batch, integrate_boundary
from torickstab.toricmetrics import (
    GridSpec,
    SymplecticPotential,
    _ldl_inverse,
    _refined,
    _scal_v_abreu,
    futaki_numeric,
    hess_inv,
    scal,
    scal_v_direct,
    scal_v_divergence,
    scaled_bump,
)
from torickstab.weights import WeightFn, WeightSum, as_weight, soliton_weight_pair

from conftest import CANONICAL_NORMALS, POLYGONS, make_polytope, one_row

P2 = ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)
P3 = ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, -1), 1)
F1 = ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((0, -1), 1)
# Bl_2 P^2: the canonical Fano pentagon
PENTAGON = ((1, 0), 1), ((1, 1), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1)
P1 = ((1,), 1), ((-1,), 1)
P1xP1 = ((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)


def _interior_points(polytope, rng, n, margin):
    vertices = np.array([[float(c) for c in v] for v in polytope.vertices])
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    normals = np.array([[float(c) for c in h.normal]
                        for h in polytope.halfspaces])
    offsets = np.array([float(h.offset) for h in polytope.halfspaces])
    pts = []
    while len(pts) < n:
        x = rng.uniform(lo, hi)
        if (normals @ x + offsets).min() > margin:
            pts.append(x)
    return np.array(pts)


def test_guillemin_metric_interval(interval):
    u = SymplecticPotential(interval)
    # H = (1 - x^2) / ... : Hess u = 1/2 (1/(1+x) + 1/(1-x)) = 1/(1-x^2)
    assert hess_inv(u, np.array([0.0]))[0, 0] == pytest.approx(1.0)
    assert hess_inv(u, np.array([0.9]))[0, 0] == pytest.approx(0.19)
    assert hess_inv(u, np.array([-0.9]))[0, 0] == pytest.approx(0.19)
    assert u.bump is None


def test_scal_constant_on_p1(interval):
    u = SymplecticPotential(interval)
    xs = np.linspace(-0.95, 0.95, 41)[:, None]
    vals = scal(u, xs, h=1e-3)
    assert np.max(np.abs(vals - 2.0)) <= 1e-8


def test_scal_constant_on_square(square):
    u = SymplecticPotential(square)
    xs = np.stack(np.meshgrid(np.linspace(-0.9, 0.9, 7),
                              np.linspace(-0.9, 0.9, 7)), axis=-1).reshape(-1, 2)
    vals = scal(u, xs, h=1e-3)
    assert np.max(np.abs(vals - 4.0)) <= 1e-7


def test_scal_integral_equals_twice_boundary_mass(interval, square):
    # for the Guillemin metric, int Scal dx = 2 * sigma(boundary)
    from torickstab.quadrature import _rule_batch
    from torickstab.toricmetrics import _refined

    for p in (interval, square):
        u = SymplecticPotential(p)
        total = _rule_batch(_refined(p, 200), one_row(lambda x: scal(u, x, h=1e-3)))[0].sum()
        target = 2 * integrate_boundary(p, WeightFn.constant(p.dim, 1)).exact
        assert total == pytest.approx(float(target), abs=1e-6)


def test_scal_v_known_formula(interval):
    # v = x + 2 on P^1 Guillemin: Scal_v = -((x+2)(1-x^2))'' = 6x + 4
    u = SymplecticPotential(interval)
    v = WeightFn.affine_power(AffineFunction([1], 2), 1)
    xs = np.linspace(-0.9, 0.9, 19)[:, None]
    expected = 6.0 * xs[:, 0] + 4.0
    direct = scal_v_direct(u, v, xs, h=2.5e-4)
    dive = scal_v_divergence(u, v, xs, h=2.5e-4)
    assert np.max(np.abs(direct - expected)) <= 1e-6
    assert np.max(np.abs(dive - expected)) <= 1e-6


def test_direct_and_divergence_agree_on_bumped_metric(p2):
    u = scaled_bump(p2, Polynomial(2, {(4, 0): Fraction(1, 40),
                                       (0, 3): Fraction(-1, 50),
                                       (2, 2): Fraction(1, 60)}))
    assert u.bump is not None
    v = WeightFn.exp_affine([Fraction(1, 4), Fraction(-1, 5)], 0)
    rng = np.random.default_rng(7)
    xs = _interior_points(p2, rng, 50, 0.05)
    a = scal_v_direct(u, v, xs, h=2.5e-4)
    b = scal_v_divergence(u, v, xs, h=2.5e-4)
    assert np.max(np.abs(a - b)) <= 1e-6


def test_identity_residual_is_second_order(p2):
    # halving h divides the direct/divergence discrepancy by about 4
    u = scaled_bump(p2, Polynomial(2, {(4, 0): Fraction(1, 40)}))
    v = WeightFn.affine_power(AffineFunction([1, 1], 3), 1)
    rng = np.random.default_rng(11)
    xs = _interior_points(p2, rng, 20, 0.08)

    def residual(h):
        return np.max(np.abs(scal_v_direct(u, v, xs, h=h)
                             - scal_v_divergence(u, v, xs, h=h)))

    r1, r2 = residual(1e-3), residual(5e-4)
    if r1 > 1e-10:  # above the roundoff floor the ratio is meaningful
        assert 2.0 <= r1 / r2 <= 8.0


def test_bump_convexity_guard(interval):
    with pytest.raises(NotPositiveDefinite):
        SymplecticPotential(interval, Polynomial(1, {(2,): Fraction(-10)}))
    # scaled_bump halves the same bump into convexity
    u = scaled_bump(interval, Polynomial(1, {(2,): Fraction(-10)}))
    assert np.linalg.eigvalsh(u.hess(np.array([[0.5]]))).min() > 0


def test_too_close_to_boundary(interval):
    u = SymplecticPotential(interval)
    with pytest.raises(TooCloseToBoundary):
        scal(u, np.array([1.0]), h=1e-4)  # a point on the facet x = 1
    with pytest.raises(TooCloseToBoundary):
        hess_inv(u, np.array([1.0]))


def test_futaki_numeric_p1_anchor(interval):
    u = SymplecticPotential(interval)
    v, w = soliton_weight_pair(
        WeightFn.affine_power(AffineFunction([1], 2), 1), 1)
    grid = GridSpec(resolution=200)
    rep = futaki_numeric(interval, u, v, w, AffineFunction([1], 0), grid)
    assert rep.value == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert rep.method == "metric_numeric"


def test_futaki_numeric_matches_boundary_formula(p2):
    u = SymplecticPotential(p2)
    v, w = soliton_weight_pair(
        WeightFn.affine_power(AffineFunction([1, 0], 2), 1), 2)
    grid = GridSpec(resolution=100)
    for zeta in ([1, 0], [0, 1]):
        ell = AffineFunction(zeta, 0)
        num = futaki_numeric(p2, u, v, w, ell, grid).value
        bnd = futaki_boundary(p2, v, w, ell).value
        assert abs(num - bnd) <= 1e-4


def test_futaki_numeric_metric_independent(interval):
    v, w = soliton_weight_pair(WeightFn.constant(1, 1), 1)
    ell = AffineFunction([1], 0)
    grid = GridSpec(resolution=200)
    base = futaki_numeric(interval, SymplecticPotential(interval),
                          v, w, ell, grid).value
    bumped = scaled_bump(interval, Polynomial(1, {(4,): Fraction(1, 30)}))
    other = futaki_numeric(interval, bumped, v, w, ell, grid).value
    assert abs(base - other) <= 1e-6


# The central-difference oracle of a weight's derivatives and its bound on
# |error| / max(1, max|Scal_v|): with step h = 2^-13 its truncation (h^2 / 6 times a
# third or fourth derivative of v) and its rounding (eps |v| / h^2) each stay below
# about 1e-8 |v| on the weights tested here, while a fault in the weight's own
# derivative code moves Scal_v by O(|v|)
FD_STEP = 2.0 ** -13
FD_BOUND = 1e-6


def _weight_jet(v, x):
    """v, grad v and Hess v at the rows of x without the weight's derivative code,
    and the relative bound on Scal_v that goes with them.

    A polynomial v takes exact `Polynomial.partial`s (bound 1e-12, roundoff); any
    other v takes central differences of `eval` with step FD_STEP (FD_BOUND)."""
    n, r = x.shape
    if v.is_polynomial:
        poly = v.to_polynomial()
        grad = np.stack([poly.partial(i).eval(x) for i in range(r)], axis=1)
        hess = np.stack([np.stack([poly.partial(i).partial(j).eval(x) for j in range(r)], axis=1)
                         for i in range(r)], axis=1)
        return poly.eval(x), grad, hess, 1e-12
    h, e = FD_STEP, np.eye(r) * FD_STEP
    f = lambda *shifts: v.eval(x + sum(shifts))  # noqa: E731
    grad = np.stack([(f(e[i]) - f(-e[i])) / (2 * h) for i in range(r)], axis=1)
    hess = np.empty((n, r, r))
    for i in range(r):
        for j in range(r):
            hess[:, i, j] = ((f(e[i], e[j]) - f(e[i], -e[j]) - f(-e[i], e[j]) + f(-e[i], -e[j]))
                             / (4 * h * h))
    return v.eval(x), grad, hess, FD_BOUND


def _abreu_tensor(u, v, x):
    """Scal_v by contracting the full derivative tensors entry by entry, as a list
    of (Scal_v, relative bound) pairs.

    T = d^3 u and D = d^4 u come from the facet sums and the bump's own
    partials (G_k = T_k.., G_kl = D_kl..); then d_k d_l H = H G_k H G_l H
    + H G_l H G_k H - H G_kl H is formed whole and traced, and
    d_j = -sum_i (H G_i H)_ij. v, grad v and Hess v come once from the weight's
    own `eval`, `grad` and `hess` (a check of the contraction to roundoff) and
    once from `_weight_jet` (a check of the weight's derivatives)."""
    n, r = x.shape
    H = np.linalg.inv(u.hess(x))
    L = u.facet_values(x)
    U = u.normals
    T = np.einsum("nf,fi,fj,fk->nijk", -0.5 / L ** 2, U, U, U)
    D = np.einsum("nf,fi,fj,fk,fl->nijkl", 1.0 / L ** 3, U, U, U, U)
    if u.bump is not None:
        for idx in np.ndindex(*(r,) * 3):
            d = u.bump
            for i in idx:
                d = d.partial(i)
            T[(slice(None),) + idx] += d.eval(x)
            for m in range(r):
                D[(slice(None),) + idx + (m,)] += d.partial(m).eval(x)
    hgh = np.einsum("nia,nkab,nbj->nkij", H, T, H)  # H G_k H
    div = -np.einsum("niij->nj", hgh)
    second = (np.einsum("nkia,nlab,nbj->nklij", hgh, T, H)
              + np.einsum("nlia,nkab,nbj->nklij", hgh, T, H)
              - np.einsum("nia,nklab,nbj->nklij", H, D, H))
    total = np.einsum("nijij->n", second)
    return [(-(value * total + 2.0 * np.einsum("nj,nj->n", grad, div)
               + np.einsum("nab,nab->n", H, hess)), bound)
            for value, grad, hess, bound in [(v.eval(x), v.grad(x), v.hess(x), 1e-12),
                                             _weight_jet(v, x)]]


# exp(x_1/3 - x_2/4) (x_1^2 + x_1 x_2 + 2) + (x_2 + 5)^2: an exp term with a
# polynomial part plus an affine term
SUM_WEIGHT = WeightSum([
    WeightFn.exp_affine([Fraction(1, 3), Fraction(-1, 4)], 0)
    * Polynomial(2, {(2, 0): 1, (1, 1): 1, (0, 0): 2}),
    WeightFn.affine_power(AffineFunction([0, 1], 5), 2)])
# (x_1 + 2 x_2 + 5)^2 (x_1^2 + x_1 x_2 + 2): a polynomial with an affine factor and a
# polynomial part, so its Hessian has cross terms of both
POLY_WEIGHT = (WeightFn.affine_power(AffineFunction([1, 2], 5), 2)
               * Polynomial(2, {(2, 0): 1, (1, 1): 1, (0, 0): 2}))


@pytest.mark.parametrize("facets, bump, n, v", [
    (P3, None, 40, None),
    (P3, {(4, 0, 0): Fraction(1, 40), (1, 2, 1): Fraction(1, 30)}, 40, None),
    (PENTAGON, None, 40, None),
    (PENTAGON, {(4, 0): Fraction(1, 20), (2, 2): Fraction(1, 30)}, 40, None),
    (P2, {(4, 0): Fraction(1, 40), (0, 3): Fraction(-1, 50), (2, 2): Fraction(1, 60)}, 40,
     None),
    (P1, {(4,): Fraction(1, 30), (3,): Fraction(-1, 20)}, 40, None),
    (F1, {(4, 0): Fraction(1, 40), (1, 3): Fraction(1, 50), (2, 1): Fraction(-1, 30)}, 40,
     None),
    (P3, {(4, 0, 0): Fraction(1, 40), (1, 2, 1): Fraction(1, 30)}, 1, None),
    (F1, {(4, 0): Fraction(1, 40), (1, 3): Fraction(1, 50), (2, 1): Fraction(-1, 30)}, 40,
     SUM_WEIGHT),
    (F1, {(4, 0): Fraction(1, 40), (1, 3): Fraction(1, 50), (2, 1): Fraction(-1, 30)}, 40,
     POLY_WEIGHT),
], ids=["P3", "P3-bump", "pentagon", "pentagon-bump", "P2-bump", "P1-bump", "F1-bump",
        "P3-bump-one-point", "F1-bump-sum-weight", "F1-bump-polynomial-weight"])
def test_scal_v_abreu_matches_tensor_contraction(facets, bump, n, v):
    p = make_polytope(*facets)
    u = (SymplecticPotential(p) if bump is None
         else scaled_bump(p, Polynomial(p.dim, bump)))
    if v is None:
        v = WeightFn.exp_affine([Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)][:p.dim], 0)
    xs = _interior_points(p, np.random.default_rng(5), n, 0.1)
    got = _scal_v_abreu(u, v, xs)
    assert got.shape == (n,)
    for expected, bound in _abreu_tensor(u, v, xs):
        assert np.max(np.abs(got - expected)) <= bound * max(1.0, np.max(np.abs(expected)))


_BUMP_MONOMIALS = {dim: [a for a in np.ndindex(*(5,) * dim) if 2 <= sum(a) <= 4]
                   for dim in (2, 3)}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([P2, F1, P3]), st.data(), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_scal_v_abreu_matches_tensor_contraction_on_random_bumps(facets, data, seed, exp):
    # random degree-4 bumps, made convex by `scaled_bump`, with an exp or affine v
    p = make_polytope(*facets)
    coeff = st.fractions(-1, 1, max_denominator=60).filter(bool)
    bump = data.draw(st.dictionaries(st.sampled_from(_BUMP_MONOMIALS[p.dim]), coeff,
                                     min_size=1, max_size=4))
    zeta = data.draw(st.lists(st.fractions(-1, 1, max_denominator=10),
                              min_size=p.dim, max_size=p.dim))
    u = scaled_bump(p, Polynomial(p.dim, bump))
    v = (WeightFn.exp_affine(zeta, 0) if exp
         else WeightFn.affine_power(AffineFunction(zeta, 10), 1))
    xs = _interior_points(p, np.random.default_rng(seed), 20, 0.1)
    got = _scal_v_abreu(u, v, xs)
    for expected, bound in _abreu_tensor(u, v, xs):
        assert np.max(np.abs(got - expected)) <= bound * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("facets", [P3, P2, P1xP1, P1], ids=["P3", "P2", "P1xP1", "P1"])
def test_scal_v_abreu_guillemin_is_2r(facets):
    # Fubini-Study and product metrics: Scal = 2r on the canonical polytope
    p = make_polytope(*facets)
    u = SymplecticPotential(p)
    xs = _interior_points(p, np.random.default_rng(3), 60, 1e-3)
    vals = _scal_v_abreu(u, as_weight(1, p.dim), xs)
    assert np.max(np.abs(vals - 2 * p.dim)) <= 1e-10


@pytest.mark.parametrize("facets", [P2, P1xP1, P3], ids=["P2", "P1xP1", "P3"])
@pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
def test_scal_v_abreu_rounding_near_a_facet(facets, delta):
    # Scal = 2r on the Guillemin metric; the Q_ff form keeps the roundoff at
    # O(eps / L^2), where contracting T and D entry by entry loses O(eps / L^3)
    p = make_polytope(*facets)
    vals = _scal_v_abreu(SymplecticPotential(p), as_weight(1, p.dim), _near_facets(p, delta))
    assert np.max(np.abs(vals - 2 * p.dim)) <= 16 * np.finfo(float).eps / delta ** 2


def test_scal_v_abreu_rejects_a_node_on_a_facet():
    p = make_polytope(*P2)
    xs = np.array([[0.0, 0.0], [-1.0, 0.2], [0.3, 0.1]])  # the second lies on x1 = -1
    with pytest.raises(TooCloseToBoundary):
        _scal_v_abreu(SymplecticPotential(p), as_weight(1, 2), xs)


def test_scal_v_abreu_rejects_a_node_where_the_potential_is_not_convex(interval):
    u = scaled_bump(interval, _nonconvex_bump(interval))
    grid = np.linspace(-1.0, 1.0, 2003)[1:-1, None]
    bad = grid[u.hess(grid)[:, 0, 0] < 0][:1]
    nodes = np.sort(_pair_nodes(interval))
    xs = np.vstack([nodes[:1], bad, nodes[-1:]])  # the outermost pair nodes, which the check saw
    assert np.all(u.hess(xs[[0, 2]]) > 0)
    with pytest.raises(NotPositiveDefinite):
        _scal_v_abreu(u, as_weight(1, 1), xs)


def test_scal_v_abreu_matches_fd_on_bumped_metric(p2):
    # the bump metric and points of `verify identities`; the FD forms carry an
    # O(h^2) truncation error (about 70 h^2 here) and a roundoff error of about
    # 4e-15 / h^2, so Richardson extrapolation from h and h/2 is compared
    u = scaled_bump(p2, Polynomial(2, {(4, 0): Fraction(1, 20),
                                       (2, 2): Fraction(1, 30)}))
    v = WeightFn.exp_affine([Fraction(3, 10), Fraction(1, 10)], 0)
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < 50:
        x = rng.random(2) * 3.0 - 1.0
        if u.facet_values(x).min() > 0.05:
            pts.append(x)
    pts = np.array(pts)
    exact = _scal_v_abreu(u, v, pts)
    h = 4e-4
    for fd in (scal_v_direct, scal_v_divergence):
        extrapolated = (4.0 * fd(u, v, pts, h=h / 2) - fd(u, v, pts, h=h)) / 3.0
        assert np.max(np.abs(exact - extrapolated)) <= 1e-6


def test_scal_v_abreu_matches_fd_at_curvature_anchors(interval):
    # the criterion 7 anchors: Scal = 2 on the P^1 Guillemin metric, and the
    # weighted curvature for v = exp(x/4) at 200 seeded points
    u = SymplecticPotential(interval)
    xs = np.linspace(-0.95, 0.95, 39)[:, None]
    one = as_weight(1, 1)
    assert np.max(np.abs(_scal_v_abreu(u, one, xs) - scal(u, xs, h=1e-3))) <= 1e-6
    v = WeightFn.exp_affine([Fraction(1, 4)], 0)
    pts = (np.random.default_rng(2024).random(200) * 1.8 - 0.9)[:, None]
    exact = _scal_v_abreu(u, v, pts)
    for fd in (scal_v_direct, scal_v_divergence):
        assert np.max(np.abs(exact - fd(u, v, pts, h=2.5e-4))) <= 1e-6


def test_scal_v_abreu_matches_fd_with_a_normal_entry_of_2():
    # the Hirzebruch surface F_2: the normal (-1, 2) takes `_combine`'s general coefficient,
    # which no canonical Fano polytope reaches; the two forms agree to 6.8e-7 at h = 2.5e-4,
    # and the bound is `verify`'s for the closed form against finite differences
    p = make_polytope(((1, 0), 1), ((0, 1), 1), ((-1, 2), 3), ((0, -1), 1))
    u = SymplecticPotential(p)
    v = WeightFn.exp_affine([Fraction(3, 10), Fraction(1, 10)], 0)
    pts = _interior_points(p, np.random.default_rng(7), 50, 0.05)
    assert np.max(np.abs(_scal_v_abreu(u, v, pts) - scal_v_divergence(u, v, pts, h=2.5e-4))) <= 1e-5


def test_a_bump_of_another_dimension_is_rejected(p2):
    with pytest.raises(ValueError, match="^bump dimension does not match the polytope$"):
        SymplecticPotential(p2, Polynomial(1, {(2,): Fraction(1)}))


def test_futaki_numeric_matches_boundary_at_resolution_400(interval, p2):
    # the criterion 5 cases, with no finite-difference error left
    grid = GridSpec(resolution=400)
    for p in (interval, p2):
        e1 = [1] + [0] * (p.dim - 1)
        for base in (WeightFn.constant(p.dim, 1),
                     WeightFn.affine_power(AffineFunction(e1, 2), 1),
                     WeightFn.exp_affine([Fraction(3, 10)]
                                         + [Fraction(0)] * (p.dim - 1), 0)):
            v, w = soliton_weight_pair(base, p.dim)
            u = SymplecticPotential(p)
            for i in range(p.dim):
                ell = AffineFunction([1 if j == i else 0 for j in range(p.dim)], 0)
                num = futaki_numeric(p, u, v, w, ell, grid)
                bnd = futaki_boundary(p, v, w, ell).value
                assert abs(num.value - bnd) <= 1e-8
                assert num.error_estimate <= 1e-8
                assert abs(num.value - bnd) <= num.error_estimate


def test_futaki_numeric_error_estimate_covers_the_error_at_resolution_1000(interval, p2):
    # past the cubature error the rounding of the sum dominates; the estimate
    # must still bound the distance to the exact boundary value
    grid = GridSpec(resolution=1000)
    for p, zeta in ((interval, [1]), (p2, [0, 1])):
        v, w = soliton_weight_pair(WeightFn.constant(p.dim, 1), p.dim)
        ell = AffineFunction(zeta, 0)
        num = futaki_numeric(p, SymplecticPotential(p), v, w, ell, grid)
        assert abs(num.value - futaki_boundary(p, v, w, ell).value) <= num.error_estimate


@pytest.mark.parametrize("resolution", [100, 200, 400, 800])
def test_futaki_numeric_error_estimate_covers_the_rounding_floor_near_facets(resolution):
    # CI's bumped P^2, where the estimate does not model the O(eps / L^2) rounding of Scal_v
    # next to a facet: the error against the exact boundary value read 5.9e-9, 2.3e-12,
    # 1.3e-13 and 6.4e-14 (the Grundmann--Moeller pair: 1.6e-7 to 4.2e-13), and the
    # estimate must bound it at every resolution
    p = make_polytope(*P2)
    u = scaled_bump(p, Polynomial(2, {(4, 0): Fraction(1, 30)}))
    v, w = soliton_weight_pair(WeightFn.affine_power(AffineFunction([1, 0], 2), 1), 2)
    ell = AffineFunction([1, 0], 0)
    num = futaki_numeric(p, u, v, w, ell, GridSpec(resolution))
    assert abs(num.value - futaki_boundary(p, v, w, ell).value) <= num.error_estimate


@pytest.mark.parametrize("resolution", [0, -3])
def test_grid_below_one_is_rejected(resolution):
    with pytest.raises(ValueError, match="grid resolution must be at least 1"):
        GridSpec(resolution=resolution)


@pytest.mark.parametrize("resolution", [float("nan"), float("inf"), True, 2.5, 400.0, "400"])
def test_grid_resolution_that_is_not_an_integer_is_rejected(resolution):
    # nan, True and 2.5 once passed `resolution < 1`, and futaki_numeric returned the
    # unrefined triangulation's value; inf raised an untyped OverflowError
    with pytest.raises(ValueError, match="grid resolution must be an integer"):
        GridSpec(resolution=resolution)


@pytest.mark.parametrize("resolution, simplices", [(1, 1), (100, 100), (400, 1600), (800, 6400),
                                                    (1000, 10000), (3620, 131044)])
def test_refined_mesh_counts_the_evaluated_nodes(p2, resolution, simplices):
    # the fewest simplices on which the pair evaluates resolution^2 nodes (100 per simplex:
    # 64 of the order-8 rule and 36 of the order-6 rule), ceil(resolution^2 / 100); 3620
    # is the largest resolution within MAX_SIMPLICES
    from torickstab.toricmetrics import _refined

    assert len(_refined(p2, resolution)) == simplices


def test_the_3d_grid_in_use_fits_and_one_past_the_simplex_cap_does_not(p2):
    # 100 is the largest resolution in use in 3-D, ceil(100^3 / 728) simplices; on P^2,
    # 3621 needs ceil(3621^2 / 100), 45 past MAX_SIMPLICES
    assert len(_refined(make_polytope(*P3), 100)) == 1374
    with pytest.raises(ValueError, match=r"^grid resolution 3621 needs 131117 simplices, "
                                         r"more than MAX_SIMPLICES = 131072$"):
        _refined(p2, 3621)


_LARGEST_RESOLUTION = {1: 1835008, 2: 3620, 3: 456}  # per dimension, within MAX_SIMPLICES


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(("P1",) + POLYGONS + ("P3",)), st.data())
def test_refined_is_the_least_mesh_on_the_node_floor_and_tiles_the_polytope(name, data):
    p = make_polytope(*[(u, 1) for u in CANONICAL_NORMALS[name]])
    r, largest = p.dim, _LARGEST_RESOLUTION[p.dim]
    low = data.draw(st.integers(1, largest), "low")
    high = data.draw(st.integers(low, largest), "high")
    base = np.array([s.float_vertices() for s in p.triangulate()])
    nodes = len(_gauss_pair(r)[0])
    counts = []
    for resolution in (low, high):
        verts = _refined(p, resolution)
        # resolution^r nodes or more, and one simplex fewer would hold fewer, unless the
        # triangulation alone is already past the floor
        floor, count = resolution ** r, len(verts)
        assert count * nodes >= floor and count >= len(base)
        assert count == len(base) or (count - 1) * nodes < floor
        counts.append(count)
    assert counts[0] <= counts[1]
    with pytest.raises(ValueError, match="more than MAX_SIMPLICES"):
        _refined(p, largest + 1)

    def volumes(simplices):
        return np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1])) / math.factorial(r)

    assert math.isclose(volumes(verts).sum(), float(p.volume()), rel_tol=1e-12)
    # the triangulation simplex holding each centroid, by its least barycentric coordinate
    offsets = verts.mean(axis=1)[None] - base[:, None, 0]
    edges = np.swapaxes(base[:, 1:] - base[:, :1], 1, 2)[:, None]  # columns v_k - v_0
    inner = np.linalg.solve(edges, offsets[..., None])[..., 0]
    least = np.minimum(inner.min(axis=2), 1 - inner.sum(axis=2))
    owner = np.argmax(least, axis=0)
    assert (least[owner, np.arange(len(verts))] > 0).all()
    depth = np.log2(volumes(base)[owner] / volumes(verts))
    assert np.allclose(depth, np.round(depth), rtol=0, atol=1e-9)
    assert np.ptp(np.round(depth)) <= 1, (name, high, np.unique(np.round(depth)))


@pytest.mark.parametrize("dim, resolution", [(2, 10 ** 5), (2, 10 ** 200), (1, 10 ** 200)])
def test_a_grid_past_the_simplex_cap_is_rejected_before_any_bisection(dim, resolution):
    # 10^5 on P^2 once asked for 2^27 simplices, about 6 GB of vertices, and 10^200 on the
    # interval bisected until it was killed; the halvings are counted in integers
    p = make_polytope(*P2) if dim == 2 else make_polytope(((1,), 1), ((-1,), 1))
    v, w = soliton_weight_pair(WeightFn.constant(dim, 1), dim)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^grid resolution {resolution} needs .* simplices, "
                                         f"more than MAX_SIMPLICES = 131072$"):
        futaki_numeric(p, SymplecticPotential(p), v, w, AffineFunction([1] * dim, 0),
                       GridSpec(resolution))
    assert time.perf_counter() - start < 1.0


def test_grid_resolution_takes_numpy_integers_and_is_checked_once(interval):
    assert GridSpec(resolution=np.int64(3)).resolution == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        GridSpec().resolution = 2.5  # no edit after the check
    u, v, w = SymplecticPotential(interval), WeightFn.constant(1, 1), WeightFn.constant(1, 2)
    ell = AffineFunction([1], 0)
    assert futaki_numeric(interval, u, v, w, ell, GridSpec(resolution=np.int64(20))).value == \
        futaki_numeric(interval, u, v, w, ell, GridSpec(resolution=20)).value


def _near_facets(polytope, delta):
    """One point at distance delta (in L_f) from each facet f: s y, with y the
    centroid of the facet's vertices and s = 1 - delta; canonical Fano
    polytopes have every offset 1, so L_f(s y) = 1 - s."""
    verts = np.array([[float(c) for c in v] for v in polytope.vertices])
    return np.array([(1.0 - delta) * verts[[f in inc for inc in polytope.facet_adjacency]]
                     .mean(axis=0) for f in range(len(polytope.halfspaces))])


def _exact_inverse(g):
    """The inverse of a float matrix, exactly, as a float matrix."""
    rows = [[Fraction(float(c)) for c in row] for row in g]
    r = len(rows)
    cols = [solve(rows, [int(i == j) for i in range(r)]) for j in range(r)]
    return np.array([[float(cols[j][i]) for j in range(r)] for i in range(r)])


@pytest.mark.parametrize("facets", [P2, F1, P3], ids=["P2", "F1", "P3"])
@pytest.mark.parametrize("delta", [1e-2, 1e-5, 1e-8])
def test_ldl_inverse_near_a_facet(facets, delta):
    # cond(G) grows like 1/delta there; the inverse's relative error stays
    # within a small multiple of eps cond(G), against the exact inverse of the
    # same float matrix and against LAPACK
    p = make_polytope(*facets)
    G = SymplecticPotential(p).hess(_near_facets(p, delta))
    H, D = _ldl_inverse(G)
    eps = np.finfo(float).eps
    for g, h, d in zip(G, H, D):
        bound = 4 * eps * np.linalg.cond(g)
        exact = _exact_inverse(g)
        scale = np.abs(exact).max()
        assert np.abs(h - exact).max() <= bound * scale
        assert np.abs(h - np.linalg.inv(g)).max() <= 2 * bound * scale
        assert np.array_equal(h, h.T)
        assert np.prod(d) == pytest.approx(np.linalg.det(g), rel=bound)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 4, 5]),
       st.integers(1, 40), st.floats(1e-6, 1.0))
def test_ldl_inverse_inverts_random_spd_batches(seed, r, n, shift):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, r, r))
    G = a @ a.transpose(0, 2, 1) + shift * np.eye(r)
    H, D = _ldl_inverse(G)
    eps = np.finfo(float).eps
    cond = np.linalg.cond(G)
    residual = np.abs(H @ G - np.eye(r)).max(axis=(1, 2))
    assert np.all(residual <= 4 * r * eps * cond)
    assert np.allclose(np.prod(D, axis=1), np.linalg.det(G), rtol=4 * r * eps * cond.max())


def test_ldl_inverse_rejects_indefinite_and_nan():
    good = np.eye(3)
    for bad in (np.diag([1.0, -1.0, 2.0]), np.array([[1.0, 2.0, 0], [2.0, 1.0, 0], [0, 0, 1]]),
                np.full((3, 3), np.nan)):
        with pytest.raises(NotPositiveDefinite):
            _ldl_inverse(np.stack([good, bad, good]))


def test_ldl_inverse_leaves_g_as_it_is_and_shares_no_memory_with_it(square):
    # the factorisation copies G's columns before it subtracts the pivot terms from them,
    # so G keeps its values and H and D are arrays of their own, for a C-ordered batch and
    # for the transposed columns that SymplecticPotential.hess returns
    rng = np.random.default_rng(7)
    batches = [SymplecticPotential(square).hess(_interior_points(square, rng, 9, 1e-3))]
    for r in (1, 2, 3):
        a = rng.normal(size=(9, r, r))
        batches.append(a @ a.transpose(0, 2, 1) + np.eye(r))
    for G in batches:
        before = G.copy()
        H, D = _ldl_inverse(G)
        assert np.array_equal(G, before)
        assert not np.shares_memory(H, G) and not np.shares_memory(D, G)


def test_hess_off_the_diagonal_of_the_square_is_the_bump_partial(square):
    # on P^1 x P^1 every product of normals off the diagonal is 0, so the Guillemin part
    # adds no term there: the mixed entry reads 0 with no bump and the bump's d1 d2 b with one
    x = _interior_points(square, np.random.default_rng(3), 50, 1e-3)
    G = SymplecticPotential(square).hess(x)
    assert np.array_equal(G[:, 0, 1], np.zeros(len(x))) and np.array_equal(G[:, 1, 0], G[:, 0, 1])
    u = scaled_bump(square, Polynomial(2, {(2, 2): Fraction(1, 20), (3, 1): Fraction(-1, 30),
                                           (1, 1): Fraction(1, 7)}))
    G, mixed = u.hess(x), u.bump.partial(0).partial(1).eval(x)
    assert mixed.any() and np.array_equal(G[:, 0, 1], mixed) and np.array_equal(G[:, 1, 0], mixed)


def _pair_nodes(polytope):
    """The Gauss pair's nodes in the triangulation's simplices, as the convexity check maps
    them; (S U, r)."""
    return np.matmul(_gauss_pair(polytope.dim)[0], _refined(polytope, 1)).reshape(-1, polytope.dim)


def _nonconvex_bump(interval):
    """b with b'' = -2^40 prod_g (x - g)^2 over the 14 pair nodes g of [-1, 1], each the
    exact Fraction of its float, so b'' vanishes on every node that the check evaluates."""
    x = Polynomial.linear([1])
    b2 = Polynomial.constant(1, -2 ** 40)
    for (g,) in _pair_nodes(interval):
        b2 = b2 * (x - Polynomial.constant(1, Fraction(g))).power(2)
    for _ in range(2):
        b2 = Polynomial(1, {(a + 1,): c / (a + 1) for (a,), c in b2.coeffs.items()})
    return b2


def test_futaki_numeric_rejects_a_nonconvex_potential(interval):
    # the check sees a convex potential at the pair nodes, but between them Hess u < 0
    bump = _nonconvex_bump(interval)
    u = scaled_bump(interval, bump)
    assert u.bump == bump
    xs = np.linspace(-1.0, 1.0, 2003)[1:-1, None]
    assert np.sum(u.hess(xs)[:, 0, 0] <= 0) > 0.9 * len(xs)
    v, w = soliton_weight_pair(WeightFn.constant(1, 1), 1)
    with pytest.raises(NotPositiveDefinite):
        futaki_numeric(interval, u, v, w, AffineFunction([1], 0), GridSpec(resolution=400))


@pytest.mark.parametrize("bump", [None, {(4, 0, 0): Fraction(1, 40),
                                         (1, 2, 1): Fraction(1, 30)}],
                         ids=["guillemin", "bump"])
@pytest.mark.parametrize("base", [WeightFn.constant(3, 1),
                                  WeightFn.exp_affine([Fraction(3, 10), 0, 0], 0)],
                         ids=["one", "exp"])
def test_futaki_numeric_matches_boundary_on_p3(bump, base):
    p = make_polytope(*P3)
    u = SymplecticPotential(p) if bump is None else scaled_bump(p, Polynomial(3, bump))
    v, w = soliton_weight_pair(base, 3)
    for i in range(3):
        ell = AffineFunction([int(i == j) for j in range(3)], 0)
        num = futaki_numeric(p, u, v, w, ell, GridSpec(resolution=20))
        assert abs(num.value - futaki_boundary(p, v, w, ell).value) <= num.error_estimate
        if bump is None:  # no cubature error left on the Guillemin metric
            assert num.error_estimate <= 1e-9


@pytest.mark.parametrize("facets, bump", [
    (P2, None),
    (P2, {(4, 0): Fraction(1, 20), (2, 2): Fraction(1, 30)}),
    (F1, None),
    (P3, None),
], ids=["P2", "P2-bump", "F1", "P3"])
def test_futaki_numeric_on_a_list_of_directions_is_the_single_calls(facets, bump, monkeypatch):
    # one Scal_v per node serves every direction: S U rows reach the Abreu kernel,
    # not K S U, and each report is the single-direction one within a few ulps of the mass
    p = make_polytope(*facets)
    r = p.dim
    u = SymplecticPotential(p) if bump is None else scaled_bump(p, Polynomial(r, bump))
    v, w = soliton_weight_pair(WeightFn.exp_affine([Fraction(3, 10)] + [0] * (r - 1), 0), r)
    directions = [AffineFunction.constant(r, 1)]
    directions += [AffineFunction.coordinate(r, i) for i in range(r)]
    directions += [AffineFunction([1, -2, 3][:r], Fraction(1, 3))]
    grid = GridSpec(resolution=40 if r == 2 else 12)
    abreu, rows = toricmetrics._scal_v_abreu, []

    def counted(u, v, x, work=None):
        rows.append(len(x))
        return abreu(u, v, x, work)

    monkeypatch.setattr(toricmetrics, "_scal_v_abreu", counted)
    many = futaki_numeric(p, u, v, w, directions, grid)
    verts = _refined(p, grid.resolution)
    assert sum(rows) == len(verts) * len(_gauss_pair(r)[0])
    assert len(many) == len(directions)
    for ell, rep in zip(directions, many):
        one = futaki_numeric(p, u, v, w, ell, grid)
        mass = _rule_batch(verts, one_row(lambda x: (abreu(u, v, x) - w.eval(x)) * ell.eval(x)))
        mass = mass[2].sum()
        assert rep.direction == ell and rep.method == one.method == "metric_numeric"
        assert abs(rep.value - one.value) <= 4 * np.finfo(float).eps * mass
        assert abs(rep.error_estimate - one.error_estimate) <= 4 * np.finfo(float).eps * mass


def test_futaki_numeric_raises_on_a_non_finite_value(p2):
    # v = exp(800 x1) overflows near the vertex (1, 1) of P^2; the value read NaN
    u = SymplecticPotential(p2)
    v = WeightFn.exp_affine([800, 0], 0)
    basis = [AffineFunction.coordinate(2, i) for i in range(2)]
    with np.errstate(all="ignore"), pytest.raises(NonFiniteIntegral) as info:
        futaki_numeric(p2, u, v, 1, basis, GridSpec(resolution=20))
    assert [rep.direction for rep in info.value.result] == basis


@pytest.mark.parametrize("v, w, ell, name", [
    (WeightFn.constant(3, 1), 1, AffineFunction([1, 0], 0), "v has dimension 3"),
    (1, WeightFn.constant(3, 1), AffineFunction([1, 0], 0), "w has dimension 3"),
    (1, 1, AffineFunction([1, 0, 0], 0), "ell has a direction of another dimension"),
    (1, 1, AffineFunction([1], 0), "ell has a direction of another dimension"),
    (1, 1, [AffineFunction([1, 0], 0), AffineFunction([1], 0)],
     "ell has a direction of another dimension"),
])
def test_futaki_numeric_rejects_inputs_of_another_dimension(p2, v, w, ell, name):
    # a 3-D v once returned a value, and a wrong ell raised numpy's matmul ValueError
    with pytest.raises(ValueError, match=name):
        futaki_numeric(p2, SymplecticPotential(p2), v, w, ell, GridSpec(resolution=10))


def test_futaki_numeric_rejects_a_potential_of_another_polytope(p2):
    # P^2 halved (offsets 1/2) with the potential of P^2 once returned 0.28125,
    # where futaki_boundary gives 1.40625
    halved = make_polytope(((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 2)),
                           ((-1, -1), Fraction(1, 2)))
    v, w = soliton_weight_pair(WeightFn.affine_power(AffineFunction([1, 0], 2), 1), 2)
    with pytest.raises(ValueError, match="^u "):
        futaki_numeric(halved, SymplecticPotential(p2), v, w, AffineFunction([1, 0], 0),
                       GridSpec(resolution=10))
    # the same half-spaces in another order define the same potential
    shuffled = make_polytope(*reversed(P2))
    value = futaki_numeric(shuffled, SymplecticPotential(p2), v, w, AffineFunction([1, 0], 0),
                           GridSpec(resolution=10)).value
    assert value == pytest.approx(futaki_boundary(p2, v, w, AffineFunction([1, 0], 0)).value,
                                  abs=1e-9)


def test_futaki_numeric_of_no_direction_is_an_empty_list(p2):
    # as futaki_boundary returns; np.stack once raised on the empty list
    v, w = soliton_weight_pair(WeightFn.constant(2, 1), 2)
    assert futaki_numeric(p2, SymplecticPotential(p2), v, w, []) == []
    assert futaki_boundary(p2, v, w, []) == []


class _CountedWorkspace(toricmetrics.Workspace):
    """A Workspace that counts the buffers it allocates, the replaced ones included."""

    __slots__ = ("allocations",)

    def __init__(self):
        super().__init__()
        self.allocations = 0

    def take(self, *shape):
        buffers = [id(b) for b in self._buffers]
        out = super().take(*shape)
        self.allocations += buffers != [id(b) for b in self._buffers]
        return out


def test_a_reused_workspace_gives_the_fresh_jet_bit_for_bit():
    # v's jet takes every column and temporary from the workspace, so a term or a temporary
    # that overwrote another, or a buffer read before it is filled, would move an output; a
    # large point set first, then a reset and a smaller one, which takes sliced views
    x1, x2 = AffineFunction([1, 0], 2), AffineFunction([Fraction(1, 3), 1], 1)
    poly = Polynomial(2, {(0, 0): 2, (1, 0): Fraction(1, 3), (1, 1): -1, (0, 2): Fraction(1, 5)})
    term = WeightFn(2, Fraction(3, 2), [(x1, Fraction(5, 2)), (x2, -1)],
                    AffineFunction([Fraction(3, 10), Fraction(-1, 7)], 0), poly)
    three = WeightSum([term, WeightFn.exp_affine([Fraction(-1, 2), 1], 0),
                       WeightFn(2, 2, [(x2, Fraction(1, 3))], None, poly)])
    rng = np.random.default_rng(3)
    large, small = rng.uniform(-0.5, 0.5, (1000, 2)), rng.uniform(-0.5, 0.5, (300, 2))
    for v in (term, three):
        work = toricmetrics.Workspace()
        for order in range(3):
            for x in (large, small):
                work.reset()
                allocated = [id(b) for b in work._buffers]
                got = v._jet(x, order, work)
                for part, want in zip(got, v._jet(x, order), strict=True):
                    assert np.array_equal(part, want), (v, order, len(x))
            assert [id(b) for b in work._buffers] == allocated  # the small set took views


def test_futaki_numeric_estimate_bounds_its_error_and_does_not_grow_with_resolution():
    # CI's bumped P^2: with N eps int|f| over all N nodes as its rounding term, the estimate of
    # x1 grew from 4.6e-10 at resolution 400 to 1.8e-9 at 800, where the error fell to 6.4e-14
    p = make_polytope(*P2)
    u = scaled_bump(p, Polynomial(2, {(4, 0): Fraction(1, 30)}))
    v, w = soliton_weight_pair(WeightFn.affine_power(AffineFunction([1, 0], 2), 1), 2)
    basis = invariants._affine_basis(2)
    exact = [rep.value for rep in futaki_boundary(p, v, w, basis)]
    estimates = []
    for resolution in (100, 200, 400, 800):
        reports = futaki_numeric(p, u, v, w, basis, GridSpec(resolution))
        for rep, want in zip(reports, exact):
            assert abs(rep.value - want) <= rep.error_estimate, (resolution, rep, want)
        estimates.append([rep.error_estimate for rep in reports])
    assert all(late <= early for late, early in zip(estimates[-1], estimates[-2])), estimates


def test_futaki_numeric_allocates_its_columns_on_the_first_chunk_only(monkeypatch):
    # the integrand resets the workspace once per chunk and v's jet takes the same arrays
    # again, so a call over 20 chunks allocates as many buffers as a call over one chunk,
    # all of them on its first chunk
    p = make_polytope(*P2)
    u = scaled_bump(p, Polynomial(2, {(4, 0): Fraction(1, 30), (2, 2): Fraction(1, 50)}))
    v, w = soliton_weight_pair(WeightFn.exp_affine([Fraction(3, 10), Fraction(1, 7)], 0)
                               + WeightFn.affine_power(AffineFunction([1, 0], 2), 1), 2)
    basis = [AffineFunction.constant(2, 1), AffineFunction.coordinate(2, 0)]
    step = quadrature.EVAL_CHUNK // len(_gauss_pair(2)[0])
    made = []

    def counted():
        made.append(_CountedWorkspace())
        return made[-1]

    monkeypatch.setattr(toricmetrics, "Workspace", counted)
    counts = {}
    for resolution in (30, 400):
        futaki_numeric(p, u, v, w, basis, GridSpec(resolution))
        counts[-(-len(_refined(p, resolution)) // step)] = made.pop().allocations
    assert not made
    assert list(counts) == [1, 20] and counts[1] == counts[20] > 0, counts


@pytest.mark.parametrize("zeta", [[1, 0, 0], [1]])
def test_futaki_boundary_rejects_a_direction_of_another_dimension(p2, zeta):
    # a 3-D ell once gave 0.0 and a 1-D ell a KeyError
    v, w = soliton_weight_pair(WeightFn.constant(2, 1), 2)
    for ell in (AffineFunction(zeta, 0), [AffineFunction([1, 0], 0), AffineFunction(zeta, 0)]):
        with pytest.raises(ValueError, match=f"direction has dimension {len(zeta)}"):
            futaki_boundary(p2, v, w, ell)
