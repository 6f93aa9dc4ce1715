import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torickstab.errors import DegenerateSimplex, MaxDepthExceeded, SingularOnDomain
from torickstab.exactlinalg import det
from torickstab.polynomial import Polynomial, integrate_monomial_std_simplex
from torickstab.polytope import AffineFunction, DelzantPolytope, HalfSpace, Simplex
from torickstab.quadrature import (
    _adaptive,
    _bisect_all,
    exp_affine_simplex_exact,
    exp_divided_difference,
    gm_rule,
    integrate_boundary,
    integrate_monomial_simplex,
    integrate_poly,
    integrate_poly_simplex,
    integrate_weighted,
)
from torickstab.weights import WeightFn

from conftest import make_polytope

STD2 = Simplex(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                (Fraction(0), Fraction(1))))
UNIT1 = Simplex(((Fraction(0),), (Fraction(1),)))


def test_monomial_simplex_values():
    assert integrate_monomial_simplex(STD2, (0, 0)) == Fraction(1, 2)
    assert integrate_monomial_simplex(STD2, (1, 1)) == Fraction(1, 24)
    assert integrate_monomial_simplex(UNIT1, (1,)) == Fraction(1, 2)


def test_dirichlet_formula_matches_direct():
    # factorial formula vs an independent iterated-integral value:
    # int over the standard 2-simplex of x^2 y = 2!/(2+3)! * ... = 1/60
    assert integrate_monomial_std_simplex((2, 1)) == Fraction(
        math.factorial(2) * math.factorial(1), math.factorial(2 + 3))


def test_integrate_poly_examples(interval, p2):
    assert integrate_poly(interval, Polynomial.linear([1])) == 0
    assert integrate_poly(interval, Polynomial.linear([1], 2)) == 4
    assert integrate_poly(p2, Polynomial.constant(2, 1)) == Fraction(9, 2)


def test_gm_rule_exactness():
    # the embedded pair must integrate all monomials up to its stated degrees
    for dim in (1, 2):
        for order, degree in ((3, 7), (4, 9)):
            pts, wts = gm_rule(dim, order)
            simplex = STD2 if dim == 2 else UNIT1
            verts = np.array(simplex.float_vertices())
            x = pts @ verts
            for total in range(degree + 1):
                for a0 in range(total + 1):
                    alpha = (a0, total - a0)[:dim] if dim == 2 else (total,)
                    if sum(alpha) != total:
                        continue
                    approx = math.factorial(dim) * float(simplex.volume()) * float(
                        wts @ np.prod(x ** np.array(alpha), axis=1))
                    exact = float(integrate_monomial_std_simplex(alpha))
                    assert approx == pytest.approx(exact, abs=1e-14)


def test_integrate_weighted_exp(interval):
    res = integrate_weighted(interval, WeightFn.exp_affine([1], 0))
    assert res.value == pytest.approx(2 * math.sinh(1.0), abs=1e-12)
    assert res.error_estimate <= 1e-11


def test_integrate_weighted_negative_power(interval):
    res = integrate_weighted(
        interval, WeightFn.affine_power(AffineFunction([1], 2), -3))
    assert res.value == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_singular_on_domain(interval):
    with pytest.raises(SingularOnDomain):
        integrate_weighted(
            interval, WeightFn.affine_power(AffineFunction([2], 2), -3))


def test_polynomial_fast_path_is_exact(p2):
    poly = Polynomial(2, {(3, 2): Fraction(5, 7), (0, 0): 1})
    res = integrate_weighted(p2, WeightFn.from_polynomial(poly))
    assert res.exact == integrate_poly(p2, poly)
    assert res.error_estimate == 0.0


def test_adaptive_matches_exact_on_random_polynomials(interval, p2, f1):
    # the cubature machinery itself (no polynomial shortcut) against the
    # exact rational integrals, 100 seeded cases
    rng = np.random.default_rng(20240501)
    domains = [interval, p2, f1]
    for case in range(100):
        p = domains[case % 3]
        deg = int(rng.integers(0, 7))
        coeffs = {}
        for _ in range(4):
            alpha = tuple(int(a) for a in rng.integers(0, deg + 1, p.dim))
            if sum(alpha) <= 6:
                coeffs[alpha] = Fraction(int(rng.integers(-9, 10)), 7)
        poly = Polynomial(p.dim, coeffs)
        exact = float(integrate_poly(p, poly))
        res = _adaptive(p.triangulate(), poly.eval, 1e-12, 1e-14, 40)
        assert res.value == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_boundary_masses(interval, square, p2):
    assert integrate_boundary(interval, WeightFn.constant(1, 1)).exact == 2
    assert integrate_boundary(square, WeightFn.constant(2, 1)).exact == 8
    assert integrate_boundary(p2, WeightFn.constant(2, 1)).exact == 9


def test_boundary_nonpolynomial(p2):
    # edges of the P^2 triangle against hand antiderivatives:
    # x1 = -1 edge contributes 3, the two others log(4) each
    w = WeightFn.affine_power(AffineFunction([1, 0], 2), -1)
    res = integrate_boundary(p2, w)
    assert res.value == pytest.approx(3 + 2 * math.log(4.0), abs=1e-12)


def test_boundary_point_masses_nonpolynomial(interval):
    res = integrate_boundary(interval, WeightFn.exp_affine([1], 0))
    assert res.value == pytest.approx(math.e + math.exp(-1), abs=1e-14)


def test_exp_affine_simplex_exact():
    assert exp_affine_simplex_exact(STD2, (0, 0)) == pytest.approx(0.5, abs=1e-15)
    interval_simplex = Simplex(((Fraction(-1),), (Fraction(1),)))
    assert exp_affine_simplex_exact(interval_simplex, (1,)) == pytest.approx(
        2 * math.sinh(1.0), abs=1e-13)
    assert exp_affine_simplex_exact(STD2, (1, 0)) == pytest.approx(
        math.e - 2, abs=1e-13)


def test_exp_divided_difference_confluent():
    # the series branch must agree with the analytic limit exp(z)/r! as the
    # nodes coalesce, and with quadrature near confluence
    val = exp_divided_difference([0.5, 0.5 + 1e-9, 0.5 + 2e-9])
    assert val == pytest.approx(math.exp(0.5 + 1e-9) / 2.0, rel=1e-12)


def test_exp_affine_matches_quadrature_near_confluence():
    tri = make_polytope(((1, 0), 0), ((0, 1), 0), ((-1, -1), 1))
    xi = (1e-5, 5e-6)
    closed = exp_affine_simplex_exact(tri.triangulate()[0], xi)
    adaptive = integrate_weighted(tri, WeightFn.exp_affine(list(xi), 0)).value
    assert closed == pytest.approx(adaptive, rel=1e-11)


def test_additivity_over_refinement(interval):
    w = WeightFn.exp_affine([Fraction(1, 2)], 0)
    whole = integrate_weighted(interval, w).value
    left = make_polytope(((1,), 1), ((-1,), 0))
    right = make_polytope(((1,), 0), ((-1,), 1))
    parts = integrate_weighted(left, w).value + integrate_weighted(right, w).value
    assert whole == pytest.approx(parts, rel=1e-12)


def test_translation_covariance(p2):
    poly = Polynomial(2, {(2, 1): Fraction(3), (1, 0): -2})
    t = (Fraction(5), Fraction(-1, 3))
    moved = p2.translated(t)
    shifted = poly.compose_affine(
        [[1, 0], [0, 1]], t)  # f(x + t) on the original polytope
    assert integrate_poly(moved, poly) == integrate_poly(p2, shifted)


def test_monte_carlo_consistency(p2):
    rng = np.random.default_rng(99)
    w = WeightFn.exp_affine([Fraction(1, 2), Fraction(1, 5)], 0)
    n = 400000
    pts = rng.random((n, 2)) * 3.0 - 1.0
    inside = pts.sum(axis=1) <= 1.0
    vals = np.zeros(n)
    vals[inside] = w.eval(pts[inside])
    mc = vals.mean() * 9.0
    se = vals.std(ddof=1) / math.sqrt(n) * 9.0
    res = integrate_weighted(p2, w)
    assert abs(res.value - mc) <= 4 * se


def test_max_depth_exceeded_carries_result(interval):
    with pytest.raises(MaxDepthExceeded) as info:
        integrate_weighted(interval, WeightFn.exp_affine([1], 0),
                           tol=1e-16, abs_floor=1e-30, max_depth=2)
    res = info.value.result
    assert res is not None and not res.converged
    assert res.value == pytest.approx(2 * math.sinh(1.0), rel=1e-6)


def test_simplex_integral_vs_poly_path():
    poly = Polynomial(2, {(2, 2): Fraction(1), (1, 0): Fraction(-3, 4)})
    direct = integrate_poly_simplex(STD2, poly)
    total = Fraction(0)
    for alpha, c in poly.coeffs.items():
        total += c * integrate_monomial_simplex(STD2, alpha)
    assert direct == total


def test_odd_integrand_stops_relative_to_abs_mass(square):
    # x1 * e^{x2} is odd on [-1, 1]^2, so its integral is 0 and a stop rule
    # relative to |value| could only be met by the absolute floor; relative to
    # int |f| = 2 sinh(1) it is met after a few rounds
    f = WeightFn.from_polynomial(Polynomial.linear([1, 0])) * WeightFn.exp_affine([0, 1], 0)
    res = integrate_weighted(square, f)
    assert res.converged
    assert abs(res.value) <= 1e-14
    assert res.error_estimate <= 1e-12 * 2 * math.sinh(1.0)
    assert res.subdivisions <= 64


# the segment and the five canonical Fano polygons
POLYGONS = [
    make_polytope(((1,), 1), ((-1,), 1)),
    make_polytope(((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)),
    make_polytope(((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)),
    make_polytope(((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((0, -1), 1)),
    make_polytope(((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((0, -1), 1), ((-1, 0), 1)),
    make_polytope(((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((0, -1), 1), ((-1, 0), 1),
                  ((1, 1), 1)),
]


@st.composite
def _polygon_and_poly(draw):
    p = draw(st.sampled_from(POLYGONS))
    degree = draw(st.integers(8, 12))
    # one term of full degree, beyond the degree 9 of the higher rule, forces refinement
    top = draw(st.lists(st.integers(0, degree), min_size=p.dim - 1, max_size=p.dim - 1))
    cuts = sorted(top)
    alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
    coeffs = {alpha: Fraction(draw(st.sampled_from([-9, -5, -1, 1, 4, 9])), 7)}
    for _ in range(draw(st.integers(0, 4))):
        beta = tuple(draw(st.lists(st.integers(0, degree), min_size=p.dim, max_size=p.dim)))
        if sum(beta) <= degree:
            coeffs[beta] = Fraction(draw(st.integers(-9, 9)), 7)
    return p, Polynomial(p.dim, coeffs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_polygon_and_poly())
def test_adaptive_matches_exact_on_high_degree_polynomials(case):
    p, poly = case
    exact = float(integrate_poly(p, poly))
    res = _adaptive(p.triangulate(), poly.eval, 1e-12, 1e-14, 40)
    assert res.value == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_bisect_all_halves_the_longest_edge():
    rng = np.random.default_rng(7)
    for k in (2, 3, 4):
        verts = rng.random((50, k, k - 1))
        kids = _bisect_all(verts)
        rows = np.arange(len(verts))
        # each child moves exactly one vertex, to the midpoint of the longest edge
        changed_a = (kids[0::2] != verts).any(axis=2)
        changed_b = (kids[1::2] != verts).any(axis=2)
        assert (changed_a.sum(axis=1) == 1).all() and (changed_b.sum(axis=1) == 1).all()
        moved_a, moved_b = changed_a.argmax(axis=1), changed_b.argmax(axis=1)
        a, b = verts[rows, moved_a], verts[rows, moved_b]
        assert np.allclose(kids[2 * rows, moved_a], 0.5 * (a + b), rtol=0, atol=1e-15)
        assert np.allclose(kids[2 * rows + 1, moved_b], 0.5 * (a + b), rtol=0, atol=1e-15)
        edges = np.linalg.norm(verts[:, :, None] - verts[:, None, :], axis=3)
        assert np.array_equal(np.linalg.norm(a - b, axis=1), edges.max(axis=(1, 2)))


# -- moment tables against compose-then-Dirichlet ------------------------------------


def _oracle_poly_simplex(simplex, poly):
    """Pull the polynomial back to the standard simplex and apply Dirichlet's formula."""
    m = simplex.edge_matrix()
    g = poly.compose_affine(m, simplex.vertices[0])
    return abs(det(m)) * sum((c * integrate_monomial_std_simplex(beta)
                         for beta, c in g.coeffs.items()), Fraction(0))


def _oracle_poly(polytope, poly):
    return sum((_oracle_poly_simplex(s, poly) for s in polytope.triangulate()), Fraction(0))


CANONICAL = POLYGONS + [
    make_polytope(((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, -1), 1)),
]


def _sheared(p, k):
    """Image of p under the unimodular shear x_0 -> x_0 + k x_1."""
    return DelzantPolytope([
        HalfSpace((h.normal[0], h.normal[1] - k * h.normal[0]) + h.normal[2:], h.offset)
        for h in p.halfspaces])


@st.composite
def _polytope_and_poly(draw):
    p = draw(st.sampled_from(CANONICAL))
    if p.dim > 1:
        p = _sheared(p, draw(st.integers(-2, 2)))
    q = draw(st.sampled_from([1, 3, 11]))
    p = p.translated([Fraction(draw(st.integers(-12, 12)), q) for _ in range(p.dim)])
    degree = draw(st.integers(0, 8))
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=p.dim - 1,
                                max_size=p.dim - 1)))
    top = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
    coeffs = {top: Fraction(draw(st.sampled_from([-9, -5, -1, 1, 4, 9])), 7)}
    for _ in range(draw(st.integers(0, 4))):
        beta = tuple(draw(st.lists(st.integers(0, degree), min_size=p.dim, max_size=p.dim)))
        if sum(beta) <= degree:
            coeffs[beta] = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 7])))
    return p, Polynomial(p.dim, coeffs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_polytope_and_poly())
def test_integrate_poly_matches_compose_dirichlet_oracle(case):
    p, poly = case
    assert integrate_poly(p, poly) == _oracle_poly(p, poly)
    s = p.triangulate()[-1]
    flipped = Simplex((s.vertices[1], s.vertices[0]) + s.vertices[2:])  # negative orientation
    assert integrate_poly_simplex(flipped, poly) == _oracle_poly_simplex(s, poly)


def test_moment_table_grows_with_degree(f1):
    p = f1.translated([Fraction(2, 11), Fraction(-5, 3)])
    low = Polynomial(2, {(1, 1): Fraction(3, 7), (0, 0): 2})
    high = Polynomial(2, {(5, 2): Fraction(-1, 2), (0, 6): 1, (1, 0): Fraction(4, 9)})
    for poly in (low, high, low, high.power(2)):
        assert integrate_poly(p, poly) == _oracle_poly(p, poly)
    assert max(sum(a) for a in p.moments(0)) == 14


def test_degenerate_simplex_raises():
    flat = Simplex(((0, 0), (1, 1), (Fraction(5, 2), Fraction(5, 2))))
    for poly in (Polynomial.constant(2, 1), Polynomial(2, {(3, 1): 1}), Polynomial(2, {})):
        with pytest.raises(DegenerateSimplex):
            integrate_poly_simplex(flat, poly)
    with pytest.raises(DegenerateSimplex):
        integrate_monomial_simplex(flat, (2, 0))
