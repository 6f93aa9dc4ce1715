import decimal
import functools
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torickstab import invariants, quadrature
from torickstab.errors import (DegenerateSimplex, MaxDepthExceeded, NonFiniteIntegral,
                               SingularOnDomain)
from torickstab.exactlinalg import det
from torickstab.polynomial import Polynomial, compositions, integrate_monomial_std_simplex
from torickstab.polytope import AffineFunction, DelzantPolytope, HalfSpace, Simplex
from torickstab.quadrature import (
    ABS_FLOOR,
    DEFAULT_TOL,
    GM_ORDER_HIGH,
    GM_ORDER_LOW,
    _adaptive,
    _bisect_all,
    _gauss_pair,
    _log_dd,
    _pole_dd,
    exp_affine_simplex_exact,
    exp_divided_difference,
    gm_rule,
    integrate_boundary,
    integrate_monomial_simplex,
    integrate_poly,
    integrate_poly_simplex,
    integrate_products,
    integrate_weighted,
)
from torickstab.weights import WeightFn

from conftest import CANONICAL_NORMALS, make_polytope, one_row

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
    # the embedded pair must integrate all monomials up to its stated degrees,
    # in every dimension `_rule_batch` runs in (P^3 cubature and futaki_numeric on P^3)
    for dim in (1, 2, 3):
        for order, degree in ((3, 7), (4, 9)):
            pts, wts = gm_rule(dim, order)
            x = pts[:, 1:]  # the standard simplex has vertices 0, e_1, ..., e_dim
            for alpha in itertools.product(range(degree + 1), repeat=dim):
                if sum(alpha) > degree:
                    continue
                approx = float(wts @ np.prod(x ** np.array(alpha), axis=1))
                exact = float(integrate_monomial_std_simplex(alpha))
                assert approx == pytest.approx(exact, abs=1e-14), (dim, order, alpha)


def _gm_points(dim, order):
    """The order-s Grundmann--Moeller points (2k + 1) / (2s + 1 + dim - 2i), as Fractions."""
    return {tuple(Fraction(2 * kj + 1, 2 * order + 1 + dim - 2 * i) for kj in k)
            for i in range(order + 1) for k in compositions(order - i, dim + 1)}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_degree7_points_are_degree9_points(dim):
    low, high = _gm_points(dim, GM_ORDER_LOW), _gm_points(dim, GM_ORDER_HIGH)
    assert low <= high
    assert {tuple(map(float, p)) for p in high} == set(map(tuple, gm_rule(dim, GM_ORDER_HIGH)[0]))


def _collapsed_rule(dim, order):
    """The collapsed Gauss--Legendre rule, node by node: lambda_(k-1) = t_k prod_{j<k} (1 - t_j)
    for k = 1..dim, lambda_dim = prod_j (1 - t_j), weight prod_j w_j (1 - t_j)^(dim - j)."""
    t, w = np.polynomial.legendre.leggauss(order)
    points, weights = [], []
    for index in itertools.product(range(order), repeat=dim):
        point, rest, weight = [], 1.0, 1.0
        for j, i in enumerate(index):
            tj = (t[i] + 1) / 2
            point.append(rest * tj)
            weight *= w[i] / 2 * (1 - tj) ** (dim - 1 - j)
            rest *= 1 - tj
        points.append(point + [rest])
        weights.append(weight)
    return np.array(points), np.array(weights)


def _pair_rules(dim):
    """The high and the low rule of _gauss_pair(dim), each on its own nodes."""
    nodes, weights = _gauss_pair(dim)
    high = weights[:, 0] != 0
    return (nodes[high], weights[high, 0]), (nodes[~high], weights[~high, 0] - weights[~high, 1])


@pytest.mark.parametrize("dim, distinct", [(1, 14), (2, 100), (3, 728)])
def test_gauss_pair_rebuilds_each_rule_exactly(dim, distinct):
    # column 0 is the order-8 rule and column 0 - column 1 the order-6 rule, on disjoint nodes
    nodes, weights = _gauss_pair(dim)
    assert nodes.shape == (distinct, dim + 1) and weights.shape == (distinct, 2)
    assert len(np.unique(nodes, axis=0)) == distinct
    orders = (quadrature.GAUSS_ORDER_HIGH, quadrature.GAUSS_ORDER_LOW)
    for (pts, wts), order in zip(_pair_rules(dim), orders):
        ref_pts, ref_wts = _collapsed_rule(dim, order)
        assert len(pts) == order ** dim
        assert np.allclose(pts, ref_pts, rtol=0, atol=4 * np.finfo(float).eps)
        assert np.allclose(wts, ref_wts, rtol=4 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gauss_pair_rules_are_exact_to_degree_2n_minus_r(dim):
    # on the standard simplex each rule integrates every lambda^beta of degree <= 2n - dim to
    # beta! / (|beta| + dim)!, with positive weights that sum to 1 / dim!, read-only in the pair
    assert not any(array.flags.writeable for array in _gauss_pair(dim))
    orders = (quadrature.GAUSS_ORDER_HIGH, quadrature.GAUSS_ORDER_LOW)
    for (pts, wts), order in zip(_pair_rules(dim), orders):
        assert wts.min() > 0
        assert wts.sum() == pytest.approx(1 / math.factorial(dim), rel=1e-15)
        degree = 2 * order - dim
        for beta in itertools.product(range(degree + 1), repeat=dim + 1):
            if sum(beta) > degree:
                continue
            exact = Fraction(math.prod(map(math.factorial, beta)),
                             math.factorial(sum(beta) + dim))
            approx = wts @ np.prod(pts ** np.array(beta), axis=1)
            assert approx == pytest.approx(float(exact), rel=1e-13), (dim, order, beta)


def test_cached_rules_are_read_only():
    # gm_rule and _gauss_pair hand every caller the same arrays: an edit in place
    # would corrupt every later cubature
    nodes, weights = _gauss_pair(2)
    pts, wts = gm_rule(2, GM_ORDER_HIGH)
    for array in (pts, wts, nodes, weights, weights[:, 1]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    for array in (wts, weights):
        with pytest.raises(ValueError, match="read-only"):
            array *= 2
    assert gm_rule(2, GM_ORDER_HIGH)[1].sum() == pytest.approx(0.5, abs=1e-12)
    assert _gauss_pair(2)[1][:, 0].sum() == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("dim, distinct", [(1, 14), (2, 100), (3, 728)])
def test_rule_batch_evaluates_each_distinct_node_once(dim, distinct):
    # enough simplices that the nodes take more than one call of EVAL_CHUNK at most
    rng = np.random.default_rng(dim)
    verts = rng.random((quadrature.EVAL_CHUNK // distinct + 5, dim + 1, dim))
    calls = []

    def evaluate(x):
        calls.append(len(x))
        return 1.0 + x.sum(axis=1)

    quadrature._rule_batch(verts, one_row(evaluate))
    assert sum(calls) == len(verts) * distinct
    assert len(calls) == 2 and max(calls) <= quadrature.EVAL_CHUNK


def test_rule_batch_reads_an_evaluate_output_as_a_view():
    # one chunk of 81 P^2 simplices (8,100 nodes): the (K, n) output of evaluate is
    # reduced through a view, so the peak is the (n, 2) node array alone (0.13 MB),
    # not a copy of the 0.39 MB output
    nodes = len(_gauss_pair(2)[0])
    count = quadrature.EVAL_CHUNK // nodes
    assert (nodes, count) == (100, 81)
    verts = np.tile(np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]]), (count, 1, 1))
    out = np.ones((6, count * nodes))
    quadrature._rule_batch(verts, lambda x: out)  # warm: no allocation is a first call's
    tracemalloc.start()
    try:
        quadrature._rule_batch(verts, lambda x: out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    node_array = count * nodes * 2 * 8
    assert node_array <= peak < node_array + out.nbytes // 4, (peak, node_array, out.nbytes)


def _two_rule_batch(verts, evaluate):
    """Reference for `_rule_batch`: the high and the low rule of the pair each
    go through `evaluate` on every simplex, in two calls, and each simplex's
    products f_i w_i are summed exactly rounded (math.fsum). Returns value,
    error and mass, and the scale of their rounding: both rules on |f|."""
    dim = verts.shape[2]
    (_, wts_hi), (_, wts_lo) = _pair_rules(dim)
    x, high = _gauss_pair(dim)[0] @ verts, _gauss_pair(dim)[1][:, 0] != 0  # the pair's points
    f_hi, f_lo = (evaluate(x[:, rule].reshape(-1, dim)).reshape(len(verts), -1)
                  for rule in (high, ~high))
    scale = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1]))
    fsum = lambda terms: np.array([math.fsum(row) for row in terms])  # noqa: E731
    value = scale * fsum(f_hi * wts_hi)
    err = np.abs(scale * fsum(np.hstack([f_hi * wts_hi, -f_lo * wts_lo])))
    rounding = scale * (np.abs(f_hi) @ wts_hi + np.abs(f_lo) @ wts_lo)
    return value, err, scale * fsum(np.abs(f_hi) * wts_hi), rounding


_INTEGRANDS = {
    # on [-1, 1]^dim each affine form below is at least 1 / 2
    "polynomial": lambda x, a: (1 + x @ a) ** 5 - 3 * x[:, 0] ** 2 * x[:, -1] ** 3,
    "exp_times_pole": lambda x, a: np.exp(x @ a) / (2 + x @ a / np.abs(a).sum() * 1.5),
    "fractional_power": lambda x, a: (2 + x @ a / np.abs(a).sum() * 1.5) ** 1.5,
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.sampled_from(sorted(_INTEGRANDS)), st.data())
def test_shared_nodes_match_the_two_rule_oracle(dim, kind, data):
    coord = st.floats(-1, 1, allow_nan=False)
    simplices = data.draw(st.integers(1, 4))
    verts = np.array(data.draw(st.lists(coord, min_size=simplices * (dim + 1) * dim,
                                        max_size=simplices * (dim + 1) * dim)))
    verts = verts.reshape(simplices, dim + 1, dim)
    a = np.array(data.draw(st.lists(st.floats(0.1, 1), min_size=dim, max_size=dim)))
    integrand = functools.partial(_INTEGRANDS[kind], a=a)
    # the nodes are the same points; only the rounding of the sums may differ
    *oracle, rounding = _two_rule_batch(verts, integrand)
    for (new,), old in zip(quadrature._rule_batch(verts, one_row(integrand)), oracle):
        assert np.all(np.abs(new - old) <= 4 * np.finfo(float).eps * rounding), (new, old)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(2, 4), st.data())
def test_vector_rule_matches_the_scalar_oracle_column_by_column(dim, k, data):
    # an evaluate of (K, n) values gives (K, S) rows whose row j is the one-row
    # batch of component j, within the two-rule oracle's bound
    coord = st.floats(-1, 1, allow_nan=False)
    simplices = data.draw(st.integers(1, 4))
    verts = np.array(data.draw(st.lists(coord, min_size=simplices * (dim + 1) * dim,
                                        max_size=simplices * (dim + 1) * dim)))
    verts = verts.reshape(simplices, dim + 1, dim)
    kinds = data.draw(st.lists(st.sampled_from(sorted(_INTEGRANDS)), min_size=k, max_size=k))
    a = np.array(data.draw(st.lists(st.floats(0.1, 1), min_size=dim, max_size=dim)))
    components = [functools.partial(_INTEGRANDS[kind], a=a * (j + 1) / k)
                  for j, kind in enumerate(kinds)]
    batch = quadrature._rule_batch(verts, lambda x: np.stack([g(x) for g in components]))
    assert all(out.shape == (k, simplices) and out.flags.c_contiguous for out in batch)
    for j, g in enumerate(components):
        *oracle, rounding = _two_rule_batch(verts, g)
        for new, old in zip(batch, oracle):
            assert np.all(np.abs(new[j] - old) <= 4 * np.finfo(float).eps * rounding)


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
        (res,) = _adaptive(p.triangulate(), one_row(poly.eval), 1e-12, 1e-14)
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


_D = lambda f: decimal.Decimal(f.numerator) / f.denominator  # noqa: E731
_POINT_WEIGHTS = {  # a weight and its terms as functions of a 40-digit Decimal x
    "exp": (WeightFn.exp_affine([Fraction(1, 3)], 0), [lambda x: (x / 3).exp()]),
    "fractional_power": (WeightFn.affine_power(AffineFunction([1], 2), Fraction(1, 2)),
                         [lambda x: (x + 2).sqrt()]),
    "pole": (WeightFn.affine_power(AffineFunction([Fraction(1, 5)], 2), -3, Fraction(3, 7)),
             [lambda x: 3 / (7 * (x / 5 + 2) ** 3)]),
    "exp_times_polynomial": (
        WeightFn.exp_affine([Fraction(1, 3)], Fraction(-1, 7)) * WeightFn.from_polynomial(
            Polynomial(1, {(2,): 1, (1,): Fraction(-1, 3), (0,): Fraction(5, 11)})),
        [lambda x: (x / 3 - _D(Fraction(1, 7))).exp() * (x * x - x / 3 + _D(Fraction(5, 11)))]),
    "sum": (WeightFn.exp_affine([Fraction(1, 3)], 0)
            + WeightFn.affine_power(AffineFunction([1], 2), Fraction(-5, 2), 2),
            [lambda x: (x / 3).exp(), lambda x: 2 / (x + 2) ** 2 / (x + 2).sqrt()]),
}


@pytest.mark.parametrize("kind", sorted(_POINT_WEIGHTS))
@pytest.mark.parametrize("ends", [(-1, 1), (Fraction(-2, 3), Fraction(4, 3))])
def test_point_facet_values_carry_a_rounding_bound(kind, ends):
    # a point facet's value is w.eval at its point; its error bounds the distance to a
    # 40-digit reference and stays within 100 ulps of the terms' sizes
    w, terms = _POINT_WEIGHTS[kind]
    res = integrate_boundary(make_polytope(((1,), -ends[0]), ((-1,), ends[1])), w)
    with decimal.localcontext(decimal.Context(prec=40)):
        values = [[term(_D(Fraction(x))) for term in terms] for x in ends]
        ref = sum(sum(row) for row in values)
        size = sum(abs(v) for row in values for v in row)
        assert abs(decimal.Decimal(res.value) - ref) <= decimal.Decimal(res.error_estimate)
        assert res.error_estimate <= 100 * np.finfo(float).eps * float(size)


def test_exp_affine_simplex_exact():
    assert exp_affine_simplex_exact(STD2, (0, 0)) == pytest.approx(0.5, abs=1e-15)
    interval_simplex = Simplex(((Fraction(-1),), (Fraction(1),)))
    assert exp_affine_simplex_exact(interval_simplex, (1,)) == pytest.approx(
        2 * math.sinh(1.0), abs=1e-13)
    assert exp_affine_simplex_exact(STD2, (1, 0)) == pytest.approx(
        math.e - 2, abs=1e-13)


def test_exp_divided_difference_confluent():
    # the divided difference must agree with the analytic limit exp(z)/r! as
    # the nodes coalesce
    val = exp_divided_difference([0.5, 0.5 + 1e-9, 0.5 + 2e-9])
    assert val == pytest.approx(math.exp(0.5 + 1e-9) / 2.0, rel=1e-12)


def test_exp_affine_matches_quadrature_near_confluence():
    tri = make_polytope(((1, 0), 0), ((0, 1), 0), ((-1, -1), 1))
    xi = (1e-5, 5e-6)
    closed = exp_affine_simplex_exact(tri.triangulate()[0], xi)
    # integrate_weighted takes this integrand in closed form: compare with the cubature
    (adaptive,) = _adaptive(tri.triangulate(), one_row(WeightFn.exp_affine(list(xi), 0).eval),
                            DEFAULT_TOL, ABS_FLOOR)
    adaptive = adaptive.value
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


def test_max_depth_exceeded_carries_result(interval, monkeypatch):
    # a fractional power stays on the adaptive path; int_{-1}^{1} (x+2)^(1/2) dx = (2/3)(3^(3/2) - 1)
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
    with pytest.raises(MaxDepthExceeded) as info:
        integrate_weighted(interval, WeightFn.affine_power(AffineFunction([1], 2), Fraction(1, 2)),
                           tol=1e-16, abs_floor=1e-30)
    res = info.value.result
    assert res is not None and not res.converged
    assert res.value == pytest.approx(2 / 3 * (3 ** 1.5 - 1), rel=1e-6)


@pytest.mark.parametrize("tol, abs_floor", [(math.nan, 1e-14), (math.inf, 1e-14), (-1e-12, 1e-14),
                                            (1e-12, math.nan), (1e-12, math.inf), (1e-12, -1.0)])
def test_adaptive_rejects_invalid_tolerances(p2, tol, abs_floor):
    # a sum with a fractional power takes the cubature; a NaN tol once stopped it
    # before any refinement, with an error estimate of 4.3e-9 against 2.8e-12 at the default
    w = WeightFn.exp_affine([Fraction(1, 3), 0], 0) + WeightFn.affine_power(
        AffineFunction([1, 0], 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        integrate_weighted(p2, w, tol=tol, abs_floor=abs_floor)


_CUBATURE = WeightFn.exp_affine([Fraction(1, 3), 0], 0) * WeightFn.affine_power(
    AffineFunction([1, 0], 2), Fraction(1, 2))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1])
@pytest.mark.parametrize("integrand", [WeightFn.constant(2, 1), WeightFn.exp_affine(
    [Fraction(1, 3), 0], 0), _CUBATURE], ids=["polynomial", "closed form", "cubature"])
@pytest.mark.parametrize("integrate", [
    integrate_weighted, integrate_boundary,
    lambda p, w, tol: integrate_products(p, w, [(AffineFunction([1, 0], 0),)], tol=tol),
    lambda p, w, tol: invariants.futaki_boundary(p, w, w, AffineFunction([1, 0], 0), tol=tol),
    lambda p, w, tol: integrate_products(p, w, [(AffineFunction([1, 0], 0),)], abs_floor=tol),
    lambda p, w, tol: integrate_products(p, w, [(AffineFunction([1, 0], 0),)], boundary=True,
                                         abs_floor=tol)],
    ids=["weighted", "boundary", "products", "futaki_boundary", "products abs_floor",
         "boundary products abs_floor"])
def test_every_path_rejects_an_invalid_tol(p2, monkeypatch, integrate, integrand, tol):
    # the exact path and the closed form once ignored tol: on P^2 a NaN tol gave exp(x1/3)
    # the value 4.632042779163877 and the Futaki invariant of (v, w) = (1, 6) in x1 the value 0
    def no_path(*args):
        raise AssertionError("an integration path ran")

    for path in ("_dot_shifted", "_closed_form", "_rule_batch"):
        monkeypatch.setattr(quadrature, path, no_path)
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        integrate(p2, integrand, tol=tol)


_EXP_800 = WeightFn.exp_affine([800, 0], 0)  # exp(800 x1) overflows at x1 = 1 on P^2


@pytest.mark.parametrize("integrand, path", [
    (_EXP_800, "closed form"),
    (_EXP_800 * WeightFn.affine_power(AffineFunction([1, 0], 2), -1), "cubature"),
    (_EXP_800 + WeightFn.constant(2, 1), "sum by linearity")])
def test_a_non_finite_integral_raises_with_its_result(p2, integrand, path):
    # both paths once returned value nan, error nan and converged=True
    with np.errstate(all="ignore"), pytest.raises(NonFiniteIntegral) as info:
        integrate_weighted(p2, integrand)
    res = info.value.result
    assert res is not None and not (math.isfinite(res.value) and math.isfinite(res.error_estimate))


def test_a_non_finite_boundary_integral_raises(p2):
    with np.errstate(all="ignore"), pytest.raises(NonFiniteIntegral):
        integrate_boundary(p2, _EXP_800)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteIntegral):
        integrate_products(p2, _EXP_800, [(AffineFunction([1, 0], 0),)], boundary=True)


@pytest.mark.parametrize("zeta", [[1, 0, 0], [1]])
@pytest.mark.parametrize("boundary", [False, True])
def test_a_direction_of_another_dimension_is_rejected(p2, zeta, boundary):
    # a 3-D direction on P^2 once integrated to 0.0 and a 1-D one raised KeyError
    ell = AffineFunction(zeta, 0)
    for integrand in (WeightFn.constant(2, 1), _EXP_800):  # the exact path and the others
        with pytest.raises(ValueError, match=f"direction has dimension {len(zeta)}, the polytope 2"):
            integrate_products(p2, integrand, [(ell,)], boundary=boundary)


def test_exp_on_a_degenerate_simplex_is_rejected():
    flat = Simplex(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)),
                    (Fraction(2), Fraction(2))))
    with pytest.raises(DegenerateSimplex, match="^simplex has zero volume$"):
        exp_affine_simplex_exact(flat, [1, 0])


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
    (res,) = _adaptive(p.triangulate(), one_row(poly.eval), 1e-12, 1e-14)
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


# -- closed-form exp and pole integrals ----------------------------------------------------


def test_exp_divided_difference_equally_spaced():
    # exp[a, a + h, ..., a + n h] = e^a (expm1(h) / h)^n / n!, also for spacings just
    # above 1e-4, where a Newton table loses about half the digits
    for a in (0.0, -2.5, 1.5):
        for h in (1e-7, 1.2e-4, 2e-4, 0.05, 0.7, 2.0):
            for n in range(1, 7):
                nodes = [a + k * h for k in range(n + 1)]
                exact = math.exp(a) * (math.expm1(h) / h) ** n / math.factorial(n)
                assert exp_divided_difference(nodes) == pytest.approx(exact, rel=1e-13)
                assert exp_divided_difference(nodes[::-1]) == pytest.approx(exact, rel=1e-13)


def _dd(u, sigma):
    """G[u_0, ..., u_N] for G^(N)(t) = t^-sigma from the pole or the log kernel."""
    u = np.array([u], dtype=float)
    return (_pole_dd if sigma >= u.shape[1] else _log_dd)(u, sigma)[0][0]


def _log_dd_decimal(nodes, sigma):
    """sum_i G(u_i) / prod_(j != i) (u_i - u_j) at distinct rational nodes, 50 digits, with
    G(t) = (-1)^(sigma - 1) t^q log t / (q! (sigma - 1)!), q = N - sigma >= 0."""
    q = len(nodes) - 1 - sigma
    with decimal.localcontext(decimal.Context(prec=50)):
        u = [decimal.Decimal(x.numerator) / x.denominator for x in nodes]
        total = sum(ui ** q * ui.ln() / math.prod(ui - uj for uj in u if uj is not ui) for ui in u)
        return (-1) ** (sigma - 1) * total / (math.factorial(q) * math.factorial(sigma - 1))


_NODES = st.lists(st.integers(1, 40), min_size=2, max_size=7, unique=True).map(
    lambda ks: [Fraction(k, 8) for k in ks])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_NODES, st.data())
def test_log_dd_matches_the_decimal_oracle(nodes, data):
    sigma = data.draw(st.integers(1, len(nodes) - 1))
    g, rel = _log_dd(np.array([[float(x) for x in nodes]]), sigma)
    exact = _log_dd_decimal(nodes, sigma)
    assert abs(decimal.Decimal(g[0]) - exact) <= decimal.Decimal(rel) * exact
    assert g[0] == pytest.approx(float(exact), rel=1e-14)


_SPREAD_NODES = st.lists(st.sampled_from([Fraction(k, 8) for k in range(1, 41)]),
                         min_size=2, max_size=7)  # repeats allowed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SPREAD_NODES, st.data())
def test_log_dd_symmetric_and_homogeneous(nodes, data):
    sigma = data.draw(st.integers(1, len(nodes) - 1))
    u = [float(x) for x in nodes]
    g = _dd(u, sigma)
    assert _dd(data.draw(st.permutations(u)), sigma) == pytest.approx(g, rel=1e-14)
    lam = data.draw(st.sampled_from([1e-3, 0.3, 1.5, 7.0, 1e3]))
    assert _dd([lam * x for x in u], sigma) == pytest.approx(lam ** -sigma * g, rel=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_NODES, st.data())
def test_log_and_pole_kernels_satisfy_the_recurrences(nodes, data):
    # The two-point recurrence of the order-(N - 1) kernel for sigma is the order-N divided
    # difference of a function whose N-th derivative is -sigma t^-(sigma + 1): N - sigma is
    # kept, so each kernel meets only itself. The node derivative sum_i G[w, w_i] = G'[w] of
    # the order-N kernel is the order-(N - 1) kernel for the same sigma: at sigma = N, _log_dd
    # on the left and _pole_dd on the right.
    u = [float(x) for x in nodes]
    n = len(u) - 1
    sigma = data.draw(st.integers(1, n + 1))
    lower = (_dd(u[1:], sigma) - _dd(u[:-1], sigma)) / (u[-1] - u[0])
    assert lower == pytest.approx(-sigma * _dd(u, sigma + 1), rel=1e-11)
    w = u[:-1]
    sigma = data.draw(st.integers(1, n))
    assert sum(_dd(w + [x], sigma) for x in w) == pytest.approx(_dd(w, sigma), rel=1e-13)


def _canonical(name):
    return make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS[name]])


def _q_factor(kind, r, i=0, j=0):
    """1, an affine function, or an affine function times x_i x_j, as a weight."""
    if kind == "one":
        return WeightFn.constant(r, 1)
    aff = WeightFn.affine_power(
        AffineFunction([Fraction(1, 3)] + [Fraction(-1, 5)] * (r - 1), 2), 1)
    if kind == "affine":
        return aff
    return aff * WeightFn.from_polynomial(
        Polynomial(r, {tuple((k == i) + (k == j) for k in range(r)): 1}))


Q_DEGREE = {"one": 0, "affine": 1, "product": 3}


def _assert_matches_adaptive(p, w):
    closed = integrate_weighted(p, w)
    (ref,) = _adaptive(p.triangulate(), one_row(w.eval), 1e-14, ABS_FLOOR)
    assert closed.subdivisions == 0 and closed.converged
    assert closed.value == pytest.approx(ref.value, rel=1e-12, abs=1e-13)
    assert abs(closed.value - ref.value) <= closed.error_estimate + ref.error_estimate


CLOSED_POLYGONS = {name: _canonical(name) for name in ("P2", "F1", "Bl3P2")}


@st.composite
def _closed_form_case(draw):
    p = CLOSED_POLYGONS[draw(st.sampled_from(sorted(CLOSED_POLYGONS)))]
    xi = [Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([7, 11, 13])))
          for _ in range(2)]
    kind = draw(st.sampled_from(sorted(Q_DEGREE)))
    q = _q_factor(kind, 2, draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if draw(st.booleans()):
        return p, q * WeightFn.exp_affine(xi, Fraction(draw(st.integers(-3, 3)), 4))
    ell = AffineFunction(xi, 1)
    assume(p.vertex_min(ell) >= Fraction(1, 4))
    sigma = 2 + Q_DEGREE[kind] + draw(st.integers(1, 2))
    return p, q * WeightFn.affine_power(ell, -sigma)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_closed_form_case())
def test_closed_form_matches_adaptive(case):
    _assert_matches_adaptive(*case)


@pytest.mark.parametrize("kind", sorted(Q_DEGREE))
def test_closed_form_matches_adaptive_on_p3(kind):
    p = _canonical("P3")
    q = _q_factor(kind, 3, 0, 2)
    xi = [Fraction(1, 13), Fraction(-1, 17), Fraction(1, 19)]
    _assert_matches_adaptive(p, q * WeightFn.exp_affine(xi, Fraction(1, 2)))
    sigma = 3 + Q_DEGREE[kind] + 1
    _assert_matches_adaptive(p, q * WeightFn.affine_power(AffineFunction(xi, 1), -sigma))


def _edges_at(p, index):
    """Edge vectors at the vertex p.vertices[index]: to each vertex sharing r - 1 of its facets."""
    v, facets = p.vertices[index], set(p.facet_adjacency[index])
    return [[a - b for a, b in zip(u, v)] for u, other in zip(p.vertices, p.facet_adjacency)
            if len(facets & set(other)) == p.dim - 1]


def _msy_volume(p, xi):
    """(1/r!) sum_v |det W_v| / ((1 + <xi, v>) prod_i <xi, w_i>), W_v the edge vectors at v
    (Martelli, Sparks & Yau, Comm. Math. Phys. 268 (2006)): exact at rational xi."""
    total = Fraction(0)
    for index, v in enumerate(p.vertices):
        edges = _edges_at(p, index)
        denominator = 1 + sum(map(lambda a, b: a * b, xi, v))
        for w in edges:
            denominator *= sum(map(lambda a, b: a * b, xi, w))
        total += abs(det([list(col) for col in zip(*edges)])) / denominator
    return total / math.factorial(p.dim)


def test_msy_oracle_value_on_p2():
    xi = (Fraction(1, 7), Fraction(-2, 11))
    assert float(_msy_volume(_canonical("P2"), xi)) == pytest.approx(5.980433453656264,
                                                                     rel=1e-15)


@pytest.mark.parametrize("name", ["P2", "F1", "P3", "Bl2P2"])
def test_reeb_volume_matches_msy(name):
    # p = 1 and s = r + 1: the volume functional of the Sasaki-Einstein problem
    p = _canonical(name)
    rng = np.random.default_rng(20261018)
    done = 0
    while done < 5:
        xi = [Fraction(int(rng.integers(-9, 10)), int(rng.choice([7, 11, 13])))
              for _ in range(p.dim)]
        ell = AffineFunction(xi, 1)
        generic = all(sum(map(lambda a, b: a * b, xi, w)) != 0
                      for i in range(len(p.vertices)) for w in _edges_at(p, i))
        if p.vertex_min(ell) <= 0 or not generic:
            continue
        res = integrate_weighted(p, WeightFn.affine_power(ell, -(p.dim + 1)))
        exact = _msy_volume(p, xi)
        assert res.value == pytest.approx(float(exact), rel=1e-12)
        assert abs(Fraction(res.value) - exact) <= res.error_estimate
        done += 1


def _brion_exp(p, xi):
    """int_P exp(<xi, x>) dx = sum_v e^<xi, v> |det W_v| / prod_i (-<xi, w_i>)
    (Brion, Ann. Sci. ENS 21 (1988)), for xi orthogonal to no edge."""
    terms = []
    for index, v in enumerate(p.vertices):
        edges = _edges_at(p, index)
        coeff = Fraction(abs(det([list(col) for col in zip(*edges)])))
        for w in edges:
            coeff /= -sum(map(lambda a, b: a * b, xi, w))
        terms.append(float(coeff) * math.exp(sum(map(lambda a, b: a * b, xi, v))))
    return math.fsum(terms)


@pytest.mark.parametrize("name, xi", [
    ("P2", (Fraction(3, 10), Fraction(-2, 7))),
    ("F1", (Fraction(-5, 9), Fraction(4, 11))),
    ("Bl3P2", (Fraction(2, 3), Fraction(1, 5))),
    ("P3", (Fraction(1, 3), Fraction(-1, 4), Fraction(2, 5))),
])
def test_exp_matches_brion(name, xi):
    p = _canonical(name)
    res = integrate_weighted(p, WeightFn.exp_affine(xi, 0))
    assert res.value == pytest.approx(_brion_exp(p, xi), rel=1e-12)


def test_coincident_nodes_at_zero_xi(f1):
    # exp(0) and (1 + 0)^-6 fold away, leaving the exact polynomial integral; exp(0 x + 1/3)
    # keeps its closed form with every node at 1/3, and the pole kernels at N + 1 equal nodes u
    # read G[u, ..., u] = G^(N)(u) / N! = u^-sigma / N!
    q = _q_factor("product", 2, 0, 1)
    exact = integrate_weighted(f1, q).exact
    zero = AffineFunction([0, 0], 1)
    for w in (q * WeightFn.exp_affine([0, 0], 0), q * WeightFn.affine_power(zero, -6)):
        assert integrate_weighted(f1, w).exact == exact
    res = integrate_weighted(f1, q * WeightFn.exp_affine([0, 0], Fraction(1, 3)))
    want = math.exp(1 / 3) * float(exact)
    assert res.exact is None and res.subdivisions == 0
    assert res.value == pytest.approx(want, rel=1e-14)
    assert abs(res.value - want) <= res.error_estimate + 2 * quadrature.EPS * abs(want)
    for kernel, sigma in ((_pole_dd, 6), (_log_dd, 3)):  # N = 5, as for q on F_1
        (g,), rel = kernel(np.full((1, 6), 1.5), sigma)
        want = 1.5 ** -sigma / math.factorial(5)
        assert abs(g - want) <= (rel + 2 * quadrature.EPS) * want


def test_coincident_nodes_on_an_edge(p2):
    # xi = (0, 1/3) is orthogonal to the edge from (-1, -1) to (2, -1): two nodes coincide
    xi = [Fraction(0), Fraction(1, 3)]
    for kind in sorted(Q_DEGREE):
        q = _q_factor(kind, 2, 0, 1)
        _assert_matches_adaptive(p2, q * WeightFn.exp_affine(xi, 0))
        sigma = 2 + Q_DEGREE[kind] + 1
        _assert_matches_adaptive(p2, q * WeightFn.affine_power(AffineFunction(xi, 1), -sigma))


def test_zero_polynomial_part_integrates_to_zero(p2):
    zero = WeightFn.from_polynomial(Polynomial(2, {}))
    for w in (WeightFn.exp_affine([1, 0], 0), WeightFn.affine_power(AffineFunction([0, 1], 2), -4)):
        res = integrate_weighted(p2, w * zero)
        assert res.value == 0.0 and res.error_estimate == 0.0


def test_adaptive_fallbacks_keep_their_subdivisions(p2):
    # a fractional power, exp times a pole and a sum with such a term are not taken in
    # closed form
    ell = AffineFunction([Fraction(1, 5), Fraction(1, 7)], 1)
    for w in (WeightFn.affine_power(ell, Fraction(-5, 2)),
              WeightFn.exp_affine([1, 0], 0) * WeightFn.affine_power(ell, -4),
              WeightFn.exp_affine([1, 0], 0) + WeightFn.affine_power(ell, Fraction(-5, 2))):
        assert integrate_weighted(p2, w).subdivisions > 0


@pytest.mark.parametrize("name", ["P2", "F1", "P1xP1"])
def test_log_case_takes_the_closed_form(name):
    """sigma <= r + deg Q, where G has a log term, is the Stieltjes sum of _log_dd:
    no subdivisions, and the adaptive cubature at tol 1e-13 agrees within both
    error estimates."""
    p = _canonical(name)
    ell = AffineFunction([Fraction(1, 5), Fraction(1, 7)], 1)
    for kind in sorted(Q_DEGREE):
        q = _q_factor(kind, 2, 0, 1)
        for sigma in range(1, 2 + Q_DEGREE[kind] + 1):
            w = q * WeightFn.affine_power(ell, -sigma)
            closed = integrate_weighted(p, w)
            (ref,) = _adaptive(p.triangulate(), one_row(w.eval), 1e-13, ABS_FLOOR)
            assert closed.subdivisions == 0 and ref.subdivisions > 0
            assert closed.value == pytest.approx(ref.value, rel=1e-12)
            assert abs(closed.value - ref.value) <= closed.error_estimate + ref.error_estimate


# -- the closed form's divided-difference memo ------------------------------------------------


def _newton_products(r):
    x = [AffineFunction.coordinate(r, i) for i in range(r)]
    return [()] + [(c,) for c in x] + [(x[i], x[j]) for i in range(r) for j in range(i, r)]


def _trial_weights(r, p):
    """A soliton trial point's one weight and a Reeb trial point's three, s = 3, times p."""
    xi = [Fraction((-1) ** i, 5 + 2 * i) for i in range(r)]
    ell = AffineFunction(xi, 1)
    reeb = [WeightFn.affine_power(ell, -3 - k, coeff=c) for k, c in enumerate((1, -3, 12))]
    return [p * WeightFn.exp_affine(xi, 0)] + [p * g for g in reeb]


@pytest.mark.parametrize("name", ["P2", "F1", "P3"])
def test_a_warm_memo_gives_the_fresh_polytope_results_bit_for_bit(name):
    # every product is integrated first on a polytope whose memo the other products have
    # filled, then on a polytope of the same half-spaces that has not integrated anything
    r = len(CANONICAL_NORMALS[name][0])
    products = _newton_products(r)
    warm, hits, ell = _canonical(name), 0, AffineFunction([1] + [0] * (r - 1), 2)
    for p in (WeightFn.constant(r, 1), WeightFn.affine_power(ell, 1)):
        for w in _trial_weights(r, p):
            integrate_products(warm, w, products[::-1])
            for ells in products:
                before = len(warm._divided_differences)
                (res,) = integrate_products(warm, w, [ells])
                hits += len(warm._divided_differences) == before
                (fresh,) = integrate_products(_canonical(name), w, [ells])
                assert (res.value, res.error_estimate) == (fresh.value, fresh.error_estimate)
                assert res.exact is None and res.subdivisions == 0
    assert hits == 2 * 4 * len(products)
    assert all(not g.flags.writeable for g, _ in warm._divided_differences.values())


def test_memo_keys_tell_sigma_and_the_degree_apart(p2):
    # the Reeb weights g' and g'' at one ell take one entry each though their nodes are the same
    # points; the soliton's () and (x1) share ell and sigma = 0 but not their nodes per row
    x1 = AffineFunction.coordinate(2, 0)
    exp, _, g1, g2 = _trial_weights(2, WeightFn.constant(2, 1))
    for w, products in ((g1, [()]), (g2, [()]), (exp, [(), (x1,)])):
        fresh = _canonical("P2")
        res = integrate_products(p2, w, products)
        assert res == integrate_products(fresh, w, products)
        assert len(fresh._divided_differences) == len(products)
    ell = g1.affine_powers[0][0]
    assert set(p2._divided_differences) == {(ell, 4, 3), (ell, 5, 3), (exp.exp_part, 0, 3),
                                            (exp.exp_part, 0, 4)}


def test_memo_never_holds_more_than_64_entries(p2, monkeypatch):
    # a miss on a full memo empties it; a hit leaves it as it is
    calls, sizes, dd = [], [], quadrature._exp_dd
    monkeypatch.setattr(quadrature, "_exp_dd", lambda nodes: calls.append(1) or dd(nodes))
    for k in range(150):
        w = WeightFn.exp_affine([Fraction(k, 97), Fraction(-1, 3)], 0)
        first = integrate_weighted(p2, w)
        assert integrate_weighted(p2, w) == first and len(calls) == k + 1
        sizes.append(len(p2._divided_differences))
    assert sizes == list(range(1, 65)) * 2 + list(range(1, 23))


# -- one refinement for K columns -----------------------------------------------------------

COLUMN_POLYTOPES = {name: _canonical(name) for name in ("P1", "P2", "F1", "P3")}


@st.composite
def _column_case(draw):
    """exp(<zeta, x>) ell^-sigma on a canonical polytope, with K >= 2 products of the
    positive x_i + 2, so every column f_k is positive and int |f_k| is its value."""
    p = COLUMN_POLYTOPES[draw(st.sampled_from(sorted(COLUMN_POLYTOPES)))]
    r = p.dim
    zeta = [Fraction(draw(st.integers(-8, 8)), 7) for _ in range(r)]
    ell = AffineFunction([Fraction(draw(st.integers(-3, 3)), 11) for _ in range(r)], 1)
    assume(p.vertex_min(ell) >= Fraction(1, 4))
    sigma = draw(st.sampled_from([1, 3, Fraction(5, 2)]))
    w = WeightFn.exp_affine(zeta, 0) * WeightFn.affine_power(ell, -sigma)
    shifted = [AffineFunction([int(i == j) for j in range(r)], 2) for i in range(r)]
    products = draw(st.lists(st.lists(st.sampled_from(shifted), max_size=2).map(tuple),
                             min_size=2, max_size=4))
    return p, w, products, draw(st.sampled_from([1e-8, 1e-10, 1e-12]))


def _columns(w, products):
    return lambda x: np.stack([w.eval(x) * np.prod([ell.eval(x) for ell in ells], axis=0)
                               for ells in products])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_column_case())
def test_each_column_agrees_with_its_own_cubature_and_meets_its_target(case):
    p, w, products, tol = case
    simplices = p.triangulate()
    batch = _adaptive(simplices, _columns(w, products), tol, ABS_FLOOR)
    assert len(batch) == len(products)
    for res, ells in zip(batch, products):
        (alone,) = _adaptive(simplices, _columns(w, [ells]), tol, ABS_FLOOR)
        assert res.converged and res.subdivisions == batch[0].subdivisions >= alone.subdivisions
        # a batch of K columns sums the rule in another order than one column; each estimate
        # holds the rounding of the rule's sums
        assert abs(res.value - alone.value) <= res.error_estimate + alone.error_estimate
        # the column's own target max(tol int |f_k|, abs_floor); f_k > 0, so int |f_k|
        # is its value, up to the order of the rule's sums
        assert res.error_estimate <= max(tol * res.value * (1 + 1e-12), ABS_FLOOR)


def test_a_refinement_past_max_simplices_raises_with_partial_results():
    # (x1 + 1 + 1e-9)^(1/2) on P^3 vanishes just outside the facet x1 = -1, so it passes the
    # singularity check; at tol 1e-8 its refinement once held 1.18 million simplices after 30 s
    # and still grew. int_P3 (x1 + 1)^(1/2) dx = int_0^4 t^(1/2) (4 - t)^2 / 2 dt = 1024/105,
    # and the 1e-9 shift adds less than 1e-8
    p3 = make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS["P3"]])
    w = WeightFn.affine_power(AffineFunction([1, 0, 0], 1 + Fraction(1, 10 ** 9)), Fraction(1, 2))
    start = time.monotonic()
    with pytest.raises(MaxDepthExceeded, match=f"{quadrature.MAX_SIMPLICES} simplices") as info:
        integrate_weighted(p3, w, tol=1e-8)
    assert time.monotonic() - start < 10
    res = info.value.result
    assert isinstance(res, quadrature.QuadratureResult) and not res.converged
    assert res.subdivisions > 0 and abs(res.value - 1024 / 105) <= res.error_estimate + 1e-8


def test_max_depth_exceeded_carries_every_column(interval, monkeypatch):
    # int_{-1}^{1} (x + 2)^(1/2) x^k dx for k = 0, 1, 2
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
    w = WeightFn.affine_power(AffineFunction([1], 2), Fraction(1, 2))
    evaluate = lambda x: w.eval(x) * x.T ** np.arange(3)[:, None]  # noqa: E731
    with pytest.raises(MaxDepthExceeded) as info:
        _adaptive(interval.triangulate(), evaluate, 1e-16, 1e-30)
    exact = [2 / 3 * (3 ** 1.5 - 1), 2 / 5 * (3 ** 2.5 - 1) - 4 / 3 * (3 ** 1.5 - 1),
             2 / 7 * (3 ** 3.5 - 1) - 8 / 5 * (3 ** 2.5 - 1) + 8 / 3 * (3 ** 1.5 - 1)]
    results = info.value.result
    assert len(results) == 3 and not any(res.converged for res in results)
    for res, want in zip(results, exact):
        assert res.value == pytest.approx(want, rel=1e-6) and res.subdivisions > 0


def _mesh_volumes(mesh):
    verts, _ = mesh
    return np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1])) / 2


def test_a_handed_on_refinement_keeps_its_depths(p2):
    # the mesh a cubature leaves holds each simplex with its bisections from the triangulation,
    # each of which halves the volume; a cubature started from it counts on from those depths
    tri = p2.triangulate()
    top = {float(s.volume()) for s in tri}
    first, second = (one_row(WeightFn.exp_affine([Fraction(a), 0], 0).eval) for a in (2, 4))
    mesh = []
    (ref,) = _adaptive(tri, first, 1e-12, ABS_FLOOR, mesh)
    start = list(mesh)
    for m in (mesh, start):
        assert len(m) == 2 and m[1].min() >= 0 and m[1].max() >= 2
        assert set((_mesh_volumes(m) * 2.0 ** m[1]).round(12)) <= top
    # a converged mesh needs no split for its own integrand, and is handed on as it is
    (again,) = _adaptive(tri, first, 1e-12, ABS_FLOOR, mesh)
    assert again.subdivisions == 0 and all(a is b for a, b in zip(mesh, start))
    assert abs(again.value - ref.value) <= again.error_estimate + ref.error_estimate
    res = _adaptive(tri, second, 1e-12, ABS_FLOOR, mesh)
    assert res[0].subdivisions > 0 and len(mesh[1]) > len(start[1])
    assert set((_mesh_volumes(mesh) * 2.0 ** mesh[1]).round(12)) <= top
    # the same start seven bisections deeper splits alike and counts seven more
    deeper = [start[0], start[1] + 7]
    assert _adaptive(tri, second, 1e-12, ABS_FLOOR, deeper) == res
    assert np.array_equal(deeper[0], mesh[0]) and np.array_equal(deeper[1], mesh[1] + 7)


def test_a_refinement_started_deep_stops_at_max_depth(p2):
    # depth counts from the triangulation, not from the start of a cubature: started at
    # MAX_DEPTH - d, where d is the deepest a cold start goes, it converges to the same
    # integral; started at MAX_DEPTH - 1, it is refused with partial results. Like a cold
    # start, the mesh holds each simplex's vertices in lexicographic order
    tri, w = p2.triangulate(), WeightFn.exp_affine([Fraction(6), 0], 0)
    verts, cold = np.array([sorted(s.float_vertices().tolist()) for s in tri]), []
    ref = _adaptive(tri, one_row(w.eval), 1e-12, ABS_FLOOR, cold)
    d = cold[1].max()
    assert d >= 2
    deep = lambda depth: [verts, np.full(len(tri), quadrature.MAX_DEPTH - depth)]  # noqa: E731
    assert _adaptive(tri, one_row(w.eval), 1e-12, ABS_FLOOR, deep(d)) == ref
    with pytest.raises(MaxDepthExceeded) as info:
        _adaptive(tri, one_row(w.eval), 1e-12, ABS_FLOOR, deep(1))
    (partial,) = info.value.result
    assert not partial.converged and partial.subdivisions > 0
    assert abs(partial.value - ref[0].value) <= partial.error_estimate


def test_vertex_order_leaves_the_adaptive_work_unchanged_on_p3():
    # P^3's single simplex and w = (x1 + 2) exp(-x1/2) at tol 1e-12. With the degree-9/7
    # Grundmann--Moeller pair the 24 vertex orders took 183 to 530 subdivisions ((0, 1, 2, 3)
    # 183 and (0, 2, 3, 1) 396), since bisection breaks ties by vertex order; the collapsed
    # Gauss pair depends on it too. A cold start sorts each simplex's vertices first
    p3 = make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS["P3"]])
    verts = [tuple(map(Fraction, v)) for v in ((-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3))]
    w = WeightFn.affine_power(AffineFunction([1, 0, 0], 2), 1) * \
        WeightFn.exp_affine([Fraction(-1, 2), 0, 0], 0)
    runs = {order: _adaptive([Simplex(tuple(verts[i] for i in order))], one_row(w.eval), 1e-12,
                             ABS_FLOOR)[0] for order in itertools.permutations(range(4))}
    a, b = runs[0, 1, 2, 3], runs[0, 2, 3, 1]
    assert a.subdivisions == b.subdivisions
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate
    assert len({(r.subdivisions, r.value, r.error_estimate) for r in runs.values()}) == 1
    exact = integrate_weighted(p3, w)  # the closed form
    assert abs(a.value - exact.value) <= a.error_estimate + exact.error_estimate


def test_the_error_estimate_covers_the_rounding_of_the_rule(p2):
    # for the constant 1 on P^2 both rules are exact and their gap is rounding alone: a 1-column
    # and a 2-column call, summed in other orders, once read 1 ulp apart with an estimate of
    # 2.5e-16 each. Each estimate adds U eps int|f|, and must bound the distance from 9/2
    rounding = len(_gauss_pair(2)[0]) * np.finfo(float).eps * 4.5
    for k in (1, 2):
        for res in _adaptive(p2.triangulate(), lambda x: np.ones((k, len(x))), 1e-12, ABS_FLOOR):
            assert res.subdivisions == 0 and res.error_estimate >= rounding * (1 - 1e-12)
            assert abs(Fraction(res.value) - Fraction(9, 2)) <= res.error_estimate


def test_a_moment_batch_without_closed_form_takes_one_cubature(p2, monkeypatch):
    calls = []
    adaptive = quadrature._adaptive

    def counted(*args):
        calls.append(args)
        return adaptive(*args)

    monkeypatch.setattr(quadrature, "_adaptive", counted)
    x = [AffineFunction.coordinate(2, i) for i in range(2)]
    products = [(), (x[0],), (x[1],), (x[0], x[0]), (x[0], x[1]), (x[1], x[1])]
    w = WeightFn.exp_affine([Fraction(1, 3), 0], 0) * WeightFn.affine_power(
        AffineFunction([Fraction(1, 5), Fraction(1, 7)], 1), -4)
    batch = integrate_products(p2, w, products)
    assert len(calls) == 1 and len(batch) == len(products)
    assert integrate_products(p2, w, []) == [] and len(calls) == 1
    for res, ells in zip(batch, products):
        alone = integrate_weighted(p2, w * WeightFn.from_polynomial(
            Polynomial(2, {tuple(sum(e.zeta[i] for e in ells) for i in range(2)): 1})))
        assert res.exact is None and res.subdivisions > 0
        assert abs(res.value - alone.value) <= res.error_estimate + alone.error_estimate
    with np.errstate(all="ignore"), pytest.raises(NonFiniteIntegral) as info:
        integrate_products(p2, _EXP_800 * w, products)
    assert len(info.value.result) == len(products)


def test_a_list_of_weights_takes_one_weight_per_product(p2, monkeypatch):
    # one weight per product: polynomials stay exact, closed forms take one integral each and
    # the rest one cubature of all their columns, each within the errors of its own batch
    calls = []
    adaptive = quadrature._adaptive

    def counted(*args):
        calls.append(args)
        return adaptive(*args)

    monkeypatch.setattr(quadrature, "_adaptive", counted)
    x = [AffineFunction.coordinate(2, i) for i in range(2)]
    products = [(), (x[0],), (x[1],), (x[0], x[1])]
    exp = WeightFn.exp_affine([Fraction(1, 3), 0], 0)
    ell = AffineFunction([Fraction(1, 5), Fraction(1, 7)], 1)
    cases = [WeightFn.from_polynomial(Polynomial.linear([1, 2], 3)), WeightFn.constant(2, 5),
             exp, WeightFn.affine_power(ell, -4), exp * WeightFn.affine_power(ell, -4),
             exp * WeightFn.affine_power(ell, Fraction(1, 2))]
    for i in (0, 2, 4):
        ws = [cases[i + k % 2] for k in range(len(products))]
        batch = integrate_products(p2, ws, products)
        alone = [integrate_products(p2, w, [ells])[0] for w, ells in zip(ws, products)]
        for res, ref in zip(batch, alone):
            if i == 4:
                assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate
            else:  # exact and closed-form values do not depend on the batch
                assert (res.value, res.exact) == (ref.value, ref.exact)
    assert len(calls) == 1 + len(products)
    with pytest.raises(ValueError):
        integrate_products(p2, cases[:2], products)


@pytest.mark.parametrize("boundary", [False, True])
def test_polynomial_weights_that_differ_in_a_coefficient_take_one_exact_batch(p2, boundary,
                                                                            monkeypatch):
    # p, -3 p and 7/2 p are the weight p / c0 times three coefficients: one batch over it,
    # each result times its coefficient, gives the Fractions of the separate integrals; the
    # zero weight and a weight sum keep batches of their own
    batches = []
    exact_products = quadrature._exact_products

    def counted(*args):
        batches.append(args)
        return exact_products(*args)

    p = WeightFn.affine_power(AffineFunction([1, 2], 3), 2, coeff=Fraction(2, 5))
    x = [AffineFunction.coordinate(2, i) for i in range(2)]
    ws = [p, p.scale(-3), p.scale(Fraction(7, 2)), p.scale(0), p + WeightFn.constant(2, 1)]
    products = [(), (x[0],), (x[0], x[1]), (x[1],), (x[1], x[1])]
    alone = [integrate_products(p2, w, [ells], boundary=boundary)[0]
             for w, ells in zip(ws, products)]
    monkeypatch.setattr(quadrature, "_exact_products", counted)
    batch = integrate_products(p2, ws, products, boundary=boundary)
    assert [(res.value, res.exact) for res in batch] == [(res.value, res.exact) for res in alone]
    assert all(type(res.exact) is Fraction for res in batch) and batch[3].exact == 0
    assert [len(args[2]) for args in batches] == [3, 1, 1]


# -- the path chooser on the boundary --------------------------------------------------------


def _no_closed_form(r):
    """exp(x1 / 3) (x1 + 2)^(1/2) in dimension r: a closed form only on the facet x1 = -1."""
    e1 = [1] + [0] * (r - 1)
    return WeightFn.exp_affine([Fraction(1, 3)] + e1[1:], 0) * WeightFn.affine_power(
        AffineFunction(e1, 2), Fraction(1, 2))


@pytest.mark.parametrize("name, cubatures", [("P2", 2), ("P3", 3)])
def test_a_boundary_batch_takes_one_cubature_per_facet(monkeypatch, name, cubatures):
    # the weight and its products are pulled back once per facet chart and integrated there
    # together; a boundary batch once took one cubature per product and facet (6 on P^2, 12 on P^3)
    p = make_polytope(*[(n, 1) for n in CANONICAL_NORMALS[name]])
    calls = []
    adaptive = quadrature._adaptive

    def counted(*args):
        calls.append(args)
        return adaptive(*args)

    monkeypatch.setattr(quadrature, "_adaptive", counted)
    w = _no_closed_form(p.dim)
    products = [()] + [(AffineFunction.coordinate(p.dim, i),) for i in range(p.dim)]
    batch = integrate_products(p, w, products, boundary=True)
    assert len(calls) == cubatures
    for res, ells in zip(batch, products):
        alone = integrate_boundary(p, math.prod(map(WeightFn.affine_power, ells), start=w))
        assert res.exact is None and res.subdivisions > 0
        assert abs(res.value - alone.value) <= res.error_estimate + alone.error_estimate
    assert len(calls) == cubatures * (1 + len(products))


def test_max_depth_exceeded_on_the_boundary_carries_one_result(p2, monkeypatch):
    # the facet x1 = -1 takes the closed form, and the facet x2 = -1 is the first cubature
    w = _no_closed_form(2)
    _, facet = p2.facets()[1]
    ref = integrate_weighted(facet.subpolytope, w.compose_affine(facet.basis, facet.origin))
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
    with pytest.raises(MaxDepthExceeded) as info:
        integrate_boundary(p2, w, tol=1e-16, abs_floor=1e-30)
    res = info.value.result
    assert isinstance(res, quadrature.QuadratureResult) and not res.converged
    assert res.value == pytest.approx(ref.value, rel=1e-6)


@pytest.mark.parametrize("integrand", [_EXP_800, _EXP_800 * WeightFn.affine_power(
    AffineFunction([1, 0], 2), Fraction(1, 2))], ids=["closed form", "cubature"])
def test_a_non_finite_boundary_integral_carries_one_result(p2, integrand):
    with np.errstate(all="ignore"), pytest.raises(NonFiniteIntegral) as info:
        integrate_boundary(p2, integrand)
    res = info.value.result
    assert isinstance(res, quadrature.QuadratureResult)
    assert not (math.isfinite(res.value) and math.isfinite(res.error_estimate))


# -- sums by linearity and constant factors -------------------------------------------------


def test_a_sum_of_closed_forms_is_taken_term_by_term(p2):
    # on P^2, exp(x1/3) + exp(x2/5) once took 7 subdivisions and reported an error of 2.9e-12
    x = AffineFunction.coordinate(2, 0)
    terms = [WeightFn.exp_affine([Fraction(1, 3), 0], 0), WeightFn.exp_affine([0, Fraction(1, 5)], 0),
             WeightFn.affine_power(AffineFunction([Fraction(1, 5), Fraction(1, 7)], 1), -4),
             WeightFn.from_polynomial(Polynomial.linear([1, 2], 3))]
    for w in (terms[0] + terms[1], terms[1] + terms[2] + terms[3]):
        res = integrate_weighted(p2, w)
        parts = [integrate_weighted(p2, t) for t in w.terms()]
        (ref,) = _adaptive(p2.triangulate(), one_row(w.eval), 1e-14, ABS_FLOOR)
        assert res.subdivisions == 0 and res.exact is None and type(res.error_estimate) is float
        assert res.error_estimate <= sum(part.error_estimate for part in parts)
        assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate
        assert res.value == pytest.approx(ref.value, rel=1e-13)
        # integrate_products keeps one closed-form integral per product
        (moment,) = integrate_products(p2, w, [(x,)])
        assert moment.subdivisions == 0


def test_a_constant_factor_folds_into_the_coefficient(p2):
    # sqrt(2) exp(x1/3) once took 7 subdivisions: a fractional exponent refused the closed form
    exp = WeightFn.exp_affine([Fraction(1, 3), 0], 0)
    pole = WeightFn.affine_power(AffineFunction([Fraction(1, 5), Fraction(1, 7)], 1), -4)
    for base in (exp, pole):
        for factor, scale in ((AffineFunction([0, 0], 2), Fraction(1, 2)),
                              (AffineFunction([0, 0], Fraction(3, 7)), -3),
                              (AffineFunction([0, 0], 5), Fraction(-7, 3))):
            w = WeightFn.affine_power(factor, scale) * base
            res, plain = integrate_weighted(p2, w), integrate_weighted(p2, base)
            (ref,) = _adaptive(p2.triangulate(), one_row(w.eval), 1e-14, ABS_FLOOR)
            assert res.subdivisions == 0 and type(res.error_estimate) is float
            assert res.value == pytest.approx(float(factor.const) ** float(scale) * plain.value,
                                              rel=1e-15)
            assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate
    # a constant pole alone folds away: (1 + <0, x>)^-3, the Reeb weight at xi = 0, is 1
    lone = integrate_weighted(p2, WeightFn.affine_power(AffineFunction([0, 0], 1), -3))
    assert lone.exact == Fraction(9, 2) and lone.value == 4.5


@pytest.mark.parametrize("c, p", [(-2, -1), (2, -3)])
def test_a_rational_constant_factor_integrates_exactly(p2, c, p):
    # (-2)^-1 (x1 + 2) was SingularOnDomain ("attains -2") and 2^-3 (x1 + 2) the float
    # 1.1249999999999998: both fold into the coefficient and take the exact path
    ell = AffineFunction([1, 0], 2)
    whole = integrate_weighted(p2, WeightFn.affine_power(ell, 1)).exact
    res = integrate_weighted(p2, WeightFn(2, 1, [(AffineFunction([0, 0], c), p), (ell, 1)]))
    assert type(res.exact) is Fraction and res.exact == Fraction(c) ** p * whole


@pytest.mark.parametrize("c, p", [(0, -1), (0, Fraction(1, 2)), (-2, Fraction(1, 2))])
@pytest.mark.parametrize("integrate", [
    integrate_weighted, integrate_boundary, lambda p2, w: integrate_products(p2, w, [()])[0]],
    ids=["weighted", "boundary", "products"])
def test_a_singular_constant_factor_is_rejected_on_every_path(p2, c, p, integrate):
    # 0^-1, 0^(1/2) and (-2)^(1/2) stay factors (no ZeroDivisionError from a fold), and every
    # entry point rejects them before any closed form runs
    w = WeightFn(2, 1, [(AffineFunction([0, 0], c), p), (AffineFunction([1, 0], 2), 1)])
    assert w.affine_powers[0] == (AffineFunction([0, 0], c), p)
    with pytest.raises(SingularOnDomain, match=f"exponent {p} attains {c} "):
        integrate(p2, w)
