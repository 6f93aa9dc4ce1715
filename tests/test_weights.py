import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torickstab import quadrature
from torickstab.errors import NotPositive
from torickstab.jsonio import weight_from_json, weight_to_json
from torickstab.polynomial import Polynomial, compositions
from torickstab.polytope import AffineFunction, barycentric_coefficients
from torickstab.quadrature import integrate_weighted
from torickstab.solvers import msy_reeb
from torickstab.weights import (
    Positivity,
    WeightFn,
    WeightSum,
    _halving,
    _polynomial_sign,
    as_weight,
    equivalent_sasaki_pair,
    require_positive,
    sasaki_weight_pair,
    soliton_weight_pair,
)

from conftest import CANONICAL_NORMALS, POLYGONS, make_polytope, one_row


def _affine(zeta, a):
    return AffineFunction(zeta, a)


def test_soliton_pair_trivial():
    v, w = soliton_weight_pair(WeightFn.constant(1, 1), 3)
    assert w.to_polynomial().eval_exact((Fraction(1, 7),)) == 6


def test_soliton_pair_exponential():
    xi = Fraction(2, 5)
    v, w = soliton_weight_pair(WeightFn.exp_affine([xi], 0), 1)
    for x in (Fraction(-1, 2), Fraction(0), Fraction(3, 4)):
        expected = 2 * (1 + xi * x) * math.exp(float(xi * x))
        assert float(w.eval(np.array([float(x)]))) == pytest.approx(
            float(expected), rel=1e-14)


def test_soliton_pair_negative_power():
    # v = (x+2)^-4, m=1: w = 2(1 - 4x/(x+2)) (x+2)^-4
    v, w = soliton_weight_pair(
        WeightFn.affine_power(_affine([1], 2), -4), 1)
    for x in (-0.5, 0.0, 0.9):
        expected = 2 * (1 - 4 * x / (x + 2)) * (x + 2) ** -4
        assert w.eval(np.array([x])) == pytest.approx(expected, rel=1e-14)


def test_soliton_pair_accepts_free_polynomials_and_sums():
    # v = x^2 + 3, m = 1: w = 2(v + x v') = 6x^2 + 6, one polynomial term
    v = WeightFn.from_polynomial(Polynomial(1, {(2,): 1, (0,): 3}))
    _, w = soliton_weight_pair(v, 1)
    assert isinstance(w, WeightFn)
    assert w.to_polynomial() == Polynomial(1, {(2,): 6, (0,): 6})
    # the pair is linear in v: one term of w per term of v
    _, w = soliton_weight_pair(v + WeightFn.exp_affine([1]), 1)
    assert isinstance(w, WeightSum) and len(w.terms()) == 2
    for x in (-0.5, 0.0, 0.9):
        expected = 6 * x ** 2 + 6 + 2 * (1 + x) * math.exp(x)
        assert w.eval(np.array([x])) == pytest.approx(expected, rel=1e-14)


def test_sasaki_pair_values(interval):
    v, w = sasaki_weight_pair([Fraction(0)], 1, 1, interval)
    assert v.eval(np.array([1.0 / 3.0])) == pytest.approx(1.0)
    assert w.eval(np.array([1.0 / 3.0])) == pytest.approx(2.0)
    v, w = sasaki_weight_pair([Fraction(1, 2)], 1, 1, interval)
    x = 0.4
    assert v.eval(np.array([x])) == pytest.approx((x / 2 + 1) ** -2)
    assert w.eval(np.array([x])) == pytest.approx(2 * (x / 2 + 1) ** -3)


def test_sasaki_pair_not_positive(interval):
    with pytest.raises(NotPositive):
        sasaki_weight_pair([Fraction(2)], 1, 1, interval)


def test_equivalent_pair_values(interval):
    v, w = equivalent_sasaki_pair([Fraction(0)], 1, 1, interval)
    assert w.eval(np.array([0.0])) == pytest.approx(2.0)
    v, w = equivalent_sasaki_pair([Fraction(1)], 2, 1, interval)
    x = 0.3
    assert v.eval(np.array([x])) == pytest.approx((x + 2) ** -3)
    assert w.eval(np.array([x])) == pytest.approx(
        2 * (-2 * (x + 2) + 6) * (x + 2) ** -4)


@pytest.mark.parametrize("xi, a, m", [
    ((0,), 1, 1), ((1,), 2, 1), ((Fraction(1, 2),), Fraction(3, 2), 3),
    ((1, 0), 2, 2), ((Fraction(-1, 3), Fraction(1, 4)), 1, 2),
])
def test_equivalent_pair_is_the_soliton_pair_of_ell_to_the_minus_m_plus_2(xi, a, m):
    p = make_polytope(*[(n, 1) for n in CANONICAL_NORMALS["P1" if len(xi) == 1 else "P2"]])
    ell = _affine(xi, a)
    v, w = equivalent_sasaki_pair(xi, a, m, p)
    v_ref, w_ref = soliton_weight_pair(WeightFn.affine_power(ell, -(m + 2)), m)
    assert isinstance(w, WeightFn)
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, (7, len(xi)))
    vals = ell.eval(pts)
    assert np.array_equal(v.eval(pts), v_ref.eval(pts))
    assert np.array_equal(w.eval(pts), w_ref.eval(pts))
    expected = 2 * (-2 * vals + (m + 2) * float(a)) * vals ** -(m + 3)
    assert w.eval(pts) == pytest.approx(expected, rel=1e-13)


def test_equivalent_pair_not_positive(interval):
    with pytest.raises(NotPositive):
        equivalent_sasaki_pair([Fraction(2)], 1, 1, interval)


def test_eval_examples():
    w = WeightFn.exp_affine([1], 0) * WeightFn.affine_power(_affine([1], 2), 1)
    assert w.eval(np.array([0.0])) == pytest.approx(2.0)
    w2 = WeightFn.affine_power(_affine([1], 2), -3)
    assert w2.grad(np.array([[0.0]]))[0, 0] == pytest.approx(-3.0 / 16.0)
    w3 = WeightFn.exp_affine([Fraction(2, 3), Fraction(-1, 5)], 0)
    g = w3.grad(np.zeros((1, 2)))[0]
    assert g == pytest.approx([2 / 3, -1 / 5])


@pytest.mark.parametrize("x", [[1, 2, 5], [1]])
def test_a_point_of_another_dimension_is_rejected(x):
    # x1 + 3 x2^2 read 13.0 at (1, 2, 5), dropping the third coordinate; at (1,) eval
    # raised a bare IndexError and eval_exact read 4
    q = Polynomial(2, {(1, 0): 1, (0, 2): 3})
    message = f"^a point of dimension {len(x)} for a polynomial in 2 variables$"
    for evaluate in (q.eval, q.eval_exact, lambda x: q.eval([x])):
        with pytest.raises(ValueError, match=message):
            evaluate(x)
    for w in (WeightFn.from_polynomial(q), WeightFn.constant(2, 3)):
        with pytest.raises(ValueError, match=f"^a point of dimension {len(x)} for a weight of "
                                             f"dimension 2$"):
            w.eval(x)
    assert q.eval([1, 2]) == q.eval_exact([1, 2]) == 13


UNIT_ROUNDOFF = Fraction(1, 2 ** 53)


@st.composite
def _polynomials_and_points(draw):
    """A polynomial in 1-3 variables with exponents 0-5 and up to four points of
    [-3, 3]^dim on a grid of step 1/100, where no term overflows or underflows."""
    dim = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 5)] * dim)
    coeff = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))
    poly = Polynomial(dim, draw(st.dictionaries(exponent, coeff, min_size=1, max_size=5)))
    coordinate = st.integers(-300, 300).map(lambda k: k / 100)
    pts = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                        min_size=1, max_size=4))
    return poly, np.array(pts)


def _roundings(poly):
    """Units of roundoff in `Polynomial.eval` and float(eval_exact), as a count: per term
    its coefficient, one product per variable that appears and the power of an exponent
    past 1 (a square is one rounding, `pow` is within one ulp, two units); then the
    additions of the terms after the first, and float(eval_exact)."""
    per_term = max(1 + sum(1 + (2 if a > 2 else a > 1) for a in alpha if a)
                   for alpha in poly.coeffs)
    return per_term + len(poly.coeffs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polynomials_and_points())
def test_float_evaluation_is_the_exact_value_within_its_rounding(case):
    # the error of n roundings is at most gamma_n sum_a |c_a| |x^a|, gamma_n = n u / (1 - n u)
    poly, pts = case
    values = poly.eval(pts)
    n = _roundings(poly)
    gamma = n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)
    size = Polynomial(poly.dim, {a: abs(c) for a, c in poly.coeffs.items()})
    for row, x in enumerate(pts):
        exact = Fraction(float(poly.eval_exact(x)))
        assert abs(Fraction(values[row]) - exact) <= gamma * size.eval_exact(np.abs(x))
        assert poly.eval(x) == values[row]
    w = WeightFn.from_polynomial(poly)
    assert np.array_equal(w.eval(pts), w._jet(pts, 2)[0])


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(42)
    w = (WeightFn.exp_affine([Fraction(1, 3), Fraction(-1, 4)], 0)
         * WeightFn.affine_power(_affine([1, 0], 2), Fraction(-3, 2))
         * WeightFn.from_polynomial(
             Polynomial(2, {(2, 0): 1, (0, 1): Fraction(1, 2), (0, 0): 3})))
    h = 1e-6
    for _ in range(100):
        x = rng.random(2) * 0.8 - 0.4
        g = w.grad(x[None, :])[0]
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (w.eval((x + e)[None, :])[0] - w.eval((x - e)[None, :])[0]) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_hess_matches_finite_differences():
    w = (WeightFn.exp_affine([Fraction(1, 3)], 0)
         * WeightFn.affine_power(_affine([1], 2), -2))
    x = np.array([[0.25]])
    h = 1e-4  # second differences need a coarser step to beat roundoff
    fd = (w.eval(np.array([[0.25 + h]])) - 2 * w.eval(x)
          + w.eval(np.array([[0.25 - h]]))) / h ** 2
    assert w.hess(x)[0, 0, 0] == pytest.approx(fd[0], rel=1e-5)


def test_positivity_verdicts(interval):
    assert WeightFn.affine_power(_affine([1], 2), 1).positivity_on(
        interval) is Positivity.POSITIVE
    assert WeightFn.exp_affine([5], 0).positivity_on(
        interval) is Positivity.POSITIVE
    assert WeightFn.affine_power(
        _affine([1], Fraction(1, 2)), 1).positivity_on(
        interval) is Positivity.NOT_POSITIVE


@pytest.mark.parametrize("weight", [
    WeightFn.from_polynomial(Polynomial(1, {(2,): 1, (0,): 1})),
    WeightFn.from_polynomial(Polynomial(1, {(2,): 1, (1,): 3, (0,): 3})),
    WeightFn.from_polynomial(Polynomial(1, {(2,): 1, (1,): 4, (0,): 4})),
    WeightFn.affine_power(_affine([1], -2), 2),
    WeightFn.from_polynomial(Polynomial(1, {(2,): 1})) + WeightFn.constant(1, 1),
    WeightFn.exp_affine([-3], 0) * WeightFn.from_polynomial(Polynomial(1, {(2,): 1, (0,): 1})),
], ids=["x^2+1", "x^2+3x+3", "(x+2)^2", "affine_power(x-2,2)", "sum x^2 + 1",
        "exp(-3x)(x^2+1)"])
def test_positive_quadratics_are_certified(interval, weight):
    assert weight.positivity_on(interval) is Positivity.POSITIVE
    require_positive(weight, interval)


def test_square_is_not_positive_with_witness_zero(interval):
    square = Polynomial(1, {(2,): 1})
    assert _polynomial_sign(square, interval) == (Positivity.NOT_POSITIVE, (0,))
    assert WeightFn.from_polynomial(square).positivity_on(interval) is Positivity.NOT_POSITIVE
    with pytest.raises(NotPositive):
        require_positive(WeightFn.from_polynomial(square), interval)


def test_square_with_an_irrational_free_zero_is_indeterminate(interval):
    """(3x - 1)^2 vanishes at 1/3, which no dyadic bisection of [-1, 1] reaches."""
    square = Polynomial(1, {(1,): 3, (0,): -1}).power(2)
    assert _polynomial_sign(square, interval) == (Positivity.INDETERMINATE, None)
    with pytest.raises(NotPositive, match=r"\(indeterminate\)$"):
        require_positive(WeightFn.from_polynomial(square), interval)


def test_weight_sum_positivity_verdicts(interval):
    """One verdict is returned as it is; mixed verdicts are INDETERMINATE."""
    pole = WeightFn.affine_power(_affine([1], 0), -1)  # 1/x, singular at 0
    exp = WeightFn.exp_affine([1], 0)
    square = WeightFn.from_polynomial(Polynomial(1, {(2,): 1}))
    assert WeightSum([pole]).positivity_on(interval) is Positivity.NOT_POSITIVE
    assert WeightSum([square]).positivity_on(interval) is Positivity.NOT_POSITIVE
    assert (exp + square).positivity_on(interval) is Positivity.INDETERMINATE
    assert (exp + WeightFn.constant(1, -1)).positivity_on(interval) is Positivity.INDETERMINATE
    assert (exp + WeightFn.constant(1, 1)).positivity_on(interval) is Positivity.POSITIVE


@lru_cache(maxsize=None)
def _canonical(name):
    return make_polytope(*((n, 1) for n in CANONICAL_NORMALS[name]))


_coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def _sign_cases(draw):
    """A canonical polytope, a rational polynomial of degree <= 4 and a few
    rational convex combinations of the polytope's vertices."""
    polytope = _canonical(draw(st.sampled_from(("P1",) + POLYGONS + ("P3",))))
    alphas = [a for k in range(draw(st.integers(0, 4)) + 1)
              for a in compositions(k, polytope.dim)]
    poly = Polynomial(polytope.dim, dict(zip(alphas, draw(
        st.lists(_coefficients, min_size=len(alphas), max_size=len(alphas))))))
    n = len(polytope.vertices)
    mixes = draw(st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any),
                          min_size=1, max_size=4))
    points = list(polytope.vertices) + [
        tuple(sum(m * v[i] for m, v in zip(mix, polytope.vertices)) / sum(mix)
              for i in range(polytope.dim))
        for mix in mixes]
    return polytope, poly, points, draw(st.sampled_from([0, 1, 2, 3]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sign_cases())
def test_polynomial_sign_agrees_with_exact_values(case):
    """POSITIVE holds at every vertex and sampled interior point, NOT_POSITIVE
    names a point of the polytope where the value is <= 0, and p lifted by a
    bound on |p| over the polytope is certified."""
    polytope, raw, points, quarters = case
    radius = max(abs(c) for v in polytope.vertices for c in v)
    bound = 1 + sum(abs(c) * radius ** sum(a) for a, c in raw.coeffs.items())
    lift = Polynomial.constant(polytope.dim, bound * Fraction(quarters, 4))
    poly = raw + lift  # partial lifts reach all three verdicts
    verdict, witness = _polynomial_sign(poly, polytope)
    if verdict is Positivity.POSITIVE:
        assert all(poly.eval_exact(x) > 0 for x in points)
    elif verdict is Positivity.NOT_POSITIVE:
        assert all(h.value(witness) >= 0 for h in polytope.halfspaces)
        assert poly.eval_exact(witness) <= 0
    else:
        assert witness is None
    lifted = raw + Polynomial.constant(polytope.dim, bound)
    assert _polynomial_sign(lifted, polytope) == (Positivity.POSITIVE, None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_sign_cases(), st.integers(1, 9), st.data())
def test_halving_splits_the_row_of_each_half(case, q, data):
    """The row that _halving splits off a simplex's row, for either half of any of its edges,
    is barycentric_coefficients of that half: equal, over the doubled denominator 2q."""
    polytope, poly, _, _ = case
    simplices = polytope.triangulate()
    simplex = simplices[data.draw(st.integers(0, len(simplices) - 1))]
    shift = [Fraction(data.draw(st.integers(-4, 4)), q) for _ in range(polytope.dim)]
    vertices = [[int(q * (c + s)) for c, s in zip(v, shift)] for v in simplex.vertices]
    poly = poly.compose_affine(np.eye(polytope.dim, dtype=int).tolist(), [-s for s in shift])
    _, scale, (row,) = barycentric_coefficients(poly, [vertices], q)
    d, n = poly.degree(), len(vertices)
    for a, b in itertools.permutations(range(n), 2):
        half = [[2 * c for c in v] for v in vertices]
        half[a] = [x + y for x, y in zip(vertices[a], vertices[b])]
        _, half_scale, (expected,) = barycentric_coefficients(poly, [half], 2 * q)
        split = [0] * len(row)
        for src, dst, factor in _halving(d, n, a, b):
            split[dst] += factor * row[src]
        assert split == expected and half_scale == 2 ** d * scale


def test_weight_sum_algebra(interval):
    a = WeightFn.affine_power(_affine([1], 2), -1, coeff=4)
    b = WeightFn.constant(1, 3)
    s = a + b
    assert isinstance(s, WeightSum)
    x = np.array([[0.5]])
    assert s.eval(x)[0] == pytest.approx(4 / 2.5 + 3)
    doubled = s.scale(2)
    assert doubled.eval(x)[0] == pytest.approx(2 * s.eval(x)[0])


def test_compose_affine_pullback():
    w = WeightFn.exp_affine([1, -1], 0) * WeightFn.affine_power(
        _affine([1, 0], 2), -1)
    # substitute x = (t, 2t + 1)
    pulled = w.compose_affine([[1], [2]], [0, 1])
    for t in (0.0, 0.3, -0.2):
        direct = w.eval(np.array([[t, 2 * t + 1]]))[0]
        assert pulled.eval(np.array([t])) == pytest.approx(direct, rel=1e-14)


def test_soliton_normalization_identity(interval, p2):
    # integral of w equals 2m integral(v) + 2 integral(<grad v, x>)
    cases = [
        (interval, WeightFn.affine_power(_affine([1], 2), 1), 1),
        (interval, WeightFn.exp_affine([Fraction(1, 3)], 0), 1),
        (p2, WeightFn.affine_power(_affine([1, 0], 2), -2), 2),
        (interval, WeightFn.exp_affine([Fraction(1, 3)], 0)
         * WeightFn.from_polynomial(Polynomial(1, {(2,): 1, (0,): 1})), 1),
    ]
    from torickstab.quadrature import _adaptive

    for p, v, m in cases:
        _, w = soliton_weight_pair(v, m)
        lhs = integrate_weighted(p, w).value
        int_v = integrate_weighted(p, v).value

        def inner(pts, v=v):
            return np.einsum("ni,ni->n", v.grad(pts), pts)

        (grad_moment,) = _adaptive(p.triangulate(), one_row(inner), 1e-12, 1e-14)
        assert lhs == pytest.approx(2 * m * int_v + 2 * grad_moment.value, abs=1e-9)


def test_parts_of_another_dimension_are_rejected():
    with pytest.raises(ValueError, match="affine factor has dimension 1, the weight 2"):
        WeightFn(2, affine_powers=((_affine([1], 3), 1),))
    with pytest.raises(ValueError, match="exp part has dimension 1, the weight 2"):
        WeightFn(2, exp_part=_affine([1], 0))
    with pytest.raises(ValueError, match="polynomial part has dimension 3, the weight 2"):
        WeightFn(2, poly_part=Polynomial(3, {(1, 0, 0): 1}))


@pytest.mark.parametrize("w, dim", [(WeightFn.constant(3, 1), 3),
                                    (WeightFn.exp_affine([1, 0, 0], 0), 3),
                                    (WeightFn.constant(3, 1) + WeightFn.constant(3, 2), 3),
                                    (Polynomial(3, {(1, 0, 0): 1}), 3),
                                    (_affine([1], 2), 1)])
def test_a_weight_of_another_dimension_is_rejected_by_name(p2, w, dim):
    # a 3-D weight on P^2 was once integrated as if it were 2-D
    with pytest.raises(ValueError, match=f"^v has dimension {dim}, the polytope 2$"):
        as_weight(w, 2, "v")
    with pytest.raises(ValueError, match=f"^v has dimension {dim}, the polytope 2$"):
        require_positive(w, p2, name="v")
    assert as_weight(w).dim == dim  # with no dim there is nothing to check


# -- the one value / gradient / Hessian routine ------------------------------------

DERIVATIVE_EXPONENTS = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1),
                        Fraction(3, 2), Fraction(2)]
SAMPLE_BOX = 0.5  # points are drawn from [-1/2, 1/2]^dim


@st.composite
def _weight_terms(draw, dim, polynomial):
    """A grammar term whose affine factors are at least 1 on the sample box; with
    `polynomial`, only positive integral exponents and no exp part."""
    exponents = [p for p in DERIVATIVE_EXPONENTS if p > 0 and p.denominator == 1] \
        if polynomial else DERIVATIVE_EXPONENTS
    vector = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    factors = []
    for _ in range(draw(st.integers(0, 2))):
        zeta = draw(vector)
        const = Fraction(sum(map(abs, zeta)), 2) + draw(st.integers(1, 3))
        factors.append((AffineFunction(zeta, const), draw(st.sampled_from(exponents))))
    exp_part = None
    if not polynomial and draw(st.booleans()):
        exp_part = AffineFunction([Fraction(z, 4) for z in draw(vector)], Fraction(1, 3))
    alphas = [a for d in range(4) for a in compositions(d, dim)]
    coeffs = draw(st.dictionaries(st.sampled_from(alphas), st.integers(-3, 3), max_size=4))
    poly = Polynomial(dim, coeffs) if any(coeffs.values()) else None
    coeff = Fraction(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.integers(1, 3)))
    return WeightFn(dim, coeff, factors, exp_part, poly)


@st.composite
def _weights_and_points(draw):
    dim = draw(st.integers(1, 3))
    polynomial = draw(st.booleans())
    w = draw(_weight_terms(dim, polynomial))
    if draw(st.booleans()):
        w = w + draw(_weight_terms(dim, polynomial))
    coordinate = st.floats(-SAMPLE_BOX, SAMPLE_BOX, allow_nan=False)
    pts = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                        min_size=1, max_size=3))
    return w, np.array(pts)


def _central_difference(f, pts, h):
    """(N, ..., r): d f / d x_i by central differences, stacked on the last axis."""
    steps = h * np.eye(pts.shape[1])
    return np.stack([(f(pts + e) - f(pts - e)) / (2 * h) for e in steps], axis=-1)


def _magnitude(w, pts):
    """A bound on the size of w and its first two derivatives at pts: every term
    with |coeff|, its polynomial part replaced by 1 + sum |c_a|."""
    total = 0
    for t in w.terms():
        norm = 1 + sum(abs(c) for c in t.poly_part.coeffs.values()) if t.poly_part else 1
        bare = WeightFn(t.dim, abs(t.coeff) * norm, t.affine_powers, t.exp_part)
        total = total + bare.eval(pts)
    return total


def _abs_bound(poly, pts):
    """sum |c_a| |x|^a, the size of the sum that evaluates poly at pts."""
    return Polynomial(poly.dim, {a: abs(c) for a, c in poly.coeffs.items()}).eval(np.abs(pts))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_weights_and_points())
def test_value_gradient_and_hessian_agree(case):
    w, pts = case
    r = pts.shape[1]
    h = 1e-5
    grad, hess = w.grad(pts), w.hess(pts)
    scale = _magnitude(w, pts)
    # the stencil leaves the box by h, where the scale moves by O(h)
    assert np.all(np.abs(grad - _central_difference(w.eval, pts, h))
                  <= 1e-6 * scale[:, None])
    assert np.all(np.abs(hess - _central_difference(w.grad, pts, h))
                  <= 1e-6 * scale[:, None, None])
    assert np.array_equal(hess, hess.swapaxes(1, 2))
    for row, x in enumerate(pts):
        assert np.array_equal(w.eval(x), w.eval(x[None])[0])
        assert np.array_equal(w.grad(x), grad[row])
        assert np.array_equal(w.hess(x), hess[row])
    if w.is_polynomial:
        poly = w.to_polynomial()
        bound = _abs_bound(poly, pts) + sum(_abs_bound(poly.partial(i), pts) for i in range(r))
        for i in range(r):
            d = poly.partial(i)
            assert np.all(np.abs(grad[:, i] - d.eval(pts)) <= 1e-12 * (1 + bound))
            for j in range(r):
                assert np.all(np.abs(hess[:, i, j] - d.partial(j).eval(pts))
                              <= 1e-12 * (1 + bound))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_weights_and_points())
def test_jet_orders_and_single_points_agree_bitwise(case):
    # a lower order is the prefix of the full jet, and a point alone is its batch row
    w, pts = case
    full = w._jet(pts, 2)
    assert [part.shape for part in full] == [pts.shape[:1], pts.shape, pts.shape + pts.shape[1:]]
    assert np.array_equal(w.eval(pts), full[0])  # the value the metric kernel reads
    for order in range(3):
        jet = w._jet(pts, order)
        assert len(jet) == order + 1
        for part, whole in zip(jet, full):
            assert np.array_equal(part, whole)
    for row, x in enumerate(pts):
        for part, whole in zip(w._jet(x, 2), full):
            assert np.array_equal(part, whole[row])


@st.composite
def _soliton_cases(draw):
    """(v, m, points): v one or two grammar terms, some with a constant affine factor."""
    dim = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        t = draw(_weight_terms(dim, False))
        if draw(st.booleans()):
            constant = AffineFunction([0] * dim, draw(st.integers(1, 3)))
            t = t * WeightFn.affine_power(constant, draw(st.sampled_from(DERIVATIVE_EXPONENTS)))
        terms.append(t)
    v = terms[0] if len(terms) == 1 else WeightSum(terms)
    coordinate = st.floats(-SAMPLE_BOX, SAMPLE_BOX, allow_nan=False)
    pts = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                        min_size=1, max_size=3))
    return v, draw(st.integers(0, 4)), np.array(pts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_soliton_cases())
def test_soliton_pair_is_the_euler_form(case):
    """w = 2(m v + <x, grad v>), one term of w per term of v, to rounding relative
    to the size of v's terms (_magnitude), since the terms may cancel."""
    v, m, pts = case
    _, w = soliton_weight_pair(v, m)
    assert len(w.terms()) == len(v.terms())
    assert isinstance(w, WeightFn) == isinstance(v, WeightFn)
    expected = 2 * (m * v.eval(pts) + np.einsum("ni,ni->n", v.grad(pts), pts))
    assert np.all(np.abs(w.eval(pts) - expected) <= 1e-12 * (1 + m) * _magnitude(v, pts))


def test_weight_term_times_a_number_or_a_polynomial():
    t = WeightFn.affine_power(_affine([1], 2), -1)
    q = Polynomial(1, {(1,): 1, (0,): 3})
    assert t * 2 == t.scale(2)
    assert t * Fraction(1, 2) == t.scale(Fraction(1, 2))
    assert t * q == t * WeightFn.from_polynomial(q)
    assert ((t + 1) * 2).eval(np.array([0.0])) == (t * 2 + 2).eval(np.array([0.0])) == 3.0


def test_a_term_times_a_sum_distributes():
    t = WeightFn.exp_affine([Fraction(1, 3), 0], 0) * WeightFn.affine_power(
        _affine([1, 0], 2), Fraction(1, 2))
    s = WeightFn.from_polynomial(Polynomial.linear([1, 2], 3)) + WeightFn.affine_power(
        _affine([0, 1], 2), -1)
    product = t * s
    assert isinstance(product, WeightSum) and len(product.terms()) == 2
    pts = np.random.default_rng(5).random((20, 2)) - 0.5
    terms = [(t * term).eval(pts) for term in s.terms()]
    np.testing.assert_array_equal(product.eval(pts), terms[0] + terms[1])
    np.testing.assert_allclose(product.eval(pts), t.eval(pts) * s.eval(pts), rtol=1e-14)


def test_an_exp_weight_is_not_a_polynomial():
    with pytest.raises(ValueError, match="^weight is not purely polynomial$"):
        WeightFn.exp_affine([1, 0], 0).to_polynomial()


def test_a_number_needs_a_dimension_to_be_a_weight():
    with pytest.raises(ValueError, match="^dim required to coerce a scalar to a weight$"):
        as_weight(2)


# -- canonical form at construction -----------------------------------------------


@lru_cache(maxsize=None)
def _canonical_polytope(name):
    return make_polytope(*[(n, 1) for n in CANONICAL_NORMALS[name]])


@st.composite
def _split_powers(draw):
    """(polytope, ell, p, parts): ell >= 1 on P^2, F_1 or P^3, an integer p, and
    rational exponents, some of them fractional, that sum to p."""
    polytope = _canonical_polytope(draw(st.sampled_from(("P2", "F1", "P3"))))
    zeta = draw(st.lists(st.integers(-2, 2), min_size=polytope.dim, max_size=polytope.dim))
    low = polytope.vertex_min(AffineFunction(zeta, 0))
    ell = AffineFunction(zeta, 1 - low + draw(st.integers(0, 2)))
    p = draw(st.integers(-4, 3))
    parts = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=3))
    return polytope, ell, p, parts + [p - sum(parts)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_split_powers())
def test_a_split_power_is_the_power(case):
    """ell^p split into several factors, from the constructor, the product or JSON, is the
    weight built with p: equal, with one hash and the identical integral, the same Fraction
    on the exact path (p >= 0, or a constant ell, which folds into the coefficient) and the
    same float from the closed form (p < 0)."""
    polytope, ell, p, parts = case
    whole = WeightFn.affine_power(ell, p)
    product = WeightFn.constant(polytope.dim)
    for q in parts:
        product = product * WeightFn.affine_power(ell, q)
    entries = [{"zeta": [str(z) for z in ell.zeta], "a": str(ell.const), "pow": str(q)}
               for q in parts]
    for split in (WeightFn(polytope.dim, 1, [(ell, q) for q in parts]), product,
                  weight_from_json({"affine_powers": entries}, polytope.dim)):
        assert split == whole and hash(split) == hash(whole)
        assert integrate_weighted(polytope, split) == integrate_weighted(polytope, whole)
    res = integrate_weighted(polytope, whole)
    assert (type(res.exact) is Fraction) == (p >= 0 or not any(ell.zeta))
    assert res.subdivisions == 0


@pytest.mark.parametrize("c, p, coeff", [
    (-2, -1, Fraction(-1, 2)), (2, -3, Fraction(1, 8)), (0, 2, 0), (1, Fraction(-5, 2), 1),
    (0, -1, None), (0, Fraction(1, 2), None), (-2, Fraction(1, 2), None), (3, Fraction(2, 3), None)])
def test_a_constant_factor_of_rational_value_folds(c, p, coeff):
    """c^p with integer p and c != 0, 0^p with p > 0 and 1^p fold into the coefficient from the
    constructor, the product and JSON alike, with one hash; 0^p with p < 0 and c^(a/b) with
    c != 1 stay factors."""
    const, ell = AffineFunction([0, 0], c), AffineFunction([1, 0], 2)
    entries = [{"zeta": [0, 0], "a": c, "pow": str(p)}, {"zeta": [1, 0], "a": 2, "pow": 1}]
    built = WeightFn(2, 1, [(const, p), (ell, 1)])
    for same in (WeightFn.affine_power(const, p) * WeightFn.affine_power(ell, 1),
                 weight_from_json({"affine_powers": entries}, 2)):
        assert same == built and hash(same) == hash(built)
    if coeff is None:
        assert built.coeff == 1 and built.affine_powers == ((const, p), (ell, 1))
    else:
        assert built.coeff == coeff and built.affine_powers == ((ell, 1),)


@pytest.mark.parametrize("c, p", [(2, Fraction(3, 2)), (Fraction(3, 5), Fraction(-7, 3))])
def test_a_fractional_power_of_a_positive_constant_has_one_form(p2, c, p):
    """c^p for c > 0, c != 1 and fractional p folds c^floor(p) into the coefficient and keeps
    c^(p - floor(p)), so c^p and the product c^floor(p) c^(p - floor(p)) are one weight: equal,
    with one hash and one JSON echo, and times exp(x1) one integral."""
    const, whole_part = AffineFunction([0, 0], c), math.floor(p)
    built = WeightFn(2, 1, [(const, p)])
    split = WeightFn.affine_power(const, whole_part) * WeightFn.affine_power(const, p - whole_part)
    assert built.coeff == Fraction(c) ** whole_part
    assert built.affine_powers == ((const, p - whole_part),)
    assert split == built and hash(split) == hash(built)
    assert weight_to_json(split) == weight_to_json(built)
    exp = WeightFn.exp_affine([1, 0], 0)
    assert integrate_weighted(p2, split * exp) == integrate_weighted(p2, built * exp)


def test_exp_of_zero_drops():
    # exp(0) is the constant 1; exp(0 x + c) with c != 0 keeps its exp part
    zero, third = WeightFn.exp_affine([0, 0], 0), WeightFn.exp_affine([0, 0], Fraction(1, 3))
    assert zero == WeightFn.constant(2) and zero.exp_part is None
    assert third.exp_part == AffineFunction([0, 0], Fraction(1, 3))


def test_repeated_factors_merge_in_first_seen_order():
    ell, other = _affine([1, 0], 2), _affine([0, 1], 3)
    w = WeightFn(2, 1, [(ell, 1), (other, Fraction(1, 2)), (ell, -1), (other, 2)])
    assert w.affine_powers == ((other, Fraction(5, 2)),)
    assert WeightFn(2, 1, [(other, 1), (ell, 2), (other, -2)]).affine_powers == (
        (other, -1), (ell, 2))


def test_merged_factors_take_the_exact_path(p2):
    """ell^(1/2) ell^(1/2) = ell and ell ell^-1 = 1 are polynomials: exact, and ell ell^-1
    is not singular where ell vanishes (x_1 + 1 = 0 on a facet)."""
    ell = _affine([1, 0], 2)
    assert integrate_weighted(p2, WeightFn(2, 1, [(ell, Fraction(1, 2))] * 2)).exact == 9
    assert integrate_weighted(p2, WeightFn(2, 1, [(ell, 1), (ell, -1)])).exact == Fraction(9, 2)
    edge = _affine([1, 0], 1)
    assert integrate_weighted(p2, WeightFn(2, 1, [(edge, 1), (edge, -1)])).exact == Fraction(9, 2)


def test_a_one_term_sum_is_its_term():
    t = WeightFn.exp_affine([Fraction(1, 3), 0], 0)
    assert WeightSum([t]) is t
    assert WeightSum(x for x in [t]) is t
    assert isinstance(WeightSum([t, t]), WeightSum)
    with pytest.raises(ValueError, match="empty weight sum"):
        WeightSum([])
    exp = {"exp": {"zeta": ["1/3", "0"], "a": 0}}
    for obj in ([exp], {"sum": [exp]}):
        assert weight_from_json(obj, 2) == weight_from_json(exp, 2) == t


def test_canonical_weights_never_reach_the_cubature(p2, monkeypatch):
    """ell^-1 ell^-2, a one-term exp sum and a Reeb solve for the weight ["x1+2"] all take
    the closed form; the Reeb solve is bit for bit that of "x1+2"."""
    def cubature(*args):
        raise AssertionError("the adaptive cubature ran")

    monkeypatch.setattr(quadrature, "_adaptive", cubature)
    ell = _affine([1, 0], 2)
    poles = integrate_weighted(p2, WeightFn(2, 1, [(ell, -1), (ell, -2)]))
    assert poles == integrate_weighted(p2, WeightFn.affine_power(ell, -3))
    assert poles.value == pytest.approx(9 / 8, rel=1e-13)
    exp = {"exp": {"zeta": ["1/3", "0"], "a": 0}}
    assert (integrate_weighted(p2, weight_from_json({"sum": [exp]}, 2))
            == integrate_weighted(p2, weight_from_json(exp, 2)))
    listed, plain = (msy_reeb(p2, weight_from_json(w, 2), 3) for w in (["x1+2"], "x1+2"))
    assert listed.xi0 == plain.xi0 and listed.iterations == plain.iterations
