import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torickstab.errors import NotPositive
from torickstab.polynomial import Polynomial, compositions
from torickstab.polytope import AffineFunction
from torickstab.quadrature import integrate_weighted
from torickstab.weights import (
    Positivity,
    WeightFn,
    WeightSum,
    _polynomial_sign,
    as_weight,
    equivalent_sasaki_pair,
    require_positive,
    sasaki_weight_pair,
    soliton_weight_pair,
)

from conftest import CANONICAL_NORMALS, POLYGONS, make_polytope


def _affine(zeta, a):
    return AffineFunction(zeta, a)


def test_soliton_pair_trivial():
    v, w = soliton_weight_pair(WeightFn.constant(1, 1), 3)
    assert w.eval_exact((Fraction(1, 7),)) == 6


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


def test_soliton_pair_rejects_free_polynomial():
    bad = WeightFn.from_polynomial(Polynomial(1, {(2,): 1, (0,): 3}))
    with pytest.raises(ValueError):
        soliton_weight_pair(bad, 1)


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


def test_eval_examples():
    w = WeightFn.exp_affine([1], 0) * WeightFn.affine_power(_affine([1], 2), 1)
    assert w.eval(np.array([0.0])) == pytest.approx(2.0)
    w2 = WeightFn.affine_power(_affine([1], 2), -3)
    assert w2.grad(np.array([[0.0]]))[0, 0] == pytest.approx(-3.0 / 16.0)
    w3 = WeightFn.exp_affine([Fraction(2, 3), Fraction(-1, 5)], 0)
    g = w3.grad(np.zeros((1, 2)))[0]
    assert g == pytest.approx([2 / 3, -1 / 5])


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
        assert polytope.contains(witness) and poly.eval_exact(witness) <= 0
    else:
        assert witness is None
    lifted = raw + Polynomial.constant(polytope.dim, bound)
    assert _polynomial_sign(lifted, polytope) == (Positivity.POSITIVE, None)


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
    ]
    from torickstab.quadrature import _adaptive

    for p, v, m in cases:
        _, w = soliton_weight_pair(v, m)
        lhs = integrate_weighted(p, w).value
        int_v = integrate_weighted(p, v).value

        def inner(pts, v=v):
            return np.einsum("ni,ni->n", v.grad(pts), pts)

        grad_moment = _adaptive(p.triangulate(), inner, 1e-12, 1e-14, 40).value
        assert lhs == pytest.approx(2 * m * int_v + 2 * grad_moment, abs=1e-9)
