"""integrate_products: one expansion of the weight, read off shifted moments.

The oracles are the per-direction paths: integrate_weighted of the product
weight, and a per-facet loop that pulls the product weight back to every facet
chart and integrates it there. Both must give the same Fractions. The
divergence identity ties the boundary functional to the polytope's own moment
table. Non-polynomial weights must give, bit for bit, integrate_weighted of the
product weight, which the soliton and Reeb solvers rely on.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torickstab.polynomial import Polynomial, compositions, expand
from torickstab.polytope import AffineFunction
from torickstab.quadrature import integrate_boundary, integrate_products, integrate_weighted
from torickstab.weights import WeightFn

from conftest import CANONICAL_NORMALS, POLYGONS, moved_canonical

NAMES = ("P1",) + POLYGONS + ("P3",)

_elevenths = st.builds(Fraction, st.integers(-7, 7), st.just(11))
_small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


def _basis(dim):
    return [AffineFunction.constant(dim, 1)] + [AffineFunction.coordinate(dim, i)
                                                for i in range(dim)]


@st.composite
def _cases(draw):
    """A canonical polytope translated by elevenths, a product weight of degree <= 3
    and a random affine direction."""
    name = draw(st.sampled_from(NAMES))
    dim = len(CANONICAL_NORMALS[name][0])
    vector = st.lists(_small, min_size=dim, max_size=dim)
    shift = draw(st.lists(_elevenths, min_size=dim, max_size=dim))
    weight = WeightFn.constant(dim, draw(_small.filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        weight = weight * WeightFn.affine_power(AffineFunction(draw(vector), draw(_small)), 1)
    return moved_canonical(name, (), shift), weight, AffineFunction(draw(vector), draw(_small))


def _times(weight, ells):
    out = Polynomial.constant(weight.dim, 1)
    for ell in ells:
        out = out * ell.as_polynomial()
    return weight * WeightFn.from_polynomial(out)


def _boundary_by_facets(polytope, weight):
    """Exact boundary integral of a polynomial weight, one facet chart at a time."""
    total = Fraction(0)
    for _, facet in polytope.facets():
        if facet.subpolytope is None:  # point facet (r = 1), d(sigma)-mass 1
            total += weight.to_polynomial().eval_exact(facet.origin)
        else:
            pulled = weight.compose_affine(facet.basis, facet.origin)
            total += integrate_weighted(facet.subpolytope, pulled).exact
    return total


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_cases())
def test_products_match_per_direction_paths(case):
    p, weight, ell = case
    directions = _basis(p.dim) + [ell]
    products = [()] + [(b,) for b in directions] + [(a, b) for a in directions
                                                     for b in directions]
    bulk = integrate_products(p, weight, products)
    assert [res.exact for res in bulk] == [
        integrate_weighted(p, _times(weight, ells)).exact for ells in products]
    assert all(res.value == float(res.exact) for res in bulk)
    singles = [(b,) for b in directions]
    boundary = integrate_products(p, weight, singles, boundary=True)
    assert [res.exact for res in boundary] == [
        _boundary_by_facets(p, _times(weight, ells)) for ells in singles]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(NAMES), st.lists(_elevenths, min_size=3, max_size=3))
def test_divergence_identity_monomial_by_monomial(name, shift):
    # int_P div(f (x - t)) dx = sum_F L_F(t) int_F f dsigma, and every facet
    # function L_F equals 1 at the translation t of a canonical polytope, so
    # int_bd x^g dsigma = (r + |g|) m_g - sum_i g_i t_i m_(g - e_i)
    dim = len(CANONICAL_NORMALS[name][0])
    t = shift[:dim]
    p = moved_canonical(name, (), t)
    moments = p.moments(4)
    basis = _basis(dim)
    for k in range(4):
        for alpha in compositions(k, dim):
            monomial = WeightFn.from_polynomial(Polynomial.monomial(dim, alpha))
            got = integrate_products(p, monomial, [(b,) for b in basis], boundary=True)
            for b, res in zip(basis, got):
                g = tuple(a + int(z) for a, z in zip(alpha, b.zeta))
                want = (dim + sum(g)) * moments[g] - sum(
                    g[i] * t[i] * moments[g[:i] + (g[i] - 1,) + g[i + 1:]]
                    for i in range(dim) if g[i])
                assert res.exact == want, (name, g)


def test_point_facets_of_the_interval(interval):
    # r = 1: the boundary is two points of d(sigma)-mass 1
    weight = WeightFn.from_polynomial(Polynomial(1, {(2,): 3, (0,): 1}))
    x = AffineFunction([1], 0)
    res = integrate_products(interval, weight, [(), (x,), (x, x)], boundary=True)
    assert [r.exact for r in res] == [8, 0, 8]


def test_nonpolynomial_weights_take_the_adaptive_path(p2):
    weight = WeightFn.exp_affine([Fraction(1, 3), 0], 0)
    ell = AffineFunction([1, -1], 2)
    for boundary in (False, True):
        (res,) = integrate_products(p2, weight, [(ell,)], boundary=boundary)
        integrate = integrate_boundary if boundary else integrate_weighted
        assert res.exact is None
        assert res.value == integrate(p2, _times(weight, (ell,))).value
    # the soliton and Reeb gradient and Hessian moments: exp(<zeta, x>) and
    # (<zeta, x> + 1)^(-r-2) times x_i and x_i x_j, bit for bit as
    # integrate_weighted gives them for each product weight
    p3 = moved_canonical("P3", (), (0, 0, 0))
    for p, zeta in ((p2, (Fraction(1, 7), Fraction(-2, 11))),
                    (p3, (Fraction(1, 7), Fraction(-1, 11), Fraction(1, 13)))):
        x = [AffineFunction.coordinate(p.dim, i) for i in range(p.dim)]
        products = [(xi,) for xi in x] + [(x[i], x[j]) for i in range(p.dim)
                                          for j in range(i, p.dim)]
        for weight in (WeightFn.exp_affine(zeta, 0),
                       WeightFn.affine_power(AffineFunction(zeta, 1), -p.dim - 2)):
            for res, ells in zip(integrate_products(p, weight, products), products):
                want = integrate_weighted(p, _times(weight, ells))
                assert res.exact is None
                assert (res.value, res.error_estimate, res.subdivisions) == (
                    want.value, want.error_estimate, want.subdivisions)


def test_expand_matches_repeated_products():
    """`expand` against products taken one factor at a time with `Polynomial.__mul__`."""
    f = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): -3, (0, 0): 1})
    g = Polynomial(2, {(2, 0): 1, (1, 1): -1, (0, 0): Fraction(-2, 3)})
    terms = [((2, 1), Fraction(3, 4)), ((0, 3), -2), ((1,), 5), ((0, 0), 7)]
    expected = Polynomial(2, {})
    for a, c in terms:
        product = Polynomial.constant(2, c)
        for form, e in zip((f, g), a):
            for _ in range(e):
                product = product * form
        expected = expected + product
    assert Polynomial(2, expand(terms, [f.coeffs, g.coeffs], 2)) == expected
    assert f.power(3) == f * f * f and f.power(0) == Polynomial.constant(2, 1)
    with pytest.raises(ValueError, match="negative exponent"):
        f.power(-1)
