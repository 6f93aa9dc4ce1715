"""The integer exact kernels against the Fraction forms they replaced.

`moment_table`, `quadrature._dot_shifted`, the boundary pull-back of
`integrate_products` and `WeightFn.to_polynomial` run in integers over common
denominators and build one Fraction per result. The oracles below are their
Fraction forms, kept here unchanged: every result must be the same Fraction.
"""

from fractions import Fraction
from math import factorial, lcm, prod
from operator import add, mul

from hypothesis import given, settings
from hypothesis import strategies as st

from torickstab.polynomial import Polynomial, compositions, expand, linear_terms
from torickstab.polytope import (
    AffineFunction, MomentTable, Simplex, _det, _edge_matrix, moment_table,
)
from torickstab.quadrature import _dot_shifted, _integer_line, integrate_products
from torickstab.weights import WeightFn

from conftest import CANONICAL_NORMALS, POLYGONS, moved_canonical

# -- Fraction oracles ----------------------------------------------------------------


def _moment_table_fraction(simplices, degree):
    """{alpha: Fraction}: the series summed in integers, one Fraction per alpha with
    denominator (|alpha| + r)! q^(|alpha| + r)."""
    dim = simplices[0].dim
    alphas = [a for k in range(degree + 1) for a in compositions(k, dim)]
    index = {a: i for i, a in enumerate(alphas)}
    lower = [[(j, index[a[:j] + (a[j] - 1,) + a[j + 1:]]) for j in range(dim) if a[j]]
             for a in alphas]
    q = lcm(*(c.denominator for s in simplices for v in s.vertices for c in v))
    sums = [0] * len(alphas)
    for simplex in simplices:
        points = [[int(c * q) for c in v] for v in simplex.vertices]
        d = abs(_det(_edge_matrix(points)))
        g = [1] + [0] * (len(alphas) - 1)
        for p in points:
            for i in range(1, len(alphas)):
                g[i] += sum(p[j] * g[k] for j, k in lower[i])
        for i, gi in enumerate(g):
            sums[i] += d * gi
    return {
        a: Fraction(total * prod(factorial(e) for e in a),
                    factorial(sum(a) + dim) * q ** (sum(a) + dim))
        for a, total in zip(alphas, sums)
    }


def _dot_shifted_fraction(table, poly, lines):
    """int poly * prod(c + <zeta, t>) for each list of Fraction (c, zeta) factors."""
    moments = table(poly.degree() + max(map(len, lines), default=0))
    mults = [expand([((1,) * len(factors), 1)],
                    [linear_terms(zeta, c) for c, zeta in factors], poly.dim)
             for factors in lines]
    shifted = {beta: sum((c * moments[tuple(map(add, a, beta))] for a, c in poly.coeffs.items()),
                         Fraction(0)) for beta in set().union(*mults)}
    return [sum((d * shifted[beta] for beta, d in q.items()), Fraction(0)) for q in mults]


def _products_fraction(polytope, poly, products, boundary):
    """integrate_products' exact values, with every line pulled back in Fractions."""
    def table(p):
        return lambda degree: _moment_table_fraction(p.triangulate(), degree)

    lines = [[(ell.const, ell.zeta) for ell in ells] for ells in products]
    if not boundary:
        return _dot_shifted_fraction(table(polytope), poly, lines)
    exact = [0] * len(products)
    for _, f in polytope.facets():
        facet_table = table(f.subpolytope) if f.subpolytope else lambda _: {(): 1}
        pulled = [[(sum(map(mul, zeta, f.origin), c),
                    [sum(map(mul, zeta, col)) for col in zip(*f.basis)])
                   for c, zeta in factors] for factors in lines]
        exact = list(map(add, exact, _dot_shifted_fraction(
            facet_table, poly.compose_affine(f.basis, f.origin), pulled)))
    return exact


# -- strategies ---------------------------------------------------------------------

_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7, 11]))


@st.composite
def _simplices(draw, dim):
    """1-3 rational simplices of dimension dim, each with a nonzero volume."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        origin = [draw(_fractions) for _ in range(dim)]
        edges = [[draw(_fractions) if i < k else draw(_fractions.filter(bool)) if i == k else 0
                  for i in range(dim)] for k in range(dim)]
        out.append(Simplex([origin] + [list(map(add, origin, e)) for e in edges]))
    return out


def _polynomials(dim, degree):
    alphas = [a for k in range(degree + 1) for a in compositions(k, dim)]
    return st.lists(_fractions, min_size=len(alphas), max_size=len(alphas)).map(
        lambda cs: Polynomial(dim, dict(zip(alphas, cs))))


def _affine(dim):
    return st.builds(AffineFunction, st.lists(_fractions, min_size=dim, max_size=dim), _fractions)


@st.composite
def _dot_cases(draw):
    dim = draw(st.integers(1, 3))
    products = draw(st.lists(st.lists(_affine(dim), max_size=2), min_size=1, max_size=3))
    return draw(_simplices(dim)), draw(_polynomials(dim, draw(st.integers(0, 4)))), products


# -- tests ----------------------------------------------------------------------------


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(_simplices), st.integers(0, 4))
def test_moment_table_is_the_fraction_table_over_one_denominator(simplices, degree):
    table = moment_table(simplices, degree)
    dim = simplices[0].dim
    q = lcm(*(c.denominator for s in simplices for v in s.vertices for c in v))
    assert isinstance(table, MomentTable)
    assert table.denominator == factorial(degree + dim) * q ** (degree + dim)
    assert all(type(n) is int for n in table.numerators.values())
    oracle = _moment_table_fraction(simplices, degree)
    assert dict(table) == oracle
    assert all(type(table[a]) is Fraction for a in oracle)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dot_cases())
def test_dot_shifted_returns_the_fraction_dot_products(case):
    simplices, poly, products = case
    got = _dot_shifted(lambda degree: moment_table(simplices, degree), poly,
                       [_integer_line(ells) for ells in products])
    want = _dot_shifted_fraction(lambda degree: _moment_table_fraction(simplices, degree), poly,
                                 [[(ell.const, ell.zeta) for ell in ells] for ells in products])
    assert got == want
    assert all(type(x) is Fraction for x in got)


_shears = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
                   max_size=2)


@st.composite
def _boundary_cases(draw):
    """A canonical polytope of dimension 1-3 in a sheared basis, translated by a
    rational vector, a polynomial of degree <= 3 and lines of affine factors."""
    name = draw(st.sampled_from(("P1",) + POLYGONS + ("P3",)))
    dim = len(CANONICAL_NORMALS[name][0])
    polytope = moved_canonical(name, draw(_shears),
                               draw(st.lists(_fractions, min_size=dim, max_size=dim)))
    products = draw(st.lists(st.lists(_affine(dim), max_size=2), min_size=1, max_size=3))
    return polytope, draw(_polynomials(dim, draw(st.integers(0, 3)))), products


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_boundary_cases())
def test_integer_pullback_gives_the_fraction_boundary_and_bulk_values(case):
    polytope, poly, products = case
    for boundary in (True, False):
        got = [res.exact for res in integrate_products(polytope, poly, products,
                                                       boundary=boundary)]
        assert got == _products_fraction(polytope, poly, products, boundary)
        assert all(type(x) is Fraction for x in got)


@st.composite
def _weights(draw):
    dim = draw(st.integers(1, 3))
    powers = draw(st.lists(st.tuples(_affine(dim), st.integers(1, 3)), max_size=3))
    poly = draw(st.none() | _polynomials(dim, draw(st.integers(0, 2))))
    return WeightFn(dim, draw(_fractions.filter(bool)), powers, None, poly)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_weights())
def test_integer_to_polynomial_is_the_fraction_expansion(w):
    forms = [linear_terms(aff.zeta, aff.const) for aff, _ in w.affine_powers]
    exponents = [int(p) for _, p in w.affine_powers]
    if w.poly_part is not None:
        forms.append(w.poly_part.coeffs)
        exponents.append(1)
    want = Polynomial(w.dim, expand([(tuple(exponents), w.coeff)], forms, w.dim))
    got = w.to_polynomial()
    assert got == want
    assert all(type(c) is Fraction for c in got.coeffs.values())
