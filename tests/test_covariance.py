"""Lattice covariance: results carried by a unimodular change of basis and a shift.

With the normals moved to M u by a unimodular M and no shift, a point x of the
polytope moves to M^-T x, and a function <c, x> to <M c, x>; a rational shift b
then moves x to M^-T x + b. Such a test needs no reference values, so it shares
no code or formula with the paths it checks.
"""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torickstab.invariants import barycenter, extremal_affine, futaki_boundary
from torickstab.polynomial import Polynomial
from torickstab.polytope import AffineFunction
from torickstab.solvers import msy_reeb, tian_zhu_soliton
from torickstab.toricmetrics import GridSpec, futaki_numeric, scaled_bump
from torickstab.weights import WeightFn, soliton_weight_pair

from conftest import CANONICAL_NORMALS, POLYGONS, fano_twists, moved_canonical, shear_matrix

_shears = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-1, 1])),
                   max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(POLYGONS + ("P3",)), _shears, st.integers(1, 3))
@example("F1", [(0, 1, 2), (1, 0, -1)], 2)  # M = [[1, 2], [-1, -1]]
def test_twists_move_by_the_basis_change(name, shears, k):
    normals = CANONICAL_NORMALS[name]
    m = shear_matrix(len(normals[0]), shears)
    # <c, x> + k > 0 on P iff <M c, M^-T x> + k > 0 on the image
    moved = {tuple(sum(a * b for a, b in zip(row, c)) for row in m)
             for c in fano_twists(moved_canonical(name, (), ()), k)}
    image = fano_twists(moved_canonical(name, shears, ()), k)
    assert len(image) == len(moved) and set(image) == moved


_shifts = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=12),
                   min_size=3, max_size=3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(POLYGONS + ("P3",)), _shears, _shifts)
@example("F1", [(0, 1, 2), (1, 0, -1)], [Fraction(1, 3), Fraction(-5, 7), 0])
@example("P3", [(0, 1, 1), (2, 0, -1)], [Fraction(1, 3), Fraction(-5, 7), Fraction(1, 2)])
def test_construction_moves_by_the_affine_map(name, shears, shift):
    # P' = {y : <M u, y - b> + 1 >= 0} is the image of P under T(x) = M^-T x + b, so
    # T^-1(y) = M^T (y - b) carries P' back to P; T preserves Lebesgue and lattice measure
    dim = len(CANONICAL_NORMALS[name][0])
    m, b = shear_matrix(dim, shears), shift[:dim]
    p, moved = moved_canonical(name, (), ()), moved_canonical(name, shears, b)

    def back(y):  # T^-1(y)
        return tuple(sum(m[k][i] * (y[k] - b[k]) for k in range(dim)) for i in range(dim))

    assert len(moved.vertices) == len(p.vertices)
    assert {back(y) for y in moved.vertices} == set(p.vertices)
    assert moved.volume() == p.volume()
    assert (sorted(f.sigma_measure() for _, f in moved.facets())
            == sorted(f.sigma_measure() for _, f in p.facets()))
    assert back(barycenter(moved, 1)) == barycenter(p, 1)
    # ell' = ell o T^-1: zeta' = M zeta and const' + <zeta', b> = const
    ell, image = extremal_affine(p, 1, 1).function, extremal_affine(moved, 1, 1).function
    assert image.zeta == tuple(sum(map(mul, row, ell.zeta)) for row in m)
    assert image.const + sum(map(mul, image.zeta, b)) == ell.const
    assert all(type(c) is Fraction for c in (*image.zeta, image.const, *barycenter(moved, 1)))


_terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=6)), max_size=4)


def _polynomial(dim, terms):
    """The sum of the monomials c x^a over the (a, c) of terms, a cut to dim entries."""
    return sum((Polynomial.monomial(dim, a[:dim], c) for a, c in terms),
               Polynomial.constant(dim, 0))


def _pulled_back(f, m, b):
    """f o T^-1 for T^-1(y) = M^T (y - b)."""
    mt = [list(column) for column in zip(*m)]
    return f.compose_affine(mt, [-sum(map(mul, row, b)) for row in mt])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(POLYGONS + ("P3",)), _shears, _shifts, _terms, _terms,
       st.lists(st.integers(-2, 2), min_size=4, max_size=4))
@example("F1", [(0, 1, 2), (1, 0, -1)], [Fraction(1, 3), Fraction(-5, 7), 0],
         [((1, 2, 0), Fraction(-2)), ((0, 1, 0), Fraction(1, 3))],
         [((2, 0, 0), Fraction(3, 2)), ((0, 0, 0), Fraction(-1))], [1, -2, 0, 1])
@example("P3", [(0, 1, 1), (2, 0, -1)], [Fraction(1, 3), Fraction(-5, 7), Fraction(1, 2)],
         [((1, 1, 1), Fraction(1)), ((0, 2, 0), Fraction(-1, 2))],
         [((0, 1, 2), Fraction(2)), ((1, 0, 0), Fraction(-3))], [2, 1, -1, -2])
def test_exact_futaki_values_move_by_the_affine_map(name, shears, shift, v_terms, w_terms, ell):
    # with T(x) = M^-T x + b preserving Lebesgue and lattice boundary measure, the boundary
    # formula of v o T^-1, w o T^-1 and ell o T^-1 over T(P) is the identical Fraction, and the
    # positivity certificate gives the same verdict on each weight and its pull-back
    dim = len(CANONICAL_NORMALS[name][0])
    m, b = shear_matrix(dim, shears), shift[:dim]
    p, moved = moved_canonical(name, (), ()), moved_canonical(name, shears, b)
    # |x_i| <= 3 on these polytopes, so both factors of v are at least 1 there
    bound = 1 + sum(abs(c) * 3 ** sum(a[:dim]) for a, c in v_terms)
    v = (WeightFn.from_polynomial(_polynomial(dim, v_terms) + Polynomial.constant(dim, bound))
         * WeightFn.affine_power(AffineFunction(ell[:dim], 1 + 3 * sum(map(abs, ell[:dim]))), 1))
    w = WeightFn.from_polynomial(_polynomial(dim, w_terms))
    direction = AffineFunction(ell[:dim], ell[3])
    report = futaki_boundary(p, v, w, direction)
    image = futaki_boundary(moved, _pulled_back(v, m, b), _pulled_back(w, m, b),
                            _pulled_back(direction, m, b))
    assert type(report.exact) is Fraction and image.exact == report.exact
    for weight in (v, w, w * direction):
        assert _pulled_back(weight, m, b).positivity_on(moved) is weight.positivity_on(p)


def _moved_weight(kind, zeta):
    """p = 1, x1 + 2 + <zeta, x> / 2 or exp(<zeta, x>), given its linear part zeta."""
    if kind == "one":
        return WeightFn.constant(len(zeta), 1)
    if kind == "affine":
        return WeightFn.affine_power(AffineFunction([z / 2 for z in zeta], 2), 1)
    return WeightFn.exp_affine(zeta, 0)


@pytest.mark.parametrize("name", ["F1", "Bl2P2"])
@pytest.mark.parametrize("shears", [[(0, 1, 2), (1, 0, -1)], [(1, 0, 1)]])
@pytest.mark.parametrize("kind", ["one", "affine", "exp"])
@pytest.mark.parametrize("solve", [tian_zhu_soliton, lambda p, w: msy_reeb(p, w, 3)],
                         ids=["soliton", "reeb"])
def test_solvers_move_by_the_basis_change(name, shears, kind, solve):
    # F'(xi') = int g(<xi', y>) p(M^T y) dy over the image is F(M^T xi'), as M^-T keeps
    # Lebesgue measure, so the Newton iterates move to xi' = M xi and the objectives agree,
    # from the exact origin on. The exp Reeb solves take the adaptive cubature on both
    # triangulations
    m = shear_matrix(2, shears)
    zeta = [Fraction(3, 10), Fraction(-1, 5)]
    moved_zeta = [sum(map(mul, row, zeta)) for row in m]
    res = solve(moved_canonical(name, (), ()), _moved_weight(kind, zeta))
    image = solve(moved_canonical(name, shears, ()), _moved_weight(kind, moved_zeta))
    assert res.converged and image.converged and image.iterations == res.iterations
    moved_xi = [sum(map(mul, row, res.xi0)) for row in m]
    assert max(abs(a - b) for a, b in zip(image.xi0, moved_xi)) <= 1e-12
    assert abs(image.objective - res.objective) <= 1e-12 * abs(res.objective)


@pytest.mark.parametrize("shears", [[], [(1, 0, -2)], [(1, 0, -4)], [(1, 0, -7)],
                                    [(1, 0, -2), (0, 1, -2), (1, 0, -1)]],
                         ids=["I", "[[1,2],[0,1]]", "[[1,4],[0,1]]", "[[1,7],[0,1]]", "[[3,7],[2,5]]"])
def test_the_metric_side_moves_by_the_basis_change(shears):
    # P^2 with normals M u is P^2 moved by x -> M^-T x (the ids name M^-T), and the bump
    # b = 3 x1^2 x2^2 + 2 x1^3 moves along to b(M^T y). The convexity check evaluates Hess u at
    # the Gauss pair's nodes in the moved simplex, so scaled_bump halves b three times in every
    # basis; the metric-side Futaki values of the soliton pair of v = x1 + 2, moved along, lie
    # within their error estimates of the boundary formula
    m = shear_matrix(2, shears)
    p = moved_canonical("P2", shears, ())
    bump = Polynomial(2, {(2, 2): Fraction(3), (3, 0): Fraction(2)}).compose_affine(
        [list(column) for column in zip(*m)], [0, 0])
    u = scaled_bump(p, bump)
    v, w = soliton_weight_pair(WeightFn.affine_power(AffineFunction([row[0] for row in m], 2), 1), 2)
    directions = [AffineFunction([1, 0], 0), AffineFunction([0, 1], 0)]
    for ell, num in zip(directions, futaki_numeric(p, u, v, w, directions, GridSpec(400))):
        assert abs(num.value - futaki_boundary(p, v, w, ell).value) <= num.error_estimate
    assert u.bump == bump.scale(Fraction(1, 8))
