import math
from fractions import Fraction

import numpy as np
import pytest

from torickstab import invariants
from torickstab.errors import IllConditioned, NotCanonicalFano
from torickstab.fibration import BaseFactor, FibrationSpec, extremal_fibration_weights
from torickstab.invariants import (
    barycenter,
    extremal_affine,
    futaki_boundary,
    futaki_fano,
)
from torickstab.polytope import AffineFunction
from torickstab.quadrature import integrate_products
from torickstab.weights import WeightFn, require_positive, soliton_weight_pair

from conftest import POLYGONS, make_polytope, moved_canonical


def _affine_v(zeta, a):
    return WeightFn.affine_power(AffineFunction(zeta, a), 1)


def test_fano_closed_form_symmetric_vanishes(p2):
    one = WeightFn.constant(2, 1)
    for zeta in ([1, 0], [0, 1], [1, 1]):
        rep = futaki_fano(p2, one, zeta)
        assert rep.exact == 0
        assert rep.method == "fano_closed_form"


def test_fano_closed_form_interval_value(interval):
    # v = x + 2: 2 * integral of x (x + 2) dx over [-1, 1] = 4/3
    rep = futaki_fano(interval, _affine_v([1], 2), [1])
    assert rep.exact == Fraction(4, 3)


def test_fano_closed_form_requires_canonical():
    shifted = make_polytope(((1,), 0), ((-1,), 2))
    with pytest.raises(NotCanonicalFano):
        futaki_fano(shifted, WeightFn.constant(1, 1), [1])


def test_boundary_formula_examples(interval, square):
    one = WeightFn.constant(1, 1)
    # unweighted P^1: w = Scal = 2, every direction vanishes exactly
    rep = futaki_boundary(interval, one, WeightFn.constant(1, 2),
                          AffineFunction([1], 0))
    assert rep.exact == 0
    rep = futaki_boundary(interval, one, WeightFn.constant(1, 2),
                          AffineFunction.constant(1, 1))
    assert rep.exact == 0
    # P^1 x P^1: w = 4 kills the constant direction
    one2 = WeightFn.constant(2, 1)
    rep = futaki_boundary(square, one2, WeightFn.constant(2, 4),
                          AffineFunction.constant(2, 1))
    assert rep.exact == 0


def test_boundary_formula_soliton_pair_interval(interval):
    v, w = soliton_weight_pair(_affine_v([1], 2), 1)
    rep = futaki_boundary(interval, v, w, AffineFunction([1], 0))
    assert rep.exact == Fraction(4, 3)


def test_boundary_is_linear_in_direction(p2):
    v, w = soliton_weight_pair(_affine_v([1, 0], 3), 2)
    ell1 = AffineFunction([1, 2], Fraction(1, 3))
    ell2 = AffineFunction([0, -1], 2)
    combo = AffineFunction(
        [a + 2 * b for a, b in zip(ell1.zeta, ell2.zeta)],
        ell1.const + 2 * ell2.const)
    f1v = futaki_boundary(p2, v, w, ell1).value
    f2v = futaki_boundary(p2, v, w, ell2).value
    fc = futaki_boundary(p2, v, w, combo).value
    assert fc == pytest.approx(f1v + 2 * f2v, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("case", ["one", "affine", "exp"])
def test_boundary_agrees_with_closed_form(interval, p2, case):
    for p in (interval, p2):
        if case == "one":
            base = WeightFn.constant(p.dim, 1)
        elif case == "affine":
            base = _affine_v([1] + [0] * (p.dim - 1), 2)
        else:
            base = WeightFn.exp_affine(
                [Fraction(3, 10)] + [Fraction(0)] * (p.dim - 1), 0)
        v, w = soliton_weight_pair(base, p.dim)
        for i in range(p.dim):
            zeta = [1 if j == i else 0 for j in range(p.dim)]
            a = futaki_fano(p, v, zeta).value
            b = futaki_boundary(p, v, w, AffineFunction(zeta, 0)).value
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_symplectic_normalization_scales(interval):
    v = _affine_v([1], 2)
    base = futaki_fano(interval, v, [1])
    sym = futaki_fano(interval, v, [1], normalization="symplectic")
    assert sym.value == pytest.approx(2 * math.pi * base.value, rel=1e-14)
    assert sym.exact is None


def test_an_unknown_normalization_is_rejected(p2):
    with pytest.raises(ValueError, match="^unknown normalization 'bogus'$"):
        futaki_boundary(p2, 1, 3, AffineFunction([1, 0], 0), normalization="bogus")


def test_extremal_on_a_long_interval_is_ill_conditioned():
    # on [-1, 10^7] the Gram matrix of 1 and x has condition number 1.3e14
    with pytest.raises(IllConditioned, match="^Gram matrix condition number 1.333e[+]14, "):
        extremal_affine(make_polytope(((1,), 1), ((-1,), 10 ** 7)), 1, 1)


def test_extremal_interval_constant(interval):
    one = WeightFn.constant(1, 1)
    res = extremal_affine(interval, one, one)
    assert res.function.zeta == (0,)
    assert res.function.const == 2
    assert all(abs(r) <= 1e-12 for r in res.residuals)
    assert res.gram_min_eigenvalue > 0


def test_extremal_square_constant(square):
    one = WeightFn.constant(2, 1)
    res = extremal_affine(square, one, one)
    assert res.function.const == 4
    assert res.function.zeta == (0, 0)


def test_extremal_symmetric_linear_part_vanishes(p2):
    one = WeightFn.constant(2, 1)
    res = extremal_affine(p2, one, one)
    assert res.function.zeta == (0, 0)
    # constant equals 2 * boundary mass / volume = 2 * 9 / (9/2)
    assert res.function.const == 4


def test_extremal_asymmetric_exact_rationals(f1):
    one = WeightFn.constant(2, 1)
    res = extremal_affine(f1, one, one)
    assert all(isinstance(c, Fraction) for c in res.function.zeta)
    assert all(abs(r) <= 1e-10 for r in res.residuals)
    # exactness check: the defining system holds as rational identities
    assert futaki_boundary(
        f1, one, WeightFn.from_polynomial(res.function.as_polynomial()),
        AffineFunction.constant(2, 1)).exact == 0


def test_extremal_nonpolynomial_weight(interval):
    v = WeightFn.exp_affine([Fraction(1, 2)], 0)
    res = extremal_affine(interval, v, v)
    for b in (AffineFunction.constant(1, 1), AffineFunction([1], 0)):
        rep = futaki_boundary(
            interval, v,
            v * WeightFn.from_polynomial(res.function.as_polynomial()), b)
        assert abs(rep.value) <= 1e-9


def test_barycenter_values(interval, p2):
    one1 = WeightFn.constant(1, 1)
    one2 = WeightFn.constant(2, 1)
    assert barycenter(interval, one1) == (0,)
    assert barycenter(p2, one2) == (0, 0)
    # v = x + 2 on [-1, 1]: moment 2/3, mass 4
    assert barycenter(interval, _affine_v([1], 2)) == (Fraction(1, 6),)
    # v = exp(x) on [-1, 1]: moment 2/e, mass e - 1/e, in floats
    (x,) = barycenter(interval, WeightFn.exp_affine([1], 0))
    assert isinstance(x, float) and x == pytest.approx(2 / (math.e ** 2 - 1), rel=1e-13)


def test_barycenter_translation(p2):
    t = (Fraction(3), Fraction(-1, 2))
    one2 = WeightFn.constant(2, 1)
    moved = barycenter(p2.translated(t), one2)
    base = barycenter(p2, one2)
    assert moved == tuple(b + ti for b, ti in zip(base, t))


def test_fano_linearity_in_direction(p2):
    v = _affine_v([1, 1], 3)
    a = futaki_fano(p2, v, [1, 0]).exact
    b = futaki_fano(p2, v, [0, 1]).exact
    c = futaki_fano(p2, v, [2, -3]).exact
    assert c == 2 * a - 3 * b


def test_extremal_residuals_are_exactly_zero_on_the_canonical_polygons():
    # the residuals come from the boundary formula with a freshly integrated
    # bulk half, not from the Gram system; on the exact path they are
    # float(exact) = 0.0
    for name in POLYGONS:
        p = moved_canonical(name, (), ())
        v = WeightFn.affine_power(AffineFunction([1, 1], 5), 1)
        w0 = (WeightFn.affine_power(AffineFunction([1, 0], 3), 2)
              * WeightFn.affine_power(AffineFunction([0, 1], 3), 1))
        res = extremal_affine(p, v, w0)
        assert res.residuals == [0.0, 0.0, 0.0], name
        assert all(type(r) is float for r in res.residuals)


def _f1_pair():
    v = WeightFn.affine_power(AffineFunction([1, 1], 5), 1)
    w0 = (WeightFn.affine_power(AffineFunction([1, 0], 3), 2)
          * WeightFn.affine_power(AffineFunction([0, 1], 3), 1))
    return v, w0


def _boundary_residuals(polytope, v, w_eff):
    basis = invariants._affine_basis(polytope.dim)
    return [rep.value for rep in futaki_boundary(polytope, v, w_eff, basis)]


def test_extremal_residuals_share_the_boundary_half(f1, interval):
    # the residuals reuse the right-hand side's boundary integrals; they must
    # equal, bit for bit, a full boundary-formula evaluation of the pair
    v, w0 = _f1_pair()
    res = extremal_affine(f1, v, w0)
    assert res.residuals == _boundary_residuals(
        f1, v, w0 * WeightFn.from_polynomial(res.function.as_polynomial()))

    e = WeightFn.exp_affine([Fraction(1, 2)], 0)
    res = extremal_affine(interval, e, e)
    assert res.residuals == _boundary_residuals(
        interval, e, e * WeightFn.from_polynomial(res.function.as_polynomial()))

    spec = FibrationSpec(fiber=interval, factors=((BaseFactor(n=1, k=2), (1,), 2),))
    fib = extremal_fibration_weights(spec)  # extra_source q = 4 / (x + 2), a pole
    assert fib.residuals == _boundary_residuals(interval, fib.p, fib.w_tilde)


def test_extremal_certifies_v_and_integrates_its_boundary_once(f1, monkeypatch):
    boundary_calls, certified = [], []

    def products(*args, boundary=False, **kwargs):
        boundary_calls.append(boundary)
        return integrate_products(*args, boundary=boundary, **kwargs)

    def certify(w, polytope, name):
        certified.append(name)
        return require_positive(w, polytope, name=name)

    monkeypatch.setattr(invariants, "integrate_products", products)
    monkeypatch.setattr(invariants, "require_positive", certify)
    monkeypatch.setattr(invariants, "futaki_boundary", None)
    extremal_affine(f1, *_f1_pair())
    assert boundary_calls.count(True) == 1
    assert certified.count("v") == 1


def test_futaki_direction_lists_match_single_directions(f1):
    v, w = soliton_weight_pair(_affine_v([1, 2], 4), 2)
    directions = [AffineFunction([1, 2], Fraction(1, 3)), AffineFunction([0, -1], 2)]
    reports = futaki_boundary(f1, v, w, directions)
    assert [r.exact for r in reports] == [futaki_boundary(f1, v, w, d).exact
                                          for d in directions]
    zetas = [list(d.zeta) for d in directions]
    fano = futaki_fano(f1, v, zetas)
    assert [r.exact for r in fano] == [futaki_fano(f1, v, z).exact for z in zetas]
    assert [r.direction for r in fano] == [AffineFunction(z, 0) for z in zetas]
