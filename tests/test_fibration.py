import decimal
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torickstab import exactlinalg as xla
from torickstab.errors import NotAdmissible, NotCanonicalFano
from torickstab.fibration import (
    BaseFactor,
    _admissible_lattice,
    FibrationSpec,
    base_curvature_weight,
    enumerate_fano,
    extremal_fibration_weights,
    fano_check,
    fibration_weight,
    pv_soliton_pipeline,
    validate,
)
from torickstab.polytope import AffineFunction
from torickstab.weights import WeightFn, WeightSum

from conftest import CANONICAL_NORMALS, fano_twists, make_polytope, moved_canonical


def _spec(fiber, *factors):
    return FibrationSpec(fiber=fiber, factors=tuple(factors))


def test_validate_accepts_admissible(interval):
    spec = _spec(interval, (BaseFactor(n=1, k=2), (1,), 2))
    validate(spec)  # does not raise


def test_validate_rejects_and_reports_witness(interval):
    spec = _spec(interval, (BaseFactor(n=1, k=1), (1,), 1))
    with pytest.raises(NotAdmissible) as info:
        validate(spec)
    assert info.value.factor_index == 0
    assert info.value.vertex == (Fraction(-1),)


def test_fibration_weight_single_factor(interval):
    spec = _spec(interval, (BaseFactor(n=1, k=2), (1,), 2))
    p = fibration_weight(spec)
    for x in (-0.5, 0.0, 0.7):
        assert p.eval(np.array([x])) == pytest.approx(x + 2, rel=1e-15)
    q = base_curvature_weight(spec)
    # s = 2 n k = 4, so q = 4/(x+2)
    assert q.eval(np.array([0.0])) == pytest.approx(2.0)


def test_fibration_weight_two_factors(interval):
    spec = _spec(
        interval,
        (BaseFactor(n=1, k=2), (1,), 2),
        (BaseFactor(n=2, s=Fraction(1)), (-1,), 3),
    )
    p = fibration_weight(spec)
    for x in (-0.9, 0.0, 0.4):
        assert p.eval(np.array([x])) == pytest.approx(
            (x + 2) * (3 - x) ** 2, rel=1e-14)
    q = base_curvature_weight(spec)
    assert isinstance(q, WeightSum)
    assert q.eval(np.array([[0.0]]))[0] == pytest.approx(4 / 2 + 1 / 3)


def test_empty_fibration_is_trivial(interval):
    spec = _spec(interval)
    p = fibration_weight(spec)
    assert p.to_polynomial().eval_exact((Fraction(1, 2),)) == 1
    q = base_curvature_weight(spec)
    assert q.eval(np.array([[0.3]]))[0] == 0.0


def test_extremal_weights_trivial_case(interval):
    res = extremal_fibration_weights(_spec(interval))
    assert res.ell_ext.const == 2 and res.ell_ext.zeta == (0,)
    assert all(abs(r) <= 1e-12 for r in res.residuals)


def test_extremal_weights_asymmetric(f1):
    res = extremal_fibration_weights(_spec(f1))
    # the fan symmetry exchanging the two degree-1 facets fixes x2, so the
    # x1 coefficient vanishes; the rest of the exact solve is 42/11 - 12/11 x2
    assert res.ell_ext.zeta == (0, Fraction(-12, 11))
    assert res.ell_ext.const == Fraction(42, 11)
    assert all(abs(r) <= 1e-10 for r in res.residuals)


def test_extremal_w_tilde_identity(interval):
    spec = _spec(interval, (BaseFactor(n=1, k=2), (1,), 2))
    res = extremal_fibration_weights(spec)
    pts = np.linspace(-0.95, 0.95, 21)[:, None]
    lhs = res.w_tilde.eval(pts)
    ell_vals = res.ell_ext.eval(pts)
    rhs = res.p.eval(pts) * (ell_vals - res.q.eval(pts))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_soliton_fibration_weights(interval):
    from torickstab.fibration import soliton_fibration_weights

    spec = _spec(interval, (BaseFactor(n=1, k=2), (1,), 2))
    v, w = soliton_fibration_weights(spec, WeightFn.constant(1, 1))
    # v = x + 2, m = 1: w = 2(1 + x/(x+2))(x+2) = 4x + 4
    for x in (-0.5, 0.0, 0.8):
        assert w.eval(np.array([x])) == pytest.approx(4 * x + 4, rel=1e-14)


def test_fano_check(interval):
    good = _spec(interval, (BaseFactor(n=1, k=2), (1,), 2))
    assert fano_check(good)
    mismatched = _spec(interval, (BaseFactor(n=1, k=2), (1,), 3))
    assert not fano_check(mismatched)
    # c = k = 1, but the twist 2x + 1 is -1 at the vertex x = -1
    assert not fano_check(_spec(interval, (BaseFactor(n=1, k=1), (2,), 1)))
    with pytest.raises(ValueError):
        fano_check(_spec(interval, (BaseFactor(n=1, s=Fraction(2)), (1,), 2)))
    shifted = make_polytope(((1,), 0), ((-1,), 2))
    with pytest.raises(NotCanonicalFano):
        fano_check(_spec(shifted))


def test_enumerate_interval(interval):
    out = enumerate_fano(interval, [BaseFactor(n=1, k=2)])
    assert sorted(t[0] for (t,) in out) == [-1, 0, 1]
    out = enumerate_fano(interval, [BaseFactor(n=1, k=1)])
    assert [t for (t,) in out] == [(0,)]


def test_enumerate_matches_brute_force(p2):
    out = {t for (t,) in enumerate_fano(p2, [BaseFactor(n=1, k=2)])}
    brute = set()
    for cand in itertools.product(range(-5, 6), repeat=2):
        if all(sum(Fraction(c) * v for c, v in zip(cand, vert)) + 2 > 0
               for vert in p2.vertices):
            brute.add(cand)
    assert out == brute
    assert out == {(-1, -1), (0, 0), (0, 1), (1, 0)}


def test_enumerate_rejects_a_cscK_factor(interval):
    with pytest.raises(ValueError, match="factor 1 has no Fano constant k"):
        enumerate_fano(interval, [BaseFactor(n=1, k=2), BaseFactor(n=1, s=Fraction(2))])


def test_enumerate_rejects_a_fibre_that_is_not_canonical():
    with pytest.raises(NotCanonicalFano, match="enumeration requires the canonical fiber"):
        enumerate_fano(make_polytope(((1,), 0), ((-1,), 2)), [BaseFactor(n=1, k=2)])


@pytest.mark.parametrize("fields, message", [
    ({"n": 0, "k": 1}, "base factor dimension must be at least 1"),
    ({"n": 1, "k": 1, "s": 2}, "specify exactly one of k (Fano) or s (cscK)"),
    ({"n": 1}, "specify exactly one of k (Fano) or s (cscK)"),
    ({"n": 1, "k": 0}, "Fano constant k must be a positive integer"),
])
def test_base_factor_rejects_invalid_data(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BaseFactor(**fields)


def test_enumerate_two_factors(interval):
    out = enumerate_fano(interval, [BaseFactor(n=1, k=2), BaseFactor(n=1, k=1)])
    assert len(out) == 3  # 3 choices for k=2 times 1 choice for k=1
    assert all(second == (0,) for _, second in out)


def _soliton_root():
    """The root t near -1/2 of t^2 + (3t^2 - 4t + 2) e^(2t) - 2, by Newton's method in 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        t = Decimal("-0.5")
        for _ in range(50):
            e = (2 * t).exp()
            step = (t * t + (3 * t * t - 4 * t + 2) * e - 2) / (2 * t + (6 * t * t - 2 * t) * e)
            t -= step
            if abs(step) < Decimal("1e-38"):
                return t
    raise AssertionError("Newton's method did not converge")


def test_pipeline_soliton_and_reeb(interval):
    # p = x + 2 on [-1, 1]. The soliton's xi kills int x (x + 2) e^(xi x) dx, which is
    # (xi^2 + (3 xi^2 - 4 xi + 2) e^(2 xi) - 2) / (xi^3 e^xi); the Reeb field's kills
    # int x (x + 2) (1 + xi x)^(-4) dx, a multiple of 3 xi^2 - 8 xi + 1, so xi = (4 - sqrt 13) / 3
    spec = _spec(interval, (BaseFactor(n=1, k=2), (1,), 2))
    sol = pv_soliton_pipeline(spec)
    assert sol.xi0[0] == pytest.approx(float(_soliton_root()), abs=1e-12)
    reeb = pv_soliton_pipeline(spec, reeb=True, s=3)
    assert reeb.xi0[0] == pytest.approx((4 - math.sqrt(13)) / 3, abs=1e-12)


def test_pipeline_rejects_non_fano(interval):
    spec = _spec(interval, (BaseFactor(n=1, k=2), (1,), 3))
    with pytest.raises(NotAdmissible):
        pv_soliton_pipeline(spec)


def test_fibration_json_round_trip(interval):
    from torickstab.jsonio import fibration_from_json, fibration_to_json

    spec = _spec(interval, (BaseFactor(n=1, k=2), (1,), 2),
                 (BaseFactor(n=2, s=Fraction(5, 3)), (-1,), 4))
    data = fibration_to_json(spec)
    back = fibration_from_json(data)
    assert back.fiber.vertices == spec.fiber.vertices
    assert back.factors == spec.factors


def _admissible_by_fraction_solves(fiber, k):
    """Oracle: the twist box from Fraction solves over r-subsets of the vertices, and
    each candidate tested at every vertex in Fractions."""
    verts, r = fiber.vertices, fiber.dim
    corners = []
    for subset in itertools.combinations(verts, r):
        sol = xla.solve([list(v) for v in subset], [-k] * r)
        if sol is not None and all(sum(a * b for a, b in zip(v, sol)) + k >= 0 for v in verts):
            corners.append(sol)
    box = [range(math.ceil(min(c[i] for c in corners)), math.floor(max(c[i] for c in corners)) + 1)
           for i in range(r)]
    return [cand for cand in itertools.product(*box)
            if all(sum(Fraction(c) * x for c, x in zip(cand, v)) + k > 0 for v in verts)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CANONICAL_NORMALS)),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-1, 1])),
                max_size=4),
       st.lists(st.builds(Fraction, st.integers(-4, 4), st.just(11)), min_size=4, max_size=4),
       st.integers(1, 3))
def test_integer_twist_test_matches_fraction_oracle(name, shears, shift, k):
    fiber = moved_canonical(name, shears, shift[:len(CANONICAL_NORMALS[name][0])])
    # the twist region is bounded while 0 stays interior
    assume(fiber.contains_interior([Fraction(0)] * fiber.dim))
    assert _admissible_lattice(fiber, k) == _admissible_by_fraction_solves(fiber, Fraction(k))


def test_unit_twists_are_zero_and_double_twists_are_the_normals():
    # the polar conv(u_j) of a smooth Fano polytope is reflexive: 0 is its one interior
    # lattice point, and the interior lattice points of 2 conv(u_j) are 0 and the u_j
    counts = []
    for name, normals in CANONICAL_NORMALS.items():
        fiber, zero = moved_canonical(name, (), ()), (0,) * len(normals[0])
        assert fano_twists(fiber, 1) == [zero], name
        double = fano_twists(fiber, 2)
        assert set(double) == {zero, *normals} and len(double) == len(normals) + 1, name
        counts.append(len(double))
    assert counts == [3, 4, 5, 5, 6, 7, 5, 7, 6, 6]


@pytest.mark.parametrize("name", sorted(CANONICAL_NORMALS))
def test_triple_twists_match_a_scan_of_the_whole_cube(name):
    # every c with <c, v> + 3 > 0 at the vertices lies in [-3 max|u|, 3 max|u|]^r, since
    # it lies in 3 conv(u_j); scanned in lexicographic order with the vertex test in Fractions
    fiber = moved_canonical(name, (), ())
    bound = 3 * max(abs(z) for u in CANONICAL_NORMALS[name] for z in u)
    scan = [c for c in itertools.product(range(-bound, bound + 1), repeat=fiber.dim)
            if all(sum(Fraction(a) * x for a, x in zip(c, v)) + 3 > 0 for v in fiber.vertices)]
    assert fano_twists(fiber, 3) == scan


def test_non_integral_or_short_twist_data_is_rejected(interval, p2):
    with pytest.raises(ValueError, match="base factor dimension n must be an integer"):
        BaseFactor(Fraction(3, 2), k=1)
    with pytest.raises(ValueError, match="Fano constant k must be an integer"):
        BaseFactor(1, k=1.5)
    with pytest.raises(ValueError, match="factor 0: twist p has length 1, the fiber dimension 2"):
        FibrationSpec(p2, [(BaseFactor(1, k=1), (0,), 1)])
    with pytest.raises(ValueError, match="factor 0: twist p entry must be an integer"):
        FibrationSpec(p2, [(BaseFactor(1, k=1), (Fraction(1, 2), 0), 1)])
    spec = FibrationSpec(interval, [(BaseFactor(Fraction(1), k=2.0), (Fraction(1),), 2)])
    assert spec.factors[0][0] == BaseFactor(1, k=2) and spec.factors[0][1] == (1,)
