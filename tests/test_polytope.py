import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torickstab import exactlinalg as xla
from torickstab.errors import NotDelzant, Unbounded
from torickstab.polynomial import Polynomial
from torickstab.polytope import (
    AffineFunction,
    DelzantPolytope,
    HalfSpace,
    _has_recession_direction,
)
from torickstab.quadrature import integrate_boundary, integrate_poly
from torickstab.weights import WeightFn

from conftest import make_polytope


def test_interval_vertices(interval):
    assert sorted(interval.vertices) == [(Fraction(-1),), (Fraction(1),)]


def test_p2_vertices(p2):
    expected = {(-1, -1), (2, -1), (-1, 2)}
    assert {tuple(int(c) for c in v) for v in p2.vertices} == expected


def test_non_delzant_vertex_rejected():
    with pytest.raises(NotDelzant) as info:
        make_polytope(((1, 0), 1), ((0, 1), 1), ((-2, -1), 1))
    assert info.value.determinant not in (1, -1)


def test_unbounded_rejected():
    with pytest.raises(Unbounded):
        make_polytope(((1,), 1))
    with pytest.raises(Unbounded):
        make_polytope(((1, 0), 1), ((0, 1), 1))


def test_canonical_fano_flags(interval, p2):
    assert interval.is_canonical_fano()
    assert p2.is_canonical_fano()
    shifted = make_polytope(((1,), 0), ((-1,), 2))  # [0, 2]
    assert not shifted.is_canonical_fano()


def test_canonical_fano_origin_interior(p2, f1):
    for p in (p2, f1):
        assert p.contains_interior([Fraction(0)] * p.dim)


def test_triangulation_interval(interval):
    tris = interval.triangulate()
    assert len(tris) == 1
    assert tris[0].volume() == 2


def test_triangulation_p2_volume(p2):
    assert sum(s.volume() for s in p2.triangulate()) == Fraction(9, 2)
    assert p2.volume() == Fraction(9, 2)


def test_triangulation_square(square):
    tris = square.triangulate()
    assert len(tris) == 2
    assert all(s.volume() == 2 for s in tris)


def test_triangulation_roots_agree(p2, f1):
    for p in (p2, f1):
        base = sum(s.volume() for s in p.triangulate(root_index=0))
        other = sum(s.volume() for s in p.triangulate(root_index=1))
        assert base == other == p.volume()


def test_delzant_determinants(f1):
    # every vertex sits on exactly r facets whose normals form a lattice basis
    from torickstab.exactlinalg import det

    for v, facets in zip(f1.vertices, f1.facet_adjacency):
        assert len(facets) == f1.dim
        d = det([list(f1.halfspaces[j].normal) for j in facets])
        assert d in (1, -1)


def test_facet_sigma_masses(interval, square, p2):
    assert [f.sigma_measure() for _, f in interval.facets()] == [1, 1]
    assert [f.sigma_measure() for _, f in square.facets()] == [2, 2, 2, 2]
    masses = {tuple(h.normal): f.sigma_measure() for h, f in p2.facets()}
    assert masses[(-1, -1)] == 3  # Euclidean length 3*sqrt(2) over norm sqrt(2)
    assert masses[(1, 0)] == 3 and masses[(0, 1)] == 3


def test_facet_embedding_lands_on_facet(p2):
    for h, facet in p2.facets():
        if facet.subpolytope is None:
            continue
        for t in facet.subpolytope.vertices:
            x = facet.embed(t)
            assert h.value(x) == 0
            assert p2.contains(x)


@pytest.mark.parametrize("poly", [
    Polynomial.constant(2, 1),
    Polynomial.linear([3, -2], 1),
    Polynomial(2, {(2, 1): Fraction(3), (0, 2): Fraction(-1, 2), (1, 0): 1}),
])
def test_divergence_identity_exact(p2, f1, poly):
    # integral over the boundary equals integral of r*f + <x, grad f> for
    # canonical Fano polytopes; this pins the boundary measure convention
    for p in (p2, f1):
        lhs = integrate_boundary(p, WeightFn.from_polynomial(poly)).exact
        rhs_poly = poly.scale(p.dim)
        for i in range(p.dim):
            xi = Polynomial.linear([1 if j == i else 0 for j in range(p.dim)])
            rhs_poly = rhs_poly + xi * poly.partial(i)
        assert lhs == integrate_poly(p, rhs_poly)


def test_translation(p2):
    t = (Fraction(1, 3), Fraction(-2))
    moved = p2.translated(t)
    assert moved.volume() == p2.volume()
    assert {tuple(a + b for a, b in zip(v, t)) for v in p2.vertices} == set(
        moved.vertices)
    assert not moved.is_canonical_fano()


def test_vertex_min_attained_at_vertex(p2):
    aff = AffineFunction([2, -1], Fraction(1, 2))
    assert p2.vertex_min(aff) == min(aff.eval_exact(v) for v in p2.vertices)


def test_halfspace_requires_primitive_normal():
    with pytest.raises(ValueError):
        HalfSpace((2, 4), 1)
    with pytest.raises(ValueError):
        HalfSpace((0, 0), 1)


def _recession_by_box_vertices(halfspaces, dim):
    """Oracle: a nonzero vertex of the recession cone cut by the unit box."""
    system = [(h.normal, 0) for h in halfspaces]
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        system += [(e, 1), (tuple(-x for x in e), 1)]
    for subset in itertools.combinations(system, dim):
        d = xla.solve([list(n) for n, _ in subset], [-c for _, c in subset])
        if d is None or not any(d):
            continue
        if all(sum(n_i * x for n_i, x in zip(n, d)) + c >= 0 for n, c in system):
            return True
    return False


@st.composite
def _halfspace_systems(draw):
    dim = draw(st.integers(1, 3))
    normals = set()
    for _ in range(draw(st.integers(1, 6))):
        n = tuple(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)))
        g = gcd(*n)
        if g:
            normals.add(tuple(x // g for x in n))
    return [HalfSpace(n, 1) for n in sorted(normals)], dim


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_halfspace_systems())
def test_recession_test_matches_box_enumeration(case):
    halfspaces, dim = case
    # the extreme-ray test needs the normals to span R^dim, as they do once a vertex exists
    assume(halfspaces and xla.rank([list(h.normal) for h in halfspaces]) == dim)
    assert _has_recession_direction(halfspaces, dim) == _recession_by_box_vertices(
        halfspaces, dim)
