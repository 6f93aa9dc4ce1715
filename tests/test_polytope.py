import itertools
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import add, mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torickstab import exactlinalg as xla
from torickstab.errors import NotDelzant, NotFullDimensional, Unbounded
from torickstab.polynomial import Polynomial, compositions
from torickstab.polytope import (
    AffineFunction,
    DelzantPolytope,
    HalfSpace,
    Simplex,
    _bisect_all,
    _build_facet,
    _vertex_incidence,
    barycentric_coefficients,
    moment_table,
)
from torickstab.quadrature import integrate_boundary, integrate_poly
from torickstab.weights import WeightFn

from conftest import CANONICAL_NORMALS, POLYGONS, make_polytope, moved_canonical


def test_interval_vertices(interval):
    assert sorted(interval.vertices) == [(Fraction(-1),), (Fraction(1),)]


def test_p2_vertices(p2):
    expected = {(-1, -1), (2, -1), (-1, 2)}
    assert {tuple(int(c) for c in v) for v in p2.vertices} == expected


def test_non_delzant_vertex_rejected():
    with pytest.raises(NotDelzant) as info:
        make_polytope(((1, 0), 1), ((0, 1), 1), ((-2, -1), 1))
    assert info.value.determinant not in (1, -1)


def test_redundant_half_space_rejected():
    # x1 + 5 >= 0 touches no vertex of [-1, 1]^2; it once got through and made
    # volume() raise IndexError
    with pytest.raises(NotDelzant, match="redundant"):
        make_polytope(((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 0), 5))


def test_no_half_space_or_mixed_dimensions_rejected():
    with pytest.raises(ValueError, match="^need at least one half-space$"):
        DelzantPolytope([])
    with pytest.raises(ValueError, match="^inconsistent half-space dimensions$"):
        DelzantPolytope([HalfSpace((1,), 1), HalfSpace((1, 0), 1)])


def test_unbounded_rejected():
    with pytest.raises(Unbounded):
        make_polytope(((1,), 1))
    with pytest.raises(Unbounded):
        make_polytope(((1, 0), 1), ((0, 1), 1))


@pytest.mark.parametrize("halfspaces", [
    [((1,), 0), ((-1,), 0)],
    [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)],
    [((0, 0, 1), 0), ((0, 0, -1), 0), ((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), 1)],
], ids=["point in R^1", "segment {0} x [-1, 1] in R^2", "flat triangle in R^3"])
def test_lower_dimensional_with_vertices_rejected(halfspaces):
    """Bounded with a vertex, but some half-space is tight at every vertex."""
    with pytest.raises(NotFullDimensional, match="lower-dimensional"):
        make_polytope(*halfspaces)


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
    # the chart oracle coned from vertex 1 covers the volume of the fan from vertex 0
    for p in (p2, f1):
        base = sum(s.volume() for s in p.triangulate())
        other = sum(Simplex(verts).volume() for verts in _fan_by_charts(p, 1))
        assert base == other == p.volume()


@st.composite
def _rational_simplex_batch(draw):
    """Simplices of one dimension 1-3 on a coarse dyadic grid: equal longest
    edges are common, and every coordinate, squared edge length and midpoint
    is exact in floating point."""
    dim = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-64, 64), st.sampled_from([1, 2, 4, 8]))
    simplex = st.lists(st.lists(coord, min_size=dim, max_size=dim),
                       min_size=dim + 1, max_size=dim + 1)
    return draw(st.lists(simplex, min_size=1, max_size=6))


_CORNER = [[Fraction(int(i == k)) for i in range(3)] for k in (-1, 0, 1, 2)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rational_simplex_batch())
@example([_CORNER])  # three longest edges: (1, 2) is cut
def test_bisect_all_is_exact_on_fractions_and_agrees_with_floats(batch):
    exact = np.array(batch, dtype=object)
    kids = _bisect_all(exact)
    assert all(isinstance(c, Fraction) for c in kids.flat)
    assert np.array_equal(kids.astype(float), _bisect_all(exact.astype(float)))
    for s, simplex in enumerate(batch):
        # the first longest edge in (i, j) order is cut at its exact midpoint
        i, j = max(itertools.combinations(range(len(simplex)), 2),
                   key=lambda e: sum((a - b) ** 2
                                     for a, b in zip(simplex[e[0]], simplex[e[1]])))
        mid = [(a + b) / 2 for a, b in zip(simplex[i], simplex[j])]
        assert kids[2 * s].tolist() == simplex[:i] + [mid] + simplex[i + 1:]
        assert kids[2 * s + 1].tolist() == simplex[:j] + [mid] + simplex[j + 1:]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_rational_simplex_batch())
@example([_CORNER])
def test_bisect_all_on_doubled_integers_is_the_fraction_bisection(batch):
    # the Bernstein certificate's batches: integers over q, doubled before each split
    q = lcm(*(c.denominator for s in batch for v in s for c in v))
    doubled = np.array([[[int(2 * q * c) for c in v] for v in s] for s in batch], dtype=object)
    kids = _bisect_all(doubled)
    assert all(type(c) is int for c in kids.flat)
    want = _bisect_all(np.array(batch, dtype=object)).tolist()
    assert [[[Fraction(c, 2 * q) for c in v] for v in s] for s in kids.tolist()] == want


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


def _embed(facet, t):
    """origin + basis . t: facet chart coordinates to ambient ones."""
    return tuple(o + sum(b * c for b, c in zip(row, t))
                 for o, row in zip(facet.origin, facet.basis))


def test_facet_embedding_lands_on_facet(p2):
    for h, facet in p2.facets():
        if facet.subpolytope is None:
            continue
        for t in facet.subpolytope.vertices:
            x = _embed(facet, t)
            assert h.value(x) == 0
            assert all(other.value(x) >= 0 for other in p2.halfspaces)


@pytest.mark.parametrize("poly", [
    Polynomial.constant(2, 1),
    Polynomial.linear([3, -2], 1),
    Polynomial(2, {(2, 1): Fraction(3), (0, 2): Fraction(-1, 2), (1, 0): 1}),
])
def test_divergence_identity_exact(p2, f1, poly):
    # integral over the boundary equals integral of r*f + <x, grad f> for
    # canonical Fano polytopes; this pins the boundary measure convention
    for p in (p2, f1):
        res = integrate_boundary(p, WeightFn.from_polynomial(poly))
        assert res.value == float(res.exact)
        lhs = res.exact
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


def test_vertex_min_memo_empties_on_a_miss_only(p2):
    # a hit on a full memo once emptied it and recomputed the minimum in Fractions
    affs = [AffineFunction([k, 1], k) for k in range(64)]
    for aff in affs:
        p2.vertex_min(aff)
    assert len(p2._vertex_mins) == 64
    assert p2.vertex_min(affs[5]) == min(affs[5].eval_exact(v) for v in p2.vertices)
    assert len(p2._vertex_mins) == 64
    p2.vertex_min(AffineFunction([1, 1], 100))
    assert list(p2._vertex_mins) == [AffineFunction([1, 1], 100)]


_RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(_RATIONAL, min_size=2, max_size=2), st.lists(_RATIONAL, min_size=3, max_size=3))
def test_vertex_min_in_integers_on_rational_vertices(shift, data):
    # the integer minimum over common denominators is the Fraction minimum over the vertices
    f1 = DelzantPolytope([HalfSpace(n, 1) for n in ((1, 0), (0, 1), (-1, -1), (0, -1))])
    p = f1.translated(shift)
    aff = AffineFunction(data[:2], data[2])
    assert p.vertex_min(aff) == min(aff.eval_exact(v) for v in p.vertices)
    with pytest.raises(ValueError):
        p.vertex_min(AffineFunction([1, 2, 3], 0))


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
    _, ray = _vertex_incidence(halfspaces, dim, cone=True)
    assert (ray is not None) == _recession_by_box_vertices(halfspaces, dim)
    if ray is not None:  # a nonzero direction of the recession cone
        assert any(ray) and all(sum(map(mul, h.normal, ray)) >= 0 for h in halfspaces)


@pytest.mark.parametrize("halfspaces, error", [
    ([((1,), 1)], Unbounded),
    ([((1, 0), 1), ((0, 1), 1)], Unbounded),
    ([((1, 0), 1), ((0, 1), 1), ((1, 1), 2)], Unbounded),
    # three facets meet at the apex, but boundedness is tested before the Delzant condition
    ([((1, 0), 0), ((0, 1), 0), ((1, 1), 0)], Unbounded),
    # x = 0 is tight at the only vertex, but boundedness is tested before the dimension
    ([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0)], Unbounded),
    ([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], Unbounded),
    ([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, 0), 1)], Unbounded),
    # unbounded too, but with no vertex
    ([((1, 0), 1), ((-1, 0), 1)], NotFullDimensional),
    ([((1, 0, 0), 1), ((0, 1, 0), 1), ((-1, -1, 0), 1)], NotFullDimensional),
], ids=["half-line", "quadrant", "quadrant with a redundant x + y >= -2", "wedge x, y, x + y >= 0",
        "ray {x = 0, y >= 0}", "orthant in R^3", "capped prism x, y, z >= -1, x + y <= 1",
        "strip |x| <= 1", "infinite prism x, y >= -1, x + y <= 1"])
def test_unbounded_and_vertexless_inputs_raise_in_order(halfspaces, error):
    """No vertex is NotFullDimensional, then a ray is Unbounded, before the flat and Delzant tests."""
    with pytest.raises(error):
        make_polytope(*halfspaces)


# -- a facet chart that used to keep a half-space with no vertex ---------------------


@pytest.fixture
def cut_cube():
    """[-1, 1]^3 with the corner (-1, -1, -1) cut off by x1 + x2 + x3 + 2 >= 0.

    In the chart of x1 = 1 the cut pulls back to x2 + x3 + 3 >= 0, which meets
    the square facet nowhere.
    """
    cube = [(tuple(s * int(i == j) for j in range(3)), 1) for i in range(3) for s in (1, -1)]
    return make_polytope(*cube, ((1, 1, 1), 2))


def test_cut_cube_volume_and_sigma_masses(cut_cube):
    assert cut_cube.volume() == Fraction(47, 6)
    masses = {h.normal: f.sigma_measure() for h, f in cut_cube.facets()}
    assert masses == {(1, 0, 0): Fraction(7, 2), (0, 1, 0): Fraction(7, 2),
                      (0, 0, 1): Fraction(7, 2), (-1, 0, 0): 4, (0, -1, 0): 4,
                      (0, 0, -1): 4, (1, 1, 1): Fraction(1, 2)}


def test_cut_cube_weighted_divergence_identity(cut_cube):
    # div(x f) = r f + <x, grad f>, and <x, outward unit normal> dS = c_F dsigma on F
    f = Polynomial(3, {(3, 0, 0): Fraction(1), (1, 1, 1): Fraction(-2),
                       (0, 1, 2): Fraction(1, 3), (0, 0, 1): Fraction(5), (0, 0, 0): 1})
    lhs = Fraction(0)
    for h, facet in cut_cube.facets():
        basis = [list(row) for row in facet.basis]
        lhs += h.offset * integrate_poly(facet.subpolytope, f.compose_affine(basis, facet.origin))
    rhs = f.scale(3)
    for i in range(3):
        rhs = rhs + Polynomial.linear([int(j == i) for j in range(3)]) * f.partial(i)
    assert lhs == integrate_poly(cut_cube, rhs)


# -- the Fraction constructions as oracles of the integer ones ------------------------


def _raw_vertices_by_fraction_solves(halfspaces, dim):
    """Oracle: one exact Fraction solve per dim-subset, feasibility by HalfSpace.value."""
    verts = set()
    for subset in itertools.combinations(halfspaces, dim):
        x = xla.solve([list(h.normal) for h in subset], [-h.offset for h in subset])
        if x is not None and all(h.value(x) >= 0 for h in halfspaces):
            verts.add(tuple(x))
    return sorted(verts)


def _facet_by_pullback(p, j):
    """Oracle: pull every other half-space back to the chart of facet j, drop the
    constant ones, keep the tightest of each normal, and validate the result."""
    h = p.halfspaces[j]
    incident = [i for i in range(len(p.vertices)) if j in p.facet_adjacency[i]]
    origin = p.vertices[incident[0]]
    v_mat = xla.unimodular_completion(h.normal)
    basis = tuple(tuple(v_mat[i][k] for k in range(1, p.dim)) for i in range(p.dim))
    pulled, uniq = {}, {}
    for k, other in enumerate(p.halfspaces):
        if k == j:
            continue
        aff = AffineFunction(other.normal, other.offset).compose_affine(basis, origin)
        if all(z == 0 for z in aff.zeta):
            continue
        ints = [int(z) for z in aff.zeta]
        g = gcd(*ints)
        hs = pulled[k] = HalfSpace(tuple(n // g for n in ints), aff.const / g)
        if hs.normal not in uniq or hs.offset < uniq[hs.normal].offset:
            uniq[hs.normal] = hs
    return origin, basis, pulled, DelzantPolytope(list(uniq.values()))


def _facet_points_by_adjugate(p, j):
    """Oracle: the parent's vertices on facet j in chart coordinates, each with its other
    facets as positions in the neighbour order, sorted. t is rows 1.. of V^-1 applied to
    x - origin, where V = unimodular_completion has determinant +-1, so V^-1 is its
    signed adjugate."""
    r = p.dim
    v_mat = xla.unimodular_completion(p.halfspaces[j].normal)
    sign = xla.det(v_mat)
    chart = [[sign * (-1) ** (k + i) * xla.det([row[:k] + row[k + 1:]
                                                for row in v_mat[:i] + v_mat[i + 1:]])
              for i in range(r)]
             for k in range(1, r)]
    incident = [i for i, adj in enumerate(p.facet_adjacency) if j in adj]
    origin = p.vertices[incident[0]]
    neighbours = sorted({k for i in incident for k in p.facet_adjacency[i]} - {j})
    position = {k: n for n, k in enumerate(neighbours)}
    return sorted(
        (tuple(sum(w * (x - o) for w, x, o in zip(row, p.vertices[i], origin)) for row in chart),
         tuple(position[k] for k in p.facet_adjacency[i] if k != j))
        for i in incident)


def _assert_facets_match_oracles(p):
    for j, (h, facet) in enumerate(p.facets()):
        if p.dim == 1:
            assert facet.subpolytope is None
            continue
        sub = facet.subpolytope
        # the facet's own data passes every check of the public constructor
        rebuilt = DelzantPolytope(sub.halfspaces)
        assert (rebuilt.vertices, rebuilt.facet_adjacency) == (sub.vertices, sub.facet_adjacency)
        assert all(h.value(_embed(facet, t)) == 0
                   and all(other.value(_embed(facet, t)) >= 0 for other in p.halfspaces)
                   for t in sub.vertices)
        # exactly the parent's vertices on facet j, in order, with their incidence
        assert list(zip(sub.vertices, sub.facet_adjacency)) == _facet_points_by_adjugate(p, j)
        try:
            origin, basis, pulled, old = _facet_by_pullback(p, j)
        except NotDelzant:  # a pulled-back half-space through a vertex of the facet
            continue
        # the oracle orders half-spaces by normal and keeps some that meet the
        # facet nowhere; the facet keeps its neighbours in parent order
        assert (facet.origin, facet.basis) == (origin, basis)
        assert sub.vertices == old.vertices
        assert {frozenset(sub.halfspaces[k] for k in adj) for adj in sub.facet_adjacency} == {
            frozenset(old.halfspaces[k] for k in adj) for adj in old.facet_adjacency}
        assert set(sub.halfspaces) == {old.halfspaces[k] for adj in old.facet_adjacency
                                       for k in adj}
        neighbours = [k for k in range(len(p.halfspaces))
                      if k != j and any(j in adj and k in adj for adj in p.facet_adjacency)]
        assert sub.halfspaces == tuple(pulled[k] for k in neighbours)


_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))


_shears = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-1, 1])),
                   max_size=4)


@st.composite
def _rational_systems(draw):
    """Random primitive normals, or a canonical fan in a sheared basis, with rational offsets."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(CANONICAL_NORMALS)))
        offsets = [abs(draw(_fractions)) + Fraction(1, 2) for _ in CANONICAL_NORMALS[name]]
        try:
            p = moved_canonical(name, draw(_shears), (), offsets)
        except (NotDelzant, NotFullDimensional):
            return [], 0
        return list(p.halfspaces), p.dim
    dim = draw(st.integers(1, 3))
    halfspaces = []
    for _ in range(draw(st.integers(1, 7))):
        n = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        g = gcd(*n)
        if g:
            halfspaces.append(HalfSpace([x // g for x in n], draw(_fractions)))
    return halfspaces, dim


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rational_systems())
def test_integer_vertices_and_facets_match_fraction_oracles(case):
    halfspaces, dim = case
    assume(halfspaces)
    incidence, ray = _vertex_incidence(halfspaces, dim)
    assert ray is None and _vertex_incidence(halfspaces, dim, cone=True)[0] == incidence
    assert sorted(incidence) == _raw_vertices_by_fraction_solves(halfspaces, dim)
    assert all(incidence[v] == tuple(j for j, h in enumerate(halfspaces) if h.value(v) == 0)
               for v in incidence)
    try:
        p = DelzantPolytope(halfspaces)
    except (NotDelzant, Unbounded, NotFullDimensional):
        return
    if all(any(j in adj for adj in p.facet_adjacency) for j in range(len(halfspaces))):
        _assert_facets_match_oracles(p)


_elevenths = st.lists(st.builds(Fraction, st.integers(-7, 7), st.just(11)),
                      min_size=4, max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CANONICAL_NORMALS)), _shears, _elevenths)
def test_moved_canonical_polytopes_match_fraction_oracles(name, shears, shift):
    p = moved_canonical(name, shears, shift[:len(CANONICAL_NORMALS[name][0])])
    assert list(p.vertices) == _raw_vertices_by_fraction_solves(p.halfspaces, p.dim)
    _assert_facets_match_oracles(p)


def test_cut_cube_facets_match_fraction_oracles(cut_cube):
    _assert_facets_match_oracles(cut_cube)


# -- the chart-based fan as the oracle of the triangulation from the incidence -------


def _fan_by_charts(p, root_index=0):
    """Oracle: cone vertex root_index over the fan of every facet that misses it,
    each facet triangulated in its lattice chart (from its chart-lex-min vertex)
    and mapped back by origin + basis . t."""
    if p.dim == 1:
        return [list(p.vertices)]
    root = p.vertices[root_index]
    simplices = []
    for j, (_, facet) in enumerate(p.facets()):
        if j in p.facet_adjacency[root_index]:
            continue
        for sub in _fan_by_charts(facet.subpolytope):
            verts = [root] + [_embed(facet, t) for t in sub]
            if xla.det([[v[i] - root[i] for v in verts[1:]] for i in range(p.dim)]) < 0:
                verts[1], verts[2] = verts[2], verts[1]
            simplices.append(verts)
    return simplices


@st.composite
def _fan_cases(draw):
    """Moved canonical polygons and 3-D polytopes, P^3 and the cut cube."""
    kind = draw(st.sampled_from(("polygon", "solid", "P3", "cut cube")))
    if kind == "P3":
        return make_polytope(*((n, 1) for n in CANONICAL_NORMALS["P3"]))
    if kind == "cut cube":
        cube = [(tuple(s * int(i == j) for j in range(3)), 1) for i in range(3) for s in (1, -1)]
        return make_polytope(*cube, ((1, 1, 1), 2))
    names = [n for n, normals in sorted(CANONICAL_NORMALS.items())
             if len(normals[0]) == (2 if kind == "polygon" else 3)]
    name = draw(st.sampled_from(names))
    dim = len(CANONICAL_NORMALS[name][0])
    return moved_canonical(name, draw(_shears), draw(st.lists(
        _fractions, min_size=dim, max_size=dim)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_fan_cases())
def test_triangulation_from_incidence_matches_the_chart_fan(p):
    simplices = p.triangulate()
    assert p._facets is None  # no facet chart was built
    assert all(set(s.vertices) <= set(p.vertices) for s in simplices)
    assert all(xla.det(s.edge_matrix()) > 0 for s in simplices)
    oracle = _fan_by_charts(p)
    if p.dim == 2:  # the same simplices in the same vertex order
        assert [list(s.vertices) for s in simplices] == oracle
    else:
        assert moment_table(simplices, 4) == moment_table([Simplex(s) for s in oracle], 4)


@st.composite
def _expansion_cases(draw):
    """A rational simplex of dimension 1-3, a rational polynomial of degree <= 4
    and rational barycentric coordinates."""
    dim = draw(st.integers(1, 3))
    origin = [draw(_fractions) for _ in range(dim)]
    # edges v_k - v_0: the columns of a triangular matrix with a nonzero diagonal
    edges = [[draw(_fractions) if i < k else draw(_fractions.filter(bool)) if i == k else 0
              for i in range(dim)] for k in range(dim)]
    verts = [tuple(origin)] + [tuple(map(add, origin, e)) for e in edges]
    alphas = [a for k in range(draw(st.integers(0, 4)) + 1) for a in compositions(k, dim)]
    poly = Polynomial(dim, dict(zip(alphas, draw(
        st.lists(_fractions, min_size=len(alphas), max_size=len(alphas))))))
    weights = draw(st.lists(st.integers(0, 9), min_size=dim + 1, max_size=dim + 1).filter(any))
    return verts, poly, [Fraction(w, sum(weights)) for w in weights]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_expansion_cases())
def test_barycentric_coefficients_expand_the_polynomial(case):
    verts, poly, lam = case
    d = poly.degree()
    q = lcm(*(c.denominator for v in verts for c in v))
    points = [[int(c * q) for c in v] for v in verts]
    betas, scale, (row,) = barycentric_coefficients(poly, [points], q)
    assert scale == lcm(*(c.denominator for c in poly.coeffs.values())) * q ** d
    assert all(isinstance(c, int) for c in row)
    point = [sum(l * v[i] for l, v in zip(lam, verts)) for i in range(len(verts[0]))]
    assert sum(c * prod(l ** e for l, e in zip(lam, b)) for b, c in zip(betas, row)) == (
        scale * poly.eval_exact(point))
    for i, v in enumerate(verts):
        corner = tuple(d * (i == k) for k in range(len(verts)))
        assert row[betas.index(corner)] == scale * poly.eval_exact(v)


@st.composite
def _factored_cases(draw):
    """A canonical polygon or P^3, 1-3 affine factors with powers 1-2 (a repeat, a zero
    slope and rational data drawn often) and a polynomial part of degree <= 2 or None."""
    name = draw(st.sampled_from(POLYGONS + ("P3",)))
    dim = len(CANONICAL_NORMALS[name][0])
    zeta = st.lists(_fractions, min_size=dim, max_size=dim)
    ell = st.builds(AffineFunction, st.one_of(st.just([0] * dim), zeta), _fractions.filter(bool))
    factors = draw(st.lists(st.tuples(ell, st.integers(1, 2)), min_size=1, max_size=3))
    if draw(st.booleans()):
        factors.append((factors[0][0], draw(st.integers(1, 2))))
    alphas = [a for k in range(3) for a in compositions(k, dim)]
    coeffs = draw(st.lists(_fractions, min_size=len(alphas), max_size=len(alphas)))
    poly = Polynomial(dim, dict(zip(alphas, coeffs)))
    return name, factors, draw(st.sampled_from([None, poly])) if poly.coeffs else None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_factored_cases())
def test_factored_tables_equal_the_expanded_polynomials(case):
    # the weight merges repeated factors and folds constant ones into its coefficient; the
    # closed form's tables multiply the vertex values of the factors it keeps into the
    # polynomial part's barycentric form. Their expanded product is the oracle, row by row
    # and float by float
    name, factors, poly = case
    p = make_polytope(*[(normal, 1) for normal in CANONICAL_NORMALS[name]])
    q, scaled = p.integer_vertices()
    at = dict(zip(p.vertices, scaled))
    simplices = [[at[v] for v in s.vertices] for s in p.triangulate()]
    base = Polynomial.constant(p.dim, 1) if poly is None else poly
    w = WeightFn(p.dim, 1, factors, None, poly)
    expanded = WeightFn(p.dim, 1, w.affine_powers, None, poly).to_polynomial()
    assert expanded.scale(w.coeff) == w.to_polynomial()
    betas, scale, rows = barycentric_coefficients(base, simplices, q, w.affine_powers)
    want_betas, want_scale, want_rows = barycentric_coefficients(expanded, simplices, q)
    assert betas == want_betas and all(isinstance(c, int) for row in rows for c in row)
    assert [[Fraction(c, scale) for c in row] for row in rows] == [
        [Fraction(c, want_scale) for c in row] for row in want_rows]
    index, table, _ = p.barycentric(w.affine_powers, poly)
    vols = [factorial(p.dim) * s.volume() for s in p.triangulate()]
    assert index.tolist() == [sum(([i] * (e + 1) for i, e in enumerate(b)), []) for b in betas]
    assert table.tolist() == [[float(v * prod(map(factorial, b)) * Fraction(c, want_scale))
                               for b, c in zip(betas, row)] for v, row in zip(vols, want_rows)]


def test_non_integral_normals_and_short_points_are_rejected():
    with pytest.raises(ValueError, match="half-space normal entry must be an integer"):
        HalfSpace((1.5,), 1)
    with pytest.raises(ValueError, match="half-space normal entry must be an integer"):
        HalfSpace((1, Fraction(1, 2)), 1)
    assert HalfSpace((Fraction(2, 2), 0.0), 1).normal == (1, 0)
    with pytest.raises(ValueError):  # a point of the wrong dimension is not truncated
        AffineFunction((1, 1), 0).eval_exact((1,))


@pytest.mark.parametrize("zeta, const, same_zeta, same_const", [
    ((1, -2), 3, (Fraction(1), Fraction(-4, 2)), Fraction(6, 2)),
    ((Fraction(1, 3), 0, 5), Fraction(-7, 2), (Fraction(2, 6), Fraction(0), 5), Fraction(-14, 4)),
])
def test_equal_affine_functions_hash_equal(zeta, const, same_zeta, same_const):
    a, b = AffineFunction(zeta, const), AffineFunction(same_zeta, same_const)
    assert a == b and hash(a) == hash(b) == hash((a.zeta, a.const))
    assert hash(a) == hash(a) and {a: 1}[b] == 1  # the hash is kept once computed
    zeta_floats, const_float = a.floats
    assert list(zeta_floats) == [float(z) for z in a.zeta] and const_float == float(a.const)


@pytest.mark.parametrize("coeffs, same", [
    ({(1, 0): 1, (0, 2): Fraction(1, 2), (0, 0): -3},
     {(0, 0): Fraction(-6, 2), (0, 2): Fraction(2, 4), (1, 0): Fraction(1)}),
    ({(2, 1): Fraction(5, 7)}, {(2, 1): Fraction(10, 14), (1, 1): 0}),
])
def test_equal_polynomials_hash_equal(coeffs, same):
    p, q = Polynomial(2, coeffs), Polynomial(2, same)
    assert list(p.coeffs) != list(q.coeffs) or len(p.coeffs) == 1  # another key order
    assert p == q and hash(p) == hash(q) == hash((2, frozenset(p.coeffs.items())))
    assert hash(p) == hash(p) and {p: 1}[q] == 1
