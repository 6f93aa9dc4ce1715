from fractions import Fraction

import pytest

from torickstab.fibration import BaseFactor, enumerate_fano
from torickstab.polytope import DelzantPolytope, HalfSpace


def make_polytope(*halfspaces):
    return DelzantPolytope([HalfSpace(n, o) for n, o in halfspaces])


def one_row(evaluate):
    """An integrand of (n,) values as the one-row (1, n) block that the cubature takes."""
    return lambda x: evaluate(x)[None]


@pytest.fixture
def interval():
    """Canonical Fano segment [-1, 1] (the P^1 polytope)."""
    return make_polytope(((1,), 1), ((-1,), 1))


@pytest.fixture
def p2():
    """Canonical Fano triangle of P^2."""
    return make_polytope(((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))


@pytest.fixture
def square():
    """Canonical Fano square [-1, 1]^2 (the P^1 x P^1 polytope)."""
    return make_polytope(((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1))


@pytest.fixture
def f1():
    """Canonical Fano quadrilateral of the one-point blow-up of P^2 (asymmetric)."""
    return make_polytope(((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((0, -1), 1))


@pytest.fixture
def half():
    return Fraction(1, 2)


# Facet normals of canonical Fano polytopes (every offset 1), for property tests.
CANONICAL_NORMALS = {
    "P1": ((1,), (-1,)),
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "F1": ((1, 0), (0, 1), (-1, -1), (0, -1)),
    "Bl2P2": ((1, 0), (0, 1), (-1, -1), (0, -1), (-1, 0)),
    "Bl3P2": ((1, 0), (0, 1), (-1, -1), (0, -1), (-1, 0), (1, 1)),
    "P3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    "P1^3": ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
    "BlP3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)),
    "P4": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)),
}
POLYGONS = ("P2", "P1xP1", "F1", "Bl2P2", "Bl3P2")  # the toric del Pezzo surfaces


def shear_matrix(dim, shears):
    """The unimodular integer matrix M of `moved_canonical`: each shear (i, j, a) adds a
    times row j to row i of a matrix that starts as the identity (indices mod dim; a
    shear with i = j mod dim is skipped)."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for i, j, a in shears:
        if dim > 1 and i % dim != j % dim:
            m[i % dim] = [x + a * y for x, y in zip(m[i % dim], m[j % dim])]
    return m


def moved_canonical(name, shears, shift, offsets=None):
    """A canonical Fano polytope in another lattice basis, then translated by `shift`.

    The normals become M u for M = shear_matrix(dim, shears), so M is unimodular
    and the result is Delzant. The offsets become c - <M u, shift>, with c = 1
    unless `offsets` gives other ones (which can change the combinatorics).
    """
    normals = CANONICAL_NORMALS[name]
    dim = len(normals[0])
    m = shear_matrix(dim, shears)
    halfspaces = []
    for u, c in zip(normals, offsets or [1] * len(normals)):
        mu = tuple(sum(row[k] * u[k] for k in range(dim)) for row in m)
        halfspaces.append((mu, c - sum(a * Fraction(t) for a, t in zip(mu, shift))))
    return make_polytope(*halfspaces)


def fano_twists(fiber, k):
    """The twists of one Fano factor with constant k over the fiber, as `enumerate_fano` lists them."""
    return [t for (t,) in enumerate_fano(fiber, [BaseFactor(n=1, k=k)])]
