"""Lattice covariance: results carried by a unimodular change of basis.

With the normals moved to M u by a unimodular M and no shift, a point x of the
polytope moves to M^-T x, and a function <c, x> to <M c, x>. Such a test needs
no reference values, so it shares no code or formula with the paths it checks.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

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

