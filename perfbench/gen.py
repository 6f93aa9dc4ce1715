"""Seeded inputs for the benchmark workloads, as plain data.

Everything here uses the standard library only (ints and Fractions) and none
of the torickstab code under test: the canonical Fano polytopes, a seeded
unimodular change of lattice basis applied to them, their vertices, weight
coefficients that are positive on them, the admissible fibration twists and
the JSON argument strings for the CLI. The same seed always gives the same
inputs, and seed 0 uses the identity basis and the weights of ROADMAP.md.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from fractions import Fraction

# Facet normals of the canonical Fano presentations: every offset is 1.
CANONICAL = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "F1": ((1, 0), (0, 1), (-1, -1), (0, -1)),
    "Bl2P2": ((1, 0), (0, 1), (-1, -1), (0, -1), (-1, 0)),
    "Bl3P2": ((1, 0), (0, 1), (-1, -1), (0, -1), (-1, 0), (1, 1)),
    "P3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    "P1^3": ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
    "BlP3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)),
}

# Anticanonical degree (-K)^r = r! vol(polytope): an independent volume oracle.
DEGREE = {"P2": 9, "P1xP1": 8, "F1": 8, "Bl2P2": 7, "Bl3P2": 6,
          "P3": 64, "P1^3": 48, "BlP3": 56}

DEL_PEZZO = ("P2", "P1xP1", "F1", "Bl2P2", "Bl3P2")
FANO_3D = ("P3", "P1^3", "BlP3")
EXP_STEPS = tuple(Fraction(k, 10) for k in range(-3, 4) if k)
EXACT_DRAWS = 2
SHIFT_DENOMINATOR = 11


# -- exact helpers -------------------------------------------------------------------


def fstr(x) -> str:
    """A rational as the "p/q" string the JSON schema reads."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def det(m) -> Fraction:
    m = [[Fraction(v) for v in row] for row in m]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    return out


def inverse(m):
    """Inverse of a nonsingular square matrix by the adjugate."""
    n = len(m)
    d = det(m)

    def minor(i, j):
        return [[m[a][b] for b in range(n) if b != j] for a in range(n) if a != i]

    return [[(-1) ** (i + j) * det(minor(j, i)) / d for j in range(n)] for i in range(n)]


def inverse_transpose(m):
    return [list(col) for col in zip(*inverse(m))]


def apply(a, x):
    return tuple(sum(Fraction(a[i][j]) * x[j] for j in range(len(x))) for i in range(len(a)))


def dot(u, x) -> Fraction:
    return sum((Fraction(ui) * xi for ui, xi in zip(u, x)), Fraction(0))


def identity(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def unimodular(rng: random.Random, dim: int):
    """A small change of lattice basis: a signed permutation times one shear.

    The shear adds c = +-1 or +-2 times one coordinate to another, so every
    entry is in [-2, 2] and the determinant is +-1. Products of several
    shears would reach the same bound with much larger vertex coordinates,
    which makes the exact workload's cost swing widely from seed to seed.
    """
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    i, j = rng.sample(range(dim), 2)
    shear = identity(dim)
    shear[i][j] = rng.choice((-2, -1, 1, 2))
    return [[signs[r] * shear[perm[r]][c] for c in range(dim)] for r in range(dim)]


def vertices(normals, offsets):
    """Vertices of {x : <u_j, x> + c_j >= 0} by brute force over dim-subsets of facets."""
    dim = len(normals[0])
    found = set()
    for subset in itertools.combinations(range(len(normals)), dim):
        rows = [normals[j] for j in subset]
        if det(rows) == 0:
            continue
        x = apply(inverse(rows), [-offsets[j] for j in subset])
        if all(dot(u, x) + c >= 0 for u, c in zip(normals, offsets)):
            found.add(x)
    return sorted(found)


# -- polytopes, weights, twists ------------------------------------------------------


def polytope(name, basis, shift=None):
    """Canonical polytope `name` moved by x -> basis @ x, then translated by `shift`.

    The normals transform as basis^{-T} u, so they stay primitive integer
    vectors; the offsets stay 1 unless `shift` is nonzero.
    """
    dim = len(CANONICAL[name][0])
    inv_t = inverse_transpose(basis)
    shift = tuple(Fraction(s) for s in (shift or (0,) * dim))
    normals = [tuple(int(v) for v in apply(inv_t, u)) for u in CANONICAL[name]]
    offsets = [1 - dot(u, shift) for u in normals]
    return {"name": name, "dim": dim, "basis": basis, "shift": shift,
            "normals": normals, "offsets": offsets,
            "vertices": vertices(normals, offsets)}


def positive_affine(poly, zeta, extra=0):
    """(zeta, a) with <zeta, x> + a = 1 + extra at the vertex where it is smallest."""
    low = min(dot(zeta, v) for v in poly["vertices"])
    return tuple(Fraction(z) for z in zeta), 1 + Fraction(extra) - low


def nonzero_vector(rng, dim, choices):
    while True:
        v = tuple(Fraction(rng.choice(choices)) for _ in range(dim))
        if any(v):
            return v


@functools.lru_cache(maxsize=None)
def _canonical_twists(name, k):
    canonical = polytope(name, identity(len(CANONICAL[name][0])))
    box = range(-k, k + 1)
    return [p for p in itertools.product(box, repeat=canonical["dim"])
            if all(dot(p, v) + k > 0 for v in canonical["vertices"])]


def twists(poly, k):
    """Lattice vectors p with <p, x> + k > 0 at every vertex (the Fano twists).

    Found by search in the canonical basis, where the region is the interior of
    k * conv(normals) and fits in the box [-k, k]^dim, then carried to the
    polytope's basis by p -> basis^{-T} p, which preserves <p, x>.
    """
    inv_t = inverse_transpose(poly["basis"])
    return sorted(tuple(int(c) for c in apply(inv_t, p))
                  for p in _canonical_twists(poly["name"], k))


def _basis(rng, seed, dim):
    return identity(dim) if seed == 0 else unimodular(rng, dim)


def _rational_shift(rng, dim):
    q = SHIFT_DENOMINATOR
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, q - 1), q) for _ in range(dim))


def _coordinate_functions(poly):
    """The canonical coordinates x_i as linear functions in the polytope's basis."""
    inv_t = inverse_transpose(poly["basis"])
    return [tuple(inv_t[r][i] for r in range(poly["dim"])) for i in range(poly["dim"])]


def _multiply(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def pull_back(coeffs, basis):
    """q(basis^{-1} x) for q given as {exponents: coefficient} in canonical coordinates."""
    dim = len(basis)
    inv = inverse(basis)
    unit = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    linear = [{unit[j]: inv[k][j] for j in range(dim) if inv[k][j]} for k in range(dim)]
    out = {}
    for exponents, c in coeffs.items():
        term = {(0,) * dim: Fraction(c)}
        for k, e in enumerate(exponents):
            for _ in range(e):
                term = _multiply(term, linear[k])
        for e, v in term.items():
            out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


# -- JSON for the CLI --------------------------------------------------------------------


def polytope_json(poly) -> str:
    return json.dumps({"dim": poly["dim"], "facets": [
        {"normal": list(u), "offset": fstr(c)}
        for u, c in zip(poly["normals"], poly["offsets"])]})


def _factor_json(zeta, a, power):
    return {"zeta": [fstr(z) for z in zeta], "a": fstr(a), "pow": power}


def product_weight(factors, shift):
    """prod (<zeta, x - shift> + a)^power as a JSON weight; factors are (zeta, a, power)."""
    return {"affine_powers": [_factor_json(z, a - dot(z, shift), k) for z, a, k in factors]}


def soliton_w(factors, m, shift):
    """w = 2(m + <grad log v, y>) v at y = x - shift, for v = prod (<zeta, y> + a)^power.

    This is the soliton pair of torickstab.weights.soliton_weight_pair written
    out term by term, pulled back by the translation.
    """
    terms = [{"scalar": 2 * m, **product_weight(factors, shift)}]
    dim = len(shift)
    for i, (zeta, _, power) in enumerate(factors):
        lowered = [(z, a, k - 1 if j == i else k) for j, (z, a, k) in enumerate(factors)]
        linear = {",".join("1" if j == c else "0" for j in range(dim)): fstr(zeta[c])
                  for c in range(dim) if zeta[c]}
        linear[",".join("0" * dim)] = fstr(-dot(zeta, shift))
        terms.append({"scalar": 2 * power,
                      **product_weight([f for f in lowered if f[2]], shift),
                      "poly": linear})
    return {"sum": terms}


# -- workloads ---------------------------------------------------------------------------


def solve_inputs():
    """The ROADMAP solve cases: del Pezzo solves, the fibration sweep and P^3.

    The same inputs on every seed: under a random lattice basis, ops cross the
    boundary between converging and stalling (see README.md), so the failure
    count and the time of a pass would change with the seed.
    """
    polys = []
    for name in DEL_PEZZO:
        poly = polytope(name, identity(2))
        polys.append({"polytope": poly, "weights": {
            "one": {"kind": "one"},
            "affine": {"kind": "affine", "affine": positive_affine(poly, (1, 0))},
            "exp": {"kind": "exp", "zeta": (Fraction(3, 10), Fraction(0))},
        }})
    fibers = []
    for name in ("P2", "F1"):
        poly = polytope(name, identity(2))
        fibers.append({"fiber": poly, "n": 1, "k": 2, "twists": twists(poly, 2)})
    p3 = polytope("P3", identity(3))
    return {"polygons": polys, "fibrations": fibers,
            "p3": {"polytope": p3,
                   "weight": {"kind": "affine", "affine": positive_affine(p3, (1, 0, 0))}}}


def metric_inputs(seed: int):
    """Three-way Futaki checks on P^2 and F1 in a seeded basis, plus `verify all`.

    P^2 gets the soliton pair of an affine base weight on a bumped potential,
    F1 that of an exp base weight on the Guillemin potential, so both weight
    kinds and both potentials appear. The bump is chosen in canonical
    coordinates and moved with the polygon, so it bends the metric as much in
    every basis; written directly in a sheared basis it would be far larger.
    """
    rng = random.Random(f"metric:{seed}")
    cases = []
    for name, kind in (("P2", "affine"), ("F1", "exp")):
        poly = polytope(name, _basis(rng, seed, 2))
        if seed == 0:
            zeta, ell = ((1, 0) if kind == "affine" else (Fraction(3, 10), 0)), (1, 0)
            bump = {(4, 0): Fraction(1, 30)}
        else:
            zeta = nonzero_vector(rng, 2, (-1, 0, 1) if kind == "affine" else EXP_STEPS)
            ell = nonzero_vector(rng, 2, (-1, 0, 1))
            bump = {(4, 0): Fraction(rng.randint(1, 4), 60),
                    (2, 2): Fraction(rng.randint(1, 4), 100)}
        if kind == "affine":
            base = {"kind": "affine", "affine": positive_affine(poly, zeta)}
        else:
            base = {"kind": "exp", "zeta": tuple(Fraction(z) for z in zeta)}
        cases.append({"polytope": poly, "base": base, "ell": ell,
                      "bump": pull_back(bump, poly["basis"]) if kind == "affine" else None})
    return {"three_way": cases, "verify": ["verify", "all"]}


def exact_inputs(seed: int):
    """CLI commands on the exact rational path, on every canonical polytope.

    Each polytope is drawn EXACT_DRAWS times, each time in its own seeded basis
    with its own weights, and also as a copy translated by a rational vector
    with denominator 11, whose offsets are no longer 1. Several draws per
    polytope even out how much one basis happens to cost. On seed 0 the first
    draw is the canonical presentation with the weights x_1, x_2 shifted to be
    positive.
    """
    rng = random.Random(f"exact:{seed}")
    out = []
    for draw in range(EXACT_DRAWS):
        for name in DEL_PEZZO + FANO_3D:
            dim = len(CANONICAL[name][0])
            first = seed == 0 and draw == 0
            poly = polytope(name, identity(dim) if first else unimodular(rng, dim))
            moved = polytope(name, poly["basis"], _rational_shift(rng, dim))
            # weights: products of two canonical coordinate functions, shifted to be
            # positive, so every draw poses the same kind of problem in another basis
            coords = _coordinate_functions(poly)
            picked = [0, 1] if first else rng.sample(range(dim), 2)
            lin = [positive_affine(poly, coords[i], 0 if first else rng.randint(0, 1))
                   for i in picked]
            k_pair = (2, 3)
            lists = [twists(poly, k) for k in k_pair]
            chosen = [rng.choice(t) for t in lists]
            out.append({
                "name": name, "label": f"{name}#{draw}", "dim": dim,
                "polytope": poly, "moved": moved,
                "v_sol": [(*lin[0], 2), (*lin[1], 1)],      # degree 3
                "v_ext": [(*lin[0], 1), (*lin[1], 1)],      # degree 2
                "w0_ext": [(*lin[1], 2)],                   # degree 2
                "enumerate": {"k": k_pair, "twists": lists},
                "spec": {"factors": [{"n": 1, "k": k_pair[0], "p": chosen[0]},
                                     {"n": 2, "k": k_pair[1], "p": chosen[1]}]},
            })
    return out
