"""Integration over Delzant polytopes and their boundaries.

integrate_products picks each distinct weight's path by its canonical form (see `weights`):
a polynomial is exact, read off the cached rational moment tables; a single term Q exp(ell)
or Q ell^-sigma (Q polynomial, integer sigma >= 1) is a closed-form sum of divided
differences with a rounding bound as its error (one evaluation per ell, sigma and deg Q,
memoised on the polytope), and so is a sum of such terms and polynomials, term by term;
everything else takes adaptive simplex cubature with a collapsed Gauss--Legendre pair
(`_gauss_pair`) and longest-edge bisection, one refinement for all the weights and products
of a batch, on the boundary per facet chart. integrate_weighted and integrate_boundary are
the one-product case.
The cubature hands its nodes to the integrand in chunks of at most EVAL_CHUNK and takes back
one (K, n) block of K columns per chunk; `_results` turns the (K, S) rows of a refinement
into one result per column, for `_adaptive` and for `toricmetrics.futaki_numeric` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import add, mul

import numpy as np

from .errors import DegenerateSimplex, MaxDepthExceeded, NonFiniteIntegral, SingularOnDomain
from .exactlinalg import frac
from .polynomial import Polynomial, compositions, expand, linear_terms
from .polytope import DelzantPolytope, MomentTable, Simplex, _bisect_all, moment_table
from .weights import WeightFn, WeightSum, as_weight

DEFAULT_TOL = 1e-12
ABS_FLOOR = 1e-14
MAX_DEPTH = 40
MAX_SIMPLICES = 1 << 17  # most simplices an adaptive refinement may hold

GAUSS_ORDER_HIGH, GAUSS_ORDER_LOW = 8, 6  # points per axis of the pair of every float cubature
GM_ORDER_LOW, GM_ORDER_HIGH = 3, 4  # gm_rule's orders, named only by the benchmark (perfbench)


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int
    exact: Fraction = None  # set on the exact rational path
    converged: bool = True


# -- exact polynomial path ------------------------------------------------------


def integrate_monomial_simplex(simplex: Simplex, alpha) -> Fraction:
    """Exact integral of x^alpha over a simplex."""
    return integrate_poly_simplex(simplex, Polynomial.monomial(simplex.dim, alpha))


def integrate_poly_simplex(simplex: Simplex, poly: Polynomial) -> Fraction:
    return _dot_shifted(lambda degree: moment_table([simplex], degree), poly, [([], 1)])[0]


def integrate_poly(polytope: DelzantPolytope, poly: Polynomial) -> Fraction:
    """Exact integral of a rational polynomial over the polytope.

    A linear functional of the polytope's cached moment table.
    """
    return _dot_shifted(polytope.moments, poly, [([], 1)])[0]


# -- cubature rules ----------------------------------------------------------------


@lru_cache(maxsize=None)
def gm_rule(dim: int, order: int):
    """Grundmann--Moeller rule on the standard dim-simplex, exact to degree 2*order+1: read-only
    barycentric points (P, dim+1) and weights (P,) of both signs, summing to 1/dim!."""
    d = 2 * order + 1
    points, weights = [], []
    for i in range(order + 1):
        denom = d + dim - 2 * i  # int / int is correctly rounded, as float(Fraction) is
        w = float(Fraction((-1) ** i * denom ** d,
                           4 ** order * factorial(i) * factorial(d + dim - i)))
        for k in compositions(order - i, dim + 1):
            points.append([(2 * kj + 1) / denom for kj in k])
            weights.append(w)
    pts, wts = np.array(points), np.array(weights)
    assert abs(wts.sum() - 1.0 / factorial(dim)) < 1e-12  # the volume of the std simplex
    pts.flags.writeable = wts.flags.writeable = False  # shared by every caller of the cache
    return pts, wts


@lru_cache(maxsize=None)
def _gauss_pair(dim: int):
    """Collapsed (Duffy) Gauss rules of orders GAUSS_ORDER_*: n points per axis of [0, 1]^dim,
    lambda_(k-1) = t_k prod_{j<k} (1 - t_j), weights times prod_j (1 - t_j)^(dim - j): positive,
    sum 1/dim!, exact to degree 2n - dim (Stroud 1971); even orders share no point. Nodes (U,
    dim+1), the high rule's first; weights (U, 2): high (0 on low nodes), high - low. Read-only."""
    nodes, weights = [], []
    for order in (GAUSS_ORDER_HIGH, GAUSS_ORDER_LOW):
        x, w = np.polynomial.legendre.leggauss(order)
        t, w = (np.stack(np.meshgrid(*[a] * dim, indexing="ij"), -1).reshape(-1, dim)
                for a in ((x + 1) / 2, w / 2))
        rest = np.cumprod(1 - t, axis=1)
        nodes.append(np.column_stack([t[:, :1], t[:, 1:] * rest[:, :-1], rest[:, -1:]]))
        weights.append(np.prod(w * (1 - t) ** np.arange(dim - 1, -1, -1), axis=1))
    (hi, lo), nodes = weights, np.vstack(nodes)
    weights = np.column_stack([np.concatenate([hi, 0 * lo]), np.concatenate([hi, -lo])])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# -- adaptive integration ---------------------------------------------------------

# Most nodes handed to one integrand call: the Abreu kernel's columns grow with the
# chunk, and chunks of 2^15 nodes took 4x their memory for no gain in speed.
EVAL_CHUNK = 1 << 13


def _rule_batch(verts, evaluate):
    """High-rule value, |high - low| error and high rule on |f| per simplex (`_gauss_pair`):
    C-contiguous (K, S) rows, for an `evaluate` that returns a (K, n) block at n nodes.

    Each of the pair's U nodes of every simplex (8^r + 6^r: 14, 100 and 728 for r = 1, 2, 3)
    goes through `evaluate` once, for EVAL_CHUNK // U whole simplices a call. Each row of the
    block is overwritten by f (high - low) and summed pairwise per simplex (numpy's sum) before
    the next call: the high rule's part for the value and, on |f|, the mass.
    """
    dim, parts = verts.shape[2], []
    nodes, weights = _gauss_pair(dim)
    high, step = GAUSS_ORDER_HIGH ** dim, max(1, EVAL_CHUNK // len(nodes))  # high nodes first
    for chunk in (verts[i:i + step] for i in range(0, len(verts), step)):
        f, sums = evaluate(np.matmul(nodes, chunk).reshape(-1, dim)), []
        for column in f.reshape(len(f), len(chunk), len(nodes)):
            column *= weights[:, 1]  # f w_high, then -f w_low
            sums.append([column[:, :high].sum(axis=1), np.abs(column.sum(axis=1)),
                         np.abs(column, out=column)[:, :high].sum(axis=1)])
        parts.append(np.array(sums) * np.abs(np.linalg.det(chunk[:, 1:] - chunk[:, :1])))
    return tuple(map(np.ascontiguousarray, np.concatenate(parts, axis=2).swapaxes(0, 1)))


def _results(dim, value, err, mass, subdivisions=0, converged=True):
    """One QuadratureResult per (K, S) row: the sums of the value and of the |high - low| gap
    over the S simplices, the estimate adding U eps int|f_k|, the U-node sums' rounding."""
    rounding = len(_gauss_pair(dim)[0]) * EPS * mass.sum(axis=1)
    return [QuadratureResult(float(v), float(e), subdivisions, converged=converged)
            for v, e in zip(value.sum(axis=1), err.sum(axis=1) + rounding)]


def _check_tolerances(tol, abs_floor):
    if not (0 <= tol < math.inf and 0 <= abs_floor < math.inf):  # a NaN fails both
        raise ValueError(f"tol and abs_floor must be finite and >= 0, got {tol} and {abs_floor}")


def _adaptive(simplices, evaluate, tol, abs_floor, mesh=None):
    """Round-based adaptive cubature of the K columns f_k of evaluate's (K, n) blocks.

    Each round bisects every simplex where some column's error exceeds its share target_k / S
    of its target max(tol * int|f_k|, abs_floor), int|f_k| by the high rule on |f_k|, and
    evaluates all children in one batch, until every column's |high - low| gap meets its target.
    Returns one QuadratureResult per column (`_results`), as MaxDepthExceeded carries when a
    simplex at depth MAX_DEPTH is due a split or the split would leave more than MAX_SIMPLICES.
    It is blind to kinks: on max(0, ell), say, both rules can agree.
    The first round evaluates the simplices, their vertices sorted so that neither the rule nor
    bisection's ties depend on their order, or, when the list `mesh` holds the [verts, depth]
    an earlier cubature over the same simplices left, that refinement: float simplices (S, r +
    1, r) and each one's depth, its bisections from the simplex it came from, so that MAX_DEPTH
    still counts from the simplices. A converged cubature leaves its final [verts, depth] there.
    """
    _check_tolerances(tol, abs_floor)
    if mesh:
        verts, depth = mesh
    else:
        verts = np.array([sorted(s.float_vertices().tolist()) for s in simplices])
        depth = np.zeros(len(verts), dtype=int)
    (value, err, mass), subdivisions = _rule_batch(verts, evaluate), 0
    while True:
        total_err = err.sum(axis=1)
        target = np.maximum(tol * mass.sum(axis=1), abs_floor)
        if not (total_err > target).any():  # a NaN integrand stops here too
            if mesh is not None:
                mesh[:] = verts, depth
            return _results(verts.shape[2], value, err, mass, subdivisions)
        split = (err > (target / len(verts))[:, None]).any(axis=0)
        if depth[split].max() >= MAX_DEPTH or len(verts) + split.sum() > MAX_SIMPLICES:
            raise MaxDepthExceeded(
                f"refinement capped at depth {MAX_DEPTH} and {MAX_SIMPLICES} simplices (error "
                f"estimate {total_err.max():.3e})",
                result=_results(verts.shape[2], value, err, mass, subdivisions, False))
        keep = ~split
        children = _bisect_all(verts[split])
        c_value, c_err, c_mass = _rule_batch(children, evaluate)
        verts = np.concatenate([verts[keep], children])
        value = np.concatenate([value[:, keep], c_value], axis=1)
        err = np.concatenate([err[:, keep], c_err], axis=1)
        mass = np.concatenate([mass[:, keep], c_mass], axis=1)
        depth = np.concatenate([depth[keep], np.repeat(depth[split] + 1, 2)])
        subdivisions += len(children) // 2


def _check_singularities(polytope: DelzantPolytope, weight):
    for aff, p in weight.singular_factors():
        vmin = polytope.vertex_min(aff)
        if vmin <= 0:
            raise SingularOnDomain(
                f"affine factor {aff} with exponent {p} attains {vmin} on the polytope"
            )


def _total(parts):
    """The sum of the integrals in parts, adding their errors and subdivisions (see _finite)."""
    if len(parts) == 1:
        return _finite(parts[0])
    return _finite(QuadratureResult(sum(r.value for r in parts),
                                    sum(r.error_estimate for r in parts),
                                    sum(r.subdivisions for r in parts)))


def _finite(res):
    """res (a QuadratureResult or a list); NonFiniteIntegral carrying res if any is not finite."""
    for r in res if isinstance(res, list) else [res]:
        if not (math.isfinite(r.value) and math.isfinite(r.error_estimate)):
            raise NonFiniteIntegral(f"integral {r.value}, error {r.error_estimate}", result=res)
    return res


def integrate_weighted(polytope: DelzantPolytope, integrand, tol=DEFAULT_TOL,
                       abs_floor=ABS_FLOOR) -> QuadratureResult:
    """Integral of a grammar weight (or polynomial) over the polytope: the one-product case
    of integrate_products, except for the closed-form leaf it hands back here, a weight each
    term of which is a polynomial or has a closed form (see _slot), integrated term by term
    with the error bounds added. Failures carry one QuadratureResult."""
    w = as_weight(integrand, polytope.dim, "integrand")
    if w.is_polynomial or not _closed(w):
        return _one(polytope, w, False, tol, abs_floor)
    _check_tolerances(tol, abs_floor)
    _check_singularities(polytope, w)
    return _total([integrate_products(polytope, t, [()])[0] if t.is_polynomial else
                   _closed_form(polytope, t) for t in w.terms()])


def integrate_boundary(polytope: DelzantPolytope, integrand, tol=DEFAULT_TOL,
                       abs_floor=ABS_FLOOR) -> QuadratureResult:
    """Integral over the polytope boundary with the lattice measure d(sigma): the
    one-product case of integrate_products(boundary=True). Failures carry one
    QuadratureResult."""
    return _one(polytope, integrand, True, tol, abs_floor)


def _one(polytope, w, boundary, tol, abs_floor):
    """integrate_products of w alone, a failure carrying its one QuadratureResult."""
    try:
        return integrate_products(polytope, w, [()], boundary, tol, abs_floor)[0]
    except (MaxDepthExceeded, NonFiniteIntegral) as exc:
        exc.result = exc.result[0] if isinstance(exc.result, list) else exc.result
        raise


def integrate_products(polytope: DelzantPolytope, integrand, products, boundary=False,
                       tol=DEFAULT_TOL, abs_floor=ABS_FLOOR, mesh=None) -> list:
    """Integral of w_k * prod(ells_k) per product ells_k, integrand one w or a list of w_k,
    over the polytope or, with boundary=True, over its boundary with d(sigma).

    The one place a path is picked, once per distinct weight. Polynomial WeightFns that differ
    only in a nonzero coefficient are one weight here: one exact batch over the
    unit-coefficient weight, each result times its own coefficient. A polynomial is expanded once
    and pulled back once per facet chart x = origin + B t, where ell = (c + <zeta, x>) / n,
    scaled to integers once, becomes (q c + <zeta, p> + sum_k q <zeta, B_k> t_k) / (n q) for
    origin = p / q; every result is exact, a dot product with shifted moments (_dot_shifted).
    On the boundary any other weight and its products are pulled back once per facet chart
    and integrated there in one call (_facet_products). A weight with a closed form takes
    integrate_weighted once per product, the rest one cubature (_adaptive) of their columns
    w_k * prod(ells_k), one (K, n) block of in-place products of each distinct weight's and
    affine factor's values, started from and leaving its refinement in the list `mesh` if
    given: a caller integrating nearby weights over one polytope hands the last mesh on.
    tol and abs_floor must be finite and >= 0, and each direction of the polytope's dimension
    (else ValueError); a failure carries the results of the integral that failed.
    """
    _check_tolerances(tol, abs_floor)
    single = not isinstance(integrand, list)
    ws = [as_weight(w, polytope.dim, "integrand") for w in ([integrand] if single else integrand)]
    wrong = [ell.dim for ells in products for ell in ells if ell.dim != polytope.dim]
    if wrong:
        raise ValueError(f"direction has dimension {wrong[0]}, the polytope {polytope.dim}")
    ws = ws * len(products) if single else ws
    groups = {}  # each distinct weight, by identity, with the indices of its products
    for k, (w, _) in enumerate(zip(ws, products, strict=True)):
        groups.setdefault(id(w), (w, []))[1].append(k)
    out, cubature, exact = {}, [], {}
    for w, ks in groups.values():
        own = [products[k] for k in ks]
        if w.is_polynomial:  # a WeightFn by its unit-coefficient weight, with its coefficient
            c = w.coeff if isinstance(w, WeightFn) and w.coeff else 1
            exact.setdefault(w.scale(1 / c) if c != 1 else w, []).extend((k, c) for k in ks)
        elif boundary:
            _check_singularities(polytope, w)
            out.update(zip(ks, _facet_products(polytope, w, own, tol, abs_floor)))
        elif _closed(w):
            out.update((k, integrate_weighted(polytope, w * _multiplier(polytope.dim, tuple(ells)),
                                              tol, abs_floor)) for k, ells in zip(ks, own))
        else:
            _check_singularities(polytope, w)
            cubature += [(k, (w, *ells)) for k, ells in zip(ks, own)]
    for w, scaled in exact.items():
        ks, coeffs = zip(*scaled)
        out.update(zip(ks, _exact_products(polytope, w, [products[k] for k in ks], boundary,
                                           coeffs)))
    if cubature:  # each distinct weight and affine factor evaluated once per node
        items = list(dict.fromkeys(f for _, row in cubature for f in row))
        which = [[items.index(f) for f in row] for _, row in cubature]

        def columns(x):  # one (K, n) block of in-place products
            values, block = [f.eval(x) for f in items], np.empty((len(which), len(x)))
            for row, (first, *rest) in zip(block, which):
                row[:] = values[first]
                for i in rest:
                    row *= values[i]
            return block

        out.update(zip([k for k, _ in cubature], _finite(_adaptive(
            polytope.triangulate(), columns, tol, abs_floor, mesh))))
    return [out[k] for k in range(len(products))]


def _facet_products(polytope, w, products, tol, abs_floor):
    """Boundary integrals of a non-polynomial w times each product, summed over the facets."""
    parts = []
    for _, f in polytope.facets():
        if f.subpolytope is None:
            parts.append([_at_point(w * _multiplier(polytope.dim, tuple(ells)), f.origin)
                          for ells in products])
        else:
            parts.append(integrate_products(
                f.subpolytope, w.compose_affine(f.basis, f.origin),
                [[ell.compose_affine(f.basis, f.origin) for ell in ells] for ells in products],
                tol=tol, abs_floor=abs_floor))
    return [_total(column) for column in zip(*parts)]


def _at_point(w, origin):
    """w.eval at a point facet's x, with a first-order rounding bound as its error: per term, in
    ulps of its size, |p| (r + 1)(|x zeta| + |c|) / |ell(x)| per factor ell^p, (r + 1)(|x zeta|
    + |c|) for the exp argument, deg + r + n for an n-term polynomial part of size sum |c_a x^a|,
    and one per coefficient, power, product, exp and sum (x, zeta and c are rounded too)."""
    x, err = np.array([float(c) for c in origin]), 0.0
    size = lambda ell: (len(x) + 1) * (np.abs(x * ell.floats[0]).sum() + abs(ell.floats[1]))  # noqa: E731
    for t in w.terms():
        ulps = 2 + sum(abs(p) * size(ell) / abs(ell.eval(x)) + 2 for ell, p in t.affine_powers)
        ulps += 0 if t.exp_part is None else size(t.exp_part) + 2
        q = Polynomial.constant(t.dim, 1) if t.poly_part is None else t.poly_part
        q_size = Polynomial(t.dim, {a: abs(c) for a, c in q.coeffs.items()}).eval(np.abs(x))
        ulps += q.degree() + len(x) + len(q.coeffs) + 1
        err += ulps * q_size * abs(WeightFn(t.dim, t.coeff, t.affine_powers, t.exp_part).eval(x))
    return QuadratureResult(float(w.eval(x)), float(EPS * err), 0)


def _exact_products(polytope, w, products, boundary, coeffs):
    """The exact integrals of c * w times each product, for the polynomial weight w and the
    coefficient c of each product (integrate_products): one batch, scaled per product."""
    lines = [_integer_line(ells) for ells in products]
    poly = w.to_polynomial()
    if not boundary:
        exact = _dot_shifted(polytope.moments, poly, lines)
    else:
        exact = [0] * len(products)
        for _, f in polytope.facets():  # a point facet (r = 1) has dimension 0 and mass 1
            table = f.subpolytope.moments if f.subpolytope else lambda _: MomentTable({(): 1}, 1)
            q = lcm(*(c.denominator for c in f.origin))
            origin = [int(c * q) for c in f.origin]
            pulled = [([(q * c + sum(map(mul, zeta, origin)),
                         [q * sum(map(mul, zeta, col)) for col in zip(*f.basis)])
                        for c, zeta in factors], den * q ** len(factors))
                      for factors, den in lines]
            exact = list(map(add, exact, _dot_shifted(
                table, poly.compose_affine(f.basis, f.origin), pulled)))
    return [QuadratureResult(float(c * e), 0.0, 0, exact=c * e) for c, e in zip(coeffs, exact)]


@lru_cache(maxsize=256)
def _multiplier(dim, ells):
    """prod(ells) as a polynomial weight, cached: a Newton solve asks for it at every step."""
    return WeightFn.from_polynomial(
        Polynomial(dim, _expand([(ell.const, ell.zeta) for ell in ells], dim)))


def _integer_line(ells):
    """(factors, den): integer (c, zeta) factors with prod(ells) = prod(c + <zeta, x>) / den."""
    return [ell.integers[:2] for ell in ells], prod(ell.integers[2] for ell in ells)


def _dot_shifted(table, poly, lines):
    """int poly * prod(c + <zeta, t>) / den for each (factors, den) of integer (c, zeta),
    read off the MomentTable table(degree) as sum_beta [t^beta] prod * sum_alpha
    c_alpha m_(alpha + beta) in integers, poly scaled by its denominator: one Fraction each."""
    moments = table(poly.degree() + max((len(f) for f, _ in lines), default=0))
    m, den = moments.numerators, lcm(*(c.denominator for c in poly.coeffs.values()))
    coeffs = [(a, c.numerator * (den // c.denominator)) for a, c in poly.coeffs.items()]
    mults = [_expand(factors, poly.dim) for factors, _ in lines]
    shifted = {beta: sum(c * m[tuple(map(add, a, beta))] for a, c in coeffs)
               for beta in set().union(*mults)}
    return [Fraction(sum(d * shifted[beta] for beta, d in q.items()),
                     moments.denominator * den * line_den)
            for q, (_, line_den) in zip(mults, lines)]


def _expand(factors, dim):
    """prod(c + <zeta, t>) over the (c, zeta) factors, as {beta: coefficient}."""
    return expand([((1,) * len(factors), 1)], [linear_terms(zeta, c) for c, zeta in factors], dim)


# -- closed-form integrals -----------------------------------------------------------

EPS = np.finfo(float).eps
TAYLOR_TAIL = 14  # Taylor terms past the N-th at least: sum_{j > 14} 2^-j / j! < u / 4
INV_FACTORIAL = np.array([1 / math.factorial(k) for k in range(171)])


def _slot(w):
    """(ell, sigma, k): the term is c Q k exp(ell) (sigma = 0) or c Q k ell^-sigma (integer sigma),
    Q polynomial, k the constant factors a^p, p fractional, that WeightFn does not fold; or None."""
    odd = [(aff, p) for aff, p in w.affine_powers if p.numerator < 0 or p.denominator != 1]
    poles = [f for f in odd if any(f[0].zeta)]
    if len(poles) + (w.exp_part is not None) != 1 or any(p.denominator != 1 for _, p in poles):
        return None
    ell, sigma = (poles[0][0], -int(poles[0][1])) if poles else (w.exp_part, 0)
    return ell, sigma, [f for f in odd if f not in poles]


def _closed(w):  # every term of w a polynomial or with a closed form
    return all(t.is_polynomial or _slot(t) for t in w.terms())


def _closed_form(polytope: DelzantPolytope, w):
    """The integral of a term with a closed form (see _slot), its constant factors folded into
    the coefficient. With z_i = ell(v_i) and N = r + |beta|, Hermite--Genocchi on each simplex
    S of the triangulation gives

        int_S lambda^beta G^(N)(ell) dx = r! vol(S) beta! G[z_0^(beta_0 + 1), ..., z_r^(beta_r + 1)],

    summed over Q = sum_beta c_beta(S) lambda^beta (`DelzantPolytope.barycentric`); a pole
    takes `_pole_dd` for sigma > N and `_log_dd`, where G has a log term, otherwise. The error
    estimate bounds the rounding of the nodes and of the sum, and each divided difference's error.
    The divided differences and their bound depend on (ell, sigma, N + 1) alone: the polytope
    keeps them read-only in a memo that a miss empties at 64 entries, for products to share.
    """
    ell, sigma, constants = _slot(w)
    powers = tuple((aff, p) for aff, p in w.affine_powers if p.numerator > 0 and p.denominator == 1)
    index, table, verts = polytope.barycentric(powers, w.poly_part)
    key, memo = (ell, sigma, index.shape[1]), polytope._divided_differences
    if memo is None or (key not in memo and len(memo) >= 64):
        memo = polytope._divided_differences = {}
    if key not in memo:
        zeta, const = ell.floats
        z = verts @ zeta + const  # (S, r + 1)
        z_err = (polytope.dim + 3) * EPS * (np.abs(zeta).sum() * np.abs(verts).max() + abs(const))
        nodes = z[:, index].reshape(-1, index.shape[1])  # one row per simplex and beta
        if w.exp_part is not None:
            g, rel = _exp_dd(nodes)
            rel += z_err  # the partial derivatives of exp[...] are positive and sum to exp[...]
        else:
            g, rel = (_pole_dd if sigma >= index.shape[1] else _log_dd)(nodes, sigma)
            rel += sigma * z_err / z.min()  # G: homogeneous, degree -sigma, decreasing in each node
        g.flags.writeable = False  # shared by every product with these nodes
        memo[key] = g, rel
    g, rel = memo[key]
    coeff = float(w.coeff) * prod(aff.floats[1] ** float(p) for aff, p in constants)
    # a and p rounded (|p| (1 + |log a|) / 2 ulps), the power and the product
    rel += sum(abs(p) * (1 + abs(math.log(aff.floats[1]))) + 2 for aff, p in constants) * EPS
    terms = coeff * table.ravel() * g
    err = (rel + (terms.size + 2) * EPS) * float(np.abs(terms).sum())
    return QuadratureResult(float(terms.sum()), float(err), 0)


def _exp_dd(nodes):
    """exp[z_0, ..., z_N] per row of nodes (M, N + 1), repeats allowed, and a relative
    rounding bound: the (0, N) entry of exp(J), J upper bidiagonal with the nodes on the
    diagonal (McCurdy, Ng & Parlett, Math. Comp. 43 (1984)). Shifted by the row minimum,
    J has no negative entry: its Taylor polynomial and the squarings cannot cancel."""
    low = nodes.min(axis=1)
    d = nodes - low[:, None]
    m, n = d.shape
    s = max(0, math.frexp(2 * d.max())[1])  # 2^-s d <= 1/2
    size = math.isqrt(n - 1 + TAYLOR_TAIL) + 1  # Paterson--Stockmeyer: blocks of size terms,
    blocks = -(-(n + TAYLOR_TAIL) // size)  # Taylor degree blocks * size - 1 >= N + TAYLOR_TAIL
    powers = np.zeros((size + 1, m, n, n))  # I, A, ..., A^size for A = 2^-s (J - low)
    i = np.arange(n)
    powers[0][:, i, i] = 1
    powers[1][:, i, i] = np.ldexp(d, -s)
    powers[1][:, i[:-1], i[1:]] = 0.5 ** s
    for k in range(2, size + 1):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    b = INV_FACTORIAL[:blocks * size].reshape(blocks, size) @ powers[:size].reshape(size, -1)
    b = b.reshape(blocks, m, n, n)
    e = b[-1]
    for j in range(blocks - 2, -1, -1):
        e = b[j] + powers[size] @ e
    for _ in range(s):
        e = e @ e
    return np.exp(low) * e[:, 0, -1], 2 ** s * (n + 1) * (blocks * size + 1) * EPS


def _pole_dd(u, sigma):
    """G[u_0, ..., u_N] per row of u > 0 (M, N + 1), repeats allowed, for G^(N)(t) =
    t^-sigma, and a relative rounding bound. With q = sigma - N >= 1, G is
    (-1)^N (q - 1)! / (sigma - 1)! t^-q, and t^-q[u_0, ..., u_N] = (-1)^N h_(q-1)(1 / u)
    / prod(u), h complete homogeneous: positive terms only."""
    q = sigma - u.shape[1] + 1
    h = [np.ones(len(u))] + [0.0] * (q - 1)  # h_j of the columns of 1 / u seen so far
    for column in (1 / u).T:
        for j in range(1, q):
            h[j] = h[j] + column * h[j - 1]
    scale = math.factorial(q - 1) / math.factorial(sigma - 1)
    return scale * h[-1] * np.prod(1 / u, axis=1), (2 * sigma * q + 2) * EPS


LOG_STEP = 0.25  # trapezoid step h in log s: e^(-pi^2 / h) = 7e-18


def _log_dd(u, sigma):
    """G[u_0, ..., u_N] per row of u > 0 (M, N + 1), repeats allowed, for G^(N)(t) = t^-sigma,
    q = N - sigma >= 0, and a relative error bound. As u^-sigma = int_0^oo s^q (u + s)^-(N+1) ds
    / B(q + 1, sigma), G = int_0^oo s^q / prod(u_i + s) ds / (q! (sigma - 1)!): positive terms.
    Rows scaled to max u = 1 (G is homogeneous) take the trapezoid rule in t = log s, cut where
    the tails e^((q + 1) t) / ((q + 1) prod u) left and e^(-sigma t) / sigma right of t are below
    eps 2^-(N+1) / sigma <= eps G. On |Im t| < pi/2 the integrand is analytic and at most
    2^((N+1)/2) times its real value: the rule errs by 2^((N+3)/2) e^(-pi^2/h) at most (Trefethen
    & Weideman, SIAM Rev. 56 (2014)), and the bound adds the tails and the roundings."""
    n, top = u.shape[1], u.max(axis=1)
    q, v = n - 1 - sigma, u / top[:, None]
    left = (math.log(EPS * 0.5 ** n * (q + 1) / sigma) + np.log(v).sum(axis=1).min()) / (q + 1)
    right = -math.log(EPS * 0.5 ** n) / sigma
    s = np.exp(LOG_STEP * np.arange(math.floor(left / LOG_STEP), math.ceil(right / LOG_STEP) + 1))
    f = np.full((len(v), len(s)), LOG_STEP / math.factorial(q) / math.factorial(sigma - 1))
    for k, column in enumerate(v.T):  # s^(q + 1) / prod(v + s), no factor above 1 / v_k
        f *= (s if k <= q else 1.0) / (column[:, None] + s)  # 5 roundings with those of v and s
    rel = 2 ** ((n + 2) / 2) * math.exp(-math.pi ** 2 / LOG_STEP) + (5 * n + len(s) + 8) * EPS
    return f.sum(axis=1) * top ** -sigma, rel


def exp_divided_difference(values):
    """Divided difference exp[z_0, ..., z_N] at the given nodes, in any order, repeats allowed."""
    return float(_exp_dd(np.array([values], dtype=float))[0][0])


def exp_affine_simplex_exact(simplex: Simplex, xi) -> float:
    """Closed-form integral of exp(<xi, x>) over a simplex: r! vol(S) exp[<xi, v_0>, ..., <xi, v_r>]."""
    vol = simplex.volume()
    if vol == 0:
        raise DegenerateSimplex("simplex has zero volume")
    vals = [float(sum(frac(z) * c for z, c in zip(xi, v))) for v in simplex.vertices]
    return factorial(simplex.dim) * float(vol) * exp_divided_difference(vals)
