"""JSON (de)serialization for polytopes, weights, fibration specs and reports.

Rationals are written as "p/q" strings so round-trips stay exact; small
polynomial expressions like "x+2" or "3*x1*x2^2 - 1/2" are accepted wherever
a polynomial is expected.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction

from .exactlinalg import frac
from .fibration import BaseFactor, FibrationSpec
from .invariants import ExtremalFunction, FutakiReport
from .polynomial import Polynomial
from .polytope import AffineFunction, DelzantPolytope, HalfSpace
from .solvers import SolverResult
from .weights import WeightFn, WeightSum


class SchemaError(ValueError):
    """Malformed JSON input; carries the offending schema path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def num_to_json(x):
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def num_from_json(obj, path="value") -> Fraction:
    try:
        if isinstance(obj, bool):
            raise TypeError("a boolean")
        return frac(obj)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as e:  # Infinity overflows
        raise SchemaError(path, f"not a number or 'p/q' string: {obj!r} ({e})")


def _int_from_json(obj, path) -> int:
    """An integer field: a number or 'p/q' string whose exact value is an integer."""
    x = obj if type(obj) is int else num_from_json(obj, path)
    if x.denominator != 1:
        raise SchemaError(path, f"not an integer: {x}")
    return x.numerator


def _check_fields(obj: dict, allowed, what, path):
    """A SchemaError naming each key of `obj` outside `allowed`."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise SchemaError(path, f"unknown {what} field(s) {unknown}")


def _vector_from_json(obj, dim, path, read=num_from_json):
    """A list of `dim` entries, each read by `read`."""
    if not isinstance(obj, list):
        raise SchemaError(path, f"expected a list, got {obj!r}")
    if dim is not None and len(obj) != dim:
        raise SchemaError(path, f"length {len(obj)} != dim {dim}")
    return [read(z, f"{path}[{i}]") for i, z in enumerate(obj)]


# -- polynomial expressions ----------------------------------------------------


def parse_poly(expr: str, dim: int, path="poly") -> Polynomial:
    """Parse x (1-D) or x1..x{dim} expressions into an exact polynomial; errors name `path`."""
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as e:
        raise SchemaError(path, f"cannot parse {expr!r}: {e}")
    return _poly_node(tree.body, expr, dim, path)


def _poly_node(node, expr, dim, path) -> Polynomial:
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float) or not math.isfinite(node.value):
            raise SchemaError(path, f"constant {node.value!r} is not a finite number in {expr!r}")
        return Polynomial.constant(dim, node.value)
    if isinstance(node, ast.Name):
        name = node.id
        if name == "x" and dim == 1:
            idx = 0
        elif name.startswith("x") and name[1:].isdigit():
            idx = int(name[1:]) - 1
        else:
            raise SchemaError(path, f"unknown variable {name!r} in {expr!r}")
        if not 0 <= idx < dim:
            raise SchemaError(path, f"variable {name!r} out of range for dim {dim}")
        return Polynomial.monomial(dim, tuple(1 if i == idx else 0 for i in range(dim)))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _poly_node(node.operand, expr, dim, path)
        return inner.scale(-1) if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _poly_node(node.left, expr, dim, path)
            if not (isinstance(node.right, ast.Constant) and type(node.right.value) is int
                    and node.right.value >= 0):
                raise SchemaError(path, f"exponent must be a nonnegative integer in {expr!r}")
            return base.power(node.right.value)
        left = _poly_node(node.left, expr, dim, path)
        right = _poly_node(node.right, expr, dim, path)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            if not right.is_constant() or right.constant_value() == 0:
                raise SchemaError(path, f"division only by nonzero constants in {expr!r}")
            return left.scale(1 / right.constant_value())
    raise SchemaError(path, f"unsupported syntax in {expr!r}")


def poly_from_json(obj, dim: int, path="poly") -> Polynomial:
    if isinstance(obj, str):
        return parse_poly(obj, dim, path)
    if isinstance(obj, dict):
        coeffs = {}
        for key, c in obj.items():
            alpha = tuple(_int_from_json(a, path) for a in key.split(","))
            if len(alpha) != dim or min(alpha) < 0:
                raise SchemaError(path, f"multi-index {key!r} is not {dim} nonnegative integers")
            coeffs[alpha] = num_from_json(c, path)
        return Polynomial(dim, coeffs)
    return Polynomial.constant(dim, num_from_json(obj, path))


def poly_to_json(poly: Polynomial):
    return {",".join(str(a) for a in alpha): num_to_json(c)
            for alpha, c in sorted(poly.coeffs.items())}


# -- polytopes -------------------------------------------------------------------


def polytope_from_json(obj, path="polytope") -> DelzantPolytope:
    if not isinstance(obj, dict) or not isinstance(obj.get("facets"), list):
        raise SchemaError(path, "expected an object with a 'facets' list")
    _check_fields(obj, ("dim", "facets"), "polytope", path)
    halfspaces = []
    for i, f in enumerate(obj["facets"]):
        fp = f"{path}.facets[{i}]"
        if not isinstance(f, dict) or "normal" not in f or "offset" not in f:
            raise SchemaError(fp, "facet needs 'normal' and 'offset'")
        _check_fields(f, ("normal", "offset"), "facet", fp)
        halfspaces.append(HalfSpace(_vector_from_json(f["normal"], None, f"{fp}.normal",
                                                      _int_from_json),
                                    num_from_json(f["offset"], f"{fp}.offset")))
    p = DelzantPolytope(halfspaces)
    if "dim" in obj and _int_from_json(obj["dim"], f"{path}.dim") != p.dim:
        raise SchemaError(path, f"declared dim {obj['dim']} != facet dim {p.dim}")
    return p


def polytope_to_json(p: DelzantPolytope):
    return {
        "dim": p.dim,
        "facets": [
            {"normal": [int(c) for c in h.normal], "offset": num_to_json(h.offset)}
            for h in p.halfspaces
        ],
    }


def affine_from_json(obj, dim: int, path="affine") -> AffineFunction:
    if isinstance(obj, (int, float, str)):
        return AffineFunction.constant(dim, num_from_json(obj, path))
    if isinstance(obj, list):
        return AffineFunction(_vector_from_json(obj, dim, path), 0)
    if isinstance(obj, dict):
        _check_fields(obj, ("zeta", "a"), "affine", path)
        if "zeta" not in obj:
            raise SchemaError(path, "affine function needs 'zeta'")
        return AffineFunction(_vector_from_json(obj["zeta"], dim, f"{path}.zeta"),
                              num_from_json(obj.get("a", 0), f"{path}.a"))
    raise SchemaError(path, f"cannot read an affine function from {obj!r}")


def affine_to_json(aff: AffineFunction):
    return {"zeta": [num_to_json(z) for z in aff.zeta], "a": num_to_json(aff.const)}


# -- weights ---------------------------------------------------------------------


_TERM_FIELDS = ("scalar", "affine_powers", "exp", "poly")


def weight_from_json(obj, dim: int, path="weight"):
    if isinstance(obj, (int, float)):
        return WeightFn.constant(dim, num_from_json(obj, path))
    if isinstance(obj, list):
        return WeightSum([weight_from_json(t, dim, f"{path}[{i}]")
                          for i, t in enumerate(obj)])
    if isinstance(obj, str) or (isinstance(obj, dict) and obj
                                and not set(obj) & {"sum", *_TERM_FIELDS}):
        poly = poly_from_json(obj, dim, path)  # a polynomial string or monomial map
        if poly.degree() == 1:
            # an affine weight keeps its factored form
            zeta = [poly.coeffs.get(tuple(1 if j == i else 0 for j in range(dim)), 0)
                    for i in range(dim)]
            return WeightFn.affine_power(AffineFunction(zeta, poly.constant_value()), 1)
        return WeightFn.from_polynomial(poly)
    if not isinstance(obj, dict):
        raise SchemaError(path, f"cannot read a weight from {obj!r}")
    if "sum" in obj:
        _check_fields(obj, ("sum",), "weight", path)
        return WeightSum([weight_from_json(t, dim, f"{path}.sum[{i}]")
                          for i, t in enumerate(obj["sum"])])
    _check_fields(obj, _TERM_FIELDS, "weight", path)
    coeff = num_from_json(obj.get("scalar", 1), path)
    powers = []
    for i, ap in enumerate(obj.get("affine_powers", [])):
        app = f"{path}.affine_powers[{i}]"
        if not isinstance(ap, dict):
            raise SchemaError(app, f"expected an object with 'zeta', 'a' and 'pow', got {ap!r}")
        factor = {k: v for k, v in ap.items() if k != "pow"}
        powers.append((affine_from_json(factor, dim, app), num_from_json(ap.get("pow", 1), app)))
    exp_part = None
    if obj.get("exp") is not None:
        exp_part = affine_from_json(obj["exp"], dim, f"{path}.exp")
    poly_part = None
    if obj.get("poly") is not None:
        poly_part = poly_from_json(obj["poly"], dim, f"{path}.poly")
    return WeightFn(dim, coeff=coeff, affine_powers=tuple(powers),
                    exp_part=exp_part, poly_part=poly_part)


def weight_to_json(w):
    if isinstance(w, WeightSum):
        return {"sum": [weight_to_json(t) for t in w.terms()]}
    out = {"scalar": num_to_json(w.coeff)}
    if w.affine_powers:
        out["affine_powers"] = [
            {"zeta": [num_to_json(z) for z in aff.zeta],
             "a": num_to_json(aff.const), "pow": num_to_json(p)}
            for aff, p in w.affine_powers
        ]
    if w.exp_part is not None:
        out["exp"] = affine_to_json(w.exp_part)
    if w.poly_part is not None:
        out["poly"] = poly_to_json(w.poly_part)
    return out


# -- fibrations -----------------------------------------------------------------


def fibration_from_json(obj, path="fibration") -> FibrationSpec:
    if not isinstance(obj, dict) or "fiber" not in obj:
        raise SchemaError(path, "expected an object with a 'fiber' polytope")
    _check_fields(obj, ("fiber", "factors"), "fibration", path)
    fiber = polytope_from_json(obj["fiber"], f"{path}.fiber")
    factors = []
    for i, f in enumerate(obj.get("factors", [])):
        fp = f"{path}.factors[{i}]"
        if not isinstance(f, dict):
            raise SchemaError(fp, f"expected an object, got {f!r}")
        factor = _factor_from_json({k: v for k, v in f.items() if k not in ("p", "c")}, fp)
        p_a = _vector_from_json(f.get("p", [0] * fiber.dim), fiber.dim, f"{fp}.p", _int_from_json)
        c_a = num_from_json(f.get("c", f.get("k", 1)), f"{fp}.c")
        factors.append((factor, p_a, c_a))
    return FibrationSpec(fiber, factors)


def _factor_from_json(obj: dict, path) -> BaseFactor:
    """A base factor from exactly the fields 'n' and one of 'k' or 's'."""
    _check_fields(obj, ("n", "k", "s"), "factor", path)
    if "n" not in obj:
        raise SchemaError(path, "factor needs a dimension 'n'")
    if ("k" in obj) == ("s" in obj):
        raise SchemaError(path, "factor needs exactly one of 'k' or 's'")
    n = _int_from_json(obj["n"], f"{path}.n")
    if "k" in obj:
        return BaseFactor(n, k=_int_from_json(obj["k"], f"{path}.k"))
    return BaseFactor(n, s=num_from_json(obj["s"], f"{path}.s"))


def fibration_to_json(spec: FibrationSpec):
    factors = []
    for factor, p_a, c_a in spec.factors:
        entry = {"n": factor.n, "p": list(p_a), "c": num_to_json(c_a)}
        if factor.is_fano:
            entry["k"] = factor.k
        else:
            entry["s"] = num_to_json(factor.s)
        factors.append(entry)
    return {"fiber": polytope_to_json(spec.fiber), "factors": factors}


# -- result reports ----------------------------------------------------------------


def futaki_report_to_json(r: FutakiReport):
    return {
        "direction": affine_to_json(r.direction),
        "value": r.value,
        "exact": num_to_json(r.exact) if r.exact is not None else None,
        "method": r.method,
        "error_estimate": r.error_estimate,
    }


def extremal_to_json(e: ExtremalFunction):
    return {
        "ell_ext": affine_to_json(e.function),
        "gram_condition_number": e.gram_condition_number,
        "gram_min_eigenvalue": e.gram_min_eigenvalue,
        "residuals": list(e.residuals),
    }


def solver_result_to_json(r: SolverResult):
    return {
        "xi0": [float(z) for z in r.xi0],
        "objective": r.objective,
        "grad_norm": r.grad_norm,
        "hessian_min_eigenvalue": r.hessian_min_eigenvalue,
        "iterations": r.iterations,
        "converged": r.converged,
        "trace": [
            {"xi": [float(z) for z in xi], "objective": obj, "step": step}
            for xi, obj, step in r.trace
        ],
    }
