"""Span tracing of torickstab from outside the package.

`Tracer.install` replaces the entry points of each layer (module) with
wrappers that record one span per call that crosses into the layer: name,
start, end, parent span and op id, plus a small probe value for the counters
(rows evaluated, quadrature path and subdivisions, Newton iterations, twists
found). Module-level functions are replaced everywhere the package holds a
reference to them, so names rebound by `from ... import` are traced too.
`Tracer.uninstall` puts every original back. Spans stay in memory, in flat
arrays because a solve pass records about a million of them; `layer_metrics`
turns them into self times and counters.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("polytope", "exactlinalg", "polynomial", "weights", "quadrature", "invariants",
          "solvers", "toricmetrics", "fibration", "jsonio", "cli")

# Entry points per layer. Helpers called inside tight loops (frac,
# HalfSpace.value, AffineFunction.eval_exact, Polynomial.eval) are left out:
# their time counts as self time of the traced function that calls them.
TARGETS = {
    "polytope": ("DelzantPolytope.__init__", "DelzantPolytope.triangulate",
                 "DelzantPolytope.facets", "DelzantPolytope.volume",
                 "DelzantPolytope.vertex_min", "DelzantPolytope.translated",
                 "Simplex.volume", "AffineFunction.compose_affine"),
    "exactlinalg": ("det", "solve", "rank", "primitive", "unimodular_completion"),
    "polynomial": ("Polynomial.compose_affine", "Polynomial.__mul__", "Polynomial.power",
                   "Polynomial.eval_exact", "Polynomial.partial",
                   "integrate_monomial_std_simplex"),
    "weights": ("WeightFn.eval", "WeightFn.grad", "WeightFn.hess", "WeightFn.positivity_on",
                "WeightFn.compose_affine", "WeightFn.to_polynomial", "WeightFn.__mul__",
                "WeightSum.eval", "WeightSum.grad", "WeightSum.hess",
                "WeightSum.positivity_on", "WeightSum.compose_affine",
                "WeightSum.to_polynomial", "WeightSum.__mul__", "require_positive",
                "soliton_weight_pair", "sasaki_weight_pair", "equivalent_sasaki_pair"),
    "quadrature": ("integrate_weighted", "integrate_boundary", "integrate_poly",
                   "integrate_poly_simplex", "integrate_monomial_simplex", "gm_rule",
                   "exp_affine_simplex_exact", "exp_divided_difference"),
    "invariants": ("futaki_fano", "futaki_boundary", "extremal_affine", "barycenter"),
    "solvers": ("tian_zhu_soliton", "msy_reeb"),
    "toricmetrics": ("futaki_numeric", "scal", "scal_v_direct", "scal_v_divergence",
                     "hess_inv", "scaled_bump", "SymplecticPotential.__init__",
                     "SymplecticPotential.hess"),
    "fibration": ("validate", "fibration_weight", "base_curvature_weight",
                  "extremal_fibration_weights", "soliton_fibration_weights", "fano_check",
                  "enumerate_fano", "pv_soliton_pipeline"),
    "jsonio": ("num_to_json", "num_from_json", "parse_poly", "poly_from_json", "poly_to_json",
               "polytope_from_json", "polytope_to_json", "affine_from_json", "affine_to_json",
               "weight_from_json", "weight_to_json", "fibration_from_json",
               "fibration_to_json", "futaki_report_to_json", "extremal_to_json",
               "solver_result_to_json"),
    "cli": ("main", "build_parser", "cmd_polytope_info", "cmd_futaki", "cmd_extremal",
            "cmd_soliton", "cmd_reeb", "cmd_fibration", "cmd_verify"),
}


def _rows(args, result, error):
    return int(np.atleast_2d(np.asarray(args[1])).shape[0])


def _quadrature_path(args, result, error):
    res = result if error is None else getattr(error, "result", None)
    if res is None:
        return None
    return ("exact" if res.exact is not None else "adaptive", res.subdivisions)


def _solver(args, result, error):
    res = result if error is None else getattr(error, "result", None)
    return (args[0].dim, None if res is None else res.iterations)


def _count(args, result, error):
    return None if result is None else len(result)


PROBES = {
    "weights.WeightFn.eval": _rows,
    "weights.WeightSum.eval": _rows,
    "toricmetrics.SymplecticPotential.hess": _rows,
    "quadrature.integrate_weighted": _quadrature_path,
    "solvers.tian_zhu_soliton": _solver,
    "solvers.msy_reeb": _solver,
    "fibration.enumerate_fano": _count,
}

NAME, PARENT, OP, PROBE, START, END = range(6)
ROW = 6

# A call from inside its own layer is not a layer boundary and records no span
# (its time stays self time of the layer), except for these, which are counted.
NESTED = {"quadrature.integrate_weighted", "toricmetrics.SymplecticPotential.hess"}


class Tracer:
    """Records spans while installed: name, start_ns, end_ns, parent, op, probe."""

    def __init__(self):
        self.names = [f"{layer}.{q}" for layer in LAYERS for q in TARGETS[layer]]
        self.ops = []                   # op index -> op id
        # one flat row per span, appended in a single call so that the deadline
        # signal cannot leave a half-written row: name, parent, op, probe, start, end
        self.spans = array("q")
        self.extra = {}                 # span -> tuple probe value
        self._stack = []                # open spans
        self._layers = []               # layers of the open spans
        self._op = -1
        self._patches = []              # (owner, attribute, original)

    def __len__(self):
        return len(self.spans) // ROW

    def column(self, field):
        return self.spans[field::ROW]

    def begin_op(self, op_id):
        self.ops.append(op_id)
        self._op = len(self.ops) - 1
        self._stack.clear()
        self._layers.clear()

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "torickstab" or n.startswith("torickstab.")) and m is not None]
        for layer in LAYERS:
            module = importlib.import_module(f"torickstab.{layer}")
            for qualname in TARGETS[layer]:
                name = f"{layer}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        index = self.names.index(name)
        layer = name.split(".", 1)[0]
        probe = PROBES.get(name)
        always = name in NESTED
        spans, stack, layers, extra = self.spans, self._stack, self._layers, self.extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layers and layers[-1] == layer and not always:
                return fn(*args, **kwargs)
            slot = len(spans) // ROW
            spans.extend((index, stack[-1] if stack else -1, self._op, -1, 0, 0))
            stack.append(slot)
            layers.append(layer)
            result = error = None
            spans[slot * ROW + START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:  # also the per-op deadline; always re-raised
                error = exc
                raise
            finally:
                spans[slot * ROW + END] = perf_counter_ns()
                stack.pop()
                layers.pop()
                if probe is not None:
                    value = probe(args, result, error)
                    if isinstance(value, int):
                        spans[slot * ROW + PROBE] = value
                    elif value is not None:
                        extra[slot] = value

        return traced


# -- metrics from spans -----------------------------------------------------------------

WEIGHT_EVAL = ("weights.WeightFn.eval", "weights.WeightSum.eval")
SOLVERS = ("solvers.tian_zhu_soliton", "solvers.msy_reeb")
INTEGRATE = "quadrature.integrate_weighted"

# Inclusive busy time of a group of entry points: spans of the group that have
# no ancestor in the group, so nested calls are not counted twice.
INCLUSIVE = {
    "weights.eval_s": WEIGHT_EVAL,
    "weights.positivity_s": ("weights.WeightFn.positivity_on",
                             "weights.WeightSum.positivity_on", "weights.require_positive"),
    "polytope.build_s": ("polytope.DelzantPolytope.__init__",),
    "polytope.triangulate_s": ("polytope.DelzantPolytope.triangulate",),
    "polytope.vertex_min_s": ("polytope.DelzantPolytope.vertex_min",),
    "toricmetrics.futaki_numeric_s": ("toricmetrics.futaki_numeric",),
    "invariants.futaki_s": ("invariants.futaki_boundary", "invariants.futaki_fano"),
    "invariants.extremal_s": ("invariants.extremal_affine",),
    "fibration.enumerate_s": ("fibration.enumerate_fano",),
}

CALLS = {
    "polytope.vertex_min_calls": "polytope.DelzantPolytope.vertex_min",
    "polynomial.compose_affine_calls": "polynomial.Polynomial.compose_affine",
    "exactlinalg.solve_calls": "exactlinalg.solve",
    "exactlinalg.det_calls": "exactlinalg.det",
}

COUNTERS = ("quadrature.adaptive_calls", "quadrature.exact_calls", "quadrature.subdivisions",
            "weights.eval_points", "solvers.solves", "solvers.newton_iterations",
            "solvers.objective_evals", "solvers.useful_ratio", "polytope.vertex_min_calls",
            "toricmetrics.hess_points", "polynomial.compose_affine_calls",
            "exactlinalg.solve_calls", "exactlinalg.det_calls", "fibration.twists")
DEADLINE_COUNTERS = ("quadrature.adaptive_calls", "quadrature.subdivisions",
                     "weights.eval_points", "solvers.objective_evals")


def layer_metrics(tracer, deadline_ops):
    """Per-layer metrics: times over every op, counters over the ops that finished.

    Counters of ops stopped at the deadline depend on how far they got before
    the timer fired, so they are reported apart under the `deadline.` prefix.
    """
    names = tracer.names
    groups = list(INCLUSIVE.items())
    bits = [sum(1 << k for k, (_, group) in enumerate(groups) if n in group) for n in names]
    stalled_op = [op_id in deadline_ops for op_id in tracer.ops] + [False]  # op -1: none
    times = {key: 0.0 for key in INCLUSIVE}
    self_s = {layer: 0.0 for layer in LAYERS}
    done = {key: 0 for key in COUNTERS}
    cut = {key: 0 for key in COUNTERS}
    solver_calls = {}                  # solver span -> (counters, r, integrate_weighted calls)
    n = len(tracer)
    name_col, parent_col, op_col, probe_col, start_col, end_col = (
        tracer.column(f) for f in (NAME, PARENT, OP, PROBE, START, END))
    mask = [0] * n                     # groups present among the ancestors
    owner = [-1] * n                   # nearest enclosing solver span
    child = [0] * n
    dur = [0] * n
    quad_s = {"adaptive": 0, "exact": 0}
    for i in range(n):
        if end_col[i] == 0 or start_col[i] == 0:   # the deadline fired inside the wrapper
            continue
        dur[i] = end_col[i] - start_col[i]
        p = parent_col[i]
        name = names[name_col[i]]
        if p >= 0:
            child[p] += dur[i]
            mask[i] = mask[p] | bits[name_col[p]]
            owner[i] = owner[p]
        for k, (key, group) in enumerate(groups):
            if bits[name_col[i]] >> k & 1 and not mask[i] >> k & 1:
                times[key] += dur[i]
        counts = cut if stalled_op[op_col[i]] else done
        value = probe_col[i]
        extra = tracer.extra.get(i)
        if name in SOLVERS:
            if owner[i] < 0:
                counts["solvers.solves"] += 1
                counts["solvers.newton_iterations"] += (extra[1] or 0) if extra else 0
            owner[i] = i
            solver_calls[i] = [counts, extra[0] if extra else 1, 0]
        elif name == INTEGRATE:
            if extra is not None:
                path, subdivisions = extra
                counts[f"quadrature.{path}_calls"] += 1
                counts["quadrature.subdivisions"] += subdivisions
                quad_s[path] += dur[i]
            if owner[i] >= 0:
                solver_calls[owner[i]][2] += 1
        elif value < 0:                # no probe value recorded
            continue
        elif name in WEIGHT_EVAL:
            counts["weights.eval_points"] += value
        elif name == "toricmetrics.SymplecticPotential.hess":
            counts["toricmetrics.hess_points"] += value
        elif name == "fibration.enumerate_fano":
            counts["fibration.twists"] += value
    for key, target in CALLS.items():
        index = names.index(target)
        for i in range(n):
            if name_col[i] == index and dur[i]:
                counts = cut if stalled_op[op_col[i]] else done
                counts[key] += 1
    for i in range(n):
        if dur[i]:
            self_s[names[name_col[i]].split(".", 1)[0]] += dur[i] - child[i]
    # one objective evaluation integrates 1 + r + r(r+1)/2 moments
    for counts, r, calls in solver_calls.values():
        counts["solvers.objective_evals"] += calls / (1 + r + r * (r + 1) // 2)
    for counts in (done, cut):
        evals = counts["solvers.objective_evals"]
        counts["solvers.useful_ratio"] = counts["solvers.newton_iterations"] / evals if evals else 0.0
    out = {key: value * 1e-9 for key, value in times.items()}
    out["quadrature.adaptive_s"] = quad_s["adaptive"] * 1e-9
    out["quadrature.exact_s"] = quad_s["exact"] * 1e-9
    out.update({f"{layer}.self_s": value * 1e-9 for layer, value in self_s.items()})
    out.update(done)
    out["deadline.ops"] = len(deadline_ops)
    out.update({f"deadline.{key}": cut[key] for key in DEADLINE_COUNTERS})
    out["trace.spans"] = n
    return out


def unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"
