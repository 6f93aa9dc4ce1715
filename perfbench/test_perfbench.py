"""Tests of the benchmark itself: inputs, oracles, failure accounting and tracing.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import harness
import run
import speed
import tracing
import workloads
from torickstab.polytope import DelzantPolytope

HERE = Path(__file__).resolve().parent


def _ops(ops, *ids):
    by_id = {op.id: op for op in ops}
    return [by_id[i] for i in ids]


# -- generator ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_generator_is_deterministic(seed):
    assert gen.metric_inputs(seed) == gen.metric_inputs(seed)
    assert gen.exact_inputs(seed) == gen.exact_inputs(seed)
    assert gen.solve_inputs() == gen.solve_inputs()


def test_seeds_change_inputs_and_seed_zero_is_canonical():
    assert gen.exact_inputs(1) != gen.exact_inputs(2)
    for case in gen.exact_inputs(0)[:len(gen.CANONICAL)]:
        assert case["polytope"]["basis"] == gen.identity(case["dim"])
        assert all(c == 1 for c in case["polytope"]["offsets"])
    for case in gen.exact_inputs(5):
        basis = case["polytope"]["basis"]
        assert abs(gen.det(basis)) == 1
        assert max(abs(a) for row in basis for a in row) <= 2


def test_generated_vertices_match_the_library():
    for case in gen.exact_inputs(3):
        for poly in (case["polytope"], case["moved"]):
            built = workloads.make_polytope(poly)
            assert isinstance(built, DelzantPolytope)
            assert sorted(built.vertices) == sorted(poly["vertices"])


# -- oracles -----------------------------------------------------------------------------


def test_solver_oracles_reject_a_perturbed_field():
    ops = workloads.solve_ops(gen.solve_inputs())
    for op in _ops(ops, "soliton/P2/affine", "reeb/P2/exp", "fibration/P2/0,1/reeb"):
        out = op.run()
        assert op.check(out, {}) is None
        wrong = dict(out, xi0=[z + 1e-3 for z in out["xi0"]])
        assert op.check(wrong, {}) is not None, op.id


def test_three_way_oracle_bounds():
    good = {"boundary": 1.0, "closed_form": 1.0 + 5e-7, "numeric": 1.0 + 5e-4}
    assert workloads._check_three_way(good, {}) is None
    assert workloads._check_three_way(dict(good, numeric=1.002), {}) is not None
    assert workloads._check_three_way(dict(good, closed_form=1.00001), {}) is not None


def test_exact_oracles_reject_wrong_answers():
    case = gen.exact_inputs(2)[0]
    ops = workloads.exact_ops([case])
    outputs = {op.id: op.run() for op in ops}
    for op in ops:
        assert op.check(outputs[op.id], outputs) is None, op.id

    def tampered(op_id, edit):
        out = json.loads(json.dumps(outputs[op_id]))
        edit(out["results"])
        return _ops(ops, op_id)[0].check(out, outputs)

    name = case["label"]
    assert tampered(f"polytope-info/{name}/moved",
                    lambda r: r.update(volume=str(Fraction(r["volume"]) + 1)))
    assert tampered(f"futaki/{name}/canonical",
                    lambda r: r[1]["boundary"].update(exact="1/3"))
    assert tampered(f"futaki/{name}/moved",
                    lambda r: r[2]["boundary"].update(exact="1/3"))
    assert tampered(f"extremal/{name}/canonical",
                    lambda r: r["ell_ext"].update(a=str(Fraction(r["ell_ext"]["a"]) + 1)))
    assert tampered(f"extremal/{name}/moved",
                    lambda r: r["ell_ext"]["zeta"].__setitem__(0, "5/7"))
    assert tampered(f"enumerate/{name}", lambda r: r["tuples"].pop())
    assert tampered(f"validate/{name}", lambda r: r.update(fano=False))


# -- failure accounting ------------------------------------------------------------------


def test_wrong_answer_and_deadline_count_as_failures():
    def slow():
        time.sleep(1.0)

    ops = [
        workloads.Op("right", lambda: 1, lambda out, _: None),
        workloads.Op("wrong", lambda: 2, lambda out, _: "expected 1" if out != 1 else None),
        workloads.Op("slow", slow, lambda out, _: None),
    ]
    passes = [harness.Pass([harness.run_op(ops[0]), harness.run_op(ops[1]),
                            harness.run_op(ops[2], deadline=0.05)])]
    assert passes[0].outcomes[2].status == "deadline"
    assert passes[0].outcomes[2].seconds < 0.5
    verdict = harness.check(ops, passes)
    assert set(verdict.failed) == {"wrong", "slow"}
    assert set(verdict.wrong) == {"wrong"}
    assert run.failures(passes, verdict) == 2


def test_typed_error_keeps_partial_result():
    case = gen.solve_inputs()["polygons"][2]          # F1
    poly, weight = case["polytope"], case["weights"]["affine"]
    op = workloads.Op("capped", lambda: workloads.solver_output(
        workloads.solvers.msy_reeb(workloads.make_polytope(poly),
                                   workloads.make_weight(weight, 2), 3, max_iter=1)),
        lambda out, _: None)
    outcome = harness.run_op(op)
    assert outcome.status == "error" and outcome.output.startswith("MaxIterations")
    assert outcome.partial["iterations"] == 1


def test_stalling_ops_run_once_outside_the_timed_passes():
    ops = workloads.solve_ops(gen.solve_inputs())
    timed, untimed = run.split(ops)
    assert [op.id for op in untimed] == sorted(workloads.UNTIMED, key=[op.id for op in ops].index)
    assert len(timed) + len(untimed) == len(ops)
    assert run.split(workloads.exact_ops(SMALL_EXACT))[1] == []


# -- timing ------------------------------------------------------------------------------


def test_reference_samples_surround_every_op():
    ops = [workloads.Op(f"op{i}", lambda: None, lambda out, _: None) for i in range(3)]
    assert harness.run_pass(ops).reference == []
    sampled = harness.run_pass(ops, reference=True)
    assert len(sampled.reference) == len(ops) + 1
    assert all(0 < r < 1 for r in sampled.reference)


def test_latencies_are_scaled_by_the_nearby_reference_samples():
    ref = speed.REF_S
    run_ = harness.Pass([harness.Outcome(f"op{i}", "ok", 1.0) for i in range(3)], 3.0,
                        [ref, ref, 2 * ref, 2 * ref])
    # op0 sees samples 0-1, op1 samples 0-2, op2 samples 1-3
    assert speed.scaled_latencies(run_) == pytest.approx([1.0, 1.0, 0.5])
    assert run.op_costs([[3.0, 1.0], [2.0, 4.0]]) == [2.5, 2.5]


# -- tracing -----------------------------------------------------------------------------


def _attributes():
    """Every module and class attribute the tracer may replace, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("torickstab"):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("torickstab"):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_wrapping_leaves_no_trace_after_uninstall():
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    assert workloads.solvers.tian_zhu_soliton is not before[("torickstab.solvers",
                                                             "tian_zhu_soliton")]
    tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    op = _ops(workloads.solve_ops(gen.solve_inputs()), "soliton/P2/exp")[0]
    harness.run_op(op)
    assert len(tracer) == 0


SMALL_EXACT = [c for c in gen.exact_inputs(4) if c["name"] in ("F1", "P3")]


def _small_ops():
    solve = _ops(workloads.solve_ops(gen.solve_inputs()),
                 "soliton/P2/exp", "reeb/Bl3P2/exp", "fibration/P2/enumerate",
                 "fibration/P2/1,0/weights")
    return solve + workloads.exact_ops(SMALL_EXACT)


def test_traced_and_untraced_runs_give_identical_outputs_and_counters():
    ops = _small_ops()
    untraced = harness.run_pass(ops)
    counters = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = harness.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        assert [o.output for o in traced.outcomes] == [o.output for o in untraced.outcomes]
        metrics = tracing.layer_metrics(tracer, set())
        counters.append({k: metrics[k] for k in tracing.COUNTERS})
    assert counters[0] == counters[1]
    assert counters[0]["quadrature.adaptive_calls"] > 0
    assert counters[0]["polynomial.compose_affine_calls"] > 0
    twists = [len(a) * len(b) for a, b in (c["enumerate"]["twists"] for c in SMALL_EXACT)]
    assert counters[0]["fibration.twists"] == 4 + sum(twists)


def test_rebound_names_are_traced():
    original = workloads.quadrature.integrate_weighted
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # solvers calls integrate_weighted through its own `from .quadrature import` name
        assert workloads.solvers.integrate_weighted is not original
        harness.run_op(_ops(workloads.solve_ops(gen.solve_inputs()), "soliton/P2/exp")[0],
                       tracer)
    finally:
        tracer.uninstall()
    assert workloads.solvers.integrate_weighted is original
    metrics = tracing.layer_metrics(tracer, set())
    assert metrics["solvers.solves"] == 1
    evals = metrics["solvers.objective_evals"]
    assert evals == int(evals) and evals >= metrics["solvers.newton_iterations"] + 1


def test_harrell_davis_median():
    assert run.harrell_davis_median([5.0]) == pytest.approx(5.0)
    assert run.harrell_davis_median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    # between the two middle values of a skewed sample, and insensitive to the tail
    skewed = [0.01] * 10 + [0.2, 0.3] + [5.0] * 10
    assert 0.01 < run.harrell_davis_median(skewed) < 5.0
    assert run.harrell_davis_median(skewed[:-1] + [500.0]) == pytest.approx(
        run.harrell_davis_median(skewed), rel=1e-3)


# -- the contract --------------------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    tracer = tracing.Tracer()
    reported = list(tracing.layer_metrics(tracer, set())) + ["trace.overhead_s"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(reported)
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])


def test_exits_nonzero_without_the_package():
    """A directory holding only BENCHMARK.json and perfbench/ has no program to run."""
    build = HERE.parent / ".bench_build"
    build.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=build))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = subprocess.run([sys.executable, "-B", "perfbench/run.py", "--workload", "exact",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
