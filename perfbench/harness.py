"""Closed-loop execution of a workload's ops under a per-op deadline.

One client runs the ops in order; the next op starts only when the previous
one has returned. An op fails when it raises a typed `TorickstabError` (its
partial result, if any, is kept), runs past the deadline, or gives an answer
its oracle rejects. Untyped exceptions and rejected answers also make the run
incorrect.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field

from torickstab.errors import TorickstabError

import speed
from workloads import CliError

# Well above the slowest op that finishes (under 5 s on a 2-core box, see
# README.md) and far below the known stalls, so the set of failing ops repeats.
OP_DEADLINE_S = 10.0
ORACLE_DEADLINE_S = 60.0


class Deadline(BaseException):
    """Raised by the interval timer; a BaseException so library handlers let it through."""


def _expire(signum, frame):
    raise Deadline()


@dataclass
class Outcome:
    op: str
    status: str            # ok | error | deadline | crash
    seconds: float
    output: object = None  # the op's output, or the error record
    partial: object = None


@dataclass
class Pass:
    outcomes: list = field(default_factory=list)
    seconds: float = 0.0
    reference: list = field(default_factory=list)   # speed-loop samples around the ops


def call_with_deadline(fn, seconds):
    """fn() under an ITIMER_REAL deadline; raises Deadline when it runs past."""
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _plain(result):
    if result is None:
        return None
    return {k: v for k, v in vars(result).items() if k != "trace"}


def run_op(op, tracer=None, deadline=OP_DEADLINE_S):
    if tracer is not None:
        tracer.begin_op(op.id)
    start = time.perf_counter()
    try:
        output = call_with_deadline(op.run, deadline)
        status, partial = "ok", None
    except Deadline:
        output, status, partial = None, "deadline", None
    except (TorickstabError, CliError) as exc:
        output, status = f"{type(exc).__name__}: {exc}", "error"
        partial = _plain(getattr(exc, "result", None))
    except Exception as exc:  # noqa: BLE001 - a library bug, reported as a failed op
        output, status, partial = f"{type(exc).__name__}: {exc}", "crash", None
    return Outcome(op.id, status, time.perf_counter() - start, output, partial)


def run_pass(ops, tracer=None, reference=False):
    """Every op once, in order.

    With `reference`, the speed loop is sampled before each op and after the
    last one, into `Pass.reference`. The pass time counts the ops only.
    """
    outcomes, samples = [], []
    for op in ops:
        if reference:
            samples.append(speed.sample())
        outcomes.append(run_op(op, tracer))
    if reference:
        samples.append(speed.sample())
    return Pass(outcomes, sum(o.seconds for o in outcomes), samples)


@dataclass
class Verdict:
    failed: dict = field(default_factory=dict)   # op id -> reason
    wrong: dict = field(default_factory=dict)    # op id -> reason (also in failed)

    def fail(self, op_id, reason, wrong=False):
        self.failed.setdefault(op_id, reason)
        if wrong:
            self.wrong.setdefault(op_id, reason)


def check(ops, passes, verdict=None):
    """Oracle verdicts for the first pass; later passes must repeat it exactly.

    The verdicts are added to `verdict` when one is given.
    """
    verdict = Verdict() if verdict is None else verdict
    first = passes[0].outcomes
    outputs = {o.op: o.output for o in first if o.status == "ok"}
    for op, outcome in zip(ops, first):
        if outcome.status == "deadline":
            verdict.fail(op.id, f"ran past the {OP_DEADLINE_S:g} s deadline")
        elif outcome.status == "error":
            verdict.fail(op.id, outcome.output)
        elif outcome.status == "crash":
            verdict.fail(op.id, outcome.output, wrong=True)
        else:
            try:
                reason = call_with_deadline(lambda: op.check(outcome.output, outputs),
                                            ORACLE_DEADLINE_S)
            except Deadline:
                reason = f"oracle ran past {ORACLE_DEADLINE_S:g} s"
            if reason is not None:
                verdict.fail(op.id, reason, wrong=True)
    for later in passes[1:]:
        for a, b in zip(first, later.outcomes):
            if a.status != b.status or (a.status == "ok" and a.output != b.output):
                verdict.fail(a.op, f"pass repeated as {b.status} with another answer",
                             wrong=a.status == "ok" and b.status == "ok")
    return verdict
