"""Reach report: the statements of `src/torickstab` that no benchmark op runs.

    python3 tools/reach.py --seed 0

Imports the package and runs one pass of every op of `perfbench/workloads.py`
(`solve`, and `metric` and `exact` at the given seed) under `sys.settrace`,
then prints, per module, the statements that neither the import nor any op
reached, as line ranges with the function that holds them. A statement counts
as reached when a line of its own code ran, or, for a compound statement, a
statement of its body. Uses the standard library only, writes no file and
exits 0 whatever it finds: it is a report, not a gate.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torickstab"
# Well above the benchmark's per-op deadline, so that the slowdown tracing adds cuts no op short.
DEADLINE_S = 120.0


class Recorder:
    """A `sys.settrace` hook that records the (file, line) events of the package's frames."""

    def __init__(self):
        self.lines = defaultdict(set)
        self.prefix = str(PACKAGE) + os.sep

    def __call__(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def run(self, fn, *args, **kwargs):
        sys.settrace(self)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.settrace(None)


def _code_lines(code):
    """The lines that hold bytecode, in code and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree):
    """[(statement, own lines, enclosing function, body statements)] in source order.

    A statement's own lines run from its first decorator or its first line to
    the line before its body, or to its last line if it has no body."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child, where)
                continue
            body = [s for field in ("body", "orelse", "finalbody")
                    for s in getattr(child, field, []) if isinstance(s, ast.stmt)]
            body += [s for h in getattr(child, "handlers", []) for s in h.body]
            body += [s for c in getattr(child, "cases", []) for s in c.body]
            start = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
            end = min((s.lineno for s in body), default=child.end_lineno + 1) - 1
            out.append((child, set(range(start, max(end, child.lineno) + 1)), where, body))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            else:
                visit(child, where)

    visit(tree, "")
    return out


def unreached(path, ran):
    """([(first line, last line, function)] of the unreached statements of the file at
    path, runs of consecutive ones merged; the number unreached; the number of statements)."""
    source = path.read_text()
    code = _code_lines(compile(source, str(path), "exec"))
    # a statement without code of its own or a body (a docstring, say) does not count
    statements = [s for s in _statements(ast.parse(source)) if s[1] & code or s[3]]
    parts = {stmt: (own, body) for stmt, own, _, body in statements}
    reached = {}

    def is_reached(stmt):
        if stmt not in reached:
            own, body = parts.get(stmt, (set(), []))
            reached[stmt] = bool(own & ran) or any(is_reached(s) for s in body)
        return reached[stmt]

    runs, count = [], 0
    for index, (stmt, _, where, _) in enumerate(statements):
        if is_reached(stmt):
            continue
        count += 1
        where = where or "<module>"
        if runs and runs[-1][2] == where and runs[-1][3] == index - 1:
            runs[-1][1:4:2] = stmt.lineno, index
        else:
            runs.append([stmt.lineno, stmt.lineno, where, index])
    return [tuple(r[:3]) for r in runs], count, len(statements)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="the seed of the metric and exact inputs")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # as perfbench/run.py: one thread, before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    recorder = Recorder()
    recorder.run(__import__, "torickstab.cli")  # module-level statements run on import
    import gen
    import harness
    import workloads

    ops = (workloads.solve_ops(gen.solve_inputs())
           + workloads.metric_ops(gen.metric_inputs(args.seed))
           + workloads.exact_ops(gen.exact_inputs(args.seed)))
    late = [op.id for op in ops
            if recorder.run(harness.run_op, op, deadline=DEADLINE_S).status == "deadline"]
    print(f"{len(ops)} ops at seed {args.seed}; past the {DEADLINE_S:g} s deadline: "
          f"{', '.join(late) or 'none'}")

    for path in sorted(PACKAGE.glob("*.py")):
        runs, count, total = unreached(path, recorder.lines.get(str(path), set()))
        print(f"{path.name}: {count} of {total} statements unreached")
        for first, last, where in runs:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {span:>9}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
