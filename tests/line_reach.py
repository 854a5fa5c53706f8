"""Line reach of the qident package: which executable lines some runs reach.

    PYTHONPATH=src python tests/line_reach.py \\
        "qident suite suites/full-paper.suite --jobs 1" \\
        "qident verify --id AG --k 1 --r 0" \\
        "pytest -q -p no:cacheprovider"
    PYTHONPATH=src python tests/line_reach.py traffic

Each argument is one run, `qident ARGS` (run as `python -m qident ARGS`
would run it) or `pytest ARGS` (`pytest.main`), or the word `traffic`,
which stands for the runs the benchmark's workloads make
(`traffic_runs`; run it from the repository root).  The runs go one after another in this process under
`sys.settrace`; the report is their union.  It gives each module of the
package, whether a run imported it or not (an identity family loads on
its first case): its executable lines, the line numbers of its code
objects (`co_lines`), and how many of them were reached; then each
function's unreached lines; the
lines of a lambda or a comprehension count for the function around it.
The package is imported afresh under the trace, so its module-level lines
count too, and the modules loaded before are put back afterwards.  Forked
children are not traced: run a suite at --jobs 1.  A run's own output goes
to stderr.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import runpy
import shlex
import sys
from typing import Dict, List, Sequence, Set, Tuple

PACKAGE = "qident"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def workload_runs() -> Dict[str, List[str]]:
    """{workload: its runs} for each workload in perfbench/workloads.json:
    a suite workload's suite at --jobs 1, and each case of the others as a
    `qident verify` run, at its first `choose` alternative when it has a
    list of them."""
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    out = {}
    for name, workload in workloads.items():
        runs = [f"qident suite {workload['suite']} --jobs 1"] if "suite" in workload else []
        for case in workload.get("cases", []):
            params = dict(case["params"], **case.get("choose", [{}])[0])
            argv = ["qident", "verify", "--id", case["id"]]
            for param, v in params.items():
                argv += ["--" + param.replace("_", "-"), ",".join(map(str, v)) if isinstance(v, list) else str(v)]
            runs.append(" ".join(argv + ["--order", str(case["order"])]))
        out[name] = runs
    return out


def traffic_runs() -> List[str]:
    """Every workload's runs (`workload_runs`), the suite's first."""
    runs = [run for runs in workload_runs().values() for run in runs]
    return sorted(runs, key=lambda run: not run.startswith("qident suite"))


def expand(args: Sequence[str]) -> List[str]:
    """The runs the arguments name, each `traffic` replaced by `traffic_runs()`."""
    return [run for a in args for run in (traffic_runs() if a == "traffic" else [a])]


def executable_lines(path: str) -> Dict[int, str]:
    """{line: the qualified name of the function it belongs to, or "<module>"}."""
    with open(path) as f:
        code = compile(f.read(), path, "exec")
    owner: Dict[int, str] = {}

    def walk(co, name: str) -> None:
        for _, _, line in co.co_lines():
            if line is not None:
                owner.setdefault(line, name)
        for c in co.co_consts:
            if isinstance(c, type(co)):
                walk(c, name if c.co_name.startswith("<") else getattr(c, "co_qualname", c.co_name))

    walk(code, "<module>")
    return owner


@contextlib.contextmanager
def _fresh_package():
    """The package's modules unloaded for the block, then put back."""

    def ours() -> List[str]:
        return [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]

    saved = {n: sys.modules.pop(n) for n in ours()}
    try:
        yield
    finally:
        for n in ours():
            del sys.modules[n]
        sys.modules.update(saved)


def _run(command: str) -> int:
    argv = shlex.split(command)
    if argv[:1] == [PACKAGE]:
        saved, sys.argv = sys.argv, argv
        try:
            runpy.run_module(PACKAGE, run_name="__main__")
        except SystemExit as e:
            return e.code
        finally:
            sys.argv = saved
    if argv[:1] == ["pytest"]:
        import pytest

        return int(pytest.main(argv[1:]))
    raise SystemExit(f"a run is 'qident ARGS' or 'pytest ARGS', got {command!r}")


def reach(runs: Sequence[str]) -> Dict[str, Tuple[Dict[int, str], Set[int]]]:
    """Run each command under the trace: {module file: (executable lines, reached lines)}."""
    root = os.path.dirname(importlib.util.find_spec(PACKAGE).origin)
    prefix = os.path.join(os.path.realpath(root), "")
    hits: Set[Tuple[str, int]] = set()
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    ours: Dict[str, bool] = {}  # file name -> in the package

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in ours:
            ours[path] = os.path.realpath(path).startswith(prefix)
        if ours[path]:
            add((path, frame.f_lineno))
            return local
        return None

    before = sys.gettrace()
    with _fresh_package(), contextlib.redirect_stdout(sys.stderr):
        sys.settrace(call)
        try:
            for command in runs:
                code = _run(command)
                if code:
                    print(f"line_reach: {command!r} exited {code}", file=sys.stderr)
        finally:
            sys.settrace(before)
    reached: Dict[str, Set[int]] = {}
    for path, line in hits:
        reached.setdefault(os.path.realpath(path), set()).add(line)
    out = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(root, name))
            lines = executable_lines(path)
            out[name] = (lines, reached.get(path, set()) & set(lines))
    return out


def report(modules: Dict[str, Tuple[Dict[int, str], Set[int]]]) -> str:
    rows = [f"{'module':<14} {'lines':>6} {'reached':>8}"]
    for name, (lines, hit) in modules.items():
        rows.append(f"{name:<14} {len(lines):>6} {len(hit):>8}")
    total = [sum(len(x) for x in col) for col in zip(*modules.values())]
    rows += [f"{'total':<14} {total[0]:>6} {total[1]:>8}", "", "unreached lines by function:"]
    for name, (lines, hit) in modules.items():
        missed: Dict[str, List[int]] = {}
        for line in sorted(set(lines) - hit):
            missed.setdefault(lines[line], []).append(line)
        rows += [f"{name} {fn}: {' '.join(map(str, ls))}" for fn, ls in missed.items()]
    return "\n".join(rows)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    print(report(reach(expand(sys.argv[1:]))))
