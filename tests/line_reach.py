"""Line reach of the qident package: which executable lines some runs reach.

    PYTHONPATH=src python tests/line_reach.py \\
        "qident suite suites/full-paper.suite --jobs 1" \\
        "qident verify --id AG --k 1 --r 0" \\
        "pytest -q -p no:cacheprovider"
    PYTHONPATH=src python tests/line_reach.py traffic

Each argument is one run, `qident ARGS` (the CLI's `main`) or `pytest ARGS`
(`pytest.main`), or the word `traffic`, which stands for the runs the
benchmark's workloads make (`traffic_runs`; run it from the repository
root).  The runs go one after another in this process under
`sys.settrace`; the report is their union.  It gives each module's
executable lines, the line numbers of its code objects (`co_lines`), and
how many of them were reached, then each function's unreached lines; the
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
import shlex
import sys
from typing import Dict, List, Sequence, Set, Tuple

PACKAGE = "qident"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traffic_runs() -> List[str]:
    """The bundled suite at --jobs 1, then each case of each workload in
    perfbench/workloads.json as a `qident verify` run, at its first `choose`
    alternative when it has a list of them."""
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    runs = ["qident suite suites/full-paper.suite --jobs 1"]
    for workload in workloads.values():
        for case in workload.get("cases", []):
            params = dict(case["params"], **case.get("choose", [{}])[0])
            argv = ["qident", "verify", "--id", case["id"]]
            for name, v in params.items():
                argv += ["--" + name.replace("_", "-"), ",".join(map(str, v)) if isinstance(v, list) else str(v)]
            runs.append(" ".join(argv + ["--order", str(case["order"])]))
    return runs


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
        return importlib.import_module(PACKAGE + ".cli").main(argv[1:])
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
