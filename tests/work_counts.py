"""Work counts of qident runs: kernel passes and object constructions.

    PYTHONPATH=src python tests/work_counts.py \\
        "qident verify --id H_LIMIT --a 3/2 --order 60" \\
        "qident verify --id AG --k 1 --r 0"
    PYTHONPATH=src python tests/work_counts.py traffic

Each argument is one run, as `tests/line_reach.py` takes it (`qident ARGS`,
`pytest ARGS` or the word `traffic`, the benchmark's runs).  Each run goes
in a fresh interpreter on this repository's `src/`, run from its root, so
no cache is warm from an earlier one, with every module of the package
imported before the hook is set, so import work is not counted.  Under
`sys.setprofile` it counts by code object, which still sees a function
that another module imports by name:

- the calls of the list passes `qobjects._prefix_add` and `_two_term`
  and of the products `series._convolve_sparse` and `_convolve_kronecker`,
  and the list slots each one spans (the length of the list a pass
  rewrites, the length a product writes)
- the constructions (`__init__` calls) of `QSeries`, `HalfInt`,
  `Monomial` and `TripleProductSpec`

The counts are exact and the same on every run of the same tree; a run's
own output goes to stderr.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from typing import Dict, List, Sequence

import line_reach

# name: (module, attribute path, the argument whose length is the slot count, or None)
COUNTED = {
    "_prefix_add": ("qobjects", "_prefix_add", "c"),
    "_two_term": ("qobjects", "_two_term", "c"),
    "_convolve_sparse": ("series", "_convolve_sparse", "out_len"),
    "_convolve_kronecker": ("series", "_convolve_kronecker", "out_len"),
    "QSeries": ("series", "QSeries.__init__", None),
    "HalfInt": ("series", "HalfInt.__init__", None),
    "Monomial": ("qobjects", "Monomial.__init__", None),
    "TripleProductSpec": ("products", "TripleProductSpec.__init__", None),
}


def resolve() -> Dict[str, object]:
    """{name: its code object}, after importing every module of the package."""
    import qident

    for info in pkgutil.iter_modules(qident.__path__):
        if info.name != "__main__":
            importlib.import_module(f"qident.{info.name}")
    out = {}
    for name, (module, path, _) in COUNTED.items():
        obj = importlib.import_module(f"qident.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        out[name] = obj.__code__
    return out


def count_here(command: str) -> Dict[str, Dict[str, int]]:
    """Run one command in this interpreter under the profile hook: {name: {calls, slots}}."""
    codes = {code: name for name, code in resolve().items()}
    counts = {name: {"calls": 0, "slots": 0} for name in COUNTED}

    def hook(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                c = counts[name]
                c["calls"] += 1
                size = COUNTED[name][2]
                if size is not None:
                    v = frame.f_locals[size]
                    c["slots"] += v if isinstance(v, int) else len(v)

    with contextlib.redirect_stdout(sys.stderr):
        sys.setprofile(hook)
        try:
            code = line_reach._run(command)
        finally:
            sys.setprofile(None)
    if code:
        print(f"work_counts: {command!r} exited {code}", file=sys.stderr)
    return counts


def count(command: str, tree: str = line_reach.ROOT) -> Dict[str, Dict[str, int]]:
    """`count_here(command)` in a fresh interpreter on the package in `tree`'s
    `src/` (by default this repository's), run from `tree` and writing no
    bytecode there."""
    here = os.path.dirname(os.path.abspath(__file__))
    code = (f"import json, sys; sys.path.insert(0, {here!r}); import work_counts; "
            "print(json.dumps(work_counts.count_here(sys.argv[1])))")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code, command], capture_output=True, text=True, env=env, cwd=tree)
    sys.stderr.write(out.stderr)
    if out.returncode:
        raise RuntimeError(f"work_counts: {command!r} failed")
    return json.loads(out.stdout)


def report(runs: Sequence[str]) -> str:
    rows: List[str] = []
    for command in runs:
        rows.append(command)
        for name, c in count(command).items():
            slots = f" {c['slots']:>12,} slots" if COUNTED[name][2] else ""
            rows.append(f"  {name:<20} {c['calls']:>10,} calls{slots}")
    return "\n".join(rows)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    print(report(line_reach.expand(sys.argv[1:])))
