"""Paired runs of perfbench: a parent tree against the working tree.

    python bench/pairs.py PARENT [WORKLOAD ...] [--pairs 10] [--seconds 8] [--seed 31001] [--out BENCH.json]

PARENT is a git revision, exported with `git archive`, or a directory that
holds a source tree.  The working tree is copied as it stands, so changes
not yet committed are measured.  Neither copy keeps a `__pycache__`, and
every run has PYTHONDONTWRITEBYTECODE=1, so both sides compile the package
afresh.  Each pair runs `perfbench/run.py --trace 0` once on each tree with
the same seed, the first side alternating from pair to pair; the default
workloads are all of perfbench's.

The output file holds the two commits, the Python version, and per
workload each pair's end-to-end metrics and perfbench's unscaled medians
of the same run (its detail line's `unscaled`, times before the
calibration factor), each side's median and quartiles per metric of
both, the share of pairs the change wins (better by the metric's
direction in BENCHMARK.json; a tie is no win), and three deterministic
records per side, taken once per tree in a fresh interpreter on its
`src/` before the workload's timed runs:

- `counts`: `tests/work_counts.py`'s counts of the runs
  `tests/line_reach.py` makes for the workload (`workload_runs`)
- `setup_compile`: the package modules that `import qident` and
  validating the workload's cases load, perfbench's set-up, each with its
  executable lines (`line_reach.executable_lines`), and their total
- `timed_imports`: the modules that perfbench's timed part then imports,
  in the same interpreter: the suite through `cli.main` at --jobs 1, or
  verifying each case

Two lines per workload are printed: wall_s, with both medians and their
quartiles, the pairs won and whether the counts and the timed imports
are equal; and setup_s, calibrated and unscaled, with the executable
lines its set-up compiles.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
import line_reach  # noqa: E402
import work_counts  # noqa: E402

SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out", "BENCH*.json")


def _git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parent_tree(rev: str, into: str) -> str:
    if os.path.isdir(rev):
        return shutil.copytree(rev, into, ignore=SKIP)
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as t:
        t.extractall(into)
    return into


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run on `tree`: its end-to-end metric values and whether it was correct."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"perfbench failed on {tree}:\n{proc.stderr.strip()}")
    detail, doc = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    return {"correct": doc["correct"], **{name: m["value"] for name, m in doc["metrics"].items()},
            "unscaled": {name: m["value"] for name, m in detail["unscaled"].items()}}


def setup_loads(tree: str, spec: dict) -> tuple:
    """(setup_compile, timed_imports) of perfbench's workload `spec` on `tree`.

    setup_compile is {modules: {module: executable lines}, executable_lines:
    their total} of the package modules that the set-up loads: `import
    qident` and validating the workload's cases, a suite's cases or each
    case at its first `choose` alternative.  timed_imports lists the
    modules that the timed part then imports: the suite through `cli.main`
    at --jobs 1, as perfbench runs it but in one process, or verifying each
    case.
    """
    suite = os.path.join(tree, spec["suite"]) if "suite" in spec else None
    if suite:
        with open(suite) as fh:
            cases = [{"id": c["id"], "order": c.get("order"),
                      "params": {k: v for k, v in c.items() if k not in ("id", "expect", "order")}}
                     for c in json.load(fh)["cases"]]
    else:
        cases = [{"id": c["id"], "order": c["order"], "params": dict(c["params"], **c.get("choose", [{}])[0])}
                 for c in spec["cases"]]
    code = ("import contextlib, io, json, sys, qident\n"
            "suite, cases = json.load(sys.stdin)\n"
            "cases = [qident.make_case(c['id'], order=c['order'], **c['params']) for c in cases]\n"
            "for case in cases:\n"
            "    qident.validate_case(case)\n"
            "setup = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    if suite:\n"
            "        from qident import cli\n"
            "        cli.main(['suite', suite, '--jobs', '1', '--format', 'json'])\n"
            "    else:\n"
            "        for case in cases:\n"
            "            qident.verify(case)\n"
            "loaded = sorted(m[7:] for m in setup if m.startswith('qident.'))\n"
            "print(json.dumps([loaded, sorted(set(sys.modules) - setup)]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps([suite, cases]), env=env,
                          capture_output=True, text=True, check=True)
    loaded, timed = json.loads(proc.stdout)
    package = os.path.join(tree, "src", "qident")
    modules = {name: len(line_reach.executable_lines(os.path.join(package, name + ".py")))
               for name in ["__init__"] + loaded}
    return {"modules": modules, "executable_lines": sum(modules.values())}, timed


def quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list, higher: set) -> dict:
    out = {}
    for name in pairs[0]["parent"]:
        if name in ("correct", "unscaled"):
            continue
        sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        wins = sum((c > p) if name in higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"parent": quartiles(sides["parent"]), "change": quartiles(sides["change"]),
                     "win_frac": wins / len(pairs)}
    return out


def _medians(metric: dict, n: int) -> str:
    """Both sides' medians with their quartiles and the pairs the change won, as printed."""
    p, c = metric["parent"], metric["change"]
    return (f"parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}], change {c['median']:.4f} "
            f"[{c['q1']:.4f}, {c['q3']:.4f}], change wins {round(metric['win_frac'] * n)}/{n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0, help="perfbench's --seconds for each run")
    ap.add_argument("--seed", type=int, default=31001)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as fh:
        specs = json.load(fh)["workloads"]
    known = list(specs)
    workloads = args.workloads or known
    if not set(workloads) <= set(known):
        ap.error(f"unknown workload; one of {', '.join(known)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        higher = {m["name"] for m in json.load(fh)["end_to_end"] if m["better"] == "higher"}

    doc = {
        "parent": {"rev": args.parent, "commit": _git("rev-parse", args.parent)},
        "change": {"commit": _git("rev-parse", "HEAD"), "uncommitted": bool(_git("status", "--porcelain"))},
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": parent_tree(args.parent, os.path.join(tmp, "parent")),
                 "change": shutil.copytree(ROOT, os.path.join(tmp, "change"), ignore=SKIP)}
        runs = line_reach.workload_runs()
        for workload in workloads:
            counts = {side: {run: work_counts.count(run, tree) for run in runs[workload]} for side, tree in trees.items()}
            loads = {side: setup_loads(tree, specs[workload]) for side, tree in trees.items()}
            compiled = {side: loads[side][0] for side in trees}
            timed = {side: loads[side][1] for side in trees}
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, args.seed, args.seconds)
                pairs.append(pair)
            metrics = summarize(pairs, higher)
            unscaled = summarize([{side: p[side]["unscaled"] for side in trees} for p in pairs], higher)
            correct = all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
            doc["workloads"][workload] = {"correct": correct, "pairs": pairs, "metrics": metrics,
                                          "unscaled": unscaled, "counts": counts, "setup_compile": compiled,
                                          "timed_imports": timed}
            print(f"{workload} wall_s: {_medians(metrics['wall_s'], len(pairs))}, work counts "
                  + ("equal" if counts["parent"] == counts["change"] else "differ") + ", timed imports "
                  + ("equal" if timed["parent"] == timed["change"] else f"{timed['parent']} -> {timed['change']}")
                  + ("" if correct else ", NOT CORRECT"), flush=True)
            u = unscaled["setup_s"]
            print(f"{workload} setup_s: {_medians(metrics['setup_s'], len(pairs))}; unscaled "
                  f"{u['parent']['median']:.4f} -> {u['change']['median']:.4f}; set-up compiles "
                  f"{compiled['parent']['executable_lines']} -> {compiled['change']['executable_lines']} "
                  "executable lines", flush=True)
            with open(args.out, "w") as fh:  # rewritten after each workload, so a long run keeps what it measured
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
