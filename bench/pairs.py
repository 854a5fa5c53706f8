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
workload each pair's end-to-end metrics, each side's median and quartiles
per metric, and the share of pairs the change wins (better by the metric's
direction in BENCHMARK.json; a tie is no win).  One line per workload is
printed for its first metric, wall_s: both medians with their quartiles,
and the pairs won.
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
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": doc["correct"], **{name: m["value"] for name, m in doc["metrics"].items()}}


def quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list, higher: set) -> dict:
    out = {}
    for name in pairs[0]["parent"]:
        if name == "correct":
            continue
        sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        wins = sum((c > p) if name in higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"parent": quartiles(sides["parent"]), "change": quartiles(sides["change"]),
                     "win_frac": wins / len(pairs)}
    return out


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
        known = list(json.load(fh)["workloads"])
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
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, args.seed, args.seconds)
                pairs.append(pair)
            metrics = summarize(pairs, higher)
            correct = all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
            doc["workloads"][workload] = {"correct": correct, "pairs": pairs, "metrics": metrics}
            w = metrics["wall_s"]
            print(f"{workload} wall_s: parent {w['parent']['median']:.4f} [{w['parent']['q1']:.4f}, "
                  f"{w['parent']['q3']:.4f}], change {w['change']['median']:.4f} [{w['change']['q1']:.4f}, "
                  f"{w['change']['q3']:.4f}], change wins {round(w['win_frac'] * len(pairs))}/{len(pairs)}"
                  + ("" if correct else ", NOT CORRECT"), flush=True)
            with open(args.out, "w") as fh:  # rewritten after each workload, so a long run keeps what it measured
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
