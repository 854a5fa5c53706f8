"""Layered benchmark of qident: time to certificate, end to end and per layer.

    python3 perfbench/run.py --workload sums_deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's cases are generated
from the seed (perfbench/workloads.json lists them and the free
parameters the seed picks).  Passes run one after another, each in a
fresh interpreter importing qident from `src/`, until the next pass
would end after `--seconds`.  Every pass is checked for correctness:
each case must reach its expected status and, when it passes, at least
its requested order.

Times are rescaled to a reference speed: the worker times a fixed loop
before and after every timed segment, and the segment's time is
multiplied by REF_NOMINAL_S over the loop's mean time around it (for
suite_cold, whose pool keeps both cores busy, by the run's mean of that
factor).  On a shared machine this removes most of the drift in speed
between runs; the unscaled figures are kept in the detail line.

With --trace 0 the last line reports the end-to-end metrics, each the
median over the passes.  With --trace 1 the passes alternate between
untraced and traced; the traced ones wrap the public functions of every
layer with timing spans (perfbench/tracer.py) and the last line reports
the per-layer metrics plus the tracing overhead.  The line before it
holds the details: seed, generated cases, environment, the same
end-to-end figures unscaled (with ops_failed_frac) and per-pass values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
RUN_LIMIT_S = 170.0
# A typical time of the worker's reference loop on the 2-vCPU Intel Xeon
# (Python 3.11) this benchmark was defined on.  Each timed segment of a pass
# is multiplied by REF_NOMINAL_S / (the loop's time around it): the machine
# is shared, and its speed drifts by tens of percent within minutes.
REF_NOMINAL_S = 0.045

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
    "parallel_eff": "ratio",
}

# The catalog's default order for each suite id, in q-units: the sum--product
# families use modulus + 30, every other id 40.  A passing suite case must
# reach it.
_SUITE_MODULUS = {
    "AG": lambda p: 2 * p["k"] + 3,
    "NEG_AG": lambda p: 2 * p["k"] + 4,
    "BRESSOUD_EVEN": lambda p: 2 * p["k"] + 2,
    "BRESS_J": lambda p: 2 * p["k"] + 3,
    "THM_3_1": lambda p: 2 * p["k"] + 3,
    "THM_3_2": lambda p: 2 * p["k"] + 3,
    "THM_4_1": lambda p: 2 * p["k"] + 2,
    "THM_4_2": lambda p: 2 * p["k"] + 2,
    "OVER_1": lambda p: 2 * p["k"] + 3,
    "OVER_2": lambda p: 2 * p["k"] + 3,
    "OVER_3": lambda p: 2 * p["k"] + 3,
    "CURIOUS": lambda p: 3,
    "COR_INFTY": lambda p: 2 * p["k"] + 3,
    "ANDREWS_ANSWER": lambda p: 2 * p["k"] + 3,
}


def suite_requested_order(id: str, params: dict) -> int:
    mod = _SUITE_MODULUS.get(id)
    return 40 if mod is None else mod(params) + 30


def order_value(tok) -> Optional[float]:
    """A JSON order token (int q-units, 'num/2' or 'inf') as a number."""
    if tok is None:
        return None
    if tok == "inf":
        return float("inf")
    if isinstance(tok, str):
        num, _, den = tok.partition("/")
        return int(num) / int(den or 1)
    return float(tok)


# ---------------------------------------------------------------------------
# inputs


def generate(name: str, spec: dict, seed: int, root: str) -> dict:
    """The workload's inputs for `seed`; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if "suite" in spec:
        with open(os.path.join(root, spec["suite"])) as fh:
            suite = json.load(fh)
        listed = list(suite["cases"])
        rng.shuffle(listed)
        first = set(spec["list_first"])
        listed.sort(key=lambda c: c["id"] not in first)  # stable: both groups stay shuffled
        suite["cases"] = listed
        cases = []
        for c in listed:
            params = {k: v for k, v in c.items() if k not in ("id", "expect", "order")}
            cases.append({"id": c["id"], "params": params, "order": c.get("order"),
                          "expect": c.get("expect", "pass")})
        return {"cases": cases, "suite": suite, "jobs": spec["jobs"]}
    cases = []
    for c in spec["cases"]:
        params = dict(c["params"])
        if "choose" in c:
            params.update(rng.choice(c["choose"]))
        cases.append({"id": c["id"], "params": params, "order": c["order"], "expect": "pass"})
    return {"cases": cases, "suite": None, "jobs": 1}


# ---------------------------------------------------------------------------
# correctness gate


def _known(spec: dict, case: dict) -> Optional[dict]:
    for k in spec.get("known_failures", ()):
        if (k["id"], k["params"], k["order"]) == (case["id"], case["params"], case["order"]):
            return k
    return None


def check_cases(spec: dict, cases: list, outcomes: list) -> tuple:
    """(ok count, list of problems) for one pass of a verify workload.

    A case is ok when it passes at or above its requested order.  A listed
    known failure may fail that way without making the run incorrect, but
    any other outcome of it is a problem.
    """
    ok, problems = 0, []
    for case, out in zip(cases, outcomes):
        co = order_value(out["compared_order"])
        if out["status"] == "pass" and co is not None and co >= case["order"]:
            ok += 1
            continue
        known = _known(spec, case)
        if known and out["status"] == known["status"] and out["detail"] == known["detail"]:
            continue
        problems.append(f"{case['id']} {case['params']} q^{case['order']}: "
                        f"{out['status']} at {out['compared_order']} ({out['detail']})")
    return ok, problems


def check_suite(spec: dict, cases: list, exit_code: int, doc: dict) -> tuple:
    """(ok count, list of problems) for one pass of the suite workload."""
    problems = []
    rows = doc["cases"]
    if len(rows) != len(cases):
        problems.append(f"suite returned {len(rows)} rows for {len(cases)} cases")
    ok = 0
    for row in rows:
        bad = None
        if row["status"] != row["expect"]:
            bad = f"status {row['status']}, expected {row['expect']} ({row['detail']})"
        elif row["status"] == "pass":
            want = suite_requested_order(row["id"], row["params"])
            co = order_value(row["compared_order"])
            if co is None or co < want:
                bad = f"compared below q^{row['compared_order']}, requested q^{want}"
        elif row["id"] in spec["expect_mismatch"]:
            want = spec["expect_mismatch"][row["id"]]
            m = row["first_mismatch"] or {}
            got = {"exp": m.get("exp"), "lhs": m.get("lhs"), "rhs": m.get("rhs")}
            if got != want:
                bad = f"first mismatch {got}, expected {want}"
        if bad:
            problems.append(f"{row['id']} {row['params']}: {bad}")
        else:
            ok += 1
    expected_code = 0 if doc["unexpected"] == 0 else 1
    if exit_code != expected_code:
        problems.append(f"suite exit code {exit_code} with {doc['unexpected']} unexpected")
    return ok, problems


# ---------------------------------------------------------------------------
# passes


def run_pass(root: str, job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen([sys.executable, WORKER], cwd=root, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("a pass did not finish within the run's time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def calibrate(res: dict) -> None:
    """Add a pass's raw times and its times rescaled to the reference speed.

    Segment i ran between reference timings i and i + 1 and is scaled by
    their mean; set-up ran just before reference timing 0.
    """
    refs, segments = res["reference_s"], res["segments"]
    scale = [REF_NOMINAL_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
    res["raw"] = {
        "wall_s": sum(w for w, _ in segments),
        "cpu_s": sum(c for _, c in segments),
        "setup_s": res["setup_s"],
    }
    res["cal"] = {
        "wall_s": sum(w * k for (w, _), k in zip(segments, scale)),
        "cpu_s": sum(c * k for (_, c), k in zip(segments, scale)),
        "setup_s": res["setup_s"] * REF_NOMINAL_S / refs[0],
    }
    res["speed"] = res["cal"]["wall_s"] / res["raw"]["wall_s"]


def outcome_key(res: dict) -> list:
    if res["suite_doc"] is not None:
        return [[r["id"], r["params"], r["status"], r["compared_order"]] for r in res["suite_doc"]["cases"]]
    return [[o["status"], o["compared_order"], o["tuples"]] for o in res["outcomes"]]


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(root: str, qident_file: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(root),
        "qident_file": qident_file,
    }


def git_commit(root: str) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qident", "__init__.py")):
        print("error: run from the root of a qident checkout (src/qident is missing)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as fh:
        specs = json.load(fh)["workloads"]
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.workload]
    inputs = generate(args.workload, spec, args.seed, root)
    cases = inputs["cases"]

    os.makedirs(OUT_DIR, exist_ok=True)
    suite_path = None
    if inputs["suite"] is not None:
        suite_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.suite")
        with open(suite_path, "w") as fh:
            json.dump(inputs["suite"], fh, indent=1)
    # the traced suite runs in this process: spans in pool workers would not return
    traced_jobs = 1 if args.trace else inputs["jobs"]
    job = {
        "cases": [{"id": c["id"], "params": c["params"], "order": c["order"]} for c in cases],
        "suite": suite_path,
        "jobs": traced_jobs,
        "trace": False,
        "spans_path": os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.json"),
    }

    try:
        # untimed warm-up: byte-compiles the package and fills the file cache
        warm = run_pass(root, dict(job, cases=[], suite=None), deadline)
        plain, traced, problems, ok, attempted = [], [], [], 0, 0
        t_start = time.monotonic()
        while True:
            tracing = bool(args.trace) and len(traced) < len(plain)
            t_pass = time.monotonic()
            res = run_pass(root, dict(job, trace=tracing), deadline)
            if res["suite_doc"] is not None:
                good, bad = check_suite(spec, cases, res["suite_exit_code"], res["suite_doc"])
            else:
                good, bad = check_cases(spec, cases, res["outcomes"])
            ok, attempted = ok + good, attempted + len(cases)
            problems += bad
            calibrate(res)
            (traced if tracing else plain).append(res)
            res["pass_s"] = time.monotonic() - t_pass
            elapsed = time.monotonic() - t_start
            next_pass = statistics.median(r["pass_s"] for r in plain + traced)
            if elapsed + next_pass > args.seconds and (traced or not args.trace):
                break
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    first = outcome_key(plain[0])
    if any(outcome_key(r) != first for r in plain + traced):
        problems.append("case outcomes differ between passes (traced or untraced)")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cases": [{k: c[k] for k in ("id", "params", "order", "expect")} for c in cases],
        "suite_file": suite_path and os.path.relpath(suite_path, root),
        "jobs": traced_jobs,
        "environment": environment(root, warm["qident_file"]),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "outcomes": first,
        "problems": problems[:20],
    }
    if args.trace:
        if inputs["suite"] is not None:
            detail["note"] = ("suite_cold traced: cases run in-process (--jobs 1), since spans in "
                              "pool workers do not return; its untraced passes use --jobs 1 as well")
        detail["spans_file"] = os.path.relpath(job["spans_path"], root)
        detail["untraced_functions"] = traced[0]["untraced_functions"]
        metrics = layer_report(plain, traced, detail)
    else:
        metrics = end_to_end_report(plain, traced_jobs, ok, attempted, detail)
    detail["run_s"] = time.monotonic() - started
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}))
    return 0


def layer_report(plain: list, traced: list, detail: dict) -> dict:
    """Per-layer metrics: medians over the traced passes, times rescaled."""
    detail["speed"] = {"untraced": quartiles([r["speed"] for r in plain]),
                       "traced": quartiles([r["speed"] for r in traced])}
    layers = {}
    for name in traced[0]["layers"]:
        if layer_unit(name) in ("s", "ms"):
            layers[name] = statistics.median(r["layers"][name] * r["speed"] for r in traced)
        else:  # counts and ratios repeat exactly from pass to pass
            layers[name] = statistics.median_low(r["layers"][name] for r in traced)
    untraced_wall = statistics.median(r["cal"]["wall_s"] for r in plain)
    traced_wall = statistics.median(r["cal"]["wall_s"] for r in traced)
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.traced_wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}


def end_to_end_report(plain: list, jobs: int, ok: int, attempted: int, detail: dict) -> dict:
    """End-to-end metrics: medians over the passes, times rescaled.

    The detail also gets the same figures unscaled, named as measured.
    """
    times = ("wall_s", "cpu_s", "setup_s")
    per_pass = {name: [r["cal"][name] for r in plain] for name in times}
    raw = {name: [r["raw"][name] for r in plain] for name in times}
    if jobs > 1:
        # single-core reference timings bracket a pool's speed poorly (both
        # cores are busy during it), so a pool's times get the run's mean speed
        speed = statistics.fmean(r["speed"] for r in plain)
        per_pass["wall_s"] = [x * speed for x in raw["wall_s"]]
        per_pass["cpu_s"] = [x * speed for x in raw["cpu_s"]]
    per_pass["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    per_pass["parallel_eff"] = [r["case_sum_s"] / (jobs * r["raw"]["wall_s"]) for r in plain]
    values = {name: statistics.median(v) for name, v in per_pass.items()}
    values["ops_ok_frac"] = ok / attempted

    unscaled = {name: {"value": statistics.median(v), "unit": "s"} for name, v in raw.items()}
    unscaled["peak_rss_mb"] = {"value": values["peak_rss_mb"], "unit": "MB"}
    unscaled["ops_failed_frac"] = {"value": (attempted - ok) / attempted, "unit": "ratio"}
    unscaled["parallel_eff"] = {"value": values["parallel_eff"], "unit": "ratio"}
    detail["unscaled"] = unscaled
    detail["speed"] = quartiles([r["speed"] for r in plain])
    detail["quartiles"] = {name: quartiles(v) for name, v in per_pass.items()}
    detail["per_pass"] = {name: [round(x, 4) for x in v] for name, v in per_pass.items()}
    detail["per_pass"].update({"unscaled_" + k: [round(x, 4) for x in v] for k, v in raw.items()})
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
