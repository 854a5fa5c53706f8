"""One pass of a perfbench workload, in a fresh interpreter.

Reads a job (JSON) on stdin, imports qident from the checkout's `src/`,
validates every case (that is the set-up), certifies every case once
and prints one JSON line with the timings and each case's outcome.
With "trace" set, the timed part runs under the span tracer and the
line also carries the per-layer metrics.

Run by perfbench/run.py; not meant to be started by hand.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import qident  # noqa: E402


def half_token(h):
    """HalfInt or INF as the CLI's JSON writes it: whole q-units, 'num/2' or 'inf'."""
    if h is None:
        return None
    if h is qident.INF:
        return "inf"
    return h.num // 2 if h.is_integral else f"{h.num}/2"


# Operands for the reference loop: fixed, so its cost is the same on every commit.
REF_A = (1 << 40000) // 3 + 12345
REF_B = (1 << 40000) // 7 + 54321


def reference_s() -> float:
    """Time a fixed mix of interpreter loops, big-integer products and byte packing.

    The mix resembles qident's own work and shares no code with it.  It is
    timed before and after every timed segment, so run.py can rescale the
    segment's times by how fast this shared machine ran at that moment.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(180000):
        acc += (i * i) % 7
    for _ in range(12):
        acc ^= (REF_A * REF_B) & 0xFFFF
    buf = bytearray()
    for x in range(60000):
        buf += x.to_bytes(8, "little")
        if len(buf) == 8192:
            acc ^= int.from_bytes(buf, "little") & 0xFFFF
            buf.clear()
    return time.perf_counter() - t0


def timed(fn):
    """(result, wall seconds, CPU seconds of this process and its waited-for children)."""
    ru0 = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    ru1 = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    cpu = sum((b.ru_utime - a.ru_utime) + (b.ru_stime - a.ru_stime) for a, b in zip(ru0, ru1))
    return out, wall, cpu


def run_case(case) -> dict:
    try:
        rep = qident.verify(case)
    except Exception as e:  # an escaping exception is a failed case, not a crash
        return {"status": "exception", "compared_order": None,
                "detail": f"{type(e).__name__}: {e}", "elapsed_s": 0.0, "tuples": 0}
    return {"status": rep.status, "compared_order": half_token(rep.compared_order),
            "detail": rep.detail, "elapsed_s": rep.elapsed, "tuples": rep.tuple_count}


def run_suite(path, jobs):
    from qident import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["suite", path, "--jobs", str(jobs), "--format", "json"])
    return code, json.loads(buf.getvalue())


def main() -> None:
    job = json.load(sys.stdin)
    cases = [qident.make_case(c["id"], order=c.get("order"), **c["params"]) for c in job["cases"]]
    for case in cases:
        qident.validate_case(case)
    setup_s = time.perf_counter() - T0

    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, qident)

    # The reference loop runs before and after each timed segment (each case,
    # or the whole suite), so run.py can rescale every segment by the
    # machine's speed while it ran.
    refs = [reference_s()]
    segments = []
    outcomes, exit_code, doc = None, None, None
    if job["suite"]:
        (exit_code, doc), wall, cpu = timed(lambda: run_suite(job["suite"], job["jobs"]))
        segments.append([wall, cpu])
        refs.append(reference_s())
        case_sum_s = sum(row["elapsed_ms"] for row in doc["cases"]) / 1000.0
    else:
        outcomes = []
        for case in cases:
            outcome, wall, cpu = timed(lambda: run_case(case))
            outcomes.append(outcome)
            segments.append([wall, cpu])
            refs.append(reference_s())
        case_sum_s = sum(o["elapsed_s"] for o in outcomes)

    # ru_maxrss is in KiB on Linux; for children it is the largest one's peak,
    # so the pool's share is estimated as that peak times the worker count
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = (self_rss + (job["jobs"] * child_rss if child_rss else 0)) / 1024.0

    out = {
        "setup_s": setup_s,
        "segments": segments,
        "reference_s": refs,
        "peak_rss_mb": peak_rss_mb,
        "case_sum_s": case_sum_s,
        "outcomes": outcomes,
        "suite_exit_code": exit_code,
        "suite_doc": doc,
        "qident_file": os.path.realpath(qident.__file__),
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, doc)
        out["untraced_functions"] = tracer.missing
        if job.get("spans_path"):
            tracing.write_spans(tracer, job["spans_path"])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
