"""Command line front end: verify one identity, or run a suite file.

Exit codes: 0 all results as expected, 1 a verification failed (or a
suite case did not match its expectation), 2 usage errors and cases
that could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from .catalog import IdentityCase, VerificationReport, registered_ids, validate_case, verify
from .series import INF, HalfInt, SpecError, _whole


def _half_token(h) -> object:
    """HalfInt -> JSON value: plain int in whole q-units, else 'num/2'."""
    if h is INF:
        return "inf"
    if h is None:
        return None
    return h.num // 2 if h.is_integral else f"{h.num}/2"


def _report_dict(rep: VerificationReport) -> dict:
    m = rep.first_mismatch
    return {
        "id": rep.case.id,
        "params": {k: _plain(v) for k, v in rep.case.params.items()},
        "order": _half_token(rep.case.order),
        "status": rep.status,
        "compared_order": _half_token(rep.compared_order),
        "first_mismatch": None
        if m is None
        else {
            "exp": _half_token(m.exp),
            "z_exp": m.z_exp,  # an int z-power, or None
            "lhs": str(m.lhs),
            "rhs": str(m.rhs),
        },
        "tuple_count": rep.tuple_count,
        "node_count": rep.node_count,
        "pruned_count": rep.pruned_count,
        "elapsed_ms": round(rep.elapsed * 1000.0, 3),
        "detail": rep.detail,
    }


def _plain(v):
    if isinstance(v, HalfInt):
        return _half_token(v)
    if isinstance(v, (frozenset, set, tuple)):
        return sorted(v) if isinstance(v, (frozenset, set)) else list(v)
    return v


def _head(id: str, params: dict) -> str:
    """The "ID k=v ..." head of a text line; parameters set to None are left out."""
    pbits = " ".join(f"{k}={_plain(v)}" for k, v in params.items() if v is not None)
    return id + (f" {pbits}" if pbits else "")


def _report_line(rep: VerificationReport) -> str:
    head = _head(rep.case.id, rep.case.params)
    if rep.status == "error":
        return f"{head}: ERROR: {rep.detail}"
    co = rep.compared_order
    where = "exactly" if co is INF else f"below q^{co}"
    if rep.status == "pass":
        extra = f", {rep.tuple_count} cells" if rep.tuple_count else ""
        return f"{head}: PASS ({where}{extra}, {rep.elapsed:.2f}s)"
    m = rep.first_mismatch
    return f"{head}: FAIL at {_mismatch_at(m.exp, m.z_exp, m.lhs, m.rhs)} ({rep.detail})"


def _mismatch_at(exp, z_exp, lhs, rhs) -> str:
    """A first mismatch in text output: q^exp, z^z_exp when it has a z-power, both sides."""
    return f"q^{exp}" + (f" z^{z_exp}" if z_exp is not None else "") + f": lhs={lhs} rhs={rhs}"


def _case_from_args(args) -> IdentityCase:
    params = {}
    for name in ("k", "r", "j", "n", "s_max", "a", "c", "z_exp", "z_sign"):
        v = getattr(args, name)
        if v is not None:
            params[name] = v
    if args.placement is not None:
        try:
            params["placement"] = [int(t) for t in args.placement.split(",") if t.strip()]
        except ValueError:
            raise SpecError(f"bad placement {args.placement!r}; expected e.g. 1,2,4")
    return IdentityCase(args.id, params, args.order)


def _cmd_verify(args) -> int:
    try:
        case = _case_from_args(args)
    except (SpecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    rep = verify(case)
    if args.format == "json":
        print(json.dumps(_report_dict(rep), indent=2))
    else:
        print(_report_line(rep))
    return {"pass": 0, "fail": 1}.get(rep.status, 2)


def _run_suite_case(job: Tuple[int, IdentityCase]) -> Tuple[int, dict]:
    idx, case = job
    try:
        out = _report_dict(verify(case))
    except Exception as e:  # a worker must never take down the suite
        out = _error_row(case, str(e))
    return idx, out


def _error_row(case: IdentityCase, detail: str) -> dict:
    """The row of a case that produced no report."""
    return _report_dict(VerificationReport(case, "error", None, None, 0.0, 0, 0, 0, detail))


def _run_sharded(jobs: list, n: int) -> list:
    """Run jobs as n processes: this one (shard 0) and n - 1 forked children.

    Jobs are dealt round-robin in listed order. A child sends its (idx, row)
    pairs as one JSON document through a pipe and leaves through os._exit, so
    that nothing raised in it returns into the caller. Every child is reaped;
    one that dies or sends no readable document gives its jobs error rows.
    At n = 1, or with no jobs, this process runs them all.
    """
    shards = [jobs[i::n] for i in range(max(1, min(n, len(jobs))))]
    children = []
    for shard in shards[1:]:
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(r)
                with open(w, "w") as fh:
                    json.dump([_run_suite_case(j) for j in shard], fh)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        children.append((pid, r, shard))
    results = [_run_suite_case(j) for j in shards[0]]
    for pid, r, shard in children:
        with open(r) as fh:
            data = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            why = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
        else:
            try:
                results += json.loads(data)
                continue
            except ValueError:
                why = "sent unreadable output"
        results += [(idx, _error_row(case, f"worker process {why}")) for idx, case in shard]
    return results


def _cmd_suite(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read suite config {args.config}: {e}", file=sys.stderr)
        return 2

    jobs: List[Tuple[int, IdentityCase]] = []
    expects: List[str] = []
    try:
        if not isinstance(cfg, dict):
            raise ValueError(f"expected a JSON object, got {type(cfg).__name__}")
        known = ["cases", "default_order", "output_path", "parallelism"]
        if extra := sorted(set(cfg) - set(known)):
            raise ValueError(f"unknown key(s) {extra}; expected {known}")
        cases = cfg.get("cases")
        if not isinstance(cases, list):
            raise ValueError(f"cases must be a list, got {cases!r}")
        default_order = cfg.get("default_order")
        workers = args.jobs if args.jobs is not None else cfg.get("parallelism", 1)
        output_path = cfg.get("output_path")
        if not _whole(workers) or workers < 1:
            flag = "parallelism" if args.jobs is None else "--jobs"
            raise ValueError(f"{flag} must be a positive integer, got {workers!r}")
        if output_path is not None and not (isinstance(output_path, str) and output_path):
            raise ValueError(f"output_path must be a non-empty string, got {output_path!r}")
        for idx, c in enumerate(cases):
            if not isinstance(c, dict):
                raise ValueError(f"case {idx}: expected a JSON object, got {type(c).__name__}")
            c = dict(c)
            id = c.pop("id", None)
            if not isinstance(id, str):
                raise ValueError(f"case {idx}: " + ("missing id" if id is None else f"id must be a string, got {id!r}"))
            expect = c.pop("expect", "pass")
            if expect not in ("pass", "fail"):
                raise ValueError(f"case {idx}: expect must be 'pass' or 'fail', got {expect!r}")
            order = c.pop("order", default_order)
            # every descriptor must name a registered id with valid params
            try:
                case = IdentityCase(id, c, None if order is None else str(order))
                validate_case(case)
            except (SpecError, ValueError) as e:
                raise ValueError(f"case {idx}: {e}")
            jobs.append((idx, case))
            expects.append(expect)
    except (KeyError, ValueError, TypeError) as e:
        print(f"error: bad suite config: {e}", file=sys.stderr)
        return 2

    results = _run_sharded(jobs, workers if hasattr(os, "fork") else 1)
    by_idx = {idx: out for idx, out in results}
    order_key = sorted(range(len(jobs)), key=lambda i: (jobs[i][1].id, i))
    rows = []
    bad = 0
    for i in order_key:
        out = dict(by_idx[i])
        out["expect"] = expects[i]
        out["as_expected"] = out["status"] == expects[i]
        bad += 0 if out["as_expected"] else 1
        rows.append(out)

    if args.format == "json":
        doc = json.dumps({"cases": rows, "unexpected": bad}, indent=2)
    else:
        lines = []
        for out in rows:
            head = _head(out["id"], out["params"])
            mark = "ok" if out["as_expected"] else "UNEXPECTED"
            line = f"{head}: {out['status'].upper()} (expected {out['expect']}) [{mark}]"
            if out["status"] == "error":
                line += f" -- {out['detail']}"
            elif out["status"] == "fail" and out["first_mismatch"]:
                line += " -- first mismatch at " + _mismatch_at(**out["first_mismatch"])
            lines.append(line)
        lines.append(f"suite: {len(rows)} cases, {len(rows) - bad} as expected, {bad} unexpected")
        doc = "\n".join(lines)
    print(doc)
    if output_path:
        try:
            with open(output_path, "w") as fh:
                fh.write(doc + "\n")
        except OSError as e:
            print(f"error: cannot write report to {output_path}: {e}", file=sys.stderr)
            return 2
    return 0 if bad == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qident", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify one identity")
    v.add_argument("--id", required=True, choices=registered_ids(), metavar="ID",
                   help="identity id; one of " + ", ".join(registered_ids()))
    v.add_argument("--k", type=int)
    v.add_argument("--r", type=int)
    v.add_argument("--j", type=int)
    v.add_argument("--n", type=int)
    v.add_argument("--s-max", dest="s_max", type=int)
    v.add_argument("--a", help="half-integer weight, e.g. 3 or 5/2")
    v.add_argument("--c", help="half-integer weight for the functional equation")
    v.add_argument("--z-sign", dest="z_sign", choices=("+", "-"))
    v.add_argument("--z-exp", dest="z_exp",
                   help="half-integer exponent of z, e.g. 1 or 1/2 (use --z-exp=-1/2 for negatives)")
    v.add_argument("--placement", help="comma separated positions, e.g. 1,2,4")
    v.add_argument("--order", help="truncation order: whole q-units or num/2")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("suite", help="run a JSON suite of cases")
    s.add_argument("config", help="JSON file: {default_order?, parallelism?, output_path?, "
                                  "cases: [{id, ..., order?, expect?}]}")
    s.add_argument("--jobs", type=int, default=None,
                   help="processes, this one included (overrides the config's parallelism; "
                        "default 1); cases are dealt round-robin in listed order, so list the "
                        "slowest first; serial where os.fork is missing")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(func=_cmd_suite)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
