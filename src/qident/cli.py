"""Command line front end: verify one identity, or run a suite file.

    qident verify --id ID [--k K] [--r R] [--j J] [--n N] [--s-max S] [--a A] [--c C]
                  [--z-exp E] [--z-sign +|-] [--placement P] [--order O] [--format text|json]
    qident suite CONFIG [--jobs N] [--format text|json]
  A, C and E are half-integers (3, 5/2 or -1/2), P positions (1,2,4) and O the order in
  whole q-units or num/2 (default: the id's own). CONFIG is a JSON file, {default_order?,
  parallelism?, output_path?, cases: [{id, ..., order?, expect?}]}, run by N processes,
  this one included (default: its parallelism, else 1). A flag takes the next token as its
  value, or is written --flag=value.

Exit codes: 0 all results as expected, 1 a verification failed (or a suite
case did not match its expectation), 2 usage errors (on stderr after the
usage above, which -h or --help prints) and cases that could not be run.
"""

from __future__ import annotations

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
        "first_mismatch": None if m is None else {  # z_exp: an int z-power, or None
            "exp": _half_token(m.exp), "z_exp": m.z_exp, "lhs": str(m.lhs), "rhs": str(m.rhs)},
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
    where = "exactly" if rep.compared_order is INF else f"below q^{rep.compared_order}"
    if rep.status == "pass":
        extra = f", {rep.tuple_count} cells" if rep.tuple_count else ""
        return f"{head}: PASS ({where}{extra}, {rep.elapsed:.2f}s)"
    m = rep.first_mismatch
    return f"{head}: FAIL at {_mismatch_at(m.exp, m.z_exp, m.lhs, m.rhs)} ({rep.detail})"


def _mismatch_at(exp, z_exp, lhs, rhs) -> str:
    """A first mismatch in text output: q^exp, z^z_exp when it has a z-power, both sides."""
    return f"q^{exp}" + (f" z^{z_exp}" if z_exp is not None else "") + f": lhs={lhs} rhs={rhs}"


def _cmd_verify(opts: dict) -> int:
    id, order, fmt, placement = map(opts.pop, ("id", "order", "format", "placement"))
    params = {name: v for name, v in opts.items() if v is not None}  # in the table's order
    try:
        if placement is not None:
            try:
                params["placement"] = [int(t) for t in placement.split(",") if t.strip()]
            except ValueError:
                raise SpecError(f"bad placement {placement!r}; expected e.g. 1,2,4")
        case = IdentityCase(id, params, order)
    except (SpecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    rep = verify(case)
    print(json.dumps(_report_dict(rep), indent=2) if fmt == "json" else _report_line(rep))
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
    """Run jobs as n processes: this one and n - 1 forked children.

    Jobs are dealt on demand in listed order. Before the first fork, one pipe
    is filled with a 4-byte token, the first index, per run of
    c = ceil(len(jobs) / 1024) consecutive jobs (at most 4 KiB, so the write cannot block) and its write
    end is closed. Every process reads the next token when it is free and runs
    that run; an empty read means the suite is done, and no process can wait
    on another's death. This relies on a 4-byte read from a pipe that holds a
    multiple of 4 bytes returning 4 bytes.

    A child sends its (idx, row) pairs as one JSON document through its own
    pipe and leaves through os._exit, so that nothing raised in it returns
    into the caller. Every child is reaped. A job that no process returns, as
    when a child dies or sends no readable document, gets an error row naming
    what went wrong. At n = 1, or with at most one job, this process runs
    them all.
    """
    n = min(n, len(jobs))
    if n <= 1:
        return [_run_suite_case(j) for j in jobs]
    c = -(-len(jobs) // 1024)
    tokens, fill = os.pipe()
    os.write(fill, b"".join(k.to_bytes(4, "little") for k in range(0, len(jobs), c)))
    os.close(fill)

    def take() -> list:
        done = []
        while token := os.read(tokens, 4):
            k = int.from_bytes(token, "little")
            done += [_run_suite_case(j) for j in jobs[k:k + c]]
        return done

    children = []
    for _ in range(n - 1):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(r)
                with open(w, "w") as fh:
                    fh.write(json.dumps(take()))
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        children.append((pid, r))
    results = take()
    os.close(tokens)
    whys = []
    for pid, r in children:
        with open(r) as fh:
            data = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            whys.append(f"killed by signal {-code}" if code < 0 else f"exited with status {code}")
        else:
            try:
                results += json.loads(data)
            except ValueError:
                whys.append("sent unreadable output")
    returned = {idx for idx, _ in results}
    detail = "worker process " + " or ".join(dict.fromkeys(whys))
    return results + [(idx, _error_row(case, detail)) for idx, case in jobs if idx not in returned]


def _cmd_suite(opts: dict) -> int:
    try:
        with open(opts["config"]) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read suite config {opts['config']}: {e}", file=sys.stderr)
        return 2

    jobs, expects = [], []  # (index, case) and the status each case expects
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
        workers = opts["jobs"] if opts["jobs"] is not None else cfg.get("parallelism", 1)
        output_path = cfg.get("output_path")
        if not _whole(workers) or workers < 1:
            flag = "parallelism" if opts["jobs"] is None else "--jobs"
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
    by_idx = dict(results)
    rows = [dict(by_idx[i], expect=expects[i], as_expected=by_idx[i]["status"] == expects[i])
            for i in sorted(range(len(jobs)), key=lambda i: (jobs[i][1].id, i))]
    bad = sum(not out["as_expected"] for out in rows)

    if opts["format"] == "json":
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


# flag -> kind: int, str, or its allowed values; its field is its name with "_"
# for "-".  verify's fields but id, order and format are case parameters, in order.
_VERIFY = {"--id": registered_ids(), "--k": int, "--r": int, "--j": int, "--n": int, "--s-max": int, "--a": str,
           "--c": str, "--z-exp": str, "--z-sign": ("+", "-"), "--placement": str, "--order": str,
           "--format": ("text", "json")}
_SUITE = {"--jobs": int, "--format": ("text", "json")}
_COMMANDS = {"verify": (_VERIFY, _cmd_verify), "suite": (_SUITE, _cmd_suite)}


def _usage(error: Optional[str] = None):
    """Print the usage, to stdout for help or to stderr with an error, and exit 0 or 2."""
    usage = (__doc__ or "\n\n").split("\n\n")[1]  # empty under python -OO, which strips docstrings
    print(usage + (f"\nerror: {error}" if error else ""), file=sys.stderr if error else sys.stdout)
    raise SystemExit(2 if error else 0)


def parse_args(argv: List[str]) -> Tuple[str, dict]:
    """(command, {field: value}) of a command line; a field not given is None, or "text" for format."""
    if "-h" in argv or "--help" in argv:
        _usage()
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        _usage(f"expected a command, verify or suite, got {command!r}")
    table = _COMMANDS[command][0]
    opts = {flag[2:].replace("-", "_"): None for flag in table} | {"format": "text"}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):  # suite's config file
            if command == "verify" or "config" in opts:
                _usage(f"unexpected argument {token!r}")
            opts["config"] = token
            continue
        flag, eq, value = token.partition("=")
        if flag not in table:
            _usage(f"unknown flag {flag}")
        if not eq and (value := next(tokens, None)) is None:
            _usage(f"{flag} needs a value")
        kind = table[flag]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage(f"{flag} takes an int, got {value!r}")
        elif kind is not str and value not in kind:
            _usage(f"{flag} takes one of {', '.join(kind)}, got {value!r}")
        opts[flag[2:].replace("-", "_")] = value
    if opts.get("id", opts.get("config")) is None:  # verify's id, suite's config
        _usage("verify needs --id" if command == "verify" else "suite needs a config file")
    return command, opts


def main(argv: Optional[List[str]] = None) -> int:
    command, opts = parse_args(sys.argv[1:] if argv is None else argv)
    return _COMMANDS[command][1](opts)


if __name__ == "__main__":
    sys.exit(main())
