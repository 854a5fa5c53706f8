"""Front-end behaviour: exit codes, JSON round trips, suite expectations."""

import json
import os
import re
import signal
import time

import pytest

from qident import IdentityCase, catalog
from qident.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--id", "AG", "--k", "1", "--r", "0", "--order", "30")
    assert code == 0
    assert "PASS" in out


def test_verify_fail_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--id", "NEG_AG", "--k", "1", "--r", "0", "--order", "30")
    assert code == 1
    assert "FAIL" in out
    assert "q^5" in out


def test_verify_bad_params_exit_two(capsys):
    code, out, _ = run(capsys, "verify", "--id", "AG", "--k", "1", "--r", "5")
    assert code == 2
    assert "ERROR" in out


def test_verify_escaping_exception_exits_two(capsys, monkeypatch):
    def runner(p, wnum, stats):
        raise RecursionError("maximum recursion depth exceeded")

    entry = catalog._REGISTRY["SPECIAL_A"]
    monkeypatch.setitem(catalog._REGISTRY, "SPECIAL_A", entry._replace(runner=runner))
    code, out, _ = run(capsys, "verify", "--id", "SPECIAL_A", "--n", "3")
    assert code == 2
    assert "ERROR: RecursionError" in out


def test_verify_oversized_special_a_exits_two(capsys):
    code, out, _ = run(capsys, "verify", "--id", "SPECIAL_A", "--n", "1100")
    assert code == 2
    assert "ERROR: parameter 'n' must be <= 40" in out


def test_verify_criterion_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--id", "H_LIMIT", "--a", "3/2", "--criterion", "bound"])
    assert exc.value.code == 2


def test_verify_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--id", "BOGUS"])
    assert exc.value.code == 2


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--id", "OVER_1", "--k", "1", "--j", "1",
        "--z-sign", "-", "--z-exp", "1/2", "--order", "40", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["order"] == 40
    assert doc["compared_order"] == 40
    assert doc["params"]["z_exp"] == "1/2"
    assert doc["first_mismatch"] is None
    assert doc["tuple_count"] > 0
    assert doc["node_count"] == doc["tuple_count"] + doc["pruned_count"]
    assert doc["elapsed_ms"] >= 0.0


def test_verify_json_mismatch_uses_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "verify", "--id", "NEG_AG", "--k", "1", "--r", "0",
        "--order", "30", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    m = doc["first_mismatch"]
    assert m["exp"] == 5
    assert isinstance(m["lhs"], str) and m["lhs"].lstrip("-").isdigit()
    assert isinstance(m["rhs"], str) and m["rhs"].lstrip("-").isdigit()


def test_structural_mismatch_reports_its_z_power(tmp_path, capsys, monkeypatch):
    # a failing check between Laurent polynomials in z reports the z-power of
    # the first mismatch as a plain int, in verify's JSON and in a suite row,
    # and in the text output of both
    from qident import HSpec, QSeries, ZLaurent, h_poly

    def runner(p, wnum, stats):
        H = h_poly(HSpec(p["n"], p["a"]))
        return [catalog.Check("H against H + z", H, H + ZLaurent({1: QSeries.one()}, None))]

    entry = catalog._REGISTRY["RECURSE_F"]
    monkeypatch.setitem(catalog._REGISTRY, "RECURSE_F", entry._replace(runner=runner))
    args = ("--id", "RECURSE_F", "--n", "2", "--j", "1", "--a", "3/2")
    code, out, _ = run(capsys, "verify", *args, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail" and doc["first_mismatch"]["z_exp"] == 1
    code, out, _ = run(capsys, "verify", *args)
    assert code == 1 and "FAIL at q^0 z^1" in out
    case = {"id": "RECURSE_F", "n": 2, "j": 1, "a": "3/2", "expect": "fail"}
    path = _write_suite(tmp_path, {"cases": [case]})
    code, out, _ = run(capsys, "suite", path, "--jobs", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)["cases"][0]
    assert row["status"] == "fail" and row["as_expected"] is True
    assert row["first_mismatch"]["z_exp"] == 1
    code, out, _ = run(capsys, "suite", path, "--jobs", "1")
    assert code == 0 and "first mismatch at q^0 z^1: lhs=" in out


def test_verify_halfint_order_token(capsys):
    code, out, _ = run(
        capsys, "verify", "--id", "CURIOUS", "--order", "61/2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["order"] == "61/2"


def test_a_bad_order_is_a_usage_error(tmp_path, capsys):
    # the case parses its order itself: the CLI, a suite and make_case read
    # it the same way and refuse it with the same message
    code, out, err = run(capsys, "verify", "--id", "AG", "--k", "1", "--r", "0", "--order", "x")
    assert (code, out, err) == (2, "", "error: bad order 'x'\n")
    code, _, err = run(capsys, "suite", _write_suite(tmp_path, {"cases": [{"id": "AG", "k": 1, "r": 0, "order": "1/3"}]}))
    assert code == 2 and "case 0: bad order '1/3'" in err
    assert catalog.IdentityCase("AG", {"k": 1, "r": 0}, "5/2") == catalog.make_case("AG", "5/2", k=1, r=0)
    assert catalog.IdentityCase("AG", {}, "5/2").order.num == 5
    for bad in ("x", True, 1.5, "2.0"):
        with pytest.raises(catalog.SpecError, match=re.escape(f"bad order {bad!r}")):
            catalog.IdentityCase("AG", {}, bad)


def test_placement_flag(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--id", "THM_3_1", "--k", "3", "--r", "0", "--j", "2",
        "--placement", "1,3", "--order", "30",
    )
    assert code == 0


def test_bad_placement_flag(capsys):
    code, _, err = run(
        capsys,
        "verify", "--id", "THM_3_1", "--k", "3", "--r", "0", "--j", "2",
        "--placement", "1;3",
    )
    assert code == 2
    assert "placement" in err


def _write_suite(tmp_path, doc):
    p = tmp_path / "cases.suite"
    p.write_text(json.dumps(doc))
    return str(p)


SUITE = {
    "default_order": 30,
    "cases": [
        {"id": "CURIOUS"},
        {"id": "AG", "k": 1, "r": 0},
        {"id": "NEG_AG", "k": 1, "r": 0, "expect": "fail"},
        {"id": "EDGE_LEMMA", "j": 4},
    ],
}


def test_suite_all_as_expected(tmp_path, capsys):
    path = _write_suite(tmp_path, SUITE)
    code, out, _ = run(capsys, "suite", path)
    assert code == 0
    assert "4 as expected, 0 unexpected" in out


def test_suite_unexpected_failure_sets_exit_one(tmp_path, capsys):
    doc = {"cases": [{"id": "NEG_AG", "k": 1, "r": 0, "order": 20}]}  # expect defaults to pass
    path = _write_suite(tmp_path, doc)
    code, out, _ = run(capsys, "suite", path)
    assert code == 1
    assert "UNEXPECTED" in out


def test_suite_json_rows_sorted_by_id_then_input_order(tmp_path, capsys):
    path = _write_suite(tmp_path, SUITE)
    code, out, _ = run(capsys, "suite", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ids = [row["id"] for row in doc["cases"]]
    assert ids == sorted(ids)
    assert doc["unexpected"] == 0
    for row in doc["cases"]:
        assert row["as_expected"] is True


def test_suite_worker_crash_row_has_every_report_field(monkeypatch):
    from qident import cli

    job = (0, IdentityCase("AG", {"k": 1, "r": 0}, "20"))
    _, normal = cli._run_suite_case(job)

    def crash(case):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli, "verify", crash)
    _, row = cli._run_suite_case(job)
    assert row.keys() == normal.keys()
    # the case's fields read as in a report: the order 20, not the token "20"
    assert [row[f] for f in ("id", "params", "order")] == [normal[f] for f in ("id", "params", "order")]
    assert row["order"] == 20
    assert row["status"] == "error" and row["detail"] == "out of memory"
    assert row["tuple_count"] == row["node_count"] == row["pruned_count"] == 0


def test_suite_parallel_matches_serial(tmp_path, capsys):
    path = _write_suite(tmp_path, SUITE)
    _, serial, _ = run(capsys, "suite", path, "--format", "json")
    _, parallel, _ = run(capsys, "suite", path, "--format", "json", "--jobs", "2")
    a, b = json.loads(serial), json.loads(parallel)
    for row in a["cases"] + b["cases"]:
        row.pop("elapsed_ms")
    assert a == b


def _sigkill():
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("die, detail", [
    (_sigkill, "worker process killed by signal 9"),
    (_interrupt, "worker process exited with status 1"),  # never back into the CLI
], ids=["sigkill", "interrupt"])
def test_suite_dead_worker_gives_error_rows_and_leaves_no_child(die, detail, tmp_path, capsys, monkeypatch):
    from qident import cli

    parent, run_case = os.getpid(), cli._run_suite_case
    taken = tmp_path / "taken-by-child"

    def die_in_a_child(job):
        if os.getpid() != parent:  # the child dies on the first case it takes
            with open(taken, "a") as fh:
                fh.write(job[1].id + "\n")
            die()
        for _ in range(1000):  # this process holds its first case until the child has one
            if taken.exists():
                break
            time.sleep(0.005)
        return run_case(job)

    monkeypatch.setattr(cli, "_run_suite_case", die_in_a_child)
    path = _write_suite(tmp_path, SUITE)
    code, out, err = run(capsys, "suite", path, "--format", "json", "--jobs", "2")
    assert code == 1 and "Traceback" not in err
    lost = taken.read_text().split()
    assert len(lost) == 1
    rows = {row["id"]: row for row in json.loads(out)["cases"]}
    assert {id for id, row in rows.items() if row["status"] == "error"} == set(lost)
    for id, row in rows.items():
        if id in lost:
            assert row["detail"] == detail
        else:  # the survivor took every other case
            assert row["status"] == row["expect"] and row["as_expected"], id
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_suite_pool_takes_the_next_case_when_free(monkeypatch):
    from qident import cli

    def stub(job):  # the first listed case is slow; each row is the pid that ran it
        if job[0] == 0:
            time.sleep(0.2)
        return job[0], os.getpid()

    monkeypatch.setattr(cli, "_run_suite_case", stub)
    pid = dict(cli._run_sharded([(i, None) for i in range(6)], 2))
    assert sorted(pid) == list(range(6))
    # the process that took the slow case ran no other; round-robin would give it cases 2 and 4
    assert [i for i in pid if pid[i] == pid[0]] == [0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_pool_deals_runs_of_jobs_past_1024(monkeypatch):
    from qident import cli

    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(cli, "_run_suite_case", lambda job: job)
    monkeypatch.setattr(os, "fork", counted_fork)
    results = cli._run_sharded([(i, i) for i in range(2500)], 3)  # runs of c = 3 jobs
    assert sorted(idx for idx, _ in results) == list(range(2500))
    assert all(idx == out for idx, out in results)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_python_dash_m_runs_the_cli():
    import pathlib
    import subprocess
    import sys

    import qident

    src = str(pathlib.Path(qident.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "qident", "verify", "--id", "AG", "--k", "1", "--r", "0"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "PASS" in out.stdout
    assert "qident.__main__" not in sys.modules  # importing the package does not run it


def test_suite_forks_one_child_per_extra_shard_at_most(tmp_path, capsys, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    path = _write_suite(tmp_path, dict(SUITE, cases=SUITE["cases"][:3]))
    _, serial, _ = run(capsys, "suite", path, "--format", "json", "--jobs", "1")
    monkeypatch.setattr(os, "fork", counted_fork)
    _, sharded, _ = run(capsys, "suite", path, "--format", "json", "--jobs", "64")
    assert len(forks) == 2  # three cases make three processes at most
    a, b = json.loads(serial), json.loads(sharded)
    for row in a["cases"] + b["cases"]:
        row.pop("elapsed_ms")
    assert a == b


def test_suite_bad_config_exit_two(tmp_path, capsys):
    p = tmp_path / "broken.suite"
    p.write_text("{not json")
    code, _, err = run(capsys, "suite", str(p))
    assert code == 2
    assert "suite config" in err

    for doc in (
        {"cases": [{"id": "AG", "k": 1, "r": 0, "expect": "maybe"}]},
        {"cases": [{"id": "BOGUS"}]},
        {"cases": [{"id": "AG", "k": 1, "r": 9}]},  # invalid params are a config error
        {"parallelism": 0, "cases": []},
        {"parallelism": True, "cases": []},  # a bool is no count of workers
    ):
        path = _write_suite(tmp_path, doc)
        code, _, err = run(capsys, "suite", path)
        assert code == 2, doc
    assert "parallelism must be a positive integer, got True" in err

    # valid JSON that is not an object
    for doc, kind in (([], "list"), (5, "int"), ("x", "str")):
        code, out, err = run(capsys, "suite", _write_suite(tmp_path, doc))
        assert code == 2 and out == "", doc
        assert f"error: bad suite config: expected a JSON object, got {kind}" in err


def test_suite_unknown_top_level_keys_are_config_errors(tmp_path, capsys, monkeypatch):
    # misspelt keys are refused, not run serially with no report written
    monkeypatch.chdir(tmp_path)
    doc = {"paralelism": 2, "output": "x.txt", "cases": [{"id": "AG", "k": 1, "r": 0}]}
    code, out, err = run(capsys, "suite", _write_suite(tmp_path, doc))
    assert code == 2 and out == ""
    assert ("error: bad suite config: unknown key(s) ['output', 'paralelism']; "
            "expected ['cases', 'default_order', 'output_path', 'parallelism']") in err
    assert not (tmp_path / "x.txt").exists()


def test_suite_config_errors_name_the_case_or_the_flag(tmp_path, capsys):
    ok = {"id": "AG", "k": 1, "r": 0}
    for cases, want in (
        ([ok, {"k": 1, "r": 0}], "case 1: missing id"),
        ([{"id": ["AG"], "k": 1, "r": 0}], "case 0: id must be a string, got ['AG']"),
        ([ok, {"id": 7}], "case 1: id must be a string, got 7"),
        ([ok, "AG"], "case 1: expected a JSON object, got str"),
        ([5], "case 0: expected a JSON object, got int"),
        ([["id", "AG"]], "case 0: expected a JSON object, got list"),
    ):
        code, out, err = run(capsys, "suite", _write_suite(tmp_path, {"cases": cases}))
        assert code == 2 and out == "", cases
        assert f"error: bad suite config: {want}\n" == err, cases
    path = _write_suite(tmp_path, {"parallelism": 2, "cases": [ok]})
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "suite", path, "--jobs", jobs)
        assert code == 2 and out == ""
        assert f"error: bad suite config: --jobs must be a positive integer, got {jobs}\n" == err
    code, _, err = run(capsys, "suite", _write_suite(tmp_path, {"parallelism": 0, "cases": [ok]}))
    assert code == 2 and "bad suite config: parallelism must be a positive integer, got 0" in err


def test_suite_output_path_must_be_a_nonempty_string(tmp_path, capsys):
    # an int would be opened as a file descriptor: 2 would write the report
    # into stderr and then close it
    for bad in (5, 2, "", True, ["report.txt"]):
        path = _write_suite(tmp_path, dict(SUITE, output_path=bad))
        code, out, err = run(capsys, "suite", path)
        assert code == 2, bad
        assert out == "" and f"bad suite config: output_path must be a non-empty string, got {bad!r}" in err


def test_suite_string_lists_and_boolean_halves_are_config_errors(tmp_path, capsys):
    for bad in (
        {"id": "THM_3_1", "k": 3, "r": 0, "j": 2, "placement": "13"},
        {"id": "EDGE_LEMMA", "j": 2, "samples": ["21"]},
        {"id": "KEY_LEMMA", "n": 2, "a": True},
        {"id": "H_LIMIT", "a": "3/2", "z_exp": True},
        {"id": "H_LIMIT", "a": "3/2", "z_sign": True},
        {"id": "THM_3_1", "k": 3, "r": 0, "j": 2, "placement": [1.9, 3]},
        {"id": "THM_3_1", "k": 3, "r": 0, "j": 2, "placement": ["1", "3"]},
        {"id": "THM_3_1", "k": 3, "r": 0, "j": 2, "placement": [True, 3]},
        {"id": "EDGE_LEMMA", "j": 2, "samples": [[2.7, 1]]},
    ):
        path = _write_suite(tmp_path, {"cases": [{"id": "AG", "k": 1, "r": 0}, bad]})
        code, _, err = run(capsys, "suite", path)
        assert code == 2, bad
        assert "case 1:" in err, (bad, err)


def test_suite_leftover_criterion_is_a_config_error(tmp_path, capsys):
    doc = {"cases": [{"id": "H_LIMIT", "a": "3/2", "criterion": "bound"}]}
    path = _write_suite(tmp_path, doc)
    code, _, err = run(capsys, "suite", path)
    assert code == 2
    assert "unknown parameter" in err and "criterion" in err


def test_suite_empty_is_a_pass(tmp_path, capsys):
    path = _write_suite(tmp_path, {"cases": []})
    for jobs in ([], ["--jobs", "2"]):  # no jobs: no child is forked
        code, out, _ = run(capsys, "suite", path, *jobs)
        assert code == 0
        assert "0 cases" in out, jobs


def test_suite_case_error_is_never_expected(tmp_path, capsys):
    # valid params, but the requested z makes the limit ill posed at run time
    doc = {"cases": [{"id": "H_LIMIT", "a": "3/2", "z_sign": "+", "z_exp": "5/2",
                      "expect": "fail"}]}
    path = _write_suite(tmp_path, doc)
    code, out, _ = run(capsys, "suite", path)
    assert code == 1
    assert "ERROR" in out


def test_suite_output_path_and_config_parallelism(tmp_path, capsys):
    report = tmp_path / "report.json"
    doc = dict(SUITE)
    doc["parallelism"] = 2
    doc["output_path"] = str(report)
    path = _write_suite(tmp_path, doc)
    code, out, _ = run(capsys, "suite", path, "--format", "json")
    assert code == 0
    assert json.loads(report.read_text()) == json.loads(out)


def test_shipped_suite_file(capsys):
    import pathlib

    suite = pathlib.Path(__file__).resolve().parent.parent / "suites" / "full-paper.suite"
    doc = json.loads(suite.read_text())
    ids = {c["id"] for c in doc["cases"]}
    from qident import registered_ids

    assert ids == set(registered_ids())


def test_full_paper_suite_runs_as_expected(capsys):
    import pathlib

    from qident import IdentityCase, HalfInt
    from qident.catalog import _prepare

    suite = pathlib.Path(__file__).resolve().parent.parent / "suites" / "full-paper.suite"
    code, out, _ = run(capsys, "suite", str(suite), "--jobs", "1", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["unexpected"] == 0
    for row in doc["cases"]:
        if row["status"] == "pass" and row["compared_order"] != "inf":
            default = _prepare(IdentityCase(row["id"], row["params"]))[2]
            assert HalfInt.parse(row["compared_order"]).num >= default, row
    (neg,) = [row for row in doc["cases"] if row["id"] == "NEG_AG"]
    assert neg["status"] == "fail"
    assert neg["first_mismatch"]["exp"] == 5
    assert (neg["first_mismatch"]["lhs"], neg["first_mismatch"]["rhs"]) == ("2", "3")


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    import qident

    src = str(pathlib.Path(qident.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, qident.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"

    # nor does a sharded suite run
    path = _write_suite(tmp_path, SUITE)
    code = ("import contextlib, io, sys, qident.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    exit_code = qident.cli.main(['suite', {path!r}, '--jobs', '2'])\n"
            "print(exit_code, sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 []"
