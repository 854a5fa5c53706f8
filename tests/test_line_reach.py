"""tests/line_reach.py on one case: the counts, the owners and the clean-up."""

import sys
import time

import pytest

import qident
from qident import catalog
from qident.cli import build_parser

import line_reach


def test_line_reach_of_one_ag_case(capsys):
    t0 = time.perf_counter()
    modules = line_reach.reach(["qident verify --id AG --k 1 --r 0"])
    assert time.perf_counter() - t0 < 1.0
    assert "AG k=1 r=0: PASS" in capsys.readouterr().err  # the run's output goes to stderr
    # the package's modules are the ones loaded before the run
    assert sys.modules["qident"] is qident and sys.modules["qident.catalog"] is catalog
    assert sorted(modules) == ["__init__.py", "catalog.py", "cli.py", "hfamily.py", "multisum.py",
                               "products.py", "qobjects.py", "series.py"]
    for lines, hit in modules.values():
        assert hit and hit <= set(lines)
    lines, hit = modules["catalog.py"]
    owners = {lines[n] for n in hit}
    # imported afresh under the trace, so the registry rows count; the sum
    # runner and the driver ran, the limit runner and make_case did not
    assert {"<module>", "_run_row", "verify", "_prep_sum"} <= owners
    assert not {"_run_limit", "make_case", "_run_curious"} & owners
    text = line_reach.report(modules)
    assert text.splitlines()[0].split() == ["module", "lines", "reached"]
    counts = [sum(map(len, col)) for col in zip(*modules.values())]
    assert text.splitlines()[9].split() == ["total", *map(str, counts)]
    assert "catalog.py make_case: " in text


def test_traffic_preset_expands_to_the_benchmark_runs(monkeypatch):
    # the suite at --jobs 1, then perfbench's cases at their first choice, in
    # place of the word; nothing runs
    monkeypatch.setattr(line_reach, "_run", lambda command: pytest.fail(f"ran {command!r}"))
    runs = line_reach.expand(["pytest -q", "traffic", "qident verify --id AG --k 1 --r 0"])
    verify = [
        "AG --k 6 --r 0 --order 100",
        "AG --k 8 --r 0 --order 90",
        "THM_3_1 --k 5 --j 2 --r 0 --placement 1,3 --order 100",
        "COR_INFTY --k 2 --order 80",
        "OVER_1 --k 1 --j 0 --order 100",
        "CURIOUS --order 120",
        "H_LIMIT --a 3/2 --order 60",
        "H_LIMIT --a 3/2 --order 240",
        "F_LIMIT --j 1 --a 7/2 --order 40",
    ]
    assert runs == ["pytest -q", "qident suite suites/full-paper.suite --jobs 1",
                    *(f"qident verify --id {v}" for v in verify), "qident verify --id AG --k 1 --r 0"]
    for run in runs[1:]:  # each is a command line the CLI accepts
        build_parser().parse_args(run.split()[1:])
