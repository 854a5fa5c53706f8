"""bench/pairs.py at one short pair: the working tree against a copy of itself."""

import json
import pathlib
import subprocess
import sys


def test_one_short_pair_writes_both_sides_and_the_summary(tmp_path):
    # a directory is taken as the parent tree, so nothing here needs git
    root = pathlib.Path(__file__).resolve().parent.parent
    out = tmp_path / "bench.json"
    cmd = [sys.executable, str(root / "bench" / "pairs.py"), str(root), "sums_z",
           "--pairs", "1", "--seconds", "0.1", "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=tmp_path)
    assert proc.stdout.startswith("sums_z wall_s: parent ") and "change wins " in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["python"] and doc["seed"] == 31001 and list(doc["workloads"]) == ["sums_z"]
    run = doc["workloads"]["sums_z"]
    assert run["correct"] and len(run["pairs"]) == 1 and run["pairs"][0]["first"] == "parent"
    wall = run["metrics"]["wall_s"]
    assert wall["win_frac"] in (0.0, 1.0) and wall["parent"]["median"] == run["pairs"][0]["parent"]["wall_s"] > 0
    assert run["metrics"]["ops_ok_frac"]["change"]["median"] == 1.0
    # each side's work counts of the workload's three cases, equal on two copies of one tree
    counts = run["counts"]
    assert list(counts) == ["parent", "change"] and counts["parent"] == counts["change"]
    assert [r.split()[3] for r in counts["parent"]] == ["COR_INFTY", "OVER_1", "CURIOUS"]
    assert all(c["_two_term"]["calls"] > 0 for c in counts["parent"].values())
    assert "work counts equal" in proc.stdout
    # perfbench's unscaled medians beside the calibrated ones, per pair and summarized
    pair = run["pairs"][0]
    assert {"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ops_failed_frac"} <= set(pair["parent"]["unscaled"])
    setup = run["unscaled"]["setup_s"]
    assert setup["parent"]["median"] == pair["parent"]["unscaled"]["setup_s"] > 0 and "unscaled" not in run["metrics"]
    # the modules the set-up loads, the same on both copies: sums_z's set-up
    # compiles the sum rows and their engines, and no limit or finite-n code
    compiled = run["setup_compile"]
    assert list(compiled) == ["parent", "change"] and compiled["parent"] == compiled["change"]
    modules = compiled["parent"]["modules"]
    assert list(modules) == ["__init__", "catalog", "multisum", "products", "qobjects", "series", "sums"]
    assert compiled["parent"]["executable_lines"] == sum(modules.values()) and min(modules.values()) > 0
    assert "sums_z setup_s: parent " in proc.stdout and " executable lines" in proc.stdout
    # the modules the timed part imports after the set-up, the same on both
    # copies: verifying sums_z's cases imports nothing the set-up did not
    assert run["timed_imports"] == {"parent": [], "change": []}
    assert "timed imports equal" in proc.stdout


def test_quartiles_and_wins_follow_each_metrics_direction():
    import importlib.util

    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "pairs.py"
    spec = importlib.util.spec_from_file_location("pairs", path)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    assert pairs.quartiles([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 1.5, "q3": 4.5}
    runs = [({"wall_s": 2.0, "parallel_eff": 0.5}, {"wall_s": 1.0, "parallel_eff": 0.5}),
            ({"wall_s": 2.0, "parallel_eff": 0.5}, {"wall_s": 3.0, "parallel_eff": 0.6})]
    got = pairs.summarize([{"parent": p, "change": c} for p, c in runs], {"parallel_eff"})
    assert got["wall_s"]["win_frac"] == 0.5 and got["parallel_eff"]["win_frac"] == 0.5  # a tie is no win
    assert got["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
