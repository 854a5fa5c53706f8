"""tests/equivalence.py on three cases, the working tree on both sides."""

import copy
import subprocess

from qident import registered_ids

import equivalence


def test_equivalence_of_the_working_tree_with_itself():
    cases = [("AG", {"k": 1, "r": 0}, "40"), ("CURIOUS", equivalence.Z, "81/2"),
             ("KEY_LEMMA", {"n": 2, "a": "3/2"}, None)]
    here = equivalence.run_cases(equivalence.ROOT, cases)
    there = equivalence.run_cases(equivalence.ROOT, cases)
    assert equivalence.first_difference(cases, here, there) is None
    # a record is the report less its elapsed time, and the checks in canonical form
    ag, curious, key = here
    assert "elapsed" not in ag and ag["status"] == "pass" and ag["tuple_count"] > 0
    assert ag["checks"][0][0] == "k=1 r=0: sum vs modulus-5 product"
    assert ag["checks"][0][1][0] == "QSeries" and ag["checks"][0][1][3] == 80  # order q^40 in half-units
    assert [c[0] for c in curious["checks"]][0] == "z=-q^1/2: even-index expansion vs product"
    assert key["checks"][0][1][0] == "ZLaurent"
    # one changed coefficient is the first difference
    changed = copy.deepcopy(there)
    changed[1]["checks"][1][2][2][0] += 1
    diff = equivalence.first_difference(cases, here, changed)
    assert diff.startswith("('CURIOUS', ") and ": check 1 rhs: here " in diff
    # every differing case is listed, in order
    changed[2]["status"] = "fail"
    diffs = equivalence.differences(cases, here, changed)
    assert len(diffs) == 2 and diffs[0] == diff and diffs[1].startswith("('KEY_LEMMA', ")


def test_the_grids_hold_every_registered_id():
    # so a run of every grid reaches each family module
    assert {id for grid in equivalence.GRIDS.values() for id, _, _ in grid()} == set(registered_ids())


def test_compare_prints_how_many_cases_of_each_grid_differ(monkeypatch, capsys):
    # each grid is run and its differing cases counted; the status is 1 when any differ
    grids = {"one": lambda: [("A", {}, None)] * 3, "two": lambda: [("B", {}, None)] * 2}
    monkeypatch.setattr(equivalence, "GRIDS", grids)

    def run_cases(tree, cases):
        if tree == "there" and len(cases) == 3:
            return [{"status": s} for s in ("fail", "pass", "error")]
        return [{"status": "pass"}] * len(cases)

    monkeypatch.setattr(equivalence, "run_cases", run_cases)
    assert equivalence.compare("here", "there", ["one", "two"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "one: 3 cases, 2 differ, first: ('A', {}, None): status: here pass, there fail",
        "two: 2 cases, no difference",
    ]
    assert equivalence.compare("here", "there", ["two"]) == 0


def test_equivalence_compares_the_working_tree_or_two_revisions(monkeypatch, tmp_path):
    # one revision is compared with the working tree, two with each other;
    # a directory is taken as a tree, so nothing here needs git
    runs = []
    monkeypatch.setattr(equivalence, "compare", lambda *a: runs.append(a) or 0)
    other, root = str(tmp_path), equivalence.ROOT
    assert equivalence.main([other]) == 0
    assert equivalence.main([other, "sums", "exact"]) == 0
    assert equivalence.main([root, other]) == 0
    assert equivalence.main([other, root, "structural"]) == 0
    assert equivalence.main(["--subset", other, "sums", "limits"]) == 0
    assert equivalence.main([other, root, "--subset"]) == 0
    grids = list(equivalence.GRIDS)
    assert runs == [(root, other, grids, False), (root, other, ["sums", "exact"], False), (root, other, grids, False),
                    (other, root, ["structural"], False), (root, other, ["sums", "limits"], True),
                    (other, root, grids, True)]
    # a name that is no grid, directory or revision is refused; a stub stands
    # in for `git archive`, which knows HEAD only
    def export(rev, into):
        if rev != "HEAD":
            raise subprocess.CalledProcessError(128, ["git", "archive", rev])
        return into

    monkeypatch.setattr(equivalence, "_export", export)
    bad = ([], ["-h"], [other, "-x"], [other, root, "bogus"], ["--subset"], ["--subset", other, root, "bogus"],
           ["HEAD", "bogus"], ["--subset", "HEAD", "bogus"])
    assert [equivalence.main(a) for a in bad] == [2] * 8
    assert len(runs) == 6


def test_subset_mode_lets_a_change_drop_checks_but_not_change_one(monkeypatch, capsys):
    # a case agrees when its report fields do and each check here equals one
    # there, label and both sides; the grid's line counts the dropped checks
    a, b, c = ["z=1", 1, 2], ["z=-1", 3, 4], ["z=q^1/2", 5, 6]
    parent = [{"status": "pass", "checks": [a, b, c]}, {"status": "pass", "checks": [a, b]},
              {"status": "error", "checks": "SpecError: no sample"}]
    change = [{"status": "pass", "checks": [c, a]}, {"status": "pass", "checks": [a, b]},
              {"status": "error", "checks": "SpecError: no sample"}]
    cases = [("X", {}, None), ("Y", {}, None), ("Z", {}, None)]
    assert equivalence.differences(cases, change, parent, subset=True) == []
    assert equivalence.dropped(change, parent) == (1, 5)
    # without --subset the dropped check is a difference
    assert equivalence.differences(cases, change, parent) == ["('X', {}, None): 2 checks here, 3 there"]
    # a changed side, a check with no partner and a changed field are differences in either mode
    moved = [dict(change[0], checks=[["z=1", 1, 7]]), dict(change[1], checks=[a, b, ["z=q", 0, 0]]),
             dict(change[2], status="pass")]
    assert equivalence.differences(cases, moved, parent, subset=True) == [
        "('X', {}, None): check 'z=1' here equals no check there",
        "('Y', {}, None): check 'z=q' here equals no check there",
        "('Z', {}, None): status: here pass, there error",
    ]
    monkeypatch.setattr(equivalence, "GRIDS", {"g": lambda: cases})
    monkeypatch.setattr(equivalence, "run_cases", lambda tree, cases: change if tree == "here" else parent)
    assert equivalence.compare("here", "there", ["g"], subset=True) == 0
    assert capsys.readouterr().out == "g: 3 cases, no difference, 1 of 5 checks dropped\n"
