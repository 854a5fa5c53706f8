"""Equivalence of qident's outputs between two trees.

    python tests/equivalence.py [--subset] REV [GRID ...]
    python tests/equivalence.py [--subset] REV1 REV2 [GRID ...]

With one revision the working tree is compared with REV, with two REV1 with
REV2; the grids are this file's either way.  A revision is a git revision,
exported with `git archive` into a temporary directory, or a directory that
holds a source tree (its `src/`).  Each named grid (default: all of `GRIDS`:
sums, placed, limits, limits_deep, exact, structural and edges) runs in
both trees, each tree in a fresh interpreter, and the number of cases that
differ is printed with the first of them, "here" the first tree and
"there" the second; every grid runs, and the exit status is 1 when any
case differs, else 0.  A case's record is its report, less the
elapsed time, and every check its runner builds: the label and both sides
in canonical form, a `QSeries` as (min, coefficients, order) and a
`ZLaurent` as (order, span, slices).  A case whose runner raises records
the error.

With --subset, a change that only drops checks is no difference: a case
agrees when its report fields do and every check of the first tree equals
(label, lhs and rhs) some check of the second.  Each grid's line then
also says how many of the second tree's checks the first dropped.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from functools import partial
from itertools import combinations
from typing import List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORDERS = ("40", "81/2", "120", None)  # None: the id's default order
Z = {"z_sign": "-", "z_exp": "1/2"}

Case = Tuple[str, dict, Optional[str]]  # (id, params, order token)


def _at_orders(params: List[Tuple[str, dict]]) -> List[Case]:
    return [(id, p, order) for id, p in params for order in ORDERS]


def _sums() -> List[Case]:
    """Every z row and CURIOUS at k <= 3 (each j), at sampled and explicit z; AG,
    BRESSOUD_EVEN and NEG_AG at k <= 3, each r."""
    rows = [("OVER_1", {"k": k, "j": j}) for k in range(4) for j in range(k + 2)]
    rows += [("OVER_2", {"k": k, "j": j}) for k in range(4) for j in range(k + 2)]
    rows += [(id, {"k": k}) for id in ("OVER_3", "COR_INFTY") for k in range(4)] + [("CURIOUS", {})]
    rows += [(id, dict(p, **Z)) for id, p in rows]
    rows += [(id, {"k": k, "r": r}) for id in ("AG", "BRESSOUD_EVEN", "NEG_AG")
             for k in range(1, 4) for r in range(k + 1)]
    return _at_orders(rows)


def _placed() -> List[Case]:
    """THM_3_1 and THM_4_1 at k <= 4, each r and j >= 1, and OVER_1 at k <= 2,
    each j >= 1, every placement of the j positions."""
    def placed(id: str, limit: int, **p) -> List[Tuple[str, dict]]:
        return [(id, dict(p, j=j, placement=list(pl)))
                for j in range(1, limit + 1) for pl in combinations(range(1, limit + 1), j)]

    rows = [row for id in ("THM_3_1", "THM_4_1") for k in range(1, 5) for r in range(k + 1)
            for row in placed(id, k - r, k=k, r=r)]
    rows += [row for k in range(3) for row in placed("OVER_1", k + 1, k=k)]
    return _at_orders(rows)


def _limits() -> List[Case]:
    """H_LIMIT at a = 1/2 .. 11/2, F_LIMIT at j <= 3 and a = 7/2, 11/2."""
    rows = [("H_LIMIT", {"a": f"{a}/2"}) for a in range(1, 12)]
    rows += [("F_LIMIT", {"j": j, "a": a}) for j in range(4) for a in ("7/2", "11/2")]
    return _at_orders(rows)


def _limits_deep() -> List[Case]:
    """H_LIMIT at a = 1/2 .. 11/2, F_LIMIT at j <= 2 and a = 7/2, 11/2, at q^240 and q^(961/2)."""
    rows = [("H_LIMIT", {"a": f"{a}/2"}) for a in range(1, 12)]
    rows += [("F_LIMIT", {"j": j, "a": a}) for j in range(3) for a in ("7/2", "11/2")]
    return [(id, p, order) for id, p in rows for order in ("240", "961/2")]


def _exact() -> List[Case]:
    """KEY_LEMMA, ITER_PROP and ANDREWS_ANSWER at n <= 4."""
    rows = [("KEY_LEMMA", {"n": n, "a": "3/2"}) for n in range(5)]
    rows += [("ITER_PROP", {"n": n, "k": 1, "a": "3/2"}) for n in range(5)]
    rows += [("ANDREWS_ANSWER", {"k": 2, "r": 1, "n": n}) for n in range(5)]
    return _at_orders(rows)


def _structural() -> List[Case]:
    """The finite-n ids at small n, each at its default order q^40 or exact,
    and KEY_LEMMA and F_SUM at the n from 20 to 60 where a walk of H's column
    that reaches q^40 can start either up from [2n, 0] or at the centre."""
    As = ("1/2", "3/2", "2", "5/2")
    rows = [(id, {"n": n, "a": a}) for id in ("KEY_LEMMA", "NEW_PROP") for n in range(7) for a in As]
    rows += [(id, {"n": n, "j": j, "a": a}) for id in ("F_SUM", "NEW_PROP2", "ANOTHER_F", "RECURSE_F")
             for n in range(7) for j in range(3) for a in As if j or id in ("F_SUM", "NEW_PROP2")]
    rows += [("ITER_PROP", {"n": n, "k": k, "a": a}) for n in range(7) for k in range(3) for a in As]
    rows += [("ITERATE_BRESS", {"n": n, "k": k}) for n in range(7) for k in range(3)]
    rows += [("SPECIAL_A", {"n": n}) for n in range(7)]
    rows += [("FUNC_EQ", {"n": n, "c": c}) for n in range(7) for c in ("1", "3/2")]
    rows += [("EVEN_FACT", {"s_max": s}) for s in (6, 30, 50)]
    rows += [("ANDREWS_ANSWER", {"k": k, "r": r, "n": n}) for k in range(1, 4) for r in range(k + 1)
             for n in (1, 2, 5, 8)]
    cases = [(id, p, None) for id, p in rows]
    return cases + [(id, dict(p, n=n, a=a), "40") for id, p in (("KEY_LEMMA", {}), ("F_SUM", {"j": 1}))
                    for n in (20, 25, 30, 35, 40, 45, 60) for a in ("1/2", "3/2", "2")]


def _edges() -> List[Case]:
    """EDGE_LEMMA at j <= 12 on its default samples and at j <= 6 on explicit
    ones, and CHU_COEFF at j <= 20; all exact, so each runs once."""
    rows = [("EDGE_LEMMA", {"j": j}) for j in range(13)]
    rows += [("EDGE_LEMMA", {"j": j, "samples": [[3] * j, list(range(j, 0, -1)), [2 * j] + [0] * (j - 1)]})
             for j in range(1, 7)]
    rows += [("CHU_COEFF", {"j": j}) for j in range(21)]
    return [(id, p, None) for id, p in rows]


GRIDS = {"sums": _sums, "placed": _placed, "limits": _limits, "limits_deep": _limits_deep, "exact": _exact,
         "structural": _structural, "edges": _edges}


def _canon(x):
    """A JSON value that two equal sides share, whatever tree built them."""
    name = type(x).__name__
    if name == "QSeries":
        return ["QSeries", x._min, x._coeffs, x._ordnum]
    if name == "ZLaurent":
        return ["ZLaurent", x._ordnum, x._span, [[k, _canon(s)] for k, s in sorted(x._terms.items())]]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return [name, repr(x)]


def _record(case: Case) -> dict:
    """The case's report fields (all but the elapsed time) and its checks."""
    from qident import SumStats, catalog, make_case

    id, params, order = case
    rep = catalog.verify(make_case(id, order=order, **params))
    out = {f: _canon(getattr(rep, f)) for f in rep.__slots__ if f not in ("case", "elapsed")}
    try:
        entry, p, ordnum = catalog._prepare(rep.case)
        out["checks"] = [[c.label, _canon(c.lhs), _canon(c.rhs)] for c in entry.runner(p, ordnum, SumStats())]
    except Exception as e:  # the report holds the same error
        out["checks"] = f"{type(e).__name__}: {e}"
    return out


def run_cases(tree: str, cases: List[Case]) -> List[dict]:
    """Each case's record, computed on `tree`'s package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child"],
        input=json.dumps(cases), env=env, capture_output=True, text=True, cwd=tree,
    )
    if proc.returncode:
        raise RuntimeError(f"the run on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _difference(case: Case, a: dict, b: dict, subset: bool = False) -> Optional[str]:
    """The first field in which the case's two records differ; None when they agree.

    With `subset`, a's checks agree with b's when each equals one of them."""
    if a == b:
        return None
    for field in a:
        if field == "checks" and isinstance(a[field], list) and isinstance(b[field], list):
            if subset:
                extra = next((x for x in a[field] if x not in b[field]), None)
                if extra is not None:
                    return f"{case}: check {extra[0]!r} here equals no check there"
                continue
            if len(a[field]) != len(b[field]):
                return f"{case}: {len(a[field])} checks here, {len(b[field])} there"
            for i, (x, y) in enumerate(zip(a[field], b[field])):
                for part, u, v in zip(("label", "lhs", "rhs"), x, y):
                    if u != v:
                        return f"{case}: check {i} {part}: here {u}, there {v}"
        elif a[field] != b.get(field):
            return f"{case}: {field}: here {a[field]}, there {b.get(field)}"
    return None if sorted(a) == sorted(b) else f"{case}: fields here {sorted(a)}, there {sorted(b)}"


def differences(cases: List[Case], here: List[dict], there: List[dict], subset: bool = False) -> List[str]:
    """Each case whose records differ, in order, with the first field that does."""
    return [d for d in map(partial(_difference, subset=subset), cases, here, there) if d is not None]


def dropped(here: List[dict], there: List[dict]) -> Tuple[int, int]:
    """(checks there less checks here, checks there), over the cases whose runners ran on both trees."""
    counts = [(len(b["checks"]), len(a["checks"])) for a, b in zip(here, there)
              if isinstance(a["checks"], list) and isinstance(b["checks"], list)]
    return sum(t - h for t, h in counts), sum(t for t, _ in counts)


def first_difference(cases: List[Case], here: List[dict], there: List[dict]) -> Optional[str]:
    """The first of `differences`; None when all agree."""
    return next(iter(differences(cases, here, there)), None)


def _export(rev: str, into: str) -> str:
    """`git archive` of rev, unpacked into the directory `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as t:
        t.extractall(into)
    return into


def compare(here: str, there: str, grids: List[str], subset: bool = False) -> int:
    """Run the grids on the trees `here` and `there`; print each grid's outcome."""
    status = 0
    for name in grids:
        cases = GRIDS[name]()
        a, b = run_cases(here, cases), run_cases(there, cases)
        diffs = differences(cases, a, b, subset)
        outcome = f"{len(diffs)} differ, first: {diffs[0]}" if diffs else "no difference"
        if subset:
            outcome += ", {} of {} checks dropped".format(*dropped(a, b))
        print(f"{name}: {len(cases)} cases, {outcome}")
        if diffs:
            status = 1
    return status


def main(argv: List[str]) -> int:
    if argv == ["--child"]:
        json.dump([_record(tuple(c)) for c in json.load(sys.stdin)], sys.stdout)
        return 0
    subset = "--subset" in argv
    argv = [a for a in argv if a != "--subset"]
    revs = argv[:2] if len(argv) > 1 and argv[1] not in GRIDS else argv[:1]
    grids = argv[len(revs):]
    usage = __doc__.split("\n\n")[1]
    if not revs or any(r.startswith("-") for r in revs) or not set(grids) <= set(GRIDS):
        print(usage, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        trees = [ROOT] * (2 - len(revs))
        try:
            for i, rev in enumerate(revs):
                trees.append(os.path.abspath(rev) if os.path.isdir(rev) else _export(rev, os.path.join(tmp, str(i))))
        except subprocess.CalledProcessError:  # no grid, directory or git revision
            print(usage, file=sys.stderr)
            return 2
        return compare(*trees, grids or list(GRIDS), subset)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
