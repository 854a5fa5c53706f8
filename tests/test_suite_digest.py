"""The bundled suite's values against a committed digest.

Every row of suites/full-paper.suite runs in-process.  A row's hash covers
its status, compared order and first mismatch, and each check's label and
the coefficients of both sides below that check's compared order (a
ZLaurent slice by slice in z).  The cell counters and timings are left
out, so an engine change that keeps every value keeps every hash, and a
value that drifts below its compared order shows even when every check
still passes.

To regenerate the digest after a change that is meant to move a value:

    PYTHONPATH=src python tests/test_suite_digest.py > tests/suite_digest.json
"""

import hashlib
import json
import pathlib

from qident import HalfInt, IdentityCase, QSeries, verify
from qident import catalog

SUITE = pathlib.Path(__file__).resolve().parent.parent / "suites" / "full-paper.suite"
DIGEST = pathlib.Path(__file__).with_name("suite_digest.json")


def _terms(s: QSeries, below) -> list:
    return [[e.num, c] for e, c in s.terms() if below is None or e < below]


def _side(x, below) -> list:
    if isinstance(x, QSeries):
        return _terms(x, below)
    return [[k, _terms(x.slice(k), below)] for k in x.z_support()]


def _row_hash(case: IdentityCase) -> str:
    entry = catalog._entry(case.id)
    built = []

    def keep(*args):
        built.extend(entry.runner(*args))
        return built

    catalog._REGISTRY[case.id] = entry._replace(runner=keep)
    try:
        rep = verify(case)
    finally:
        catalog._REGISTRY[case.id] = entry
    m = rep.first_mismatch
    checks = []
    for c in built:
        below = c.lhs.eq_upto(c.rhs).compared_order
        cut = below if isinstance(below, HalfInt) else None
        checks.append([c.label, str(below), _side(c.lhs, cut), _side(c.rhs, cut)])
    record = [
        rep.status,
        str(rep.compared_order),
        None if m is None else [str(m.exp), m.z_exp, m.lhs, m.rhs],
        checks,
    ]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def suite_digest() -> dict:
    """Row key (index, id and parameters) -> the row's hash."""
    out = {}
    for i, row in enumerate(json.loads(SUITE.read_text())["cases"]):
        params = {k: v for k, v in row.items() if k not in ("id", "expect", "order")}
        order = row.get("order")
        case = IdentityCase(row["id"], params, None if order is None else HalfInt.parse(str(order)))
        out[f"{i:02d} {row['id']} {json.dumps(params, sort_keys=True)}"] = _row_hash(case)
    return out


def test_the_bundled_suite_matches_its_committed_digest():
    want = json.loads(DIGEST.read_text())
    got = suite_digest()
    assert list(got) == list(want)
    assert [k for k in want if got[k] != want[k]] == []


if __name__ == "__main__":
    print(json.dumps(suite_digest(), indent=1))
