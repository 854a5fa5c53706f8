import random
import sys

import pytest

from qident import INF, HalfInt, QSeries, ZLaurent


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    if mod is None:
        return
    lines = mod.criterion_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def series_from(terms: dict, order=INF) -> QSeries:
    """sum of c q^e over the {e: c} items, known below order: monomials summed onto QSeries.zero(order)."""
    s = QSeries.zero(order)
    for e, c in terms.items():
        s = s + QSeries.monomial(c, e)
    return s


@pytest.fixture
def rng():
    return random.Random(20240815)


def random_qseries(
    rng: random.Random,
    *,
    span: int = 24,
    max_terms: int = 7,
    allow_neg: bool = True,
    allow_exact: bool = True,
) -> QSeries:
    lo_bound = -span if allow_neg else 0
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[HalfInt(rng.randint(lo_bound, span))] = rng.randint(-9, 9)
    if allow_exact and rng.random() < 0.25:
        return series_from(terms)
    ordnum = rng.randint(lo_bound, span + 12)
    kept = {e: c for e, c in terms.items() if e.num < ordnum}
    return series_from(kept, HalfInt(ordnum))


def random_zlaurent(rng: random.Random, *, zspan: int = 3, **kw) -> ZLaurent:
    terms = {}
    for _ in range(rng.randint(0, zspan * 2)):
        terms[rng.randint(-zspan, zspan)] = random_qseries(rng, allow_exact=False, **kw)
    ordnum = rng.randint(-10, 30) if rng.random() < 0.7 else None
    return ZLaurent(terms, ordnum)
