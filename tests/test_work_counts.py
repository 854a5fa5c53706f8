"""tests/work_counts.py on one case: every counted name resolves, and the counts."""

import work_counts


def test_work_counts_of_one_limit_case():
    # a rename or removal in the package must show up here, not as a count of 0
    codes = work_counts.resolve()
    assert sorted(codes) == sorted(work_counts.COUNTED)
    assert all(code.co_name in ("__init__", name) for name, code in codes.items())
    # H_LIMIT a=3/2 below q^20: the column's two-term passes, both theta
    # halves of each of three keys times 1/(q)_inf, and no spec built
    counts = work_counts.count("qident verify --id H_LIMIT --a 3/2 --order 20")
    assert counts == {
        "_prefix_add": {"calls": 0, "slots": 0},
        "_two_term": {"calls": 3, "slots": 60},
        "_convolve_sparse": {"calls": 6, "slots": 240},
        "_convolve_kronecker": {"calls": 0, "slots": 0},
        "QSeries": {"calls": 10, "slots": 0},
        "HalfInt": {"calls": 20, "slots": 0},
        "Monomial": {"calls": 9, "slots": 0},
        "TripleProductSpec": {"calls": 0, "slots": 0},
    }
