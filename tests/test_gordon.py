"""Gordon's theorem as a second derivation of AG's two sides.

Gordon (Amer. J. Math. 83, 1961; Andrews, *The Theory of Partitions*,
ch. 7): with K = k + 1 and i = k + 1 - r, the partitions of m whose part
frequencies satisfy f_1 <= i - 1 and f_j + f_(j+1) <= K - 1 are as many
as the partitions of m into parts not congruent to 0 or +-i mod 2K + 1.
AG's multisum is the generating function of the first and its product
that of the second, so both counts are read off partitions here, with
no series arithmetic, and compared with the coefficients of the check
the catalog's runner builds.
"""

import pytest

from qident import SumStats, catalog, make_case, qe

N = 60  # compare the coefficients of q^0 .. q^(N-1)


def gordon_counts(K: int, i: int, n: int) -> list:
    """[#partitions of m with f_1 <= i - 1 and f_j + f_(j+1) <= K - 1 for m < n].

    A DP over the parts 1, 2, ... in turn; a state is (the sum so far, the
    frequency of the last part), so each adjacent pair is checked once."""
    states = {(0, 0): 1}  # before part 1 the "previous frequency" is 0
    for part in range(1, n):
        cap = i - 1 if part == 1 else K - 1
        nxt: dict = {}
        for (total, prev), ways in states.items():
            for f in range(cap - prev + 1):
                if total + part * f >= n:
                    break
                key = (total + part * f, f)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    out = [0] * n
    for (total, _), ways in states.items():
        out[total] += ways
    return out


def residue_counts(K: int, i: int, n: int) -> list:
    """[#partitions of m into parts not 0 or +-i mod 2K + 1, for m < n], by a coin DP."""
    mod = 2 * K + 1
    out = [1] + [0] * (n - 1)
    for part in range(1, n):
        if part % mod not in (0, i, mod - i):
            for total in range(part, n):
                out[total] += out[total - part]
    return out


CASES = [(k, r) for k in range(1, 4) for r in range(k + 1)]


@pytest.mark.parametrize("k, r", CASES, ids=[f"AG-k{k}-r{r}" for k, r in CASES])
def test_gordon_counts_equal_both_sides_of_ag(k, r):
    case = make_case("AG", order=qe(N), k=k, r=r)
    entry, p, wnum = catalog._prepare(case)
    (check,) = entry.runner(p, wnum, SumStats())
    assert check.lhs.order >= qe(N) and check.rhs.order >= qe(N), case
    K, i = k + 1, k + 1 - r
    sides = {
        "lhs": ([check.lhs.coefficient(qe(m)) for m in range(N)], gordon_counts(K, i, N)),
        "rhs": ([check.rhs.coefficient(qe(m)) for m in range(N)], residue_counts(K, i, N)),
    }
    for side, (got, want) in sides.items():
        bad = next((m for m in range(N) if got[m] != want[m]), None)
        assert bad is None, f"AG k={k} r={r}: {side} at q^{bad} is {got[bad]}, Gordon's count is {want[bad]}"
