"""The independent dense oracle must itself be trustworthy: check it
against first-principles enumeration on tiny inputs."""

import itertools

import pytest

from naive import (
    NaiveSeries,
    UnsupportedOracleError,
    count_gap_partitions,
    count_partitions_in_residues,
    iter_weakly_decreasing,
    n_poch_finite,
)


def enumerate_partitions(n):
    """All partitions of n as weakly decreasing tuples, by brute force."""

    def gen(m, cap):
        if m == 0:
            yield ()
            return
        for p in range(min(m, cap), 0, -1):
            for rest in gen(m - p, p):
                yield (p,) + rest

    return list(gen(n, n))


def test_count_partitions_in_residues_vs_enumeration():
    for n in range(0, 18):
        parts = enumerate_partitions(n)
        for modulus, allowed in ((5, {2, 3}), (5, {1, 4}), (7, {1, 2, 5, 6}), (4, {1, 3})):
            want = sum(1 for lam in parts if all(p % modulus in allowed for p in lam))
            assert count_partitions_in_residues(n, modulus, allowed) == want


def test_count_partitions_in_residues_validation():
    with pytest.raises(ValueError):
        count_partitions_in_residues(5, 5, {0, 2})
    with pytest.raises(ValueError):
        count_partitions_in_residues(-1, 5, {2})


def test_count_gap_partitions_vs_enumeration():
    for n in range(0, 22):
        parts = enumerate_partitions(n)
        gap = [
            lam
            for lam in parts
            if all(lam[i] - lam[i + 1] >= 2 for i in range(len(lam) - 1))
        ]
        assert count_gap_partitions(n, 1, 0) == len(gap)
        assert count_gap_partitions(n, 1, 1) == sum(
            1 for lam in gap if not lam or lam[-1] >= 2
        )


def test_count_gap_partitions_refuses_uncovered_parameters():
    with pytest.raises(UnsupportedOracleError):
        count_gap_partitions(5, 2, 0)
    with pytest.raises(UnsupportedOracleError):
        count_gap_partitions(5, 1, 2)


def test_iter_weakly_decreasing():
    tuples = list(iter_weakly_decreasing(2, 2))
    assert set(tuples) == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}
    assert list(iter_weakly_decreasing(0, 5)) == [()]
    for t in iter_weakly_decreasing(3, 3):
        assert t[0] >= t[1] >= t[2] >= 0


def test_naive_series_mul_inv():
    # (1 - q) * 1/(1 - q) == 1 within the window
    one_minus_q = NaiveSeries.monomial(1, 0, 20).add(NaiveSeries.monomial(-1, 2, 20))
    inv = one_minus_q.inv()
    prod = one_minus_q.mul(inv)
    assert prod.coeff(0) == 1
    assert all(prod.coeff(e) == 0 for e in range(1, prod.order))


def test_naive_poch_against_hand_expansion():
    # (q; q)_2 = 1 - q - q^2 + q^3
    p = n_poch_finite(1, 2, 2, 2, 20)
    want = {0: 1, 2: -1, 4: -1, 6: 1}
    for e in range(20):
        assert p.coeff(e) == want.get(e, 0)


def test_naive_coeff_window_guard():
    s = NaiveSeries.one(10)
    with pytest.raises(UnsupportedOracleError):
        s.coeff(10)
