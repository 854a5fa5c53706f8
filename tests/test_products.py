"""Triple products: construction, the bilateral theta route, oracles."""

import pytest

from qident import (
    IllPosedError,
    Monomial,
    QSeries,
    SpecError,
    TripleProductSpec,
    eval_product_sum,
    partition_series,
    theta_triple_sum,
    he,
    qe,
)
from naive import count_partitions_in_residues


def test_triple_product_vs_theta_sum():
    # (q^e, q^(M-e), q^M; q^M)_inf * 1/(q)_inf recovered two independent ways
    W = he(120)
    for M, e, sign in ((5, 2, 1), (5, 1, 1), (7, 3, 1), (9, 4, 1), (4, 1, 1), (5, 2, -1)):
        spec = TripleProductSpec(qe(M), Monomial(sign, qe(e)), Monomial(sign, qe(M - e)))
        via_poch = eval_product_sum([spec], W)
        via_theta = theta_triple_sum(Monomial(sign, qe(e)), qe(M), W) * partition_series(W)
        assert via_poch.eq_upto(via_theta).equal


def test_triple_product_halfint_arguments():
    W = he(90)
    spec = TripleProductSpec(qe(5), Monomial(-1, he(3)), Monomial(-1, he(7)))
    via_poch = eval_product_sum([spec], W)
    via_theta = theta_triple_sum(Monomial(-1, he(3)), qe(5), W) * partition_series(W)
    assert via_poch.eq_upto(via_theta).equal


def test_product_matches_residue_counting():
    # the arguments cancel from 1/(q;q)_inf, leaving parts = +-1 mod 5
    W = he(2 * 25)
    spec = TripleProductSpec(qe(5), Monomial(1, qe(2)), Monomial(1, qe(3)))
    series = eval_product_sum([spec], W)
    for n in range(25):
        assert series.coeff_q(n) == count_partitions_in_residues(n, 5, {1, 4})


def test_weighted_sum_of_products():
    W = he(40)
    s1 = TripleProductSpec(qe(7), Monomial(1, qe(1)), Monomial(1, qe(6)), 2)
    s2 = TripleProductSpec(qe(7), Monomial(1, qe(2)), Monomial(1, qe(5)), 1)
    combined = eval_product_sum([s1, s2], W)
    separate = eval_product_sum([s1], W) + eval_product_sum([s2], W)
    assert combined.eq_upto(separate).equal
    doubled = eval_product_sum(
        [TripleProductSpec(qe(7), Monomial(1, qe(1)), Monomial(1, qe(6)))], W
    ) * 2
    alone = eval_product_sum([s1], W)
    assert alone.eq_upto(doubled).equal


def test_ill_posed_products_raise():
    with pytest.raises((SpecError, IllPosedError)):
        TripleProductSpec(qe(0), Monomial(1, qe(1)), Monomial(1, qe(1)))
    with pytest.raises((SpecError, IllPosedError)):
        TripleProductSpec(qe(5), Monomial(1, qe(0)), Monomial(1, qe(5)))
    with pytest.raises(SpecError):
        eval_product_sum([], he(20))


def test_z_dependent_argument_rejected():
    with pytest.raises(SpecError):
        TripleProductSpec(qe(5), Monomial(1, qe(1), 1), Monomial(1, qe(4)))
