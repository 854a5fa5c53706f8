"""Triple products: the theta kernel against the factor route and oracles."""

import math
import re

import pytest

from qident import (
    HalfInt,
    IllPosedError,
    Monomial,
    QSeries,
    SpecError,
    TripleProductSpec,
    eval_product_sum,
    f_limit_sum,
    h_limit_product,
    he,
    make_case,
    qe,
    verify,
)
from qident.products import _product_sums, _triple
from naive import count_partitions_in_residues, n_poch_infinite


def _item(specs):
    # a list of Jacobi specs of one sign as the kernel's (sign, key) item,
    # read off in half-units
    sign = specs[0].arg1.sign
    assert all(t.arg1.sign == t.arg2.sign == sign and t.arg1.q_exp + t.arg2.q_exp == t.modulus_exp for t in specs)
    return sign, tuple((t.modulus_exp.num, t.arg1.q_exp.num, t.weight) for t in specs)


def test_triple_product_vs_theta_sum():
    # (q^e, q^(M-e), q^M; q^M)_inf / (q)_inf: theta kernel against factor route
    W = he(120)
    for M, e, sign in ((5, 2, 1), (5, 1, 1), (7, 3, 1), (9, 4, 1), (4, 1, 1), (5, 2, -1)):
        spec = TripleProductSpec(qe(M), Monomial(sign, qe(e)), Monomial(sign, qe(M - e)))
        assert _product_sums([(sign, ((2 * M, 2 * e, 1),))], W)[0] == _triple(spec, W)


def test_triple_product_halfint_arguments():
    W = he(90)
    for spec in (
        TripleProductSpec(qe(5), Monomial(-1, he(3)), Monomial(-1, he(7))),
        # half-integer moduli
        TripleProductSpec(he(7), Monomial(1, he(3)), Monomial(1, he(4))),
        TripleProductSpec(he(5), Monomial(-1, he(1)), Monomial(-1, he(4))),
    ):
        assert _product_sums([_item([spec])], W)[0] == _triple(spec, W)


def test_mixed_jacobi_and_factor_specs_sum_term_by_term():
    W = he(81)
    specs = [
        TripleProductSpec(qe(5), Monomial(1, qe(2)), Monomial(1, qe(3)), 3),
        TripleProductSpec(qe(6), Monomial(1, qe(2)), Monomial(1, qe(3)), -1),  # A B != q^M
        TripleProductSpec(he(9), Monomial(-1, he(4)), Monomial(-1, he(5)), 0),
        TripleProductSpec(qe(4), Monomial(1, qe(1)), Monomial(-1, qe(3)), 2),  # signs differ
        TripleProductSpec(he(7), Monomial(-1, he(2)), Monomial(-1, he(5)), -4),
    ]
    want = QSeries.zero()
    for spec in specs:
        want = want + _triple(spec, W) * spec.weight
    assert eval_product_sum(specs, W) == want


def test_batched_products_match_the_factor_route_on_mirrored_lists():
    # each list's even and odd theta halves are multiplied by 1/(q)_inf once,
    # and a list's sign mirror reuses both products; every list must still be
    # the factor route's sum, and the same as on its own
    lists = []
    for anum in (3, 5, 7):
        for j in range(3):
            for mnum in range(-anum + 1, anum):
                if abs(mnum) + 2 * j >= anum:
                    continue
                for sign in (-1,) if mnum % 3 == 1 else (1, -1):  # some lists have no mirror
                    lists.append([
                        TripleProductSpec(
                            HalfInt(2 * anum),
                            Monomial(sign, HalfInt(anum + mnum + 2 * (j - 2 * i))),
                            Monomial(sign, HalfInt(anum - mnum - 2 * (j - 2 * i))),
                            math.comb(j, i),
                        )
                        for i in range(j + 1)
                    ])
    assert len(lists) == 80
    items = [_item(specs) for specs in lists]
    for W in (he(37), qe(20), he(0), he(-3)):
        got = _product_sums(items, W)
        for specs, item, value in zip(lists, items, got):
            assert value == _product_sums([item], W)[0]
            want = eval_product_sum(specs, W)
            if W.num > 0:
                assert value == want, (W, specs)
            else:  # both zero, though the routes book the orders of zeros differently
                assert value.is_zero and want.is_zero


def _naive_triple(sign, e1, e2, M, W):
    # sign*q^e1, sign*q^e2 and q^M on base q^M over (q)_inf, in half-units
    out = n_poch_infinite(sign, e1, M, W).mul(n_poch_infinite(sign, e2, M, W))
    return out.mul(n_poch_infinite(1, M, M, W)).mul(n_poch_infinite(1, 2, 2, W).inv())


def test_limit_products_match_naive_factor_products():
    W = 36
    for anum in range(1, 8):
        a = HalfInt(anum)
        for mnum in range(1 - anum, anum):
            for sign in (1, -1):
                z = Monomial(sign, HalfInt(mnum))
                got = h_limit_product(a, z, HalfInt(W))
                ref = _naive_triple(sign, anum + mnum, anum - mnum, 2 * anum, W)
                assert [got.coefficient(HalfInt(e)) for e in range(W)] == ref.coeffs
                for j in range(1, 3):
                    if abs(mnum) + 2 * j >= anum:
                        continue  # some term has an exponent <= 0
                    got = f_limit_sum(j, a, z, HalfInt(W))
                    ref = [0] * W
                    for i in range(j + 1):
                        sh = 2 * (j - 2 * i)
                        t = _naive_triple(sign, anum + mnum + sh, anum - mnum - sh, 2 * anum, W)
                        ref = [r + math.comb(j, i) * c for r, c in zip(ref, t.coeffs)]
                    assert [got.coefficient(HalfInt(e)) for e in range(W)] == ref, (j, a, z)


def test_product_matches_residue_counting():
    # the arguments cancel from 1/(q;q)_inf, leaving parts = +-1 mod 5
    W = he(2 * 25)
    spec = TripleProductSpec(qe(5), Monomial(1, qe(2)), Monomial(1, qe(3)))
    series = eval_product_sum([spec], W)
    for n in range(25):
        assert series.coefficient(qe(n)) == count_partitions_in_residues(n, 5, {1, 4})


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


def test_a_product_weight_must_be_a_plain_int():
    # refused when the spec is built: 1.5, "2" and None would fail only when
    # the list is summed, and True would count as 1
    p2, p3 = Monomial(1, qe(2)), Monomial(1, qe(3))
    for w in (1.5, "2", None, True):
        with pytest.raises(SpecError, match=re.escape(f"a product weight must be an int, got {w!r}")):
            TripleProductSpec(qe(5), p2, p3, w)
    assert TripleProductSpec(qe(5), p2, p3, -3).weight == -3


def test_ill_posed_products_raise():
    with pytest.raises((SpecError, IllPosedError)):
        TripleProductSpec(qe(0), Monomial(1, qe(1)), Monomial(1, qe(1)))
    with pytest.raises((SpecError, IllPosedError)):
        TripleProductSpec(qe(5), Monomial(1, qe(0)), Monomial(1, qe(5)))
    with pytest.raises(SpecError):
        eval_product_sum([], he(20))


def test_product_sides_expand_no_factor_product_but_the_control(monkeypatch):
    # every catalog product outside NEG_AG is in Jacobi form, so the only
    # infinite product built is the pentagonal (q; q)_inf behind 1/(q)_inf
    import sys

    import qident.qobjects as qo

    real, calls = qo.poch_infinite, []

    def spy(arg, base_exp=qe(1), order=None):
        calls.append((arg, HalfInt._coerce(base_exp)))
        return real(arg, base_exp, order)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qident") and getattr(mod, "poch_infinite", None) is real:
            monkeypatch.setattr(mod, "poch_infinite", spy)
    monkeypatch.setattr(qo, "_PARTITION_CACHE", {})
    euler = (Monomial(1, qe(1)), qe(1))
    for case in (
        make_case("COR_INFTY", k=1),
        make_case("OVER_1", k=1, j=1),
        make_case("H_LIMIT", a="3/2"),
        make_case("F_LIMIT", j=1, a="7/2"),
    ):
        assert verify(case).status == "pass", case
    assert set(calls) == {euler}
    calls.clear()
    rep = verify(make_case("NEG_AG", k=1, r=0))
    m = rep.first_mismatch
    assert rep.status == "fail" and (m.exp, m.lhs, m.rhs) == (qe(5), 2, 3)
    assert set(calls) - {euler}
