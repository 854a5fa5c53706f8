"""Kernel behaviour: half-exponents, truncated series, Laurent layer."""

import re
from operator import eq, ge, gt, le, lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import (
    INF,
    FSpec,
    HalfInt,
    NonInvertibleError,
    OrderExceededError,
    QSeries,
    SpecError,
    SumStats,
    SummandSpec,
    ZLaurent,
    eval_multisum,
    f_func,
    he,
    partition_series,
    qe,
)
from conftest import random_qseries, random_zlaurent, series_from


# -- HalfInt ----------------------------------------------------------------


def test_halfint_str_forms():
    assert str(HalfInt(6)) == "3"
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(-3)) == "-3/2"
    assert str(HalfInt(0)) == "0"


def test_halfint_parse_forms():
    assert HalfInt.parse("7/2") == HalfInt(7)
    assert HalfInt.parse("-7/2") == HalfInt(-7)
    assert HalfInt.parse("4") == qe(4)
    assert HalfInt.parse(5) == HalfInt(10)
    assert HalfInt.parse(HalfInt(3)) == HalfInt(3)
    with pytest.raises(ValueError):
        HalfInt.parse("three")


@given(st.integers(-10**6, 10**6))
def test_halfint_str_parse_roundtrip(num):
    h = HalfInt(num)
    assert HalfInt.parse(str(h)) == h


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_halfint_arithmetic(a, b):
    x, y = HalfInt(a), HalfInt(b)
    assert (x + y).num == a + b
    assert (x - y).num == a - b
    assert (-x).num == -a
    assert (x < y) == (a < b)
    assert (x >= y) == (a >= b)


def test_halfint_int_operands_are_whole_exponents():
    assert HalfInt(3) + 1 == HalfInt(5)
    assert qe(2) - 1 == qe(1)
    assert HalfInt(4).is_integral
    assert not HalfInt(5).is_integral


def test_halfint_scales_by_plain_ints_only():
    # a bool is no whole scale, as it is no whole exponent in he(3) + True
    assert he(3) * 2 == 2 * he(3) == he(6)
    for bad in (True, False, 2.0, he(2)):
        with pytest.raises(TypeError):
            he(3) * bad
        with pytest.raises(TypeError):
            bad * he(3)


@pytest.mark.parametrize("name, op",[("__lt__", lt), ("__le__", le), ("__gt__", gt), ("__ge__", ge), ("__eq__", eq)])
@pytest.mark.parametrize("other", [1, 2, 3, -2, HalfInt(3), HalfInt(4), HalfInt(5), INF, 2.0, "2", None])
def test_halfint_comparisons_follow_one_rule(name, op, other):
    # numerators compared, int operands whole exponents, INF above every
    # HalfInt, anything else left to the other operand
    x = HalfInt(4)
    got = getattr(x, name)(other)
    if other is INF:
        assert got is (name in ("__lt__", "__le__"))
        assert op(x, other) is got
    elif isinstance(other, (int, HalfInt)):
        assert got is op(4, HalfInt._coerce(other).num)
        assert op(x, other) is got
    else:
        assert got is NotImplemented
        if name == "__eq__":
            assert not x == other
        else:
            with pytest.raises(TypeError):
                op(x, other)


def test_inf_sentinel():
    assert INF > HalfInt(10**9)
    assert not (INF < HalfInt(0))
    assert INF + HalfInt(5) is INF
    assert HalfInt(5) < INF


# -- QSeries construction and access -----------------------------------------


def test_monomial_and_coefficient():
    s = QSeries.monomial(3, he(5), he(9))
    assert s.coefficient(he(5)) == 3
    assert s.coefficient(he(7)) == 0
    with pytest.raises(OrderExceededError):
        s.coefficient(he(9))
    with pytest.raises(OrderExceededError):
        s.coefficient(he(12))


def test_qe_takes_only_a_plain_int():
    # as he and HalfInt: qe(True) is not q^1, and qe(1.5) is refused by
    # qe itself, not through the numerator 3.0 it would build
    assert qe(3) == he(6) and qe(-2) == HalfInt(-4)
    for bad in (True, False, 1.5, 2.0, he(2), "1", None):
        with pytest.raises(SpecError, match=f"q-exponent must be an int, got {re.escape(repr(bad))}"):
            qe(bad)


@pytest.mark.parametrize("bad", [True, 1.0, "1", -1], ids=["bool", "float", "str", "negative"])
def test_sum_stats_counts_are_plain_ints_at_least_zero(bad):
    # SumStats(True) would print tuples=True and count on from it as 1
    for field in ("tuples", "nodes", "pruned"):
        with pytest.raises(SpecError, match=f"a count must be an int >= 0, got {re.escape(repr(bad))}"):
            SumStats(**{field: bad})
    assert SumStats(3, 0, 2) == SumStats(tuples=3, pruned=2)


def test_monomial_refuses_a_coefficient_that_is_no_int():
    for bad in (0.5, 2.0, True, False, "1", None):
        with pytest.raises(SpecError, match="a coefficient must be an int"):
            QSeries.monomial(bad, he(2), he(9))
    # int operands still become monomials; a bool is no int, so it is no operand
    x = QSeries.monomial(1, he(3), he(20))
    assert x + 2 == 2 + x == x + QSeries.monomial(2)
    assert x + 0 == x
    z = ZLaurent({1: x}, 20)
    assert z * 3 == 3 * z == z * QSeries.monomial(3)
    assert x * 1 == x and x * 3 == x + x + x
    for op in (lambda: x + True, lambda: False + x, lambda: x * True, lambda: z * True, lambda: False * z):
        with pytest.raises(TypeError):
            op()


def test_coeff_q_is_whole_grid():
    s = series_from({he(1): 2, qe(1): 5}, qe(10))
    assert s.coefficient(qe(1)) == 5
    assert s.coefficient(he(1)) == 2


def test_exact_zero_vs_truncated_zero():
    exact = QSeries.zero()
    trunc = QSeries.zero(he(8))
    assert exact.order is INF
    assert trunc.order == he(8)
    x = QSeries.monomial(1, he(3), he(20))
    # exact zero annihilates, truncated zero keeps its window
    assert (exact * x).order is INF
    assert (trunc * x).order == he(11)


def test_shifted_exact_zero_is_the_canonical_zero():
    for e in (qe(3), he(-5)):
        moved = QSeries.zero().shift(e)
        assert moved == QSeries.zero() and moved.min_exp == he(0)
    # a truncated zero moves with its order, which its min_exp equals
    assert QSeries.zero(he(4)).shift(he(3)) == QSeries.zero(he(7))


@pytest.mark.parametrize(
    "build",
    [
        lambda: QSeries.zero(True),
        lambda: QSeries.one(False),
        lambda: QSeries.monomial(1, qe(1), True),
        lambda: QSeries.one().truncated(True),
        lambda: QSeries.one().inverse(True),
        lambda: ZLaurent({0: QSeries.one()}, None).truncated(True),
        lambda: partition_series(True),
        lambda: eval_multisum(SummandSpec(1, (0,)), True),
        lambda: f_func(FSpec(2, 0, he(3)), True),
        lambda: QSeries.zero("5"),
        lambda: QSeries.zero(5.0),
    ],
    ids=["zero", "one", "monomial", "truncated", "inverse", "zlaurent-truncated", "partition_series",
         "eval_multisum", "f_func", "str", "float"],
)
def test_an_order_is_refused_unless_a_halfint_an_int_or_inf(build):
    # a bool is no count of q-units, as HalfInt and every spec already say
    with pytest.raises(SpecError, match="not an order"):
        build()


def test_an_int_order_counts_whole_q_units():
    assert QSeries.zero(5).order == qe(5)
    assert QSeries.one(0).order == qe(0) and QSeries.one(0).is_zero
    assert QSeries.one().truncated(2) == QSeries.one(qe(2))
    assert partition_series(3) == partition_series(qe(3))


def test_reprs_write_half_exponents_in_parentheses_and_cut_long_bodies():
    assert repr(QSeries.zero()) == "<QSeries 0>"
    assert repr(QSeries.zero(he(3))) == "<QSeries 0 + O(q^(3/2))>"
    assert repr(QSeries.zero(he(-4))) == "<QSeries 0 + O(q^-2)>"
    s = QSeries.monomial(-2, he(-3)) + QSeries.monomial(5, qe(2)) + 1
    assert repr(s) == "<QSeries -2*q^(-3/2) + 1 + 5*q^2>"
    eight = "1 + 1*q^(1/2) + 1*q^1 + 1*q^(3/2) + 1*q^2 + 1*q^(5/2) + 1*q^3 + 1*q^(7/2)"
    assert repr(QSeries(0, [1] * 8, 17)) == f"<QSeries {eight} + O(q^(17/2))>"
    assert repr(QSeries(0, [1] * 9, 20)) == f"<QSeries {eight} + ... + O(q^10)>"
    z = ZLaurent({k: QSeries.monomial(k, he(k), he(9)) for k in range(-2, 4)}, 9)
    assert repr(z) == (
        "<ZLaurent {z^-2: <QSeries -2*q^-1 + O(q^(9/2))>, z^-1: <QSeries -1*q^(-1/2) + O(q^(9/2))>, "
        "z^1: <QSeries 1*q^(1/2) + O(q^(9/2))>, z^2: <QSeries 2*q^1 + O(q^(9/2))>...}>"
    )
    assert repr(ZLaurent({1: QSeries.one(), -1: QSeries.monomial(3, he(1))}, None)) == (
        "<ZLaurent {z^-1: <QSeries 3*q^(1/2)>, z^1: <QSeries 1>}>"
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: QSeries.monomial(1, "x"),
        lambda: QSeries.monomial(1, 1.5),
        lambda: QSeries.one().shift("x"),
        lambda: QSeries.one().coefficient(True),
        lambda: ZLaurent({1: QSeries.one()}, None).zshift(None),
        lambda: ZLaurent({1: QSeries.one()}, None).substitute(1, "1/2"),
        lambda: ZLaurent({1: QSeries.one()}, None).substitute(2, he(1)),
        lambda: ZLaurent({1: QSeries.one()}, None).substitute(True, he(1)),
        lambda: ZLaurent({1: QSeries.one()}, None).substitute(1.0, he(1)),
        lambda: ZLaurent({1: QSeries.one()}, None).substitute(-1.0, he(1)),
    ],
    ids=["monomial", "monomial-float", "shift", "coefficient", "zshift", "substitute", "substitute-sign",
         "substitute-bool-sign", "substitute-float-sign", "substitute-minus-float-sign"],
)
def test_a_bad_exponent_or_sign_is_a_spec_error(call):
    with pytest.raises(SpecError, match="bad exponent|sign must be"):
        call()


def test_product_order_rule():
    a = series_from({he(2): 1}, he(10))
    b = series_from({he(3): 1}, he(7))
    # min(ord_a + min_b, ord_b + min_a) = min(10+3, 7+2) = 9
    assert (a * b).order == he(9)
    assert (a * b).coefficient(he(5)) == 1


def test_shift_shares_and_truncated_noop():
    s = series_from({he(0): 1, he(2): -2}, he(6))
    t = s.shift(he(3))
    assert t.coefficient(he(3)) == 1
    assert t.order == he(9)
    assert s.truncated(he(10)) is s
    assert s.truncated(he(4)).order == he(4)


def test_inverse_roundtrip_and_units():
    s = series_from({he(0): 1, he(1): -1, he(4): 2}, he(24))
    inv = s.inverse()
    one = s * inv
    r = one.eq_upto(QSeries.one(he(24)))
    assert r.equal
    bad = series_from({he(0): 2}, he(9))
    with pytest.raises(NonInvertibleError):
        bad.inverse()
    with pytest.raises(NonInvertibleError):
        QSeries.zero().inverse()


def test_inverse_of_exact_needs_order():
    s = series_from({he(0): 1, he(2): -1})
    with pytest.raises(NonInvertibleError):
        s.inverse()
    inv = s.inverse(he(12))
    assert inv.order == he(12)
    assert (s * inv).eq_upto(QSeries.one()).equal


def test_inverse_laurent_lead():
    # leading term q^(-3/2): inverse starts at q^(3/2)
    s = series_from({he(-3): -1, he(0): 1}, he(10))
    inv = s.inverse()
    assert inv.order == he(16)
    assert (s * inv).eq_upto(QSeries.one()).equal


def test_eq_upto_mismatch_reports_smallest_exponent():
    a = series_from({he(2): 1, he(5): 3}, he(10))
    b = series_from({he(2): 1, he(5): 4, he(7): 1}, he(12))
    r = a.eq_upto(b)
    assert not r.equal
    assert r.compared_order == he(10)
    assert r.mismatch.exp == he(5)
    assert (r.mismatch.lhs, r.mismatch.rhs) == (3, 4)
    assert r.mismatch.z_exp is None


def test_eq_upto_first_mismatch_across_gaps_and_unequal_starts():
    from qident import CompareResult, Mismatch

    a = series_from({he(-3): 2, he(4): 1, he(30): 5}, he(40))
    b = series_from({he(-3): 2, he(4): 1, he(30): 6, he(35): 1}, he(50))
    assert a.eq_upto(b, z_exp=2) == CompareResult(False, he(40), Mismatch(he(30), 5, 6, 2))
    # the other side starts lower, with a zero where the first has a term
    c = series_from({he(-7): -1, he(4): 1}, INF)
    assert a.eq_upto(c) == CompareResult(False, he(40), Mismatch(he(-7), 0, -1, None))
    assert c.eq_upto(a) == CompareResult(False, he(40), Mismatch(he(-7), -1, 0, None))
    # a gap on one side only, after an equal run
    d = series_from({he(-3): 2, he(4): 1, he(9): 7}, he(12))
    assert a.eq_upto(d) == CompareResult(False, he(12), Mismatch(he(9), 0, 7, None))
    # a zero series against a series that starts far above, and a cap below both starts
    z = QSeries.zero(he(60))
    assert z.eq_upto(a) == CompareResult(False, he(40), Mismatch(he(-3), 0, 2, None))
    assert a.eq_upto(series_from({he(50): 1}, he(-10))) == CompareResult(True, he(-10))


def test_eq_upto_ignores_at_and_beyond_cap():
    a = series_from({he(2): 1}, he(6))
    b = series_from({he(2): 1, he(6): 9, he(8): 1}, he(12))
    r = a.eq_upto(b)
    assert r.equal and r.compared_order == he(6)


def test_scalar_int_ops():
    s = series_from({he(0): 1, he(2): 2}, he(8))
    assert (s * 3).coefficient(he(2)) == 6
    assert (s + 1).coefficient(he(0)) == 2
    assert (s - s).eq_upto(QSeries.zero()).equal


# -- ring laws ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_ring_laws_random(seed):
    import random as _random

    rng = _random.Random(seed)
    a = random_qseries(rng)
    b = random_qseries(rng)
    c = random_qseries(rng)
    assert ((a + b) + c).eq_upto(a + (b + c)).equal
    assert (a + b).eq_upto(b + a).equal
    assert (a * b).eq_upto(b * a).equal
    assert ((a * b) * c).eq_upto(a * (b * c)).equal
    assert (a * (b + c)).eq_upto(a * b + a * c).equal
    assert (a - a).eq_upto(QSeries.zero()).equal
    assert (a * QSeries.one()).eq_upto(a).equal


def test_big_coefficient_exactness():
    # (1/(q;q)_inf-style growth) keeps exact big ints; spot check square
    s = series_from({he(0): 10**20, he(1): 1}, he(4))
    sq = s * s
    assert sq.coefficient(he(0)) == 10**40
    assert sq.coefficient(he(1)) == 2 * 10**20


def test_kronecker_matches_schoolbook(rng):
    # spans > 1024 half-slots route through the integer-packing multiply;
    # verify against the direct O(n^2) convolution
    for _ in range(3):
        terms_a = {HalfInt(rng.randint(0, 2600)): rng.randint(-99, 99) for _ in range(300)}
        terms_b = {HalfInt(rng.randint(0, 2600)): rng.randint(-99, 99) for _ in range(300)}
        a = series_from(terms_a, he(3000))
        b = series_from(terms_b, he(3000))
        prod = a * b
        dense_a = [0] * 3000
        for e, c in terms_a.items():
            dense_a[e.num] += c
        dense_b = [0] * 3000
        for e, c in terms_b.items():
            dense_b[e.num] += c
        out = [0] * 3000
        for i, x in enumerate(dense_a):
            if x:
                for j, y in enumerate(dense_b):
                    if y and i + j < 3000:
                        out[i + j] += x * y
        for n in range(0, 3000, 37):
            assert prod.coefficient(he(n)) == out[n]



_COEFFS = (st.sampled_from((1, -1)), st.integers(-9, 9), st.integers(-(2**80), 2**80))


@st.composite
def _operands(draw):
    """A QSeries that is sparse or dense, with or without empty odd slots,
    small, non-unit or big coefficients, any start, exact or truncated."""
    size = draw(st.integers(0, 70))
    coeff = draw(st.sampled_from(_COEFFS))
    if draw(st.booleans()):
        c = [0] * size
        for i in draw(st.lists(st.integers(0, size - 1), max_size=6)) if size else ():
            c[i] = draw(coeff)
    else:
        c = draw(st.lists(coeff, min_size=size, max_size=size))
    if draw(st.booleans()):
        c[1::2] = [0] * len(c[1::2])
    lo = draw(st.integers(-20, 20))
    ordnum = None if draw(st.booleans()) else lo + draw(st.integers(-5, size + 8))
    return QSeries(lo, c, ordnum)


def _naive_window(s, pad):
    from naive import NaiveSeries

    order = s._min + len(s._coeffs) + pad if s._ordnum is None else s._ordnum
    off = min(s._min, order)
    return NaiveSeries(off, ([0] * (s._min - off) + s._coeffs + [0] * (order - off))[: order - off], order)


@settings(max_examples=300, deadline=None)
@given(_operands(), _operands())
def test_product_matches_the_naive_oracle_on_every_path(a, b):
    from naive import NaiveSeries
    from qident.series import _convolve_kronecker, _convolve_sparse

    p = a * b
    exact_zero = any(not s._coeffs and s._ordnum is None for s in (a, b))
    want = _naive_window(a, 200).mul(_naive_window(b, 200))
    if exact_zero:
        assert p.is_zero and p.order is INF
    else:
        exact = a._ordnum is None and b._ordnum is None
        assert p.order == (INF if exact else he(want.order))
        assert all(e.num >= want.offset for e, _ in p.terms())
        for e in range(want.offset, want.order):
            assert p.coefficient(he(e)) == want.coeff(e), e
    # each multiply path on its own: the strided and unit slice adds and the
    # Kronecker packing
    x, y = a._coeffs, b._coeffs
    if x and y:
        n = len(x) + len(y) - 1
        full = NaiveSeries(0, x + [0] * len(y), n + 1).mul(NaiveSeries(0, y + [0] * len(x), n + 1))
        ref = full.coeffs[:n]
        assert _convolve_kronecker(x, y, n) == ref
        assert _convolve_sparse(x, y, n, 1) == ref
        if not any(y[1::2]):
            assert _convolve_sparse(x, y, n, 2) == ref


def test_product_paths_follow_the_nonzero_counts(monkeypatch):
    # a theta series times 1/(q)_inf takes the slice adds, stepping by 2 over
    # the partition series' empty odd slots; two dense operands convolve
    import qident.series as series
    from qident import Monomial, partition_series, theta_triple_sum

    calls = []
    sparse, kronecker = series._convolve_sparse, series._convolve_kronecker
    monkeypatch.setattr(
        series, "_convolve_sparse", lambda x, y, n, step: calls.append(("sparse", step)) or sparse(x, y, n, step)
    )
    monkeypatch.setattr(
        series, "_convolve_kronecker", lambda x, y, n: calls.append(("kronecker",)) or kronecker(x, y, n)
    )
    order = qe(100)
    theta = theta_triple_sum(Monomial(1, he(3)), qe(7), order)
    part = partition_series(order)
    assert (theta * part).eq_upto(part * theta).equal
    assert calls == [("sparse", 2), ("sparse", 2)]
    calls.clear()
    dense = QSeries(0, list(range(1, 200)), None)
    assert (dense * part).coefficient(he(1)) == 2
    assert calls == [("kronecker",)]


def test_whole_q_dense_products_convolve_the_even_slots(monkeypatch):
    # both operands whole-q: half-length operands go into the convolution,
    # and the result equals the naive full-length product slot for slot
    import qident.series as series
    from naive import NaiveSeries

    seen = []
    kronecker = series._convolve_kronecker
    monkeypatch.setattr(
        series, "_convolve_kronecker", lambda x, y, n: seen.append((len(x), len(y), n)) or kronecker(x, y, n)
    )
    x = [(i + 1) * (1 - i % 2) for i in range(199)]
    y = [(3 - i) * (1 - i % 2) for i in range(151)]
    for a, b, order in ((x, y, None), (x, y, 301), (x, y + [7], None)):
        p = QSeries(-4, a, None) * QSeries(2, b, order)
        n = len(a) + len(b) - 1
        out_len = n if order is None else min(n, order - 2)
        want = NaiveSeries(0, a + [0] * len(b), n + 1).mul(NaiveSeries(0, b + [0] * len(a), n + 1)).coeffs[:out_len]
        assert p == QSeries(-2, want, None if order is None else order - 4)
    assert [(min(u, v), max(u, v), n) for u, v, n in seen] == [(76, 100, 175), (76, 100, 150), (152, 199, 350)]


@st.composite
def _divisors(draw):
    """A QSeries with a unit lead: sparse or dense, with or without empty
    odd slots, small or big coefficients, any start, exact or truncated."""
    size = draw(st.integers(0, 60))
    coeff = draw(st.sampled_from(_COEFFS))
    if draw(st.booleans()):
        c = [0] * size
        for i in draw(st.lists(st.integers(0, size - 1), max_size=6)) if size else ():
            c[i] = draw(coeff)
    else:
        c = draw(st.lists(coeff, min_size=size, max_size=size))
    c = [draw(st.sampled_from((1, -1)))] + c
    if draw(st.booleans()):
        c[1::2] = [0] * len(c[1::2])
    lo = draw(st.integers(-20, 20))
    ordnum = None if draw(st.booleans()) else lo + draw(st.integers(1, size + 8))
    return QSeries(lo, c, ordnum)


@settings(max_examples=300, deadline=None)
@given(_divisors(), st.one_of(st.none(), st.integers(-30, 150)))
def test_inverse_matches_the_naive_oracle(s, cap):
    from naive import NaiveSeries

    m, a = s._min, s._coeffs
    natural = None if s._ordnum is None else s._ordnum - 2 * m
    target = natural if cap is None else cap if natural is None else min(natural, cap)
    if target is None:
        if len(a) > 1:
            with pytest.raises(NonInvertibleError):
                s.inverse()
        else:
            assert s.inverse() == QSeries(-m, a, None)
        return
    inv = s.inverse(None if cap is None else he(cap))
    assert inv.order == he(target)
    if target + m <= 0:
        assert inv.is_zero
        return
    # the divisor below q^((target + 2m)/2) fixes the inverse below q^(target/2)
    window = target + 2 * m
    want = NaiveSeries(m, (a + [0] * (window - m))[: window - m], window).inv()
    assert (want.offset, want.order) == (-m, target)
    assert all(e.num >= -m for e, _ in inv.terms())
    assert [inv.coefficient(he(e)) for e in range(-m, target)] == want.coeffs


# -- ZLaurent -----------------------------------------------------------------


def test_zlaurent_basicops():
    x = ZLaurent({1: QSeries.monomial(1, he(1)), -1: QSeries.monomial(1, he(1))}, 40)
    y = x + x
    assert y.slice(1).coefficient(he(1)) == 2
    assert y.slice(0).eq_upto(QSeries.zero()).equal
    # squaring each slice by the scalar q^(1/2) keeps the z-powers and the order
    sq = x * QSeries.monomial(1, he(1))
    assert sq == QSeries.monomial(1, he(1)) * x
    assert sq.slice(1).coefficient(he(2)) == 1
    assert sq.slice(-1).coefficient(he(2)) == 1
    assert sq.slice(0).is_zero and sq.order == he(40)
    # ZLaurent multiplies only by scalars
    with pytest.raises(TypeError):
        x * x


def test_zlaurent_zshift_substitute_consistency(rng):
    # substituting after a shift equals substituting the shifted argument
    for _ in range(20):
        L = random_zlaurent(rng)
        e = HalfInt(rng.randint(-3, 3))
        sign = rng.choice((1, -1))
        m = HalfInt(rng.randint(-2, 4))
        direct = L.zshift(e).substitute(sign, m)
        expected = L.substitute(sign, m + e)
        assert direct.eq_upto(expected).equal


def test_zlaurent_zinvert_substitute(rng):
    for _ in range(20):
        L = random_zlaurent(rng)
        m = HalfInt(rng.randint(-2, 4))
        sign = rng.choice((1, -1))
        a = L.zinvert().substitute(sign, m)
        b = L.substitute(sign, -m)
        assert a.eq_upto(b).equal


def test_zlaurent_znegate_substitute(rng):
    for _ in range(20):
        L = random_zlaurent(rng)
        m = HalfInt(rng.randint(-2, 4))
        a = L.znegate().substitute(1, m)
        b = L.substitute(-1, m)
        assert a.eq_upto(b).equal


def test_zlaurent_mismatch_ordering():
    # mismatches are reported at the smallest z-exponent first, then by q
    a = ZLaurent({-2: QSeries.monomial(1, he(4)), 1: QSeries.monomial(7, he(2))}, 20)
    b = ZLaurent({1: QSeries.monomial(5, he(2))}, 20)
    r = a.eq_upto(b)
    assert not r.equal
    assert r.mismatch.z_exp == -2
    assert r.mismatch.exp == he(4)
    assert (r.mismatch.lhs, r.mismatch.rhs) == (1, 0)


def test_zlaurent_absent_slice_is_zero():
    a = ZLaurent({0: QSeries.one(he(10))}, 10)
    b = ZLaurent({0: QSeries.one(he(10)), 3: QSeries.zero(he(10))}, 10)
    assert a.eq_upto(b).equal


def test_zlaurent_slices_zero_below_the_order_still_bound_it():
    # slices known only to vanish below q^(1/2) are not stored, but the span
    # (0, 3) keeps them: they bound every product, shift and substitution
    def zero_at(*keys):
        return ZLaurent({k: QSeries.zero(he(1)) for k in keys}, 1)

    Z = zero_at(0, 3)
    assert Z.z_support() == [] and Z.order == he(1) and Z.is_zero
    assert Z.slice(2) == QSeries.zero(he(1)) and Z.slice(4) == QSeries.zero(INF)
    assert Z == zero_at(0, 1, 3) and Z != zero_at(0, 2)
    P = Z * QSeries.monomial(1, qe(-2))
    assert P.order == he(-3) and P.slice(2) == QSeries.zero(he(-3)) and P.slice(4) == QSeries.zero(INF)
    assert Z * 0 == Z * QSeries.zero() == ZLaurent.zero()
    assert Z.zshift(qe(1)).order == he(1) and Z.zshift(qe(-1)).order == he(-5)
    assert Z.zinvert().zshift(qe(1)).order == he(-5)
    assert Z.substitute(-1, qe(-1)) == QSeries.zero(he(-5))
    assert (Z + ZLaurent({-2: QSeries.one()}, None)).zshift(qe(1)).order == he(-3)


def test_zlaurent_ring_laws(rng):
    for _ in range(25):
        a = random_zlaurent(rng, zspan=2, span=12)
        b = random_zlaurent(rng, zspan=2, span=12)
        c = random_zlaurent(rng, zspan=2, span=12)
        s = random_qseries(rng, span=12)
        t = random_qseries(rng, span=12)
        assert s * a == a * s
        assert (a * (s + t)).eq_upto(a * s + a * t).equal
        assert ((a + b) * s).eq_upto(a * s + b * s).equal
        assert ((a * s) * t).eq_upto(a * (s * t)).equal
        assert ((a + b) + c).eq_upto(a + (b + c)).equal


def test_substitute_halfint_exponent_parity():
    # z = -q^(1/2) on z^2 picks up exponent 1 and sign +
    L = ZLaurent({2: QSeries.one(he(40)), 1: QSeries.one(he(40))}, 40)
    v = L.substitute(-1, he(1))
    assert v.coefficient(he(2)) == 1
    assert v.coefficient(he(1)) == -1
