"""The symmetric Laurent polynomial family, its closure, and the limits."""

import pytest

from qident import (
    INF,
    FSpec,
    HalfInt,
    HSpec,
    IllPosedError,
    Monomial,
    QSeries,
    SpecError,
    ZLaurent,
    binom,
    f_func,
    f_limit_sum,
    h_limit_product,
    h_poly,
    make_case,
    partition_series,
    stabilized_f_value,
    stabilized_h_value,
    verify,
    he,
    qe,
)
from qident.hfamily import _stabilized_values
from qident.qobjects import _quad_min
from naive import n_hpoly_at, n_qbinom


def test_h_poly_tiny_cases():
    H0 = h_poly(HSpec(0, qe(1)))
    assert H0.z_support() == [0]
    assert list(H0.slice(0).terms()) == [(he(0), 1)]

    # H for n=1: z^(-1) q^a + (1 + q) + z q^a
    H1 = h_poly(HSpec(1, he(3)))
    assert H1.z_support() == [-1, 0, 1]
    assert list(H1.slice(1).terms()) == [(he(3), 1)]
    assert list(H1.slice(-1).terms()) == [(he(3), 1)]
    assert list(H1.slice(0).terms()) == [(he(0), 1), (qe(1), 1)]


def test_h_poly_symmetry_and_counts(rng):
    for _ in range(6):
        n = rng.randint(0, 5)
        a = HalfInt(rng.randint(1, 7))
        H = h_poly(HSpec(n, a))
        assert H.z_support() == list(range(-n, n + 1))
        for s in range(1, n + 1):
            assert H.slice(s) == H.slice(-s)
        # z-degree-0 slice at q->1 counts the central binomial
        assert sum(c for _, c in H.slice(0).terms()) == binom(2 * n, n)


def test_h_poly_finite_order_matches_exact(rng):
    for _ in range(10):
        n = rng.randint(0, 6)
        a = HalfInt(rng.randint(-2, 6))
        W = he(rng.randint(1, 50))
        exact = h_poly(HSpec(n, a), INF)
        windowed = h_poly(HSpec(n, a), W)
        r = windowed.eq_upto(exact)
        assert r.equal
        assert r.compared_order <= W


def test_exact_h_poly_slices_match_the_naive_binomials():
    # the finite-order test above compares the column walk with itself;
    # this oracle builds [2n, n-s] as a quotient of Pochhammer products
    for n in range(7):
        top = 2 * n * n + 2  # past deg [2n, n-s] = n^2 - s^2, in half-units
        for anum in (-5, -1, 0, 1, 2, 7):
            H = h_poly(HSpec(n, HalfInt(anum)), INF)
            assert H.order is INF and H.z_support() == list(range(-n, n + 1))
            for s in range(-n, n + 1):
                want = n_qbinom(2 * n, n - s, top)
                lift = anum * s * s
                expected = [(HalfInt(lift + e), want.coeff(e)) for e in range(top) if want.coeff(e)]
                assert list(H.slice(s).terms()) == expected, (n, anum, s)


def test_h_poly_at_an_even_order_claims_the_full_order():
    # the half-slot just below an even order is odd, hence zero, on every slice
    for a in (he(3), qe(2)):
        H = h_poly(HSpec(4, a), qe(20))
        assert H.order == qe(20)
        assert H.eq_upto(h_poly(HSpec(4, a), INF)).compared_order == qe(20)


def test_h_poly_at_a_negative_weight_claims_the_full_order():
    # slices +-4 start at q^(16 a) < 1, so the column runs that much longer
    for a in (he(-1), qe(-2)):
        H = h_poly(HSpec(4, a), qe(20))
        assert H.order == qe(20)
        assert H.eq_upto(h_poly(HSpec(4, a), INF)).compared_order == qe(20)


def test_f_func_claims_the_requested_order():
    # slice -n of F starts j n below slice -n of H; f_func budgets for it
    for j in (1, 2, 3):
        F = f_func(FSpec(4, j, he(3)), qe(20))
        assert F.order == qe(20)
        assert F.eq_upto(f_func(FSpec(4, j, he(3)), INF)).compared_order == qe(20)


def test_h_poly_keeps_only_the_slices_below_the_order():
    # slice s of H(400, 2) starts at q^(2 s^2), so below q^40 only |s| <= 4
    # is stored, each q^(2 s^2) / (q)_inf there by the box lemma; the span
    # keeps the other 792 as zero below q^40, not as exactly zero
    H = h_poly(HSpec(400, qe(2)), qe(40))
    assert H.z_support() == list(range(-4, 5)) and H.order == qe(40)
    for s in range(-4, 5):
        assert H.slice(s) == partition_series(qe(40 - 2 * s * s)).shift(qe(2 * s * s))
    assert H.slice(5) == H.slice(-400) == QSeries.zero(qe(40))
    assert H.slice(401) == QSeries.zero(INF)
    assert H.zshift(he(1)).order == he(80 - 400)  # slice -400 moves down too


def test_finite_order_h_and_f_equal_the_truncated_exact_polynomial():
    # f_func walks only the slices that start below the order, each binomial
    # only as deep as the lowest slice needs
    for n in range(13):
        for anum in range(-5, 8):
            a = HalfInt(anum)
            exact_h = h_poly(HSpec(n, a), INF)
            exact_f = [f_func(FSpec(n, j, a), INF) for j in (1, 2, 3)]
            for onum in (1, 20, 41, 80):
                order = he(onum)
                assert h_poly(HSpec(n, a), order) == exact_h.truncated(order), (n, anum, onum)
                for j, F in zip((1, 2, 3), exact_f):
                    got = f_func(FSpec(n, j, a), order)
                    assert got == F.truncated(order) and got.order == order, (n, j, anum, onum)


def test_h_poly_matches_substitution_oracle(rng):
    for _ in range(8):
        n = rng.randint(0, 4)
        anum = rng.choice((1, 2, 3, 5))
        sign = rng.choice((1, -1))
        mnum = rng.randint(-2, 3)
        got = h_poly(HSpec(n, HalfInt(anum)), INF).substitute(sign, HalfInt(mnum))
        ref = n_hpoly_at(n, anum, sign, mnum, 40)
        for e in range(-20, 40):
            assert got.coefficient(he(e)) == ref.coeff(e)


def test_f_func_j_zero_is_h():
    spec = FSpec(3, 0, he(5))
    assert f_func(spec) == h_poly(HSpec(3, he(5)))


def test_f_func_step_definition(rng):
    # one closure step is G(zq) + G(q/z)
    for _ in range(6):
        n = rng.randint(0, 4)
        j = rng.randint(0, 2)
        a = HalfInt(rng.randint(1, 6))
        F = f_func(FSpec(n, j, a))
        step = F.zshift(qe(1))
        expected = step + step.zinvert()
        assert f_func(FSpec(n, j + 1, a)).eq_upto(expected).equal


def _outcome(build):
    try:
        return build()
    except Exception as e:
        return type(e), str(e)


def _recursion(n, j, a, order):
    # F by its definition: j steps G(z) -> G(zq) + G(q/z) from H, which is
    # built n j deeper, since each step moves slice -n down by q^n
    F = h_poly(HSpec(n, a), order + qe(n * j))
    for _ in range(j):
        g = F.zshift(qe(1))
        F = g + g.zinvert()
    return F


def test_f_func_equals_the_recursion_on_h_poly():
    # order, span and every slice, or the same exception
    orders = [INF] + [he(x) for x in (-1, 0, 1, 7, 20, 41, 80, 161)]
    for n in range(13):
        for j in range(4):
            for anum in range(-5, 10):
                a = HalfInt(anum)
                for order in orders[n > 8 :]:
                    want = _outcome(lambda: _recursion(n, j, a, order))
                    assert _outcome(lambda: f_func(FSpec(n, j, a), order)) == want, (n, j, anum, order)


def test_functional_equation_example():
    # n=1, a=1: value at z=-q is q - q^2
    H = h_poly(HSpec(1, qe(1)), INF)
    v = H.substitute(-1, qe(1))
    assert list(v.terms()) == [(qe(1), 1), (qe(2), -1)]
    shifted = H.substitute(-1, qe(0)) * QSeries.monomial(1, qe(1))
    assert v.eq_upto(shifted).equal


def test_h_limit_product_posedness():
    with pytest.raises(IllPosedError):
        h_limit_product(he(1), Monomial(1, he(1)), he(40))  # a - m = 0
    with pytest.raises(IllPosedError):
        h_limit_product(he(-1), Monomial(1, he(0)), he(40))


def test_f_limit_sum_posedness():
    # j=1, a=3/2: the i=1 term has exponent a - m - 1 <= 0 for m = 1/2
    with pytest.raises(IllPosedError):
        f_limit_sum(1, he(3), Monomial(1, he(1)), he(40))
    ok = f_limit_sum(1, he(5), Monomial(1, he(0)), he(40))
    assert ok.order == he(40)


def test_stabilized_h_value_matches_large_n_directly():
    a = he(3)
    w = Monomial(-1, he(1))
    order = he(30)
    val, n_used = stabilized_h_value(a, w, order)
    direct = h_poly(HSpec(n_used + 5, a), he(90)).substitute(w.sign, w.q_exp).truncated(order)
    assert direct.order == order
    assert val.eq_upto(direct).equal
    assert val.order == order


def _value_at(n, j, a, w, order):
    # F(n, j, a)(w) built directly, with the working order of every slice
    # generous enough that the substitution stays exact below `order`
    W = order.num + (abs(w.q_exp.num) + 2 * j) * n + 2
    return f_func(FSpec(n, j, a), he(W)).substitute(w.sign, w.q_exp).truncated(order)


def test_certified_n_value_equals_value_at_a_much_larger_n():
    for anum in (3, 5, 7):
        a = HalfInt(anum)
        for j in range(3):
            for mnum in range(-anum + 1, anum):
                if abs(mnum) + 2 * j >= anum:
                    continue  # outside the well-posed window
                for sign in (1, -1):
                    w = Monomial(sign, HalfInt(mnum))
                    for order in (he(37), he(48)):
                        got = [stabilized_f_value(j, a, w, order)]
                        if j == 0:
                            got.append(stabilized_h_value(a, w, order))
                        for val, n in got:
                            far = _value_at(2 * n + 8, j, a, w, order)
                            assert far.order == order
                            assert val.order == order
                            assert val.eq_upto(far).equal, (anum, j, mnum, sign, order, n)


def test_certified_n_is_sharp_for_m_zero():
    # slice 0 of H(n, a) at z = +-1 is [2n, n] and first misses a partition
    # at q^(n+1), so one n fewer than the certified one changes the value
    order = he(60)
    for anum in (3, 5, 7):
        a = HalfInt(anum)
        for sign in (1, -1):
            w = Monomial(sign, he(0))
            val, n = stabilized_h_value(a, w, order)
            assert n == 29
            assert not val.eq_upto(_value_at(n - 1, 0, a, w, order)).equal
            assert val.eq_upto(_value_at(n, 0, a, w, order)).equal


def test_batched_values_equal_the_one_sample_values():
    # one walk at the largest certified n runs as long as the lowest sample
    # needs; every value must still equal the one it has alone
    count = 0
    for anum in range(1, 10):
        a = HalfInt(anum)
        for j in range(3):
            ws = [
                Monomial(sign, HalfInt(mnum))
                for mnum in range(-anum + 1, anum)
                if abs(mnum) + 2 * j < anum
                for sign in (1, -1)
            ]
            for order in (he(37), qe(20), he(81), he(161)):
                got = _stabilized_values(j, a, ws, order)
                want = [stabilized_f_value(j, a, w, order) for w in ws]
                if j == 0:
                    assert want == [stabilized_h_value(a, w, order) for w in ws]
                assert got == want, (anum, j, order)
                count += len(ws)
    assert count == 1240


def test_stabilized_frames_match_the_naive_values_at_each_certified_n():
    # one walk at the batch's largest certified n keeps an even-t and an
    # odd-t frame per |m|, which F's shifted arguments and both signs of
    # +-m share; each value must be the naive sum_i C(j, i) H(n, a)(w_i) at
    # its own, smaller or equal, certified n
    count = mixed = 0
    for anum in (3, 5, 8):
        a = HalfInt(anum)
        for j in range(3):
            ws = [
                Monomial(sign, HalfInt(mnum))
                for mnum in range(-anum + 1, anum)
                if abs(mnum) + 2 * j < anum
                for sign in (1, -1)
            ]
            for hi in (1, 24, 37):
                got = _stabilized_values(j, a, ws, he(hi))
                for (val, n), w in zip(got, ws):
                    want = [0] * hi
                    for i in range(j + 1):
                        ref = n_hpoly_at(n, anum, w.sign, w.q_exp.num + 2 * (j - 2 * i), hi)
                        want = [x + binom(j, i) * ref.coeff(e) for e, x in enumerate(want)]
                    assert val == QSeries(0, want, hi), (anum, j, w, hi, n)
                    count += 1
                mixed += len({n for _, n in got}) > 1
    assert count == 3 * (12 + 30 + 66)
    assert mixed == 6  # the batches at q^12 whose samples' certified n differ


def test_stabilized_values_keep_one_frame_per_absolute_exponent(monkeypatch):
    # F_LIMIT's shifted arguments +-m of all samples share the frames of
    # |m|: the spy reads the frames the walk fills from the caller's locals
    import sys

    import qident.hfamily as hfamily

    seen = []
    column = hfamily._h_column

    def h_column(*args):
        for item in column(*args):
            seen.append(sorted(sys._getframe(1).f_locals["frames"]))
            yield item

    monkeypatch.setattr(hfamily, "_h_column", h_column)
    assert verify(make_case("F_LIMIT", j=2, a="9/2", order=30)).status == "pass"
    # its samples are +-q^(m/2), m = 0..3, at the arguments m + 4, m, m - 4
    assert len({m + 2 * (2 - 2 * i) for m in range(4) for i in range(3)}) == 12
    assert seen and all(keys == list(range(8)) for keys in seen)


def test_an_empty_batch_is_no_walk(monkeypatch):
    import qident.hfamily as hfamily

    monkeypatch.setattr(hfamily, "_h_column", lambda *a: pytest.fail("walked"))
    assert _stabilized_values(1, he(7), [], qe(20)) == []


def test_lowest_h_exponent_is_the_clamped_vertex():
    # qobjects._quad_min against a scan of 0 <= t (<= n): H's weights A = 1..7,
    # and the multisum's index weight A = 2 at its linear exponents -40..11
    grid = [(A, m) for A in range(1, 8) for m in range(-12, 13)] + [(2, m) for m in range(-40, 12)]
    for A, m in grid:
        for n in [None, *range(12)]:
            top = 60 if n is None else n
            assert _quad_min(A, m, n) == min(A * t * t + m * t for t in range(top + 1)), (A, m, n)


def test_stabilized_values_build_no_laurent_polynomial(monkeypatch):
    # the limit values are one binomial-column walk into a frame: no H or F
    # is built as a polynomial in z and then substituted
    import qident.zpoly as zpoly

    calls = []
    for name in ("f_func", "h_poly"):
        real = getattr(zpoly, name)
        monkeypatch.setattr(zpoly, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    init = ZLaurent.__init__
    monkeypatch.setattr(ZLaurent, "__init__", lambda self, *a, **k: calls.append("ZLaurent") or init(self, *a, **k))
    for j in range(3):
        val, _ = stabilized_f_value(j, he(9), Monomial(-1, he(1)), he(40))
        assert val.order == he(40)
    stabilized_h_value(he(3), Monomial(1, he(-1)), he(40))
    assert calls == []
    zpoly.h_poly(HSpec(1, he(3)), he(8))  # the counters are live: h_poly calls f_func
    assert {"f_func", "h_poly", "ZLaurent"} <= set(calls)


def test_stabilized_values_reject_ill_posed_arguments():
    with pytest.raises(IllPosedError):
        stabilized_h_value(he(3), Monomial(-1, he(3)), he(24))  # |m| = a
    with pytest.raises(IllPosedError):
        stabilized_f_value(1, qe(1), Monomial(-1, he(0)), he(24))  # |m| + j = a
    with pytest.raises(IllPosedError):
        stabilized_h_value(he(3), Monomial(-1, he(0)), INF)


def test_stabilized_f_value_runs_and_truncates():
    val, n_used = stabilized_f_value(1, he(7), Monomial(-1, he(1)), he(24))
    assert val.order == he(24)
    assert n_used >= 1


def test_stabilization_limit_identities_small():
    a = he(3)
    z = Monomial(1, he(1))
    order = he(24)
    val, _ = stabilized_h_value(a, Monomial(-z.sign, z.q_exp), order)
    prod = h_limit_product(a, z, order)
    assert val.eq_upto(prod).equal

    valf, _ = stabilized_f_value(1, he(7), Monomial(-1, he(0)), order)
    sumf = f_limit_sum(1, he(7), Monomial(1, he(0)), order)
    assert valf.eq_upto(sumf).equal


def test_spec_validation():
    with pytest.raises(SpecError):
        HSpec(-1, he(1))
    with pytest.raises(SpecError):
        FSpec(1, -1, he(1))
    assert HSpec(1, 2).a == qe(2)  # plain int weights are whole exponents
