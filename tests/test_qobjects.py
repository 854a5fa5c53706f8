"""q-binomials, Pochhammer products, and the classical partition series."""

import re
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident import (
    INF,
    HalfInt,
    IllPosedError,
    Monomial,
    QSeries,
    SpecError,
    SummandSpec,
    ZLaurent,
    binom,
    euler_series,
    eval_multisum,
    partition_series,
    poch_finite,
    poch_finite_scalar,
    poch_infinite,
    qbinom_poly,
    stabilized_h_value,
    theta_triple_sum,
    he,
    qe,
)
from qident.qobjects import _h_column, _prefix_add, _qbinom_column, _two_term
from qident.zpoly import _inv_poch_ladder, _poch_rows
from naive import n_poch_finite, n_poch_infinite, n_poch_z, n_qbinom


def test_binom_values_and_edges():
    assert binom(5, 2) == 10
    assert binom(5, 0) == 1
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0
    with pytest.raises(SpecError):
        binom(-1, 0)


@pytest.mark.parametrize(
    "call, detail",
    [
        (lambda: theta_triple_sum(Monomial(1, qe(1)), qe(0), qe(10)), "modulus exponent must be positive"),
        (lambda: theta_triple_sum(Monomial(1, qe(1)), qe(3), INF), "needs a finite truncation order"),
        (lambda: poch_infinite(Monomial(1, qe(1)), qe(1), INF), "needs a finite truncation order"),
        (lambda: poch_infinite(Monomial(1, qe(1)), qe(0), qe(10)), "base exponent must be positive"),
        (lambda: partition_series(INF), "needs a finite truncation order"),
        (lambda: eval_multisum(SummandSpec(1, (0,)), INF), "needs a finite truncation order"),
        (lambda: stabilized_h_value(he(0), Monomial(1, qe(0)), qe(10)), "needs a > 0"),
    ],
    ids=["theta-modulus", "theta-inf", "poch_infinite-inf", "poch_infinite-base", "partition_series-inf",
         "eval_multisum-inf", "stabilized_h_value-a"],
)
def test_engines_refuse_an_ill_posed_request(call, detail):
    with pytest.raises(IllPosedError, match=detail):
        call()


def test_malformed_exponents_are_spec_errors_as_in_every_pochhammer():
    # a bool, a float or a string is a malformed argument, not an ill-posed
    # modulus; a whole or half modulus <= 0 stays ill posed
    arg = Monomial(1, qe(1))
    for bad in (True, False, 1.5, "3"):
        for call in (lambda: theta_triple_sum(arg, bad, qe(10)), lambda: poch_finite(arg, 2, bad, qe(10)),
                     lambda: poch_infinite(arg, bad, qe(10))):
            with pytest.raises(SpecError, match=f"bad (modulus|base) exponent {re.escape(repr(bad))}"):
                call()
    for modulus in (0, -1, he(-1)):
        with pytest.raises(IllPosedError, match="modulus exponent must be positive"):
            theta_triple_sum(arg, modulus, qe(10))


def test_qbinom_poly_small():
    # [4, 2]_q = 1 + q + 2q^2 + q^3 + q^4
    assert qbinom_poly(4, 2) == [1, 1, 2, 1, 1]
    assert qbinom_poly(3, 0) == [1]
    assert qbinom_poly(3, 5) == []


def test_qbinom_poly_symmetry_and_sum():
    for n in range(9):
        for k in range(n + 1):
            p = qbinom_poly(n, k)
            assert p == qbinom_poly(n, n - k)
            assert sum(p) == binom(n, k)


def test_qbinom_poly_walks_a_deep_column_without_recursion():
    # [1500, 3] has degree 3 * 1497; a memoised q-Pascal recursion runs out of stack here
    p = qbinom_poly(1500, 3)
    assert len(p) == 4492
    assert p == p[::-1]
    assert sum(p) == binom(1500, 3)


def test_qbinom_two_routes_agree():
    for n in range(8):
        for k in range(n + 2):
            exact = qbinom_poly(n, k)
            naive = n_qbinom(n, k, 40)
            for i in range(20):
                want = exact[i] if i < len(exact) else 0
                assert naive.coeff(2 * i) == want


_LISTS = st.lists(st.integers(-9, 9), max_size=60)


@given(_LISTS)
def test_prefix_add_matches_the_naive_recurrence(c):
    # steps below and above sqrt(len) take the residue and the block regime
    for step in range(1, len(c) + 3):
        want = list(c)
        for i in range(step, len(want)):
            want[i] += want[i - step]
        assert _prefix_add(list(c), step) == want, step


@given(_LISTS)
def test_two_term_matches_a_copying_loop(c):
    n = len(c)
    for sign in (1, -1):
        for e in range(-n, n + 1):
            # reads the original list; a negative e leaves the top -e slots as they were
            want = [c[i] + sign * c[i - e] if 0 <= i - e < n else c[i] for i in range(n)]
            assert _two_term(list(c), sign, e) == want, (sign, e)


def test_poch_finite_scalar_vs_naive(rng):
    for _ in range(15):
        sign = rng.choice((1, -1))
        qnum = rng.randint(1, 5)
        n = rng.randint(0, 6)
        base = rng.choice((qe(1), qe(2)))
        mine = poch_finite_scalar(Monomial(sign, he(qnum)), n, base_exp=base, order=he(30))
        ref = n_poch_finite(sign, qnum, n, base.num, 30)
        for e in range(30):
            assert mine.coefficient(he(e)) == ref.coeff(e)


def test_poch_finite_z_substitution(rng):
    # (z q; q)_n, the factors (1, 1, 2 + 2i), with z set to a monomial equals the scalar product directly
    W = 60
    for _ in range(10):
        n = rng.randint(0, 5)
        sign = rng.choice((1, -1))
        m = HalfInt(rng.randint(-2, 3))
        got = _poch_rows([(1, 1, 2 + 2 * i) for i in range(n)], INF).substitute(sign, m)
        want = n_poch_finite(sign, 2 + m.num, n, 2, W)
        assert got.order is INF
        assert [got.coefficient(he(e)) for e in range(W)] == want.coeffs


@pytest.mark.parametrize("order", [INF, he(1), he(7), qe(15)])
def test_poch_finite_matches_the_naive_expansion(order):
    # (sign z^z q^(qnum/2); q^(basenum/2))_n as the factors (sign, z, qnum + i basenum),
    # slice by slice against a dict expansion, (1; q)_n = 0 among them: known
    # below order + lo, lo the sum of the negative exponents, and nothing below lo
    for sign, z, qnum, basenum, n in product((1, -1), range(-2, 3), range(-3, 5), (1, 2, 3), range(6)):
        got = _poch_rows([(sign, z, qnum + i * basenum) for i in range(n)], order)
        if z == 0:
            assert poch_finite(Monomial(sign, he(qnum)), n, he(basenum), order) == got.slice(0)
        want = n_poch_z(sign, z, qnum, n, basenum)
        if not want:
            # some factor is 1 - q^0
            assert got == ZLaurent.zero() and (sign, z) == (1, 0) and 0 in range(qnum, qnum + n * basenum, basenum)
            continue
        lo = sum(min(qnum + i * basenum, 0) for i in range(n))
        assert got.order == (INF if order is INF else order + he(lo))
        hi = max(e for _, e in want) + 1 if order is INF else got.order.num
        for k in range(min(z * n, 0) - 1, max(z * n, 0) + 2):
            s = got.slice(k)
            assert [s.coefficient(he(e)) for e in range(lo - 2, hi)] == [
                want.get((k, e), 0) for e in range(lo - 2, hi)
            ], (sign, z, qnum, basenum, n, k)


def test_pochhammer_products_multiply_no_series(monkeypatch):
    # every finite and infinite product is two-term passes on lists: no
    # series or Laurent polynomial is multiplied by another
    from qident.finite import _pochz_rising

    calls = []
    for cls in (QSeries, ZLaurent):
        real = cls.__mul__
        monkeypatch.setattr(cls, "__mul__", lambda a, b, _f=real, _c=cls: calls.append(_c.__name__) or _f(a, b))
    _poch_rows([(-1, 2, -1 + 3 * i) for i in range(5)], he(20))
    poch_finite(Monomial(-1, he(-1)), 5, he(3), he(20))
    poch_finite_scalar(Monomial(1, he(1)), 6, qe(1))
    poch_infinite(Monomial(-1, he(1)), he(3), qe(40))
    poch_infinite(Monomial(1, qe(2)), qe(2), qe(40))
    _pochz_rising(6, INF)
    _pochz_rising(6, qe(20))
    assert calls == []
    _pochz_rising(2, INF) * QSeries.one()  # the counters are live: one call per slice
    assert calls[0] == "ZLaurent" and set(calls[1:]) == {"QSeries"}


def test_poch_infinite_pentagonal_fast_path():
    # (q; q)_inf must agree with the naive term-by-term product
    W = 60
    mine = poch_infinite(Monomial(1, qe(1)), qe(1), he(W))
    ref = n_poch_infinite(1, 2, 2, W)
    for e in range(W):
        assert mine.coefficient(he(e)) == ref.coeff(e)


def test_theta_triple_sum_equals_the_brute_force_sum():
    # sum_s (-arg)^s q^(M s(s-1)/2) over |s| <= 200 at arg = +-q^(e/2), M =
    # 1/2 .. 12, |e| < 40: past |s| = 200 every exponent is above q^120.  The
    # orders at or below q^0 leave lists without s = 0, or with no term at all
    shapes = set()
    for mn in range(1, 25):
        for en in range(-39, 40, 3):
            exps = [(s, mn * (s * (s - 1) // 2) + en * s) for s in range(-200, 201)]
            for nnum in (-30, -1, 0, 1, 7, 40, 121, 240):
                below = [(s, e) for s, e in exps if e < nnum]
                shapes.add("empty" if not below else "s = 0" if any(s == 0 for s, _ in below) else "no s = 0")
                lo = min((e for _, e in below), default=nnum)
                for sign in (1, -1):
                    want = [0] * (nnum - lo)
                    for s, e in below:
                        want[e - lo] += (-sign) ** (s % 2)
                    got = theta_triple_sum(Monomial(sign, he(en)), he(mn), he(nnum))
                    assert got == QSeries(lo, want, nnum), (sign, en, mn, nnum)
    assert shapes == {"empty", "s = 0", "no s = 0"}


def test_poch_infinite_general_vs_naive(rng):
    for _ in range(8):
        sign = rng.choice((1, -1))
        qnum = rng.randint(1, 6)
        basenum = rng.choice((2, 4, 6))
        W = 40
        mine = poch_infinite(Monomial(sign, he(qnum)), he(basenum), he(W))
        ref = n_poch_infinite(sign, qnum, basenum, W)
        for e in range(W):
            assert mine.coefficient(he(e)) == ref.coeff(e)


def test_partition_series_counts():
    p = partition_series(qe(30))
    known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 10: 42, 20: 627, 29: 4565}
    for n, c in known.items():
        assert p.coefficient(qe(n)) == c


def test_euler_inverse_of_partitions():
    W = he(50)
    prod = euler_series(W) * partition_series(W)
    assert prod.eq_upto(QSeries.one()).equal


def test_partition_cache_keeps_one_deepest_entry(monkeypatch):
    import qident.qobjects as qo

    monkeypatch.setattr(qo, "_PARTITION_CACHE", {})
    cold = {order: partition_series(order) for order in (qe(40), he(81), he(1))}
    qo._PARTITION_CACHE.clear()
    deep = partition_series(qe(240))
    assert list(qo._PARTITION_CACHE) == [qe(240).num]
    for order, value in cold.items():
        assert partition_series(order) == value
    assert list(qo._PARTITION_CACHE) == [qe(240).num]
    assert partition_series(qe(240)) is deep
    partition_series(qe(300))
    assert list(qo._PARTITION_CACHE) == [qe(300).num]
    assert partition_series(qe(240)) == deep


def test_partition_series_walks_only_the_pentagonal_terms(monkeypatch):
    # 1/(q)_inf below q^N by the pentagonal recurrence: each slot reads only
    # the nonzero terms of (q)_inf below it, about 2 sqrt(2i/3) of them, so
    # the inverse makes about 128k multiplications at N = 2400 slots, and a
    # walk over every slot of (q)_inf would make N^2/2 = 2.88M
    import qident.qobjects as qo

    class Counted(int):
        def __mul__(self, other):
            calls[0] += 1
            return int(self) * other

    calls = [0]
    euler = qo.euler_series
    counted = lambda order: QSeries(0, [Counted(c) for c in euler(order)._coeffs], order.num)
    monkeypatch.setattr(qo, "_PARTITION_CACHE", {})
    monkeypatch.setattr(qo, "euler_series", counted)
    p = partition_series(qe(2400))
    assert 0 < calls[0] <= 3 * 2400**1.5
    assert (p.coefficient(qe(100)), p.coefficient(qe(200))) == (190569292, 3972999029388)


def test_h_column_anchors_match_the_column_and_the_naive_binomials(monkeypatch):
    # H's column is one walk, `_qbinom_column`, from two starts: the centre
    # [2n, n], which below q^L is 1/(q)_inf when L <= n + 1, and [2n, 0] = 1.
    # [2n, n - s] for s = 0..top against the naive binomials: the upward start
    # at every length L, the centre start (`_h_column` to the top) at every
    # L <= n + 1, and `_h_column` at every top on a spread of lengths on both
    # sides of n + 1; a spy on the walk's arguments pins the start rule
    import qident.qobjects as qo

    starts = []
    spy = lambda N, top, b, k0=0: starts.append((N, top, b, k0)) or _qbinom_column(N, top, b, k0)
    monkeypatch.setattr(qo, "_qbinom_column", spy)
    for n in range(41):
        deep = 2 * (2 * n + 4)
        want = [[n_qbinom(2 * n, k, deep).coeff(e) for e in range(deep)] for k in range(n + 1)]
        for L in range(1, 2 * n + 5):
            cols = [w[: 2 * L : 2] for w in want]
            # each walk to its top (a shorter one is a prefix)
            walks = [(n, _qbinom_column(2 * n, n, [1] + [0] * (L - 1)))]
            if L <= n + 1:
                walks.append((n, _h_column(n, n, L)))
            if L in {1, n // 2, n, n + 1, n + 2, (3 * n) // 2 + 1, 2 * n + 1, 2 * n + 4}:
                walks += [(t, _h_column(n, t, L)) for t in range(n + 1)]
            for top, walk in walks:
                # a value that is wrong drops its k from the list
                assert sorted(k for k, b in walk if b == cols[k]) == list(range(n - top, n + 1)), (n, L, top)
            # the centre start, [2n, n] below q^L, exactly when n + 1 >= L, at every top
            # (a start is read before its walk advances)
            for t in range(n + 1):
                starts.clear()
                _h_column(n, t, L)
                assert starts == [(2 * n, n + t, cols[n], n) if n + 1 >= L else (2 * n, n, [1] + [0] * (L - 1), 0)]
    assert list(_h_column(5, -1, 8)) == []


def test_monomial_helpers():
    z = Monomial(-1, he(3))
    assert z.inverted() == Monomial(-1, he(-3))
    w = Monomial(1, he(1))
    assert Monomial(w.sign, w.q_exp + qe(1)).q_exp == he(3)
    assert [str(x) for x in (z, w, Monomial(1, qe(0)), Monomial(-1, qe(-2)))] == ["-q^3/2", "q^1/2", "1", "-q^-2"]


def test_poch_validation():
    with pytest.raises(SpecError):
        poch_finite_scalar(Monomial(1, qe(1)), -1)
    # a +1-signed infinite product with exponent 0 has a vanishing factor
    with pytest.raises(Exception):
        poch_infinite(Monomial(1, qe(0)), qe(1), he(10))


def test_inverse_ladder_stops_at_its_last_rung_that_divides(monkeypatch):
    # below q^40 the factor 1 - q^d is 1 once d >= 40, so (2, 80)'s rung 1400
    # is rung 40, and rung 39 is the last one built: 39 prefix-add passes
    import qident.zpoly as zpoly

    passes = []
    monkeypatch.setattr(zpoly, "_prefix_add", lambda c, d: passes.append(d) or _prefix_add(c, d))
    rung = _inv_poch_ladder(2, 80)
    deep = rung(1400)
    assert deep == rung(40) == rung(39) == partition_series(qe(40))
    assert deep != rung(38)
    assert passes == [2 * d for d in range(1, 40)]
    rung(5000)
    assert len(passes) == 39  # the store stops growing
    # on q^2 below q^(81/2), rung 20 divides by 1 - q^40, the last factor below the order
    even = _inv_poch_ladder(4, 81)
    assert even(90) == even(20) != even(19)
