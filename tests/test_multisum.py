"""The pruned multisum engine against the unpruned dense oracle."""

import random
from functools import lru_cache
from itertools import accumulate

import pytest

from qident import (
    HalfInt,
    IllPosedError,
    Monomial,
    QSeries,
    SpecError,
    SummandSpec,
    SumStats,
    TailEven,
    TailOdd,
    TailOver,
    TailOverOdd,
    eval_multisum,
    make_case,
    verify,
    he,
    qe,
)
from qident.catalog import _POLICY_MS
from qident.multisum import (
    _chain,
    _chain_values,
    _close,
    _grid,
    _ratio,
    _tail_floor_num,
    eval_multisums,
    tail_min_num,
)
from qident.qobjects import _quad_min
from naive import brute_force_chains, brute_force_multisum


def _tail_pair(rng):
    """(engine tail, oracle descriptor) drawn from every supported kind."""
    kind = rng.choice(("odd", "even", "over", "over_odd"))
    if kind == "odd":
        return TailOdd(), ("odd",)
    if kind == "even":
        return TailEven(), ("even",)
    sign = rng.choice((1, -1))
    mnum = rng.randint(-2, 3)
    if kind == "over":
        return TailOver(Monomial(sign, HalfInt(mnum))), ("over", sign, mnum)
    kk = rng.randint(0, 2)
    return TailOverOdd(Monomial(sign, HalfInt(mnum - 2 * kk))), ("over_odd", sign, mnum, kk)


def random_spec(rng):
    k = rng.randint(1, 3)
    linear = tuple(rng.randint(-1, 2) for _ in range(k))
    placement = frozenset(i for i in range(1, k + 1) if rng.random() < 0.4)
    tail, descriptor = _tail_pair(rng)
    return SummandSpec(k, linear, placement=placement, tail=tail), descriptor


def test_engine_matches_brute_force_sample():
    rng = random.Random(4257)
    done = 0
    while done < 25:
        spec, descriptor = random_spec(rng)
        ordnum = rng.randint(6, 20)
        got = eval_multisum(spec, he(ordnum))
        want = brute_force_multisum(
            spec.k, spec.linear, spec.placement, descriptor, ordnum, cap=ordnum + 6
        )
        for e in range(ordnum):
            assert got.coefficient(he(e)) == want.coeff(e), (spec, descriptor, e)
        done += 1


def test_result_order_is_exactly_the_request():
    spec = SummandSpec(2, (0, 1))
    out = eval_multisum(spec, he(33))
    assert out.order == he(33)


def test_placement_on_first_index_is_a_linear_shift():
    # position 1 contributes only q^(-s_1), i.e. linear weight lowered by 1
    a = eval_multisum(SummandSpec(2, (1, 0), placement=frozenset({1})), qe(25))
    b = eval_multisum(SummandSpec(2, (0, 0)), qe(25))
    assert a.eq_upto(b).equal


def test_placement_pair_factor_differs_from_linear_shift():
    # for i >= 2 the pair factor (1 + q^(s_(i-1)+s_i)) is not a pure shift
    a = eval_multisum(SummandSpec(2, (1, 1), placement=frozenset({2})), qe(20))
    b = eval_multisum(SummandSpec(2, (1, 0)), qe(20))
    assert not a.eq_upto(b).equal


def test_stats_counting():
    stats = SumStats()
    eval_multisum(SummandSpec(2, (0, 0)), qe(20), stats)
    assert (stats.tuples, stats.nodes, stats.pruned) == (9, 12, 3)
    eval_multisum(SummandSpec(1, (0,)), qe(20), stats)
    assert (stats.tuples, stats.nodes, stats.pruned) == (14, 18, 4)  # stats accumulate across calls
    # a batch counts the cells of its one kernel: tails with the same minima
    # share the kernel of either alone
    stats = SumStats()
    eval_multisums([SummandSpec(2, (0, 0)), SummandSpec(2, (0, 0), tail=TailEven())], qe(20), stats)
    assert (stats.tuples, stats.nodes, stats.pruned) == (9, 12, 3)


def _frame_floor(spec):
    # eval_multisum's frame floor: each index at its least exponent, plus the tail's
    return _tail_floor_num(spec.tail) + sum(_quad_min(2, lam) for lam in spec.effective_linear_num())


def test_frame_floor_is_a_certified_lower_bound(monkeypatch):
    # every tuple's term starts at or above the floor, and the closing's frame
    # starts at min(0, floor); the tuples complete a random prefix
    import qident.multisum as ms

    rng = random.Random(99)
    frames = []
    monkeypatch.setattr(ms, "_close", lambda *args: frames.append(args[5]) or _close(*args))
    first_factor = SummandSpec(2, (-1, 0), placement={1}, tail=TailOverOdd(Monomial(1, he(3))))
    for i in range(41):
        spec, descriptor = random_spec(rng) if i < 40 else (first_factor, ("over_odd", 1, 3, 0))
        prefix_len, prefix, cap = rng.randint(1, spec.k), [], rng.randint(0, 6)
        for _ in range(prefix_len):
            prefix.append(cap)
            cap = rng.randint(0, cap)
        floor = _frame_floor(spec)
        for tup in _completions(tuple(prefix), spec.k, prefix[-1]):
            term = brute_force_single(spec, descriptor, tup, 200)
            assert next((e for e, c in term if c), floor) >= floor, (spec, tup)
        eval_multisum(spec, he(20))
        assert frames[-1] == min(0, floor), spec


def test_running_min_of_tail_minima_is_the_capped_floor():
    # eval_multisum builds its floor row as a running minimum of tail_min_num
    tails = [TailOdd(), TailEven()]
    for mnum in (-3, -1, 0, 2, 5):
        for sign in (1, -1):
            z = Monomial(sign, HalfInt(mnum))
            tails += [TailOver(z), TailOverOdd(z), TailOverOdd(Monomial(sign, HalfInt(mnum - 4)))]
    for tail in tails:
        row = list(accumulate((tail_min_num(tail, s) for s in range(40)), min))
        assert row[-1] == _tail_floor_num(tail), tail  # settled at the uncapped floor
        # the engine reads tail_min_num off the closing's ratios: their shifts below zero
        shifts = accumulate(sum(min(e, 0) for _, e in _ratio(tail, s)[0]) for s in range(40))
        assert list(shifts) == [tail_min_num(tail, s) for s in range(40)], tail


def test_overpartition_tail_minima_in_closed_form():
    # tail_min_num of TailOver and TailOverOdd against sums of
    # sum_{i<s} min(0, c + 2i), c in {m, 2 - m} with m the z exponent, and of
    # the offset closing factor at z q^(-off), exhaustively for |c|, s <= 30

    def summed(c, s):
        return sum(min(0, c + 2 * i) for i in range(s))

    for c in range(-30, 31):
        for s in range(31):
            z = Monomial(1, HalfInt(c))
            assert tail_min_num(TailOver(z), s) == summed(c, s) + summed(2 - c, s), (c, s)
            for off in (-2, 0, 1, 3):
                want = summed(2 * off + 2 - c, s + 1) + summed(c - 2 * off, s)
                assert tail_min_num(TailOverOdd(Monomial(1, HalfInt(c - 2 * off))), s) == want, (c, off, s)


def test_tail_floors_equal_brute_force_minima():
    # the tails' closed forms in eval_multisum's frame floor against the least
    # tail_min_num over s, far past where it stops falling; the index floors
    # are tests/test_hfamily.py::test_lowest_h_exponent_is_the_clamped_vertex
    for mnum in range(-9, 10):
        for sign in (1, -1):
            z = Monomial(sign, HalfInt(mnum))
            odd = [TailOverOdd(Monomial(sign, HalfInt(mnum - 2 * off))) for off in range(-2, 4)]
            for tail in [TailOver(z)] + odd:
                want = min(tail_min_num(tail, s) for s in range(60))
                assert _tail_floor_num(tail) == want, tail


def test_uncapped_over_odd_floor_counts_the_first_factor():
    # at s = 0 the (s+1)-term product already contributes q^(-1/2); a floor
    # that starts at 0 makes the working order and the first-index cap too small
    spec = SummandSpec(2, (-1, 0), placement={1}, tail=TailOverOdd(Monomial(1, he(3))))
    got = eval_multisum(spec, he(12))
    want = brute_force_multisum(2, (-1, 0), spec.placement, ("over_odd", 1, 3, 0), 12, cap=18)
    for e in range(12):
        assert got.coefficient(he(e)) == want.coeff(e), e
    assert got.coefficient(he(11)) == 109


def test_engine_matches_brute_force_k4_chained_placement():
    # placements at two or more positions >= 2 chain the engine's second
    # Horner sum across neighbouring levels
    rng = random.Random(2024)
    for placement in ({2, 3}, {2, 4}, {3, 4}, {1, 2, 4}, {2, 3, 4}):
        linear = tuple(rng.randint(-1, 2) for _ in range(4))
        tail, descriptor = _tail_pair(rng)
        spec = SummandSpec(4, linear, placement=frozenset(placement), tail=tail)
        got = eval_multisum(spec, he(30))
        want = brute_force_multisum(4, linear, spec.placement, descriptor, 30, cap=36)
        for e in range(30):
            assert got.coefficient(he(e)) == want.coeff(e), (spec, descriptor, e)


def test_engine_refuses_a_tail_known_below_the_needed_order(monkeypatch):
    # a floor that ignores negative tail exponents leaves the working order
    # short; the engine must raise instead of returning wrong coefficients
    import qident.multisum as ms

    monkeypatch.setattr(ms, "_tail_floor_num", lambda tail: 0)
    spec = SummandSpec(1, (0,), tail=TailOverOdd(Monomial(1, he(3))))
    with pytest.raises(IllPosedError):
        eval_multisum(spec, he(12))
    assert verify(make_case("CURIOUS", order=qe(20))).status == "error"


def _completions(prefix, k, cap):
    if len(prefix) == k:
        yield prefix
        return
    from naive import iter_weakly_decreasing

    for rest in iter_weakly_decreasing(k - len(prefix), cap):
        yield prefix + rest


def brute_force_single(spec, descriptor, tup, ordnum):
    """(exponent numerator, coefficient) pairs of one tuple's full term."""
    from naive import NaiveSeries, n_poch_finite

    W = ordnum
    expnum = sum(2 * s * s + 2 * l * s for s, l in zip(tup, spec.linear))
    term = NaiveSeries.monomial(1, expnum, W)
    for pos in sorted(spec.placement):
        s_here = tup[pos - 1]
        term = term.mul(NaiveSeries.monomial(1, -2 * s_here, W))
        if pos >= 2:
            term = term.mul(
                NaiveSeries.monomial(1, 0, W).add(
                    NaiveSeries.monomial(1, 2 * (tup[pos - 2] + s_here), W)
                )
            )
    for i in range(spec.k - 1):
        term = term.mul(n_poch_finite(1, 2, tup[i] - tup[i + 1], 2, W).inv())
    term = term.mul(naive_tail(descriptor, tup[-1], W))
    return [(term.offset + i, c) for i, c in enumerate(term.coeffs)]


@lru_cache(maxsize=None)
def _naive_inv_poch(unit, d, W):
    from naive import n_poch_finite

    return n_poch_finite(1, unit, d, unit, W).inv()


def naive_tail(descriptor, s, W):
    """The tail's value at s from the naive finite products, below q^(W/2)
    plus the tail's own negative exponents."""
    from naive import n_poch_finite

    kind = descriptor[0]
    if kind == "odd":
        return _naive_inv_poch(2, s, W)
    if kind == "even":
        return _naive_inv_poch(4, s, W)
    if kind == "over":
        _, sign, mnum = descriptor
        num = n_poch_finite(-sign, mnum, s, 2, W).mul(n_poch_finite(-sign, 2 - mnum, s, 2, W))
        return num.mul(_naive_inv_poch(2, 2 * s, W))
    _, sign, mnum, kk = descriptor
    num = n_poch_finite(-sign, 2 * kk + 2 - mnum, s + 1, 2, W)
    num = num.mul(n_poch_finite(-sign, mnum - 2 * kk, s, 2, W))
    return num.mul(_naive_inv_poch(2, 2 * s + 1, W))


def _frame(tail, base, nnum):
    """Slots of the closing's frame [base, N - _tail_floor_num(tail)) on the tail's grid."""
    return -(-(nnum - _tail_floor_num(tail) - base) // _grid(tail))


@pytest.mark.parametrize("wnum", (80, 81))
def test_tail_values_match_the_naive_oracle(wnum):
    # every tail kind at s <= 30, both signs of every sampled z exponent:
    # the closing of the unit kernel K(t) = [t == s] is T(s), right below W
    # from the frame's floor up, on the whole-q grid (g = 2) when its
    # exponents are all whole
    tails = [(TailOdd(), ("odd",)), (TailEven(), ("even",))]
    for sign in (1, -1):
        for m in _POLICY_MS:
            z = Monomial(sign, he(m))
            tails.append((TailOver(z), ("over", sign, m)))
            tails.append((TailOverOdd(Monomial(sign, he(m - 2))), ("over_odd", sign, m, 1)))
    grids = set()
    for tail, descriptor in tails:
        lo = min(0, _tail_floor_num(tail))
        ratio = [_ratio(tail, t) for t in range(31)]
        tm = [tail_min_num(tail, t) for t in range(31)]
        low = list(accumulate(tm, min))
        for s in range(31):
            unit = (0, [1] + [0] * ((wnum - low[s]) // 2))
            got = _close(tail, ratio, tm, [None] * s + [unit], low, lo, _tail_floor_num(tail), wnum)
            want = naive_tail(descriptor, s, wnum + 40)
            assert got.order == he(wnum), (tail, s)
            assert [got.coefficient(he(e)) for e in range(lo, wnum)] == [want.coeff(e) for e in range(lo, wnum)], (tail, s)
            assert want.offset >= lo or not any(want.coeffs[: lo - want.offset]), (tail, s)
        grids.add(_grid(tail))
    assert grids == {1, 2}


def _oracle_tails():
    """(tail, oracle descriptor) for every kind, both signs of every sampled z exponent."""
    tails = [(TailOdd(), ("odd",)), (TailEven(), ("even",))]
    for sign in (1, -1):
        for m in _POLICY_MS:
            z = Monomial(sign, he(m))
            tails.append((TailOver(z), ("over", sign, m)))
            for offset in (-1, 0, 1):
                tails.append((TailOverOdd(Monomial(sign, he(m - 2 * offset))), ("over_odd", sign, m, offset)))
    return tails


def _naive_closing(descriptor, kernel, low, nnum):
    """sum_t K(t) T(t) below nnum from the naive tails, K(t) = (x0, whole-q list)
    or None, known below nnum - low[t], the slots past the list's end zero."""
    from naive import NaiveSeries

    acc = NaiveSeries.zero(nnum)
    for t, cell in enumerate(kernel):
        if cell is not None:
            x0, c = cell
            width = (nnum - low[t] - x0 + 1) // 2
            c = c + [0] * (width - len(c))
            k = NaiveSeries(x0, [v for x in c for v in (x, 0)], x0 + 2 * len(c))
            acc = acc.add(k.mul(naive_tail(descriptor, t, nnum + 60)).truncate(nnum))
    return acc


def test_capped_tail_values_match_the_naive_oracle(monkeypatch):
    # every closing eval_multisum runs equals sum_t K(t) T(t) over the kernel
    # it was handed, T from the naive products, below N and down to the
    # frame's floor: on both grids, with base = 0 and with base < 0 (a
    # stale-slot margin), at a whole and a half-integer order; and some
    # pass runs on a list well short of the frame, as the accumulator is
    # held only from its floor up
    import qident.multisum as ms

    seen, lengths = [], []
    monkeypatch.setattr(ms, "_close", lambda *args: seen.append((args, _close(*args))) or seen[-1][1])
    real = ms._two_term
    monkeypatch.setattr(ms, "_two_term", lambda c, *a: lengths.append(len(c)) or real(c, *a))
    shapes = [(2, (0, 1), {2}), (2, (-1, 0), {1}), (1, (-1,), ())]
    grids = set()
    for n, (tail, descriptor) in enumerate(_oracle_tails()):
        k, linear, placement = shapes[n % len(shapes)]
        seen.clear()
        lengths.clear()
        eval_multisum(SummandSpec(k, linear, placement=frozenset(placement), tail=tail), he(60 + n % 2))
        ((_, _, _, kernel, low, base, _, nnum), got), = seen
        want = _naive_closing(descriptor, kernel, low, nnum)
        assert [got.coefficient(he(e)) for e in range(base, nnum)] == [want.coeff(e) for e in range(base, nnum)], tail
        assert want.offset >= base or not any(want.coeffs[: base - want.offset]), tail
        grids.add((type(tail).__name__, _grid(tail), base < 0))
        if lengths:
            assert min(lengths) < _frame(tail, base, nnum) // 2, tail
    assert {g for _, g, _ in grids} == {1, 2} and any(neg for *_, neg in grids)


def test_tail_passes_run_no_longer_than_their_reach(monkeypatch):
    # CURIOUS at q^120 (TailOver and TailOverOdd) and COR_INFTY (TailOver at -1/z):
    # every pass of a closing runs on a list no longer than the closing's
    # frame, and the short ones on a small part of it
    import qident.multisum as ms

    passes, closing = [], []

    def close(*args):
        tail, base, nnum = args[0], args[5], args[7]
        closing.append(_frame(tail, base, nnum))
        try:
            return _close(*args)
        finally:
            closing.pop()

    def spy(fn):
        return lambda c, *args: (closing and passes.append((len(c), closing[-1]))) or fn(c, *args)

    monkeypatch.setattr(ms, "_close", close)
    for name in ("_prefix_add", "_two_term"):
        monkeypatch.setattr(ms, name, spy(getattr(ms, name)))
    for case in (make_case("CURIOUS", order=qe(120)), make_case("COR_INFTY", order=qe(60), k=1)):
        passes.clear()
        assert verify(case).status == "pass"
        assert passes and all(n <= full for n, full in passes), case
        assert min(n for n, _ in passes) < max(full for _, full in passes) // 4, case


def _descriptor(tail):
    if isinstance(tail, TailOdd):
        return ("odd",)
    if isinstance(tail, TailOver):
        return ("over", tail.z.sign, tail.z.q_exp.num)
    return ("over_odd", tail.z.sign, tail.z.q_exp.num, 0)


@pytest.mark.parametrize("ordnum", (16, 17))
def test_batches_match_the_brute_force_on_every_z_row(ordnum):
    # each z row's batch, one spec per z sample, and CURIOUS's two batches:
    # at the default samples and at one explicit z, with every placement of
    # j <= 1 at k <= 1, against the unpruned brute force per spec
    from qident import catalog, sums

    batches = []
    for id in ("OVER_1", "OVER_2", "OVER_3", "COR_INFTY", "CURIOUS"):
        entry, row = catalog._REGISTRY[id], sums._SUM_ROWS.get(id, sums._SUM_ROWS["OVER_2"])
        grid = [{}] if id == "CURIOUS" else [{"k": k} for k in (0, 1)]
        if id in ("OVER_1", "OVER_2"):
            grid = [dict(g, j=0) for g in grid] + [{"k": 1, "j": 1, "placement": [i]} for i in (1, 2)]
            grid = grid[:3] if id == "OVER_2" else grid
            grid[2].pop("placement") if id == "OVER_2" else None
        for params in grid:
            for z in ({}, {"z_sign": "-", "z_exp": "1/2"}):
                p = entry.prepare(dict(params, **z))
                zs = catalog._z_samples(p["z"], row.window(p))
                batches.append([row.summand(p, z) for z in zs])
                if id == "CURIOUS":
                    odd = sums._SUM_ROWS["OVER_3"]
                    batches.append([odd.summand(p, z.inverted()) for z in zs])
    # and tails whose floors lie far apart: the batch caps its first index
    # at the lowest
    far = (TailOdd(), TailOver(Monomial(-1, he(-10))), TailOverOdd(Monomial(1, he(5))))
    batches.append([SummandSpec(1, (0,), tail=tail) for tail in far])
    for specs in batches:
        for spec, got in zip(specs, eval_multisums(specs, he(ordnum))):
            want = brute_force_multisum(spec.k, spec.linear, spec.placement, _descriptor(spec.tail), ordnum, cap=10)
            assert got.order == he(ordnum)
            assert [got.coefficient(he(e)) for e in range(ordnum)] == [want.coeff(e) for e in range(ordnum)], spec


def test_the_kernel_is_built_once_per_batch(monkeypatch):
    # twelve tails whose minima are all zero share the kernel of any one of
    # them: the passes outside the closings are the same for 1 sample and 12;
    # and each tail's floor is computed once per batch
    import qident.multisum as ms

    count, closing = {"kernel": 0, "closings": 0, "floors": 0}, []

    def close(*args):
        closing.append(1)
        count["closings"] += 1
        try:
            return _close(*args)
        finally:
            closing.pop()

    def prefix_add(c, d):
        count["kernel"] += not closing
        return real(c, d)

    def tail_floor_num(tail):
        count["floors"] += 1
        return _tail_floor_num(tail)

    real = ms._prefix_add
    monkeypatch.setattr(ms, "_close", close)
    monkeypatch.setattr(ms, "_prefix_add", prefix_add)
    monkeypatch.setattr(ms, "_tail_floor_num", tail_floor_num)
    z = [Monomial(sign, he(m)) for m in (0, 1, 2) for sign in (1, -1)]
    tails = [TailOver(w) for w in z] + [TailOverOdd(w) for w in z]
    assert all(tail_min_num(tail, s) == 0 for tail in tails for s in range(20))
    runs = []
    for batch in (tails[:1], tails):
        count.update(kernel=0, closings=0, floors=0)
        stats = SumStats()
        sums = eval_multisums([SummandSpec(3, (0, 1, 0), placement={2}, tail=tail) for tail in batch], qe(40), stats)
        runs.append((count["kernel"], count["closings"], count["floors"], stats, sums[0]))
    (one, c1, f1, s1, v1), (twelve, c12, f12, s12, v12) = runs
    assert one == twelve > 0 and (c1, c12) == (1, 12) and s1 == s12 and v1 == v12
    assert (f1, f12) == (1, 12)


def test_tails_multiply_no_series_and_build_no_gaussian_polynomial(monkeypatch):
    import qident.qobjects as qo

    calls = []
    mul, qbinom_poly = QSeries.__mul__, qo.qbinom_poly
    monkeypatch.setattr(QSeries, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    monkeypatch.setattr(qo, "qbinom_poly", lambda n, k: calls.append("qbinom") or qbinom_poly(n, k))
    z = Monomial(-1, he(1))
    for tail in (TailOdd(), TailEven(), TailOver(z), TailOverOdd(Monomial(-1, he(-1)))):
        eval_multisum(SummandSpec(2, (0, 1), placement=frozenset({2}), tail=tail), qe(40))
        assert calls == [], tail
    monkeypatch.setattr(QSeries, "__mul__", mul)
    assert verify(make_case("COR_INFTY", order=qe(120), k=1)).status == "pass"
    assert "qbinom" not in calls


def test_spec_validation():
    with pytest.raises(SpecError):
        SummandSpec(0, ())
    with pytest.raises(SpecError):
        SummandSpec(2, (1,))  # wrong arity
    with pytest.raises(SpecError):
        SummandSpec(2, (he(1), 0))  # linear weights are plain ints
    with pytest.raises(SpecError):
        SummandSpec(2, (0, 0), placement=frozenset({0}))
    with pytest.raises(SpecError):
        SummandSpec(2, (0, 0), placement=frozenset({3}))
    with pytest.raises(SpecError, match="unknown tail 1"):
        SummandSpec(1, (0,), tail=1)  # refused when built, not when summed


def test_a_batch_must_differ_only_in_its_tails():
    # a batch shares one kernel, so its specs must agree in k, the linear
    # weights and the placement; tails may differ
    base = SummandSpec(2, (0, 1), placement={2})
    tail = base._replace(tail=TailEven())
    assert len(eval_multisums([base, tail], qe(20))) == 2
    for other in (SummandSpec(3, (0, 1, 0), placement={2}), SummandSpec(2, (0, 0), placement={2}),
                  SummandSpec(2, (0, 1), placement={1}), SummandSpec(2, (0, 1)), base._replace(placement=frozenset())):
        for batch in ([base, other], [tail, other._replace(tail=TailEven())]):
            with pytest.raises(SpecError, match="differ only in their tails"):
                eval_multisums(batch, qe(20))


def test_an_empty_batch_is_an_empty_list():
    # zero specs differ in nothing, as an empty product batch does; the order
    # is still checked
    from qident.products import _product_sums

    assert eval_multisums([], qe(10)) == [] == _product_sums([], qe(10))
    with pytest.raises(IllPosedError, match="finite truncation order"):
        eval_multisums([], None)


def test_first_index_cap_is_the_stepping_loop_in_closed_form():
    # the cap was found by stepping s up while 2 s^2 + lam s was still
    # falling or, plus the rest floor, still below the order; orders at or
    # below the sum's floor (never a positive one) leave only the first rule
    from qident.multisum import _first_cap

    for lam in range(-40, 12):
        for rest in range(-60, 1, 3):
            for nnum in range(-265, 200, 7):
                top = 0
                while 2 * top * top + lam * top + rest < nnum or 4 * top + 2 + lam < 0:
                    top += 1
                assert _first_cap(lam, rest, nnum) == top, (lam, rest, nnum)


def test_engine_matches_brute_force_on_both_grids():
    # every tail kind, each z exponent of both parities and signs: TailOver
    # and TailOverOdd are whole-q (g = 2) for even m, TailOdd and TailEven
    # always; the shapes rotate through placements at
    # positions 1 and >= 2
    from qident.multisum import _grid

    shapes = [
        (1, (0,), ()),
        (2, (0, 1), (2,)),
        (2, (-1, 0), (1,)),
        (3, (1, 0, 1), (1, 3)),
        (3, (0, 1, 0), (2, 3)),
    ]
    tails = [(TailOdd(), ("odd",)), (TailEven(), ("even",))]
    for m in (-2, -1, 0, 1, 2, 3):
        for sign in (1, -1):
            z = Monomial(sign, he(m))
            tails.append((TailOver(z), ("over", sign, m)))
            tails.append((TailOverOdd(Monomial(sign, he(m - 2))), ("over_odd", sign, m, 1)))
    grids = set()
    for n, (tail, descriptor) in enumerate(tails):
        k, linear, placement = shapes[n % len(shapes)]
        ordnum = 21 + n % 2  # both a whole and a half-integer order
        spec = SummandSpec(k, linear, placement=frozenset(placement), tail=tail)
        got = eval_multisum(spec, he(ordnum))
        want = brute_force_multisum(k, linear, spec.placement, descriptor, ordnum, cap=ordnum + 6)
        assert got.order == he(ordnum)
        for e in range(ordnum):
            assert got.coefficient(he(e)) == want.coeff(e), (spec, descriptor, e)
        grids.add((type(tail).__name__, _grid(tail)))
    kinds = {"TailOver", "TailOverOdd"}
    assert {(kind, g) for kind in kinds for g in (1, 2)} | {("TailOdd", 2), ("TailEven", 2)} == grids


def _pass_lengths(monkeypatch, spec, order):
    """Lengths of the lists every pass of eval_multisum runs on."""
    import qident.multisum as ms

    lengths = []
    for name in ("_prefix_add", "_two_term"):
        real = getattr(ms, name)
        monkeypatch.setattr(
            ms, name, lambda c, *args, _real=real: lengths.append(len(c)) or _real(c, *args)
        )
    eval_multisum(spec, order)
    monkeypatch.undo()
    return lengths


def test_whole_q_sums_run_their_passes_on_half_the_frame(monkeypatch):
    # AG k=3 is whole-q, so its kernel and closing run at spacing 2:
    # no pass touches a list longer than half the frame [lo, N); an OVER_1
    # sample at the odd z exponent 1 is mixed, and its closing runs on the
    # half grid, longer than that
    from qident.sums import _SUM_ROWS

    order = qe(40)
    ag = _SUM_ROWS["AG"].summand({"k": 3, "r": 0, "j": 0, "placement": None}, None)
    p = {"k": 1, "r": 0, "j": 1, "placement": frozenset({1})}
    over = _SUM_ROWS["OVER_1"].summand(p, Monomial(1, he(1)))
    for spec in (ag, over):
        assert _frame_floor(spec) == 0  # lo = 0: the frame is [0, N)
    lengths = _pass_lengths(monkeypatch, ag, order)
    assert lengths and max(lengths) <= order.num // 2
    lengths = _pass_lengths(monkeypatch, over, order)
    assert max(lengths) > order.num // 2


@pytest.mark.parametrize("nnum", (30, 31))
def test_chain_values_match_the_brute_force_chains(nnum):
    # the kernel from its bounded start s_0 = n, which the finite-n expansions
    # and ANDREWS_ANSWER run on, against every chain summed with naive series:
    # unplaced and placed levels (a placed first level pairs with n), linear
    # weights -1..1, and last-level floors below zero, above it, and past the
    # order (ANDREWS_ANSWER's, which skip every cell but K(0))
    rng = random.Random(nnum)
    floors = set()
    for d in (1, 2, 3):
        every = frozenset(range(1, d + 1))
        for n in range(7):
            for linear, placement, low in (
                ((0,) * d, rng.choice((every, frozenset())), [rng.randint(-4, 0) for _ in range(n + 1)]),
                (
                    tuple(rng.randint(-1, 1) for _ in range(d)),
                    frozenset(i for i in every if rng.random() < 0.5),
                    [rng.randint(-4, 3) for _ in range(n + 1)],
                ),
                (tuple(rng.randint(0, 1) for _ in range(d)), frozenset(), [0] + [nnum] * n),
            ):
                stats = SumStats()
                got = _chain_values(SummandSpec(d, linear, placement), n, low, nnum, stats)
                want = brute_force_chains(n, linear, placement, nnum - min(low))
                assert stats.nodes == d * (n + 1) and stats.pruned + stats.tuples == stats.nodes
                for s, (g, w, floor) in enumerate(zip(got, want, low)):
                    floors.add(min(max(floor, -1), 1))
                    hi = nnum - floor
                    assert g.order == HalfInt(hi)
                    assert g.is_zero or g.min_exp >= he(-12)
                    window = range(-12, hi)
                    assert [g.coefficient(he(e)) for e in window] == [w.coeff(e) for e in window], (d, n, s, linear)
    assert floors == {-1, 0, 1}


def test_a_chain_is_the_pair_weighted_sum_of_its_cells():
    # _chain on random cells at or above x, each list shorter than its window
    # (the slots past its end zero) or running past the width, one-slot
    # monomials among them and some starting past the width, with and
    # without the pair factor, equals sum_{s>=t} P(s, t) W(s) / (q; q)_{s-t},
    # P(s, t) = 1 + q^(s+t) when paired, in naive arithmetic on `width`
    # whole-q slots from q^(x/2)
    from naive import NaiveSeries, n_poch_finite

    rng = random.Random(3501)
    for _ in range(80):
        top, width, x = rng.randint(0, 6), rng.randint(1, 24), rng.randint(-6, 6)
        t = rng.randint(0, top)
        cells = [
            None if rng.random() < 0.25 else
            (x + 2 * rng.randint(0, width + 2), [rng.randint(-3, 3) for _ in range(rng.choice((1, rng.randint(1, width))))])
            for _ in range(top + 1)
        ]
        order = x + 2 * width
        big = order + 12  # room for the factors' products from below q^0
        for pair in (False, True):
            want = NaiveSeries.zero(order, x)
            for s in range(t, top + 1):
                if cells[s] is not None:
                    x0, c = cells[s]
                    w = NaiveSeries(x0, ([v for a in c for v in (a, 0)] + [0] * (big - x0))[: big - x0], big)
                    if pair:
                        w = w.mul(NaiveSeries.one(big).add(NaiveSeries.monomial(1, 2 * (s + t), big)))
                    want = want.add(w.mul(n_poch_finite(1, 2, s - t, 2, big).inv()))
            assert _chain(cells, t, x, width, pair) == [want.coeff(x + 2 * j) for j in range(width)], (cells, t, pair)


@pytest.mark.parametrize("id, order, params, counts", [
    ("AG", 100, {"k": 6, "r": 2}, (28, 97, 5145)),
    ("AG", 90, {"k": 8, "r": 0}, (35, 100, 4791)),
    ("THM_3_1", 100, {"k": 5, "j": 2, "r": 1, "placement": [1, 2]}, (26, 100, 5536)),
])
def test_deep_sums_make_their_pinned_chains_and_passes(monkeypatch, id, order, params, counts):
    # three of perfbench's sums_deep cases make exactly these _chain calls,
    # prefix-add passes and slots over the passes (the closings' included);
    # the first level's live cells are bare monomials, and each later level
    # makes one chain per live cell, paired exactly when the level is placed
    import qident.multisum as ms

    chains, passes, kernels = [], [], []
    real_chain, real_prefix_add, real_kernel = ms._chain, ms._prefix_add, ms._kernel

    def chain(cells, t, x, width, pair):
        chains.append((cells, pair))
        return real_chain(cells, t, x, width, pair)

    def prefix_add(c, d):
        passes.append(len(c))
        return real_prefix_add(c, d)

    def kernel(lam, placement, start, *args):
        first = len(chains)
        out = real_kernel(lam, placement, start, *args)
        rows = []  # the rows the chains read, in level order, each with its chains' pair flags
        for cells, pair in chains[first:]:
            if not rows or rows[-1][0] is not cells:
                rows.append((cells, []))
            rows[-1][1].append(pair)
        kernels.append((len(lam), placement, start, rows, out))
        return out

    monkeypatch.setattr(ms, "_chain", chain)
    monkeypatch.setattr(ms, "_prefix_add", prefix_add)
    monkeypatch.setattr(ms, "_kernel", kernel)
    assert verify(make_case(id, order=qe(order), **params)).status == "pass"
    assert (len(chains), len(passes), sum(passes)) == counts
    assert kernels
    for k, placement, start, rows, out in kernels:
        assert start is None and len(rows) == k - 1
        assert all(c is None or c[1] == [1] for c in rows[0][0])
        for level, ((_, pairs), made) in enumerate(zip(rows, [r[0] for r in rows[1:]] + [out]), 2):
            assert len(pairs) == sum(c is not None for c in made)
            assert set(pairs) == {level in placement}
