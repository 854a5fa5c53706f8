"""The identity registry: reports, cross-checks, and failure evidence."""

import itertools
import random
import re
import time
from functools import partial

import pytest

from qident import (
    INF,
    EdgeSet,
    FSpec,
    HalfInt,
    HSpec,
    IdentityCase,
    Monomial,
    QSeries,
    SpecError,
    SummandSpec,
    SumStats,
    TailOverOdd,
    TripleProductSpec,
    edge_weight,
    enumerate_edge_sets,
    eval_multisum,
    eval_product_sum,
    make_case,
    registered_ids,
    partition_series,
    poch_finite,
    poch_infinite,
    verify,
    he,
    qe,
    validate_case,
)
import qident
from qident import catalog, finite, hfamily, limits, sums, zpoly
from qident.sums import _bress_lambda
from qident.zpoly import _inv_poch_ladder
from naive import NaiveSeries, brute_force_multisum


SMALL = he(30)


def _ok(id, order=SMALL, **params):
    rep = verify(make_case(id, order=order, **params))
    assert rep.status == "pass", (id, params, rep.detail, rep.first_mismatch)
    assert rep.compared_order >= rep.case.order
    return rep


# one small passing case per registered id but the control NEG_AG
SMOKE = {
    "AG": dict(k=1, r=1),
    "BRESSOUD_EVEN": dict(k=1, r=0),
    "BRESS_J": dict(k=2, j=1),
    "THM_3_1": dict(k=2, r=0, j=1),
    "THM_3_2": dict(k=2, r=1, j=1),
    "THM_4_1": dict(k=2, r=0, j=1),
    "THM_4_2": dict(k=2, r=1, j=1),
    "OVER_1": dict(k=1, j=1),
    "OVER_2": dict(k=1, j=1),
    "OVER_3": dict(k=0),
    "CURIOUS": dict(),
    "COR_INFTY": dict(k=0),
    "KEY_LEMMA": dict(n=2, a="3/2"),
    "ITER_PROP": dict(n=2, k=1, a=1),
    "SPECIAL_A": dict(n=3),
    "ITERATE_BRESS": dict(n=2, k=1),
    "FUNC_EQ": dict(n=2, c=1),
    "NEW_PROP": dict(n=2, a="3/2"),
    "NEW_PROP2": dict(n=2, j=1, a=2),
    "ANOTHER_F": dict(n=2, j=1, a=2),
    "F_SUM": dict(n=2, j=1, a=2),
    "RECURSE_F": dict(n=2, j=1, a=1),
    "H_LIMIT": dict(a="3/2"),
    "F_LIMIT": dict(j=0, a="3/2"),
    "EDGE_LEMMA": dict(j=4),
    "CHU_COEFF": dict(j=6),
    "EVEN_FACT": dict(s_max=4),
    "ANDREWS_ANSWER": dict(k=1, r=1, n=4),
}


def test_every_registered_id_has_a_passing_small_case():
    missing = set(registered_ids()) - set(SMOKE) - {"NEG_AG"}
    assert not missing, f"ids without a smoke case: {missing}"
    for id, params in SMOKE.items():
        _ok(id, **params)


def test_no_row_but_the_control_builds_a_product_spec(monkeypatch):
    # every product side outside NEG_AG is built as a Jacobi item of ints,
    # while NEG_AG's moved modulus is a spec list, summed by the factor route
    from qident.products import TripleProductSpec

    real, built = TripleProductSpec.__init__, []

    def spy(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(TripleProductSpec, "__init__", spy)
    for id, params in SMOKE.items():
        assert verify(make_case(id, **params)).status == "pass", id
    assert built == []
    rep = verify(make_case("NEG_AG", k=1, r=0))
    m = rep.first_mismatch
    assert (rep.status, m.exp, m.lhs, m.rhs) == ("fail", qe(5), 2, 3)
    assert built


def _sides_by_label(id, wnum):
    """{label: (lhs, rhs)} of id's SMOKE case run at wnum half-units, each
    label less its certified n, which grows with the order."""
    entry = catalog._REGISTRY[id]
    checks = entry.runner(entry.prepare(dict(SMOKE[id])), wnum, SumStats())
    return {re.sub(r"certified n=\d+", "certified n", c.label): (c.lhs, c.rhs) for c in checks}


def test_sides_known_below_the_order_stay_the_same_deeper():
    # a cut one term short that both sides of a check share passes at its
    # order; run deeper, by 1/2, 1 and 7 powers of q, every side of every id
    # must claim at least its order and agree below the shallower one
    for id in sorted(set(registered_ids()) - {"NEG_AG"}):
        entry = catalog._REGISTRY[id]
        wnum = entry.default_ordnum(entry.prepare(dict(SMOKE[id])))
        base = _sides_by_label(id, wnum)
        for d in (1, 2, 14):
            deep = _sides_by_label(id, wnum + d)
            assert deep.keys() == base.keys(), (id, d)
            for label, sides in base.items():
                for side, deeper in zip(sides, deep[label]):
                    assert side.order >= he(wnum) and deeper.order >= he(wnum + d), (id, d, label)
                    assert deeper.truncated(he(wnum)) == side.truncated(he(wnum)), (id, d, label)


def test_negative_control_fails_with_exact_location():
    rep = verify(make_case("NEG_AG", order=he(40), k=1, r=0))
    assert rep.status == "fail"
    # modulus 5 vs 6 first disagree at the coefficient of q^5: the pair
    # (5) is a legal part sum for parts in {2,3} mod 5 via 2+3 and 5 is
    # excluded mod 6 differently; the engine must pin the exact spot
    assert rep.first_mismatch is not None
    assert rep.first_mismatch.exp == qe(5)
    assert rep.first_mismatch.lhs != rep.first_mismatch.rhs


def test_a_boolean_or_unparseable_order_is_a_spec_error():
    # True is not the order q^1, and "1.5" is not a half-integer
    with pytest.raises(SpecError, match="bad order True"):
        make_case("AG", order=True, k=1, r=0)
    with pytest.raises(SpecError, match="bad order True"):
        IdentityCase("AG", {"k": 1, "r": 0}, True)
    with pytest.raises(SpecError, match="bad order '1.5'"):
        make_case("AG", order="1.5", k=1, r=0)
    assert HalfInt._coerce(True) is None
    with pytest.raises(ValueError):
        HalfInt.parse(False)


def test_a_bool_or_float_is_no_exponent_sign_or_weight():
    # True is not q^1 and 1.0 is not the sign +1, in the specs as in HalfInt;
    # nor is True the count or position 1
    p1, p4 = Monomial(1, qe(1)), Monomial(1, qe(4))
    for build in (
        lambda: Monomial(1, True),
        lambda: Monomial(1.0, qe(1)),
        lambda: Monomial(-1.0, qe(1)),
        lambda: HSpec(2, True),
        lambda: FSpec(2, 0, True),
        lambda: TripleProductSpec(True, p1, p4),
        lambda: SummandSpec(1, (True,)),
        lambda: HSpec(True, 1),
        lambda: FSpec(2, True, 1),
        lambda: FSpec(2.0, 0, 1),
        lambda: SummandSpec(True, (0,)),
        lambda: SummandSpec(2, (0, 0), placement={True}),
        lambda: HalfInt(True),
        lambda: poch_finite(p1, True),
        lambda: EdgeSet([1.9, 3]),
        lambda: EdgeSet([True, 3]),
        lambda: EdgeSet(["1"]),
    ):
        with pytest.raises(SpecError):
            build()
    for base in ("x", 1.5, None, True):
        for build in (lambda: poch_finite(p1, 2, base), lambda: poch_infinite(p1, base, qe(10))):
            with pytest.raises(SpecError, match=re.escape(f"bad base exponent {base!r}")):
                build()
    for sign in (1.0, -1.0):
        case = make_case("OVER_1", k=1, j=1, z_sign=sign, z_exp=1)
        with pytest.raises(SpecError, match=re.escape(f"z_sign must be +1 or -1, got {sign}")):
            validate_case(case)
        assert verify(case).status == "error"
    assert Monomial(-1, 2).q_exp == qe(2) and HSpec(2, 1).a == FSpec(2, 0, 1).a == qe(1)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: qident.binom(True, 1), "n=True"),
        (lambda: qident.binom(3, True), "k=True"),
        (lambda: qident.qbinom_poly(True, 1), "n=True"),
        (lambda: qident.qbinom_poly(3, True), "k=True"),
        (lambda: qident.tail_min_num(qident.TailOdd(), True), "s=True"),
        (lambda: enumerate_edge_sets(True), "j=True"),
        (lambda: qident.f_limit_sum(True, he(7), Monomial(1, qe(0)), qe(10)), "j=True"),
        (lambda: qident.stabilized_f_value(True, he(7), Monomial(1, qe(0)), qe(10)), "j=True"),
        (lambda: qident.f_limit_sum(1, "x", Monomial(1, qe(0)), qe(10)), "bad weight 'x'"),
        (lambda: qident.h_limit_product(None, Monomial(1, qe(0)), qe(10)), "bad weight None"),
        (lambda: qident.h_limit_product(1.5, Monomial(1, qe(0)), qe(10)), "bad weight 1.5"),
        (lambda: qident.stabilized_h_value("x", Monomial(1, qe(0)), qe(10)), "bad weight 'x'"),
        (lambda: qident.stabilized_f_value(1, None, Monomial(1, qe(0)), qe(10)), "bad weight None"),
        (lambda: qident.stabilized_f_value(0, 1.5, Monomial(1, qe(0)), qe(10)), "bad weight 1.5"),
    ],
    ids=["binom-n", "binom-k", "qbinom_poly-n", "qbinom_poly-k", "tail_min_num", "enumerate_edge_sets",
         "f_limit_sum", "stabilized_f_value", "f_limit_sum-a", "h_limit_product-a-none",
         "h_limit_product-a-float", "stabilized_h_value-a", "stabilized_f_value-a-none",
         "stabilized_f_value-a-float"],
)
def test_a_bool_is_no_count_of_a_public_function(call, named):
    # a bool count was answered as at 1, and a weight a that is no
    # half-integer failed deep inside with an AttributeError or an
    # IllPosedError; the error names the parameter or the bad weight
    with pytest.raises(SpecError, match=re.escape(named)):
        call()


def test_cor_infty_fails_with_its_tail_at_minus_z(monkeypatch):
    # negative control: the closing factor is TailOver at -1/z; at -z, the
    # z <-> 1/z mix-up of test_over_3_printed_orientation_is_wrong, k=1
    # fails at q^1 at z = q^-1
    row = sums._SUM_ROWS["COR_INFTY"]
    wrong = row._replace(summand=lambda p, z: sums._over_sum(p, Monomial(-z.sign, z.q_exp)))
    entry = catalog._REGISTRY["COR_INFTY"]
    monkeypatch.setitem(catalog._REGISTRY, "COR_INFTY", entry._replace(runner=partial(sums._run_row, wrong)))
    rep = verify(make_case("COR_INFTY", k=1))
    assert rep.status == "fail"
    m = rep.first_mismatch
    assert (m.exp, m.lhs, m.rhs) == (qe(1), 0, 1)
    assert rep.detail == "k=1 z=q^-1: iterated sum vs product"


def test_over_3_fails_with_its_product_at_z(monkeypatch):
    # negative control for the z rows: OVER_3's product is taken at 1/z; at
    # z, k=1 and k=2 fail at q^k at z = q^-1, and at k=0 the product asks for
    # the argument -1, which has no positive q-exponent
    row = sums._SUM_ROWS["OVER_3"]
    wrong = row._replace(products=lambda p, mod, z: sums._gordon_key(p, mod, z))
    entry = catalog._REGISTRY["OVER_3"]
    monkeypatch.setitem(catalog._REGISTRY, "OVER_3", entry._replace(runner=partial(sums._run_row, wrong)))
    for k, lhs, rhs in ((1, 1, 2), (2, 2, 3)):
        rep = verify(make_case("OVER_3", order=40, k=k))
        assert (rep.status, rep.compared_order) == ("fail", qe(40))
        m = rep.first_mismatch
        assert (m.exp, m.z_exp, m.lhs, m.rhs) == (qe(k), None, lhs, rhs)
        assert rep.detail == f"k={k} z=q^-1: odd-index sum vs product"
    rep = verify(make_case("OVER_3", order=40, k=0))
    assert (rep.status, rep.detail) == ("error", "product argument -1 needs a positive q-exponent")


def test_key_lemma_fails_with_its_term_at_weight_a_minus_one_half(monkeypatch):
    # negative control for the expansions: the KEY_LEMMA row with term(s) at
    # weight a - 1/2 instead of a - 1 fails at q^(2n^2) z^-n, lhs 1, rhs 0
    row = finite._EXPANSIONS["KEY_LEMMA"]
    wrong = row._replace(term=lambda p, s: FSpec(s, p["j"], p["a"] - he(1)))
    entry = catalog._REGISTRY["KEY_LEMMA"]
    monkeypatch.setitem(catalog._REGISTRY, "KEY_LEMMA", entry._replace(runner=partial(finite._run_expansion, wrong)))
    for n, exp in ((4, 32), (3, 18)):
        rep = verify(make_case("KEY_LEMMA", n=n, a=2))
        assert (rep.status, rep.compared_order) == ("fail", qe(40))
        m = rep.first_mismatch
        assert (m.exp, m.z_exp, m.lhs, m.rhs) == (qe(exp), -n, 1, 0)
        assert rep.detail == f"n={n} a=2: one-step expansion"


@pytest.mark.parametrize("ordnum", (60, 61))
def test_cor_infty_sum_meets_the_h_form_of_its_closing_factor(ordnum):
    # the engine builds (qz, 1/z; q)_s / (q)_{2s} as TailOver at -1/z; the
    # oracle builds it as H(s, 1/2)(-z q^(1/2)) / (q)_{2s}, SPECIAL_A's
    # form, from naive products that share no code with the engine
    row = sums._SUM_ROWS["COR_INFTY"]
    for k in (0, 1, 2):
        p = catalog._REGISTRY["COR_INFTY"].prepare({"k": k})
        for z in catalog._z_samples(None, row.window(p)):
            spec = row.summand(p, z)
            got = eval_multisum(spec, he(ordnum))
            # each index adds s^2 and the tail no less than q^-2, so s_1 <= 8 covers q^31
            tail = ("h", 1, -z.sign, z.q_exp.num + 1)
            want = brute_force_multisum(spec.k, spec.linear, spec.placement, tail, ordnum, cap=8)
            assert got.order == he(ordnum)
            assert [got.coefficient(he(e)) for e in range(ordnum)] == [want.coeff(e) for e in range(ordnum)], (k, z)


@pytest.mark.parametrize(
    "id, params, order, counts",
    [
        # one kernel for the case's 6 to 10 z samples
        ("COR_INFTY", dict(k=0), 33, (6, 7, 1)),
        ("COR_INFTY", dict(k=1), 35, (12, 16, 4)),
        ("COR_INFTY", dict(k=2), 37, (16, 24, 8)),
        # the forced and plain sums, then the two chains from n = 5
        ("ANDREWS_ANSWER", dict(k=1, r=0), 35, (30, 39, 9)),
        ("ANDREWS_ANSWER", dict(k=2, r=2), 37, (45, 65, 20)),
    ],
)
def test_closing_factor_rows_keep_their_order_and_cell_counts(id, params, order, counts):
    # the bundled suite's rows whose closing factor is TailOver at -1/z
    rep = verify(make_case(id, **params))
    assert (rep.status, rep.compared_order) == ("pass", qe(order))
    assert (rep.tuple_count, rep.node_count, rep.pruned_count) == counts


def _mirror_grid():
    """(id, params) of OVER_1 at every placement for k <= 2, OVER_2, OVER_3 and COR_INFTY at k <= 2, CURIOUS."""
    from itertools import combinations

    grid = [("OVER_1", {"k": k, "j": j, "placement": list(P)})
            for k in range(3) for j in range(k + 2) for P in combinations(range(1, k + 2), j)]
    grid += [("OVER_2", {"k": k, "j": j}) for k in range(3) for j in range(k + 2)]
    return grid + [(id, {"k": k}) for id in ("OVER_3", "COR_INFTY") for k in range(3)] + [("CURIOUS", {})]


def test_each_skipped_z_sample_repeats_its_kept_mirror():
    # a z row samples z = +-q^(m/2) for m in _POLICY_MS inside its window
    # (lo, hi), and skips m when its mirror lo + hi - m comes earlier: both
    # sides must then be the same series at m and at the mirror, so that the
    # skipped checks are the kept ones repeated
    skipped = 0
    for id, params in _mirror_grid():
        row = sums._SUM_ROWS["OVER_2" if id == "CURIOUS" else id]
        entry = catalog._REGISTRY[id]
        lo, hi = row.window(entry.prepare(params))
        kept = catalog._z_samples(None, (lo, hi))
        for m in catalog._POLICY_MS:
            if not lo < m < hi or Monomial(1, he(m)) in kept:
                continue
            assert Monomial(1, he(lo + hi - m)) in kept, (id, params, m)
            for sign in (1, -1):
                for wnum in (100, 101):
                    sides = []
                    for e in (m, lo + hi - m):
                        p = entry.prepare(dict(params, z_sign=sign, z_exp=str(he(e))))
                        sides.append([(c.lhs, c.rhs) for c in entry.runner(p, wnum, SumStats())])
                    assert sides[0] == sides[1], (id, params, sign, m, wnum)
                skipped += 1
    assert skipped == 84


def _phi(x):
    """x under q^(1/2) -> -q^(1/2), which fixes q: its odd half-unit coefficients negated."""
    return QSeries(x._min, [-c if (x._min + i) % 2 else c for i, c in enumerate(x._coeffs)], x._ordnum)


def _twin_grid():
    """(id, params, window, ms, parity) of _mirror_grid, and of H_LIMIT at a = 1/2..11/2
    and F_LIMIT at j <= 2 and the same a wherever a sample is well posed."""
    grid = []
    for id, params in _mirror_grid():
        p = catalog._REGISTRY[id].prepare(params)
        grid.append((id, params, sums._SUM_ROWS["OVER_2" if id == "CURIOUS" else id].window(p),
                     catalog._POLICY_MS, 0))
    for anum in range(1, 12):
        for j in range(3):
            if anum > 2 * j:
                id, params = ("F_LIMIT", {"j": j, "a": str(he(anum))}) if j else ("H_LIMIT", {"a": str(he(anum))})
                grid.append((id, params, (2 * j - anum, anum - 2 * j), catalog._LIMIT_MS, anum))
    return grid


def _sides(id, params, sign, m, wnum):
    entry = catalog._REGISTRY[id]
    p = entry.prepare(dict(params, z_sign=sign, z_exp=str(he(m))))
    return [(c.lhs, c.rhs) for c in entry.runner(p, wnum, SumStats())]


def test_each_skipped_sign_twin_is_its_kept_sample_under_q_half_to_minus_q_half():
    # a z family's terms are z^s times q^(parity s^2 / 2) times whole powers
    # of q, so q^(1/2) -> -q^(1/2) takes both sides at +q^(m/2) to both sides
    # at (-1)^(m + parity) q^(m/2); when m + parity is odd, -q^(m/2) is not
    # sampled, and both of its sides must be the kept sample's under that map
    skipped = {"rows": 0, "limits": 0}
    for id, params, (lo, hi), ms, parity in _twin_grid():
        kept = catalog._z_samples(None, (lo, hi), ms, parity)
        entry = catalog._REGISTRY[id]  # the runner samples with the same parity
        assert len(entry.runner(entry.prepare(params), 80, SumStats())) == len(kept) * (3 if id == "CURIOUS" else 1)
        for m in ms:
            if Monomial(1, he(m)) not in kept or Monomial(-1, he(m)) in kept:
                continue
            assert (m + parity) % 2 == 1, (id, params, m)
            for wnum in (80, 81):
                plus, minus = (_sides(id, params, sign, m, wnum) for sign in (1, -1))
                assert minus == [(_phi(lhs), _phi(rhs)) for lhs, rhs in plus] != plus, (id, params, m, wnum)
            skipped["limits" if id in limits._LIMITS else "rows"] += 1
    assert skipped == {"rows": 58, "limits": 54}


def test_a_sign_twin_at_even_m_plus_parity_is_no_image_of_its_partner():
    # negative control: at m + parity even, q^(1/2) -> -q^(1/2) takes the
    # check at q^(m/2) to itself, not to -q^(m/2), so both signs are sampled
    for id, params, m in (("H_LIMIT", {"a": "3/2"}, 1), ("OVER_1", {"k": 1, "j": 0}, 0),
                          ("COR_INFTY", {"k": 2}, 2), ("H_LIMIT", {"a": 2}, 0)):
        plus, minus = (_sides(id, params, sign, m, 81) for sign in (1, -1))
        assert minus != [(_phi(lhs), _phi(rhs)) for lhs, rhs in plus], (id, params)
        assert plus == [(_phi(lhs), _phi(rhs)) for lhs, rhs in plus], (id, params)


def test_z_sample_lists_keep_one_sample_per_mirror_pair():
    def samples(id, **params):
        entry, p, _ = catalog._prepare(make_case(id, **params))
        if id in limits._LIMITS:
            j, a = p["j"], p["a"]
            return catalog._z_samples(p["z"], (2 * j - a.num, a.num - 2 * j), catalog._LIMIT_MS, a.num)
        return catalog._z_samples(p["z"], sums._SUM_ROWS["OVER_2" if id == "CURIOUS" else id].window(p))

    def listed(id, **params):
        return " ".join(map(str, samples(id, **params)))

    # a sum row's parity is 0, so only an even m keeps -z
    assert listed("OVER_1", k=1, j=0) == "q^-1 -q^-1 q^-1/2 1 -1 q^1/2"
    assert listed("OVER_1", k=1, j=1) == "q^-1/2 1 -1 q^1/2"
    assert listed("COR_INFTY", k=2) == "q^-1 -q^-1 q^-1/2 q^1/2 q^1 -q^1 q^3/2"
    assert listed("CURIOUS") == "q^-1/2 1 -1 q^1/2"
    # a limit's parity is 2a in half-units: an m of the other parity keeps -z
    assert listed("H_LIMIT", a="3/2") == "1 q^1/2 -q^1/2 q^1"
    assert listed("H_LIMIT", a=2) == "1 -1 q^1/2 q^1 -q^1 q^3/2"
    assert listed("F_LIMIT", j=2, a="9/2") == "1 q^1/2 -q^1/2 q^1 q^3/2 -q^3/2"
    # an explicit z runs as given, mirror or twin or not
    assert samples("OVER_1", k=1, j=0, z_sign=1, z_exp=1) == [Monomial(1, he(2))]
    assert samples("OVER_1", k=1, j=0, z_sign=-1, z_exp="1/2") == [Monomial(-1, he(1))]


@pytest.mark.parametrize(
    "id, params, order, closings, lists",
    [
        # sampled m in (-2, -1, 0, 1, 2, 3), both signs, inside the window;
        # the closings before the mirror pairs were merged, after, and after
        # the sign twins at odd m were merged too
        ("COR_INFTY", dict(k=2), 80, (12, 10, 7), [7]),
        ("OVER_1", dict(k=1, j=0), 100, (12, 8, 6), [6]),
        ("OVER_1", dict(k=1, j=1), 100, (10, 6, 4), [4]),
        ("CURIOUS", {}, 120, (20, 12, 8), [4]),  # the even and the odd batch
    ],
)
def test_sums_z_cases_close_one_sample_per_mirror_pair(monkeypatch, id, params, order, closings, lists):
    # the perfbench sums_z cases: one closing per distinct sample and sum,
    # and one product list per distinct sample
    import qident.multisum as ms
    import qident.sums as rows

    count, batches = [0], []

    def close(*args):
        count[0] += 1
        return real_close(*args)

    def product_sums(items, order):
        batches.append(len(items))
        return real_sums(items, order)

    real_close, real_sums = ms._close, rows._product_sums
    monkeypatch.setattr(ms, "_close", close)
    monkeypatch.setattr(rows, "_product_sums", product_sums)
    entry, p, _ = catalog._prepare(make_case(id, **params))
    lo, hi = rows._SUM_ROWS["OVER_2" if id == "CURIOUS" else id].window(p)
    sums = 2 if id == "CURIOUS" else 1
    window = [m for m in catalog._POLICY_MS if lo < m < hi]
    mirrored = [m for m in window if lo + hi - m not in window[: window.index(m)]]
    assert closings[:2] == (sums * 2 * len(window), sums * 2 * len(mirrored))
    assert verify(make_case(id, order=qe(order), **params)).status == "pass"
    assert (count[0], batches) == (closings[2], lists)


def test_verify_rejects_unknown_ids_and_params():
    assert verify(IdentityCase("NOPE", {})).status == "error"
    assert verify(make_case("AG", k=1, r=5)).status == "error"
    assert verify(make_case("AG", k=1, r=0, extra=3)).status == "error"
    assert verify(make_case("AG", order=he(-2), k=1, r=0)).status == "error"
    assert verify(make_case("THM_3_1", k=3, r=1, j=2, placement=[1, 4])).status == "error"
    assert verify(make_case("OVER_1", k=1, j=2, z_sign="+", z_exp="9/2")).status == "error"
    # a string is not a list of positions or of samples, and JSON true is not
    # the half-integer 1 or the sign +1
    for case, detail in (
        (make_case("THM_3_1", k=3, r=0, j=2, placement="13"), "placement must be a collection"),
        (make_case("EDGE_LEMMA", j=2, samples=["21"]), "samples must be a list of index lists"),
        (make_case("EDGE_LEMMA", j=2, samples="21"), "samples must be a list of index lists"),
        (make_case("KEY_LEMMA", n=2, a=True), "parameter 'a' must be a half-integer, got True"),
        (make_case("FUNC_EQ", n=2, c=True), "parameter 'c' must be a half-integer, got True"),
        (make_case("H_LIMIT", a="3/2", z_exp=True), "parameter 'z_exp' must be a half-integer"),
        (make_case("H_LIMIT", a="3/2", z_sign=True), "z_sign must be +1 or -1, got True"),
        # entries are true ints: no float, numeric string or bool is read as a position
        (make_case("THM_3_1", k=3, r=0, j=2, placement=[1.9, 3]), "placement must be a collection"),
        (make_case("THM_3_1", k=3, r=0, j=2, placement=["1", "3"]), "placement must be a collection"),
        (make_case("THM_3_1", k=3, r=0, j=2, placement=[True, 3]), "placement must be a collection"),
        (make_case("EDGE_LEMMA", j=2, samples=[[2.7, 1]]), "samples must be a list of index lists"),
        (make_case("EDGE_LEMMA", j=2, samples=[[True, 1]]), "samples must be a list of index lists"),
        (make_case("EDGE_LEMMA", j=2, samples=[5]), "samples must be a list of index lists"),
    ):
        with pytest.raises(SpecError, match=re.escape(detail)):
            validate_case(case)
        rep = verify(case)
        assert rep.status == "error" and detail in rep.detail, (case, rep.detail)


@pytest.mark.parametrize("id", registered_ids())
def test_every_id_refuses_a_bogus_boolean_or_negative_parameter(id):
    # each variant of the id's smoke case is refused, by name, before any
    # work; the control NEG_AG takes AG's parameters
    params = dict(SMOKE.get(id, SMOKE["AG"]))
    variants = [(dict(params, bogus=1), "'bogus'")]
    variants += [(dict(params, **{x: True}), f"'{x}'") for x in params]
    variants += [(dict(params, **{x: -1}), f"'{x}'") for x in params if x not in ("a", "c")]
    for bad, named in variants:
        with pytest.raises(SpecError, match=re.escape(named)):
            validate_case(make_case(id, **bad))


def test_edge_lemma_size_limit_is_a_spec_error():
    # Fibonacci(j+1) matchings are built as objects, 1.6e8 at j = 40: refused
    # up front; validation only, so no large j ever runs here
    validate_case(make_case("EDGE_LEMMA", j=15))
    for j in (16, 40):
        with pytest.raises(SpecError, match=re.escape(f"parameter 'j' must be <= 15, got {j}")):
            validate_case(make_case("EDGE_LEMMA", j=j))


@pytest.mark.parametrize(
    "case, detail",
    [
        (make_case("KEY_LEMMA", a=2), "missing required parameter 'n'"),
        (make_case("FUNC_EQ", n=3), "missing required parameter 'c'"),
        (make_case("KEY_LEMMA", n=3, a="x"), "parameter 'a' must be a half-integer, got 'x'"),
        (make_case("THM_3_1", k=3, r=0, j=2, placement=[1]), "placement [1] must have exactly j=2 positions"),
        (make_case("RECURSE_F", n=2, j=0, a="3/2"), "this identity needs j >= 1"),
        (make_case("ANOTHER_F", n=2, j=0, a="3/2"), "this identity needs j >= 1"),
        (make_case("H_LIMIT", a=0), "the limit needs a > 0, got a=0"),
        (make_case("F_LIMIT", j=1, a="-1/2"), "the limit needs a > 0, got a=-1/2"),
        (make_case("EDGE_LEMMA", j=3, samples=[[2, 1]]), "sample (2, 1) does not have j=3 entries"),
    ],
    ids=["missing-int", "missing-half", "bad-half", "placement-size", "RECURSE_F-j", "ANOTHER_F-j",
         "H_LIMIT-a", "F_LIMIT-a", "edge-sample-size"],
)
def test_verify_reports_each_rejected_parameter_as_an_error(case, detail):
    rep = verify(case)
    assert (rep.status, rep.detail) == ("error", detail)


def test_verify_error_reports_carry_detail():
    rep = verify(make_case("EDGE_LEMMA", j=3, samples=[(1, 2, 1)]))
    assert rep.status == "error"
    assert "weakly decreasing" in rep.detail


def test_report_shape():
    rep = _ok("AG", k=2, r=1)
    assert rep.tuple_count > 0
    assert rep.node_count == rep.tuple_count + rep.pruned_count
    assert rep.elapsed >= 0
    assert rep.first_mismatch is None
    assert rep.case.id == "AG"


def test_bress_j_is_thm_3_2_at_r_zero():
    # at r=0 the generalized construction must collapse onto the plain
    # alternating one bit for bit (independently written lambda patterns)
    for k in (1, 2, 3):
        for j in range(k + 1):
            lam = tuple(-1 if i + 1 <= j else 0 for i in range(k))
            lhs_a = eval_multisum(SummandSpec(k, lam), he(40))
            lhs_b = eval_multisum(SummandSpec(k, _bress_lambda(k, j, 0)), he(40))
            assert lhs_a == lhs_b


def test_thm_3_2_at_j_zero_is_ag():
    for k in (1, 2, 3):
        for r in range(k + 1):
            lam_32 = _bress_lambda(k, 0, r)
            lam_ag = tuple(1 if i + 1 > k - r else 0 for i in range(k))
            assert lam_32 == lam_ag
            a = eval_multisum(SummandSpec(k, lam_32), he(36))
            b = eval_multisum(SummandSpec(k, lam_ag), he(36))
            assert a == b


def test_thm_3_2_is_signed_combination_of_placements():
    # expanding each pair factor by inclusion-exclusion over edge sets
    # turns the j-placement sum into the alternating-lambda sum
    W = he(36)
    for k, r, j in ((2, 0, 2), (3, 1, 2), (3, 0, 3)):
        lam = tuple(1 if i + 1 > k - r else 0 for i in range(k))
        total = QSeries.zero(W)
        for E in enumerate_edge_sets(j):
            uncovered = [i for i in range(1, j + 1) if i not in E.covered]
            placement = frozenset(uncovered)
            term = eval_multisum(SummandSpec(k, lam, placement=placement), W)
            total = total + (-term if len(E.edges) % 2 else term)
        direct = eval_multisum(SummandSpec(k, _bress_lambda(k, j, r)), W)
        assert total.eq_upto(direct).equal


def test_over_3_printed_orientation_is_wrong():
    # mirroring the two product arguments (z <-> 1/z) must fail, and the
    # first divergence sits at q^(1/2) already for k=0, z=q^(1/2)
    k = 0
    z = Monomial(1, he(1))
    lhs = eval_multisum(SummandSpec(1, (1,), tail=TailOverOdd(Monomial(1, he(1 - 2 * k)))), he(20))
    mirrored = eval_product_sum(
        [
            TripleProductSpec(
                qe(3),
                Monomial(-1, qe(k + 1) + he(1)),
                Monomial(-1, qe(k + 2) - he(1)),
            )
        ],
        he(20),
    )
    r = lhs.eq_upto(mirrored)
    assert not r.equal
    assert r.mismatch.exp == he(1)
    assert (r.mismatch.lhs, r.mismatch.rhs) == (1, 0)
    # while the shipped orientation passes at the same point
    correct = eval_product_sum(
        [
            TripleProductSpec(
                qe(3),
                Monomial(-1, qe(k + 1) - he(1)),
                Monomial(-1, qe(k + 2) + he(1)),
            )
        ],
        he(20),
    )
    assert lhs.eq_upto(correct).equal


def test_curious_both_orientations_and_z_one():
    rep = verify(make_case("CURIOUS", order=he(60), z_sign="+", z_exp=0))
    assert rep.status == "pass"


def test_placement_invariance_small():
    from itertools import combinations

    k, r, j = 3, 0, 2
    base = None
    for P in combinations(range(1, k - r + 1), j):
        rep = _ok("THM_3_1", k=k, r=r, j=j, placement=list(P))
        base = base or rep
    assert base is not None


# -- edge sets ----------------------------------------------------------------


def fib(n):
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_enumerate_edge_sets_counts():
    for j in range(0, 10):
        sets = enumerate_edge_sets(j)
        assert len(sets) == fib(j)
        seen = set()
        for E in sets:
            assert E.edges not in seen
            seen.add(E.edges)
            s = sorted(E.edges)
            assert all(y - x >= 2 for x, y in zip(s, s[1:]))
            assert all(1 <= i <= j - 1 for i in s)


def test_edge_set_rejects_adjacent_edges():
    with pytest.raises(SpecError):
        EdgeSet(frozenset({2, 3}))
    with pytest.raises(SpecError):
        EdgeSet(frozenset({0}))


def test_edge_weight_paper_instance():
    # j=3, s=(2,1,1): the four edge sets weigh in at
    # E={}        q^-4 (1+q^3)(1+q^2)
    # E={(1,2)}   q^-1 (1+q^2)
    # E={(2,3)}   q^-2
    # and the signed total collapses to q^-4
    s = (2, 1, 1)
    empty = edge_weight(EdgeSet(frozenset()), s)
    e12 = edge_weight(EdgeSet(frozenset({1})), s)
    e23 = edge_weight(EdgeSet(frozenset({2})), s)
    assert dict(empty.terms()) == {qe(-4): 1, qe(-1): 1, qe(-2): 1, qe(1): 1}
    assert dict(e12.terms()) == {qe(-1): 1, qe(1): 1}
    assert dict(e23.terms()) == {qe(-2): 1}
    total = empty - e12 - e23
    assert dict(total.terms()) == {qe(-4): 1}


def _naive_edge_weight(E, s) -> NaiveSeries:
    # q^(-s_1) when vertex 1 is uncovered, times q^(-s_i) + q^(s_(i-1)) over
    # the uncovered i >= 2, multiplied out densely; the window is known below
    # q^(2 sum(s) + 2) and each factor lowers that by q^(s_i), so the product
    # stays known past its top term, at most q^(sum(s))
    top = 4 * sum(s) + 4
    w = NaiveSeries.one(top)
    for i in range(1, len(s) + 1):
        if i not in E.covered:
            f = NaiveSeries.monomial(1, -2 * s[i - 1], top)
            if i >= 2:
                f = f.add(NaiveSeries.monomial(1, 2 * s[i - 2], top))
            w = w.mul(f)
    return w


def test_every_edge_weight_matches_the_naive_product():
    rng = random.Random(37)
    for j in range(9):
        samples = [(0,) * j, (3,) * j, tuple(range(j, 0, -1))]
        for _ in range(3):
            t = [rng.randint(0, 9)]
            while len(t) < j:
                t.append(rng.randint(0, t[-1]))
            samples.append(tuple(t[:j]))
        for s in samples:
            for E in enumerate_edge_sets(j):
                w, naive = edge_weight(E, s), _naive_edge_weight(E, s)
                assert w.order is INF and naive.order > 2 * sum(s)
                assert {e.num: c for e, c in w.terms()} == {
                    naive.offset + i: c for i, c in enumerate(naive.coeffs) if c
                }, (j, s, E)


def test_edge_lemma_builds_no_series_products(monkeypatch):
    # every weight is one `_poch_lists` row and one shift: the signed sum of
    # the matchings makes no `QSeries` product
    calls = []
    mul = QSeries.__mul__

    def spy(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", spy)
    monkeypatch.setattr(QSeries, "__rmul__", spy)
    rep = verify(make_case("EDGE_LEMMA", j=8))
    assert rep.status == "pass" and calls == []


def test_edge_weights_build_no_laurent_polynomial(monkeypatch):
    # a weight is z-free: it reads row 0 of the Pochhammer lists as a series,
    # with no ZLaurent built around it
    built = []
    init = zpoly.ZLaurent.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(zpoly.ZLaurent, "__init__", spy)
    assert edge_weight(EdgeSet(frozenset({1})), (3, 2, 2, 1)).terms()
    assert verify(make_case("EDGE_LEMMA", j=8)).status == "pass" and built == []


def test_edge_weight_validates_length():
    with pytest.raises(SpecError):
        edge_weight(EdgeSet(frozenset({3})), (2, 1, 1))


def test_verify_edge_lemma_defaults_and_explicit_samples():
    assert verify(make_case("EDGE_LEMMA", j=3)).status == "pass"
    samples = [(4, 3, 3, 1, 0), (2, 2, 2, 2, 2)]
    assert verify(make_case("EDGE_LEMMA", j=5, samples=samples)).status == "pass"
    assert verify(make_case("EDGE_LEMMA", j=0)).status == "pass"


def test_chu_collapse():
    assert verify(make_case("CHU_COEFF", j=0)).ok
    assert verify(make_case("CHU_COEFF", j=7)).ok


def test_even_fact():
    rep = verify(make_case("EVEN_FACT", order=he(40), s_max=5))
    assert rep.status == "pass"


def test_andrews_answer_grid():
    for k in (1, 2):
        for r in range(k + 1):
            rep = verify(make_case("ANDREWS_ANSWER", order=he(40), k=k, r=r, n=4))
            assert rep.status == "pass", (k, r, rep.detail)


def test_negative_weight_expansion_compares_at_exactly_the_requested_order():
    # a = 1/2 hands the weight -1/2 to the expansion side's H; h_poly and
    # the runner budget that depth, so one pass certifies the request
    rep = verify(make_case("KEY_LEMMA", order=he(40), n=4, a="1/2"))
    assert rep.status == "pass"
    assert rep.compared_order == he(40)


def test_iterate_bress_compares_at_exactly_the_requested_order():
    rep = _ok("ITERATE_BRESS", order=qe(40), n=4, k=1)
    assert rep.compared_order == qe(40)


def test_iterate_bress_builds_its_factored_tail_at_the_working_order():
    # each (qz, 1/z; q)_s is built below the working order, not exactly and
    # then cut: n = 30 took 2.1 s when 31 exact products were truncated
    best = []
    for _ in range(2):
        t0 = time.perf_counter()
        rep = _ok("ITERATE_BRESS", order=qe(40), n=30, k=2)
        best.append(time.perf_counter() - t0)
    assert rep.compared_order == qe(40)
    assert min(best) < 1.0


def test_expansions_build_only_the_terms_of_live_chains(monkeypatch):
    # each term's floor is read off F's closed form, so term(s) is built only
    # where its chain sum K(s) is nonzero: at q^40, 7 of KEY_LEMMA n=700's 701
    # chains are live, and 4 of ITERATE_BRESS n=30's 31
    built = dict.fromkeys(("f_func", "_pochz_rising"), 0)
    for name in built:
        def counted(*args, name=name, fn=getattr(finite, name)):
            built[name] += 1
            return fn(*args)

        monkeypatch.setattr(finite, name, counted)
    _ok("KEY_LEMMA", order=qe(40), n=700, a=2)
    assert built == {"f_func": 8, "_pochz_rising": 0}  # the lhs and the 7 live terms
    built["f_func"] = 0
    _ok("ITERATE_BRESS", order=qe(40), n=30, k=2)  # its lhs is an h_poly
    assert built == {"f_func": 0, "_pochz_rising": 4}


def test_expansion_sides_keep_the_same_z_span():
    # a dead term is zero only below the order, so the rhs keeps the span
    # z^-n..z^n of the sum of all n + 1 terms, as the lhs has; the span
    # bounds the order of a substitution z -> q^(1/2), which moves z^-n down
    for id, params in (("KEY_LEMMA", dict(n=700, a=2)), ("ANOTHER_F", dict(n=5, j=2, a=2)),
                       ("ITERATE_BRESS", dict(n=6, k=1))):
        entry, p, ordnum = catalog._prepare(make_case(id, order=qe(40), **params))
        (check,) = entry.runner(p, ordnum, SumStats())
        orders = [side.substitute(1, he(1)).order for side in (check.lhs, check.rhs)]
        assert orders == [he(80 - params["n"])] * 2, id


def _least_exp(x, default):
    # where a ZLaurent starts, in half-units; default when it has nothing below its order
    return min((x.slice(k).min_exp.num for k in x.z_support()), default=default)


def test_expansion_floors_are_where_their_terms_start():
    # the floor the runner hands K(s), F's closed form capped at the order or
    # q^0 for ITERATE_BRESS's factored tail, is the least exponent of term(s)
    specs = set()
    for row in (r for r in finite._EXPANSIONS.values() if r.term is not None):
        for j, k, a in itertools.product(range(3), range(3), range(-3, 12)):
            specs.update(row.term({"j": j, "k": k, "a": he(a)}, s) for s in range(5))
    assert len(specs) > 200
    for w in (8, 21, 40):
        for f in specs:
            assert min(zpoly._f_min(f.n, f.j, f.a.num), w) == _least_exp(qident.f_func(f, he(w)), w), (f, w)
        assert [_least_exp(finite._pochz_rising(s, he(w)), w) for s in range(5)] == [0] * 5


def test_expansion_floors_are_f_min_of_each_terms_spec(monkeypatch):
    # the runner reads every floor off term(0)'s j and weight and s alone,
    # and builds term(s)'s FSpec only for a live chain; over the structural
    # grid of tests/equivalence.py the floors it hands the kernel must be
    # _f_min of each term(s) itself, capped at the order
    import equivalence

    lows, chain_values = [], finite._chain_values
    monkeypatch.setattr(finite, "_chain_values", lambda spec, n, low, *a: lows.append(low) or chain_values(spec, n, low, *a))
    count = 0
    for id, params, order in equivalence.GRIDS["structural"]():
        row = finite._EXPANSIONS.get(id)
        if row is None or row.term is None:
            continue
        entry, p, wnum = catalog._prepare(make_case(id, order=order, **params))
        lows.clear()
        entry.runner(p, wnum, SumStats())
        specs = [row.term(p, s) for s in range(p["n"] + 1)]
        assert lows == [[min(zpoly._f_min(f.n, f.j, f.a.num), wnum) for f in specs]], (id, params, order)
        count += 1
    assert count == 406
    # KEY_LEMMA n=700 a=2 builds the lhs's FSpec, term(0)'s and the 7 live terms', not 702
    built = []
    monkeypatch.setattr(finite, "FSpec", lambda *a: built.append(a) or FSpec(*a))
    _ok("KEY_LEMMA", order=qe(40), n=700, a=2)
    assert len(built) == 9


def test_expansions_error_when_their_floors_are_overstated(monkeypatch):
    # negative control for the floors: a K(s) whose floor is one half-unit
    # too high is known one half-unit short, so the check cannot certify the
    # request; skipping the dead terms rests on that
    chain_values = finite._chain_values

    def overstated(spec, n, low, nnum, stats):
        return chain_values(spec, n, [f + 1 for f in low], nnum, stats)

    monkeypatch.setattr(finite, "_chain_values", overstated)
    for id, params in (("KEY_LEMMA", dict(n=4, a=2)), ("ITERATE_BRESS", dict(n=4, k=1))):
        rep = verify(make_case(id, order=qe(40), **params))
        assert (rep.status, rep.detail) == ("error", "compared only below q^79/2, not the requested q^40"), id


def test_special_a_fails_without_the_sign_flip(monkeypatch):
    # negative control: the factored side is built from its own factors, not
    # from H's column, so an lhs without z -> -z disagrees at q^3 z^-3, where
    # (qz, 1/z; q)_3 has -q^3 z^-3
    monkeypatch.setattr(finite.ZLaurent, "znegate", lambda self: self)
    rep = verify(make_case("SPECIAL_A", n=3))
    assert rep.status == "fail"
    m = rep.first_mismatch
    assert (m.exp, m.z_exp, m.lhs, m.rhs) == (qe(3), -3, 1, -1)


def _count_runner_calls(monkeypatch) -> dict:
    calls = {}

    def counted(id, runner):
        def run(*args):
            calls[id] = calls.get(id, 0) + 1
            return runner(*args)

        return run

    for id, entry in list(catalog._REGISTRY.items()):
        monkeypatch.setitem(catalog._REGISTRY, id, entry._replace(runner=counted(id, entry.runner)))
    return calls


def _finite_structural_grid():
    # n <= 4, a in {1/2, ..., 3}, j, k <= 2 and every ANDREWS_ANSWER reduction
    # with k <= 3; every input that used to need a second, padded pass is here
    for n in range(5):
        for a in ("1/2", "1", "3/2", "2", "5/2", "3"):
            yield "KEY_LEMMA", dict(n=n, a=a)
            for kj in (0, 1, 2):
                yield "F_SUM", dict(n=n, j=kj, a=a)
                yield "NEW_PROP2", dict(n=n, j=kj, a=a)
                if kj:
                    yield "ANOTHER_F", dict(n=n, j=kj, a=a)
        for kj in (0, 1, 2):
            yield "ITERATE_BRESS", dict(n=n, k=kj)
        for k in (1, 2, 3):
            for r in range(k + 1):
                yield "ANDREWS_ANSWER", dict(k=k, r=r, n=n)


def test_every_case_runs_its_runner_once(monkeypatch):
    import json
    import pathlib

    calls = _count_runner_calls(monkeypatch)
    suite = pathlib.Path(__file__).resolve().parent.parent / "suites" / "full-paper.suite"
    for c in json.loads(suite.read_text())["cases"]:
        c = dict(c)
        id = c.pop("id")
        c.pop("expect", None)
        calls.clear()
        verify(make_case(id, **c))
        assert calls == {id: 1}, (id, c)
    for order in (qe(40), he(81)):
        for id, params in _finite_structural_grid():
            calls.clear()
            rep = verify(make_case(id, order=order, **params))
            assert calls == {id: 1}, (id, params)
            assert rep.status == "pass" and rep.compared_order == order, (id, params, rep.detail)


def test_a_pass_below_the_request_is_an_error_not_a_retry(monkeypatch):
    calls = _count_runner_calls(monkeypatch)
    entry = catalog._REGISTRY["AG"]

    def short(p, wnum, stats):
        return [c._replace(lhs=c.lhs.truncated(he(wnum - 1))) for c in entry.runner(p, wnum, stats)]

    monkeypatch.setitem(catalog._REGISTRY, "AG", entry._replace(runner=short))
    rep = verify(make_case("AG", order=qe(20), k=1, r=0))
    assert calls == {"AG": 1}
    assert rep.status == "error"
    assert rep.detail == "compared only below q^39/2, not the requested q^20"


def test_verify_accepts_int_orders_as_whole_exponents():
    rep = verify(make_case("AG", order=20, k=1, r=0))
    assert rep.status == "pass"
    assert rep.case.order == qe(20)


def test_h_limit_ill_posed_z_is_an_error():
    rep = verify(make_case("H_LIMIT", a="3/2", z_sign="+", z_exp="5/2"))
    assert rep.status == "error"


def test_limit_cases_walk_one_column_per_certified_n(monkeypatch):
    # one walk per case, at its largest certified n, while each label keeps
    # its sample's own n; the walk of H_LIMIT at q^240 makes one two-term
    # pass per slice past the first, not O(n): with n >= L - 1 the walk
    # starts at the centre, 1/(q)_inf, and stops after top slices
    import qident.hfamily as hfamily
    import qident.qobjects as qobjects

    walks = []  # [n, top, passes]
    column = hfamily._h_column

    def h_column(n, top, length):
        walks.append([n, top, 0])
        yield from column(n, top, length)

    def counted(fn):
        def run(c, *args):
            walks[-1][2] += 1
            return fn(c, *args)

        return run

    monkeypatch.setattr(hfamily, "_h_column", h_column)
    for name in ("_two_term", "_prefix_add"):
        monkeypatch.setattr(qobjects, name, counted(getattr(qobjects, name)))
    # 2a is odd, so only an odd m keeps -z
    zs = ["1", "q^1/2", "-q^1/2"]
    cases = [
        (
            make_case("H_LIMIT", a="3/2", order=qe(240)),
            [240],
            [f"a=3/2 z={z}: polynomial at certified n=239 vs product" for z in zs]
            + ["a=3/2 z=q^1: polynomial at certified n=240 vs product"],
        ),
        (
            make_case("F_LIMIT", j=1, a="7/2", order=qe(40)),
            [39],
            [
                f"j=1 a=7/2 z={z}: closure value at certified n=39 vs product sum"
                for z in zs + ["q^1", "q^3/2", "-q^3/2"]
            ],
        ),
    ]
    for case, ns, labels in cases:
        walks.clear()
        assert verify(case).status == "pass"
        assert sorted(n for n, _, _ in walks) == ns, case.id
        if case.id == "H_LIMIT":
            assert all(0 < top < 20 and passes <= top for _, top, passes in walks), walks
        entry, params, wnum = catalog._prepare(case)
        assert [c.label for c in entry.runner(params, wnum, SumStats())] == labels


def test_limit_walks_start_at_the_centre(monkeypatch):
    # a certified n is at least L - 1, since `_certified_n` takes its minimum
    # over an s range that holds s = 0, so every limit walk of the limits
    # grid of tests/equivalence.py starts at [2n, n] = 1/(q)_inf
    import equivalence
    import qident.hfamily as hfamily

    walks = []
    column = hfamily._h_column
    monkeypatch.setattr(hfamily, "_h_column", lambda *a: walks.append(a) or column(*a))
    for id, params, order in equivalence.GRIDS["limits"]():
        verify(make_case(id, order=order, **params))
    assert len(walks) == 76  # one per case
    assert all(n + 1 >= length for n, _, length in walks), [w for w in walks if w[0] + 1 < w[2]]


def _ref_gordon_specs(p, mod, z):
    # a sum row's product list written out as specs: the reference for sums._gordon_key
    j, e = p["j"], qe(p["k"] + 1 - p["r"])
    sign, m = (1, qe(0)) if z is None else (-z.sign, z.q_exp)
    return [
        TripleProductSpec(qe(mod), Monomial(sign, e + m + qe(j - 2 * s)), Monomial(sign, qe(mod) - e - m - qe(j - 2 * s)),
                          1 if p["placement"] is None else qident.binom(j, s))
        for s in range(j + 1)
    ]


def _ref_limit_specs(j, a, z):
    # a limit sample's product list written out as specs: the reference for hfamily._limit_key
    m = z.q_exp
    return [
        TripleProductSpec(a * 2, Monomial(z.sign, a + m + j - 2 * i), Monomial(z.sign, a - m - j + 2 * i), qident.binom(j, i))
        for i in range(j + 1)
    ]


def _builder_z(id, z):
    # the z at which a z row calls its product builder
    return {"OVER_3": z.inverted(), "COR_INFTY": Monomial(-z.sign, -z.q_exp)}.get(id, z)


def _ref_item(specs):
    # a reference spec list as the kernel's item: every spec in Jacobi form
    # with one sign, each read off as (M, e, w) in half-units
    sign = specs[0].arg1.sign
    assert all(t.arg1.sign == t.arg2.sign == sign and t.arg1.q_exp + t.arg2.q_exp == t.modulus_exp for t in specs)
    return sign, tuple((t.modulus_exp.num, t.arg1.q_exp.num, t.weight) for t in specs)


def test_one_builder_makes_the_jacobi_product_lists_of_the_sum_rows_and_the_limits():
    # products._jacobi_key builds both as Jacobi items of ints; on every sum
    # row, z sample and limit sample of the sums and limits grids of
    # tests/equivalence.py each item equals the one read off the reference
    # spec list
    import equivalence
    from qident.hfamily import _limit_key

    count = 0
    for id, params, order in equivalence.GRIDS["sums"]() + equivalence.GRIDS["limits"]():
        _, p, _ = catalog._prepare(make_case(id, order=order, **params))
        if id in limits._LIMITS:
            j, a = p["j"], p["a"]
            for z in catalog._z_samples(p["z"], (2 * j - a.num, a.num - 2 * j), catalog._LIMIT_MS, a.num):
                assert _limit_key(j, a, z) == _ref_item(_ref_limit_specs(j, a, z)), (id, params, z)
                count += 1
            continue
        if id == "NEG_AG":  # AG's list on the true modulus 2k + 3, before the control moves it
            row, mod = sums._SUM_ROWS["AG"], 2 * p["k"] + 3
        else:
            row = sums._SUM_ROWS["OVER_2" if id == "CURIOUS" else id]
            mod = row.modulus(p)
        for z in [None] if row.window is None else catalog._z_samples(p["z"], row.window(p)):
            z = None if z is None else _builder_z(id, z)
            assert sums._gordon_key(p, mod, z) == _ref_item(_ref_gordon_specs(p, mod, z)), (id, params, z)
            count += 1
    assert count == 1376


def test_the_factor_route_shares_nothing_with_the_theta_kernel(monkeypatch):
    # eval_product_sum, the tests' oracle for every Jacobi product side, must
    # not reach the kernel it checks: no batch, and no theta half of a
    # product; the only theta series it sums is Euler's (Q; Q)_inf, the
    # pentagonal series at argument Q and modulus Q^3 behind each
    # (q^M; q^M)_inf and 1/(q)_inf
    import sys

    import qident.products as products
    import qident.qobjects as qobjects

    p = catalog._prepare(make_case("AG", k=2, r=1))[1]
    specs, W = _ref_gordon_specs(p, 7, None), qe(60)
    want = products._product_sums([sums._gordon_key(p, 7, None)], W)[0]
    batches, thetas = [], []
    real_sums, real_terms = products._product_sums, qobjects._theta_terms
    monkeypatch.setattr(products, "_product_sums", lambda *a: batches.append(a) or real_sums(*a))
    monkeypatch.setattr(qobjects, "_PARTITION_CACHE", {})
    for name, mod in list(sys.modules.items()):
        if name.startswith("qident") and getattr(mod, "_theta_terms", None) is real_terms:
            monkeypatch.setattr(mod, "_theta_terms", lambda *a: thetas.append(a) or real_terms(*a))
    assert eval_product_sum(specs, W) == want
    assert batches == []
    assert thetas and all(mn == 3 * en for en, mn, _ in thetas), thetas


def test_limit_walks_reuse_the_product_sides_partition_series(monkeypatch):
    # the centre anchor reads 1/(q)_inf at the case order, which the
    # product side builds anyway: the one-entry cache holds nothing deeper
    import qident.qobjects as qobjects

    monkeypatch.setattr(qobjects, "_PARTITION_CACHE", {})
    assert verify(make_case("H_LIMIT", a="3/2", order=qe(240))).status == "pass"
    assert list(qobjects._PARTITION_CACHE) == [qe(240).num]


def _per_sample_products(case):
    # the product side of each check of a z row, CURIOUS or a limit, built
    # one sample at a time from the reference spec lists
    entry, p, wnum = catalog._prepare(case)
    W = he(wnum)
    if case.id in limits._LIMITS:
        j, a = p["j"], p["a"]
        zs = catalog._z_samples(p["z"], (2 * j - a.num, a.num - 2 * j), catalog._LIMIT_MS, a.num)
        return [eval_product_sum(_ref_limit_specs(j, a, z), W) for z in zs]
    id = "OVER_2" if case.id == "CURIOUS" else case.id
    row = sums._SUM_ROWS[id]
    zs = catalog._z_samples(p["z"], row.window(p))
    prods = [eval_product_sum(_ref_gordon_specs(p, row.modulus(p), _builder_z(id, z)), W) for z in zs]
    return [x for x in prods for _ in range(2)] if case.id == "CURIOUS" else prods


def test_batched_product_sides_equal_the_per_sample_products():
    # each runner sums its product sides in one batch, where z and -z share
    # two products; every check's rhs must be the one-sample product sum,
    # coefficients and order
    cases = [make_case("CURIOUS"), make_case("CURIOUS", z_sign=-1, z_exp="1/2")]
    for k in range(3):
        cases += [make_case("OVER_3", k=k), make_case("COR_INFTY", k=k)]
        for j in range(k + 2):
            cases += [make_case("OVER_1", k=k, j=j), make_case("OVER_2", k=k, j=j)]
        cases.append(make_case("OVER_1", k=k + 1, j=2, placement=[1, k + 2]))
    for anum in range(1, 10, 2):
        cases += [make_case("H_LIMIT", a=f"{anum}/2"), make_case("H_LIMIT", a=anum)]
        cases += [make_case("F_LIMIT", j=j, a=f"{anum + 2 * j + 1}/2") for j in range(1, 3)]
    cases.append(make_case("F_LIMIT", j=1, a=4, z_sign=1, z_exp="-1/2"))
    count = 0
    for case in cases:
        entry, p, wnum = catalog._prepare(case)
        checks = entry.runner(p, wnum, SumStats())
        if case.id == "CURIOUS":  # the third check compares the two sums
            checks = [c for i, c in enumerate(checks) if i % 3 != 2]
        assert [c.rhs for c in checks] == _per_sample_products(case), case
        count += len(checks)
    assert count == 242


def test_sign_pairs_halve_the_limit_work(monkeypatch):
    # H_LIMIT a=3/2 at q^60 samples z = +-q^(m/2) at m = 0, 1, 2.  At m = -1,
    # 0, 1, 2, one frame per sample made 102 frame slice-adds, and one theta
    # sum per sample fed 90 nonzeros to its 8 products with 1/(q)_inf; the
    # frame pairs of each m and the two theta halves of each +-z pair halved
    # both, to 51 and 45, and dropping m = -1 left 38 and 32.  At mu = 0 the
    # slices t = +-s land on the same slots, so each is added once, doubled:
    # 6 fewer adds (s = 1..6, 3 s^2 < 60) over 59 + 54 + 47 + 36 + 23 + 6 =
    # 225 fewer slots.  The halves are multiplied as plain lists, so the
    # batch makes no `QSeries` product at all
    from operator import add, sub

    import qident.hfamily as hfamily
    import qident.products as products

    hi, adds, nonzeros, muls = 120, [], [], []

    def spy_map(fn, first, *rest):
        if fn in (add, sub) and len(first) < hi:  # a stride-2 slice of a frame
            adds.append(len(first))
        return map(fn, first, *rest)

    sparse, mul = products._convolve_sparse, QSeries.__mul__

    def spy_sparse(half, inv, out_len, step):
        nonzeros.append(len(half) - half.count(0))
        return sparse(half, inv, out_len, step)

    monkeypatch.setattr(hfamily, "map", spy_map, raising=False)
    monkeypatch.setattr(products, "_convolve_sparse", spy_sparse)
    monkeypatch.setattr(QSeries, "__mul__", lambda x, y: muls.append(y) or mul(x, y))
    assert verify(make_case("H_LIMIT", order=60, a="3/2")).status == "pass"
    assert (len(adds), sum(adds)) == (32, 1527 - 225)
    assert (len(nonzeros), sum(nonzeros)) == (6, 32)
    assert muls == []


def test_expansion_check_labels():
    cases = [
        (make_case("KEY_LEMMA", n=2, a="3/2"), "n=2 a=3/2: one-step expansion"),
        (make_case("F_SUM", n=2, j=1, a=2), "n=2 j=1 a=2: one-step expansion of the closure"),
        (make_case("NEW_PROP", n=2, a="3/2"), "n=2 a=3/2: shifted-pair expansion"),
        (
            make_case("NEW_PROP2", n=2, j=1, a=2),
            "n=2 j=1 a=2: shifted-pair expansion of the closure",
        ),
        (make_case("ANOTHER_F", n=2, j=1, a=2), "n=2 j=1 a=2: full chain expansion"),
        (make_case("ITER_PROP", n=2, k=1, a=1), "n=2 k=1 a=1: iterated expansion"),
        (make_case("ITERATE_BRESS", n=2, k=1), "n=2 k=1: iterated expansion with factored tail"),
    ]
    for case, label in cases:
        assert verify(case).status == "pass", case.id
        entry, params, wnum = catalog._prepare(case)
        assert [c.label for c in entry.runner(params, wnum, SumStats())] == [label]


def test_f_limit_needs_margin():
    rep = verify(make_case("F_LIMIT", j=2, a="3/2"))
    assert rep.status == "error"  # no well-posed z sample exists


_CANNOT_RUN = [
    (make_case("EDGE_LEMMA", j=2, samples=[]), "samples must list at least one sample, got []"),
    (make_case("F_LIMIT", j=1, a=1), "no well-posed z sample exists for these parameters"),
    (make_case("F_LIMIT", j=2, a="3/2"), "no well-posed z sample exists for these parameters"),
    (make_case("H_LIMIT", a="3/2", z_exp=5), "z = q^5 is outside the well-posed window for these parameters"),
    (make_case("OVER_1", k=1, j=0, z_exp=9), "z = q^9 is outside the well-posed window for these parameters"),
    (make_case("CURIOUS", z_sign=-1, z_exp=2), "z = -q^2 is outside the well-posed window for these parameters"),
]


@pytest.mark.parametrize("case, detail", _CANNOT_RUN, ids=["edge-no-samples", "F_LIMIT-a-is-j", "F_LIMIT-a-below-j",
                                                           "H_LIMIT-z", "OVER_1-z", "CURIOUS-z"])
def test_a_case_that_cannot_run_is_refused_when_prepared(case, detail):
    # each run could only end in an error, so `qident suite` refuses it up
    # front with every other bad case; verify reports the same detail
    with pytest.raises(SpecError) as e:
        validate_case(case)
    assert str(e.value) == detail
    rep = verify(case)
    assert (rep.status, rep.detail) == ("error", detail)


def _z_family_edges():
    """(id, params) of every z family at the edges of its parameters: j = 0 and
    j = k + 1 for the overpartition rows, a just above j for the limits, and
    the limits at a <= j, which have no window."""
    grid = [(id, {"k": k, "j": j}) for id in ("OVER_1", "OVER_2") for k in range(3) for j in (0, k + 1)]
    grid += [(id, {"k": k}) for id in ("OVER_3", "COR_INFTY") for k in range(2)] + [("CURIOUS", {})]
    grid += [("H_LIMIT", {"a": a}) for a in ("1/2", 1)]
    return grid + [("F_LIMIT", {"j": j, "a": a}) for j in (1, 2) for a in (str(he(2 * j + 1)), j + 1, j, str(he(2 * j - 1)))]


def test_z_samples_are_never_empty_and_never_outside_the_window(monkeypatch):
    # the prepares hold every z rule, so `_z_samples` has no case to refuse:
    # at each z family's edges, a case that validates samples a nonempty list
    # (its window read off the runner's call), an explicit z passes exactly
    # inside that window and is refused when prepared from its ends on, and a
    # limit at a <= j is refused when prepared
    calls, samples = [], catalog._z_samples

    def spy(z, window, *rest):
        calls.append((z, window, samples(z, window, *rest)))
        return calls[-1][2]

    for family in (sums, limits):
        monkeypatch.setattr(family, "_z_samples", spy)
    refused = 0
    for id, params in _z_family_edges():
        calls.clear()
        rep = verify(make_case(id, order=qe(6), **params))
        if rep.status == "error":
            assert rep.detail == "no well-posed z sample exists for these parameters" and not calls, (id, params)
            assert id == "F_LIMIT" and HalfInt.parse(str(params["a"])).num <= 2 * params["j"]
            refused += 1
            continue
        assert rep.status == "pass" and len(calls) == 1 and calls[0][2], (id, params, rep.detail)
        lo, hi = calls[0][1]
        for m in range(lo - 2, hi + 3):
            z = Monomial((1, -1)[m % 2], he(m))
            calls.clear()
            case = make_case(id, order=qe(6), z_sign=z.sign, z_exp=str(he(m)), **params)
            rep = verify(case)
            if lo < m < hi:
                assert rep.status == "pass" and calls == [(z, (lo, hi), [z])], (id, params, m, rep.detail)
            else:
                detail = f"z = {z} is outside the well-posed window for these parameters"
                assert (rep.status, rep.detail, calls) == ("error", detail, []), (id, params, m)
                with pytest.raises(SpecError, match=re.escape(detail)):
                    validate_case(case)
    assert refused == 4


def test_andrews_gordon_k8_at_q240_within_budget():
    t0 = time.perf_counter()
    for r in range(3):
        _ok("AG", order=qe(240), k=8, r=r)
    assert time.perf_counter() - t0 < 5.0


def test_iter_prop_deep_chain_sum_within_budget():
    # 92,378 index chains; the kernel sums them in (k + 1) (n + 1) = 99 cells,
    # one Horner chain of prefix-add passes each (35 evaluated, 64 skipped)
    t0 = time.perf_counter()
    _ok("ITER_PROP", order=qe(40), n=10, k=8, a="1/2")
    assert time.perf_counter() - t0 < 2.0


def test_thm_3_1_k5_two_position_placement_at_q160():
    _ok("THM_3_1", order=qe(160), k=5, r=0, j=2, placement=[2, 4])


def test_h_limit_at_q240_is_certified_quickly():
    # the consecutive-n sweep gave up at n = 128 here
    t0 = time.perf_counter()
    _ok("H_LIMIT", order=qe(240), a="3/2")
    assert time.perf_counter() - t0 < 2.0


def test_h_limit_passes_where_the_square_root_jump_failed():
    # the removed square-root rule reported a false FAIL at q^8 here
    _ok("H_LIMIT", order=qe(40), a="3/2")


def test_limit_ids_reject_a_leftover_criterion():
    for case in (
        make_case("H_LIMIT", a="3/2", criterion="bound"),
        make_case("F_LIMIT", j=1, a="7/2", criterion="consecutive"),
    ):
        with pytest.raises(SpecError, match="unknown parameter"):
            validate_case(case)
        rep = verify(case)
        assert rep.status == "error"
        assert "criterion" in rep.detail


def _raise_recursion(p, wnum, stats):
    raise RecursionError("maximum recursion depth exceeded")


def test_verify_never_raises(monkeypatch):
    # an exception from outside qident's own hierarchy becomes an error report
    entry = catalog._REGISTRY["SPECIAL_A"]
    monkeypatch.setitem(catalog._REGISTRY, "SPECIAL_A", entry._replace(runner=_raise_recursion))
    rep = verify(make_case("SPECIAL_A", n=3))
    assert rep.status == "error"
    assert rep.detail == "RecursionError: maximum recursion depth exceeded"


def test_special_a_size_limit_is_a_spec_error():
    # exact H(1100, 1/2) has about 1.8e9 coefficients: refused up front
    case = make_case("SPECIAL_A", n=1100)
    with pytest.raises(SpecError, match="must be <= 40"):
        validate_case(case)
    rep = verify(case)
    assert rep.status == "error"
    assert rep.detail == "parameter 'n' must be <= 40, got 1100"
    assert verify(make_case("SPECIAL_A", n=10)).status == "pass"


def test_inverse_q_factorial_ladder_builds_a_deep_rung():
    # the ladder is iterative: rung 1500 needs no recursion, and below
    # q^1501 it agrees with 1 / (q; q)_inf
    order = qe(1501)
    assert _inv_poch_ladder(2, order.num)(1500) == partition_series(order)


def test_key_lemma_passes_at_exactly_q40_without_padding():
    rep = _ok("KEY_LEMMA", order=qe(40), n=4, a="5/2")
    assert rep.compared_order == qe(40)
