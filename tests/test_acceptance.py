"""Acceptance gate: exact coefficient equality at desk scale.

One test per criterion; each records a single [PASS]/[FAIL] line that
the conftest terminal-summary hook prints after the run, so the gate's
outcome is visible even under output capture.  Tolerances are zero
everywhere (all arithmetic is exact); the only numeric limits are the
stated runtimes.
"""

import itertools
import random
import time

import pytest

from qident import (
    HalfInt,
    Monomial,
    QSeries,
    SummandSpec,
    SumStats,
    TailEven,
    TailOverOdd,
    TripleProductSpec,
    enumerate_edge_sets,
    eval_multisum,
    eval_product_sum,
    make_case,
    verify,
    he,
    qe,
)
from qident import catalog
from naive import (
    brute_force_multisum,
    count_gap_partitions,
    count_partitions_in_residues,
)
from conftest import random_qseries
from test_multisum import random_spec


_RESULTS = []


def criterion_lines():
    """Recorded [PASS]/[FAIL] lines, one per criterion run so far."""
    return list(_RESULTS)


def _criterion(num, desc):
    def deco(fn):
        def wrapped(*a, **kw):
            t0 = time.perf_counter()
            try:
                fn(*a, **kw)
            except BaseException:
                _RESULTS.append(f"[FAIL] criterion {num:2d}: {desc}")
                print(_RESULTS[-1])
                raise
            dt = time.perf_counter() - t0
            _RESULTS.append(f"[PASS] criterion {num:2d}: {desc} ({dt:.2f}s)")
            print(_RESULTS[-1])

        wrapped.__name__ = fn.__name__
        wrapped.__doc__ = fn.__doc__
        return wrapped

    return deco


def _ag_lambda(k, r):
    return tuple(1 if i + 1 > k - r else 0 for i in range(k))


def _bress_lambda(k, j, r=0):
    return tuple((-1 if i + 1 <= j else 0) + (1 if i + 1 > k - r else 0) for i in range(k))


def _assert_pass(id, order, **params):
    rep = verify(make_case(id, order=order, **params))
    assert rep.status == "pass", (id, params, rep.status, rep.detail, rep.first_mismatch)
    assert rep.compared_order >= rep.case.order


@_criterion(1, "Rogers-Ramanujan through q^100 + gap-partition oracle, < 1 s")
def test_criterion_01_rogers_ramanujan():
    t0 = time.perf_counter()
    for r in (0, 1):
        _assert_pass("AG", qe(100), k=1, r=r)
        lhs = eval_multisum(SummandSpec(1, _ag_lambda(1, r)), qe(100))
        for n in range(41):
            assert lhs.coefficient(qe(n)) == count_gap_partitions(n, 1, r), (r, n)
    assert time.perf_counter() - t0 < 1.0


@_criterion(2, "Andrews-Gordon k <= 4 through q^60 + residue oracle, < 30 s")
def test_criterion_02_andrews_gordon():
    t0 = time.perf_counter()
    for k in range(1, 5):
        M = 2 * k + 3
        for r in range(k + 1):
            _assert_pass("AG", qe(60), k=k, r=r)
            a = k + 1 - r
            prod = eval_product_sum(
                [TripleProductSpec(qe(M), Monomial(1, qe(a)), Monomial(1, qe(M - a)))],
                qe(31),
            )
            allowed = set(range(1, M)) - {a, M - a}
            for n in range(31):
                assert prod.coefficient(qe(n)) == count_partitions_in_residues(n, M, allowed)
    assert time.perf_counter() - t0 < 30.0


@_criterion(3, "Bressoud even modulus k <= 4 through q^60")
def test_criterion_03_bressoud_even():
    for k in range(1, 5):
        for r in range(k + 1):
            _assert_pass("BRESSOUD_EVEN", qe(60), k=k, r=r)


@_criterion(4, "alternating-lambda family + generalization through q^60, coincidences bit-exact")
def test_criterion_04_bress_j_and_thm_3_2():
    for k in range(1, 5):
        for j in range(k + 1):
            _assert_pass("BRESS_J", qe(60), k=k, j=j)
        for r in range(k + 1):
            for j in range(k - r + 1):
                _assert_pass("THM_3_2", qe(60), k=k, r=r, j=j)
    # bit-exact coincidences, both lambda patterns written out independently
    for k in range(1, 5):
        for j in range(k + 1):
            plain = eval_multisum(SummandSpec(k, tuple(-1 if i < j else 0 for i in range(k))), qe(60))
            general = eval_multisum(SummandSpec(k, _bress_lambda(k, j, 0)), qe(60))
            assert plain == general
        for r in range(k + 1):
            ag = eval_multisum(SummandSpec(k, _ag_lambda(k, r)), qe(60))
            thm = eval_multisum(SummandSpec(k, _bress_lambda(k, 0, r)), qe(60))
            assert ag == thm


@_criterion(5, "binomial-product theorem through q^60 incl. every legal placement")
def test_criterion_05_thm_3_1_placement_invariance():
    for k in range(1, 5):
        for r in range(k + 1):
            for j in range(k - r + 1):
                for P in itertools.combinations(range(1, k - r + 1), j):
                    _assert_pass("THM_3_1", qe(60), k=k, r=r, j=j, placement=list(P))


@_criterion(6, "even-modulus variants through q^60 + even replacement fact s <= 8")
def test_criterion_06_even_theorems():
    for k in range(1, 5):
        for r in range(k + 1):
            for j in range(k - r + 1):
                _assert_pass("THM_4_2", qe(60), k=k, r=r, j=j)
                for P in itertools.combinations(range(1, k - r + 1), j):
                    _assert_pass("THM_4_1", qe(60), k=k, r=r, j=j, placement=list(P))
    rep = verify(make_case("EVEN_FACT", order=qe(40), s_max=8))
    assert rep.status == "pass"


@_criterion(7, "structural identities n <= 6 over the weight grid through q^40, < 60 s")
def test_criterion_07_structural_grid():
    t0 = time.perf_counter()
    weights = ["1/2", "1", "3/2", "2", "5/2", "7/2"]
    W = qe(40)
    for n in range(7):
        _assert_pass("SPECIAL_A", W, n=n)
        for a in weights:
            _assert_pass("KEY_LEMMA", W, n=n, a=a)
            _assert_pass("FUNC_EQ", W, n=n, c=a)
            _assert_pass("NEW_PROP", W, n=n, a=a)
            for kj in (1, 2):
                _assert_pass("ITER_PROP", W, n=n, k=kj, a=a)
                _assert_pass("NEW_PROP2", W, n=n, j=kj, a=a)
                _assert_pass("ANOTHER_F", W, n=n, j=kj, a=a)
                _assert_pass("F_SUM", W, n=n, j=kj, a=a)
                _assert_pass("RECURSE_F", W, n=n, j=kj, a=a)
        for kj in (1, 2):
            _assert_pass("ITERATE_BRESS", W, n=n, k=kj)
    assert time.perf_counter() - t0 < 60.0


@_criterion(8, "limit identities: certified-n limits meet products through q^40")
def test_criterion_08_limits():
    ran = set()
    for a in ("3/2", "5/2", "7/2"):
        _assert_pass("H_LIMIT", qe(40), a=a)
        anum = HalfInt.parse(a).num
        for j in range(4):
            if anum - 2 * j <= 0:
                continue  # no well-posed z exists
            _assert_pass("F_LIMIT", qe(40), j=j, a=a)
            ran.add((j, a))
    assert (3, "7/2") in ran


@_criterion(9, "overpartition families through q^50 (CURIOUS through q^100)")
def test_criterion_09_overpartitions():
    for k in range(4):
        for j in range(k + 2):
            # z = +-q^(m/2) is well posed for lo < m < hi, and m and 2 - m
            # give equal checks, so the runner samples one m of each mirror
            # pair about m = 1; at odd m, q^(1/2) -> -q^(1/2) takes the check
            # at +z to the one at -z, so only +z: 6 checks at k=1 j=0
            lo, hi = 2 * (j - k - 1), 2 * (k + 2 - j)
            want = sum(1 if m % 2 else 2 for m in (-2, -1, 0, 1) if lo < m < hi)
            for id in ("OVER_1", "OVER_2"):
                case = make_case(id, order=qe(50), k=k, j=j)
                rep = verify(case)
                assert rep.status == "pass", (id, k, j, rep.detail)
                entry, p, ordnum = catalog._prepare(case)
                assert len(entry.runner(p, ordnum, SumStats())) == want, (id, k, j)
        _assert_pass("OVER_3", qe(50), k=k)
    _assert_pass("CURIOUS", qe(100))
    _assert_pass("CURIOUS", qe(100), z_sign="+", z_exp=0)


@_criterion(10, "edge sets: signed collapse, counts, binomial collapse")
def test_criterion_10_combinatorics():
    rng = random.Random(1105)
    for j in range(9):
        samples = []
        for _ in range(50):
            t = []
            prev = rng.randint(0, 9)
            for _ in range(j):
                t.append(prev)
                prev = rng.randint(0, prev)
            samples.append(tuple(t))
        rep = verify(make_case("EDGE_LEMMA", j=j, samples=samples))
        assert rep.status == "pass", (j, rep.detail)
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    from math import comb

    for j in range(13):
        sets = enumerate_edge_sets(j)
        assert len(sets) == fib[j]
        by_size = {}
        for E in sets:
            by_size[len(E.edges)] = by_size.get(len(E.edges), 0) + 1
        for t, cnt in by_size.items():
            assert cnt == comb(j - t, t)
    for j in range(21):
        assert verify(make_case("CHU_COEFF", j=j)).ok


@_criterion(11, "engine soundness: brute force, ring laws, negative controls")
def test_criterion_11_engine_soundness():
    # pruned engine == unpruned dense oracle on 100 random specs
    rng = random.Random(20240816)
    done = 0
    while done < 100:
        spec, descriptor = random_spec(rng)
        ordnum = rng.randint(4, 20)
        got = eval_multisum(spec, he(ordnum))
        want = brute_force_multisum(
            spec.k, spec.linear, spec.placement, descriptor, ordnum, cap=ordnum + 4
        )
        for e in range(ordnum):
            assert got.coefficient(he(e)) == want.coeff(e), (spec, descriptor, e)
        done += 1

    # ring laws on 1000 random triples
    rng = random.Random(77)
    for _ in range(1000):
        a = random_qseries(rng, span=16, max_terms=5)
        b = random_qseries(rng, span=16, max_terms=5)
        c = random_qseries(rng, span=16, max_terms=5)
        assert ((a + b) + c).eq_upto(a + (b + c)).equal
        assert (a * b).eq_upto(b * a).equal
        assert (a * (b + c)).eq_upto(a * b + a * c).equal

    # negative controls with independently certified first mismatches
    rep = verify(make_case("NEG_AG", order=qe(30), k=1, r=0))
    assert rep.status == "fail"
    # parts = +-1 mod 5 give {5, 4+1} at n=5 while parts in {1,4,5} mod 6
    # give {5, 4+1, 1^5}: first divergence is exactly q^5, 2 vs 3
    assert rep.first_mismatch.exp == qe(5)
    assert (rep.first_mismatch.lhs, rep.first_mismatch.rhs) == (2, 3)

    # swapping the two product arguments of the odd overpartition closing
    # identity moves a q^(1/2) coefficient: 1 on the sum side, 0 mirrored
    z = Monomial(1, he(1))
    lhs = eval_multisum(SummandSpec(1, (1,), tail=TailOverOdd(z)), he(20))
    mirrored = eval_product_sum(
        [TripleProductSpec(qe(3), Monomial(-1, qe(1) + he(1)), Monomial(-1, qe(2) - he(1)))],
        he(20),
    )
    r = lhs.eq_upto(mirrored)
    assert not r.equal and r.mismatch.exp == he(1)
    assert (r.mismatch.lhs, r.mismatch.rhs) == (1, 0)

    # synthetic single-coefficient tamper is pinned to the exact spot
    base = eval_product_sum(
        [TripleProductSpec(qe(5), Monomial(1, qe(2)), Monomial(1, qe(3)))], qe(30)
    )
    tampered = base + QSeries.monomial(1, qe(17), base.order)
    r = base.eq_upto(tampered)
    assert not r.equal and r.mismatch.exp == qe(17)
    assert r.mismatch.rhs - r.mismatch.lhs == 1
