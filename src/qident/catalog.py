"""Registry of the verified identities.

Every registered id names one displayed result and knows how to build
both of its sides: sum--product identities over a modulus family, the
structural polynomial identities in n (verified symbolically in z as
ZLaurent equalities), limit statements (polynomial values at a certified
n against infinite products), and the combinatorial supporting facts
(edge sets, the binomial collapse, the even replacement fact).

`verify` runs the checks for a case and reports pass/fail/error, the
order actually compared, the first mismatching coefficient if any, and
how many multisum cells the summation engine evaluated.  Identities that
lose working order to divisions or negative shifts are rerun with a
larger internal padding until the compared order reaches the request.
`verify` never raises: an exception from any check becomes an `error`
report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .hfamily import (
    FSpec,
    HSpec,
    f_func,
    f_limit_sum,
    h_limit_product,
    h_poly,
    stabilized_f_value,
    stabilized_h_value,
)
from .multisum import (
    SummandSpec,
    SumStats,
    TailEven,
    TailH,
    TailOdd,
    TailOver,
    TailOverOdd,
    eval_multisum,
)
from .products import TripleProductSpec, eval_product_sum
from .qobjects import Monomial, binom, poch_finite, poch_finite_scalar
from .series import (
    INF,
    HalfInt,
    Mismatch,
    Order,
    QidentError,
    QSeries,
    SpecError,
    ZLaurent,
    _min_ord,
    _ord_num,
    _ord_obj,
    he,
    qe,
)


@dataclass(frozen=True)
class IdentityCase:
    """One verification job: an id, its parameters, and a truncation order."""

    id: str
    params: Mapping = field(default_factory=dict)
    order: Optional[HalfInt] = None

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        if self.order is not None and not isinstance(self.order, HalfInt):
            o = HalfInt._coerce(self.order)
            if o is None:
                raise SpecError(f"bad order {self.order!r}")
            object.__setattr__(self, "order", o)


@dataclass
class VerificationReport:
    case: IdentityCase
    status: str  # "pass" | "fail" | "error"
    compared_order: Optional[Order]
    first_mismatch: Optional[Mismatch]
    elapsed: float
    tuple_count: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Check:
    """A labelled pair of sides; both must support eq_upto."""

    label: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class _Entry:
    prepare: Callable[[dict], dict]
    runner: Callable[[dict, int, int, SumStats], List[Check]]
    default_ordnum: Callable[[dict], int]


_REGISTRY: Dict[str, _Entry] = {}


def registered_ids() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_case(id: str, order=None, **params) -> IdentityCase:
    o = None if order is None else HalfInt._coerce(order)
    if order is not None and o is None:
        o = HalfInt.parse(order)
    return IdentityCase(id, params, o)


def validate_case(case: IdentityCase) -> None:
    """Raise SpecError when the id is unknown or the params do not check out.

    Cheap: runs only the parameter validation, not the verification.
    """
    entry = _REGISTRY.get(case.id)
    if entry is None:
        raise SpecError(f"unknown identity id {case.id!r}; known: {', '.join(registered_ids())}")
    entry.prepare(dict(case.params))
    if case.order is not None and case.order.num <= 0:
        raise SpecError(f"order must be positive, got {case.order}")


# ---------------------------------------------------------------------------
# parameter plumbing


def _reject_unknown(params: dict, allowed: Sequence[str]) -> None:
    extra = set(params) - set(allowed)
    if extra:
        raise SpecError(f"unknown parameter(s) {sorted(extra)}; expected {sorted(allowed)}")


def _need_int(params: dict, name: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    if name not in params:
        raise SpecError(f"missing required parameter {name!r}")
    v = params[name]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SpecError(f"parameter {name!r} must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise SpecError(f"parameter {name!r} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise SpecError(f"parameter {name!r} must be <= {hi}, got {v}")
    return v


def _opt_int(params: dict, name: str, default: int, lo: Optional[int] = None) -> int:
    if name not in params or params[name] is None:
        return default
    return _need_int(params, name, lo)


def _need_half(params: dict, name: str) -> HalfInt:
    if name not in params:
        raise SpecError(f"missing required parameter {name!r}")
    v = params[name]
    try:
        return HalfInt.parse(v)
    except (ValueError, TypeError):
        raise SpecError(f"parameter {name!r} must be a half-integer, got {v!r}")


def _opt_z(params: dict) -> Optional[Monomial]:
    """z described by z_sign / z_exp; absent means "use the sampling policy"."""
    if "z_sign" not in params and "z_exp" not in params:
        return None
    sign = params.get("z_sign", 1)
    if sign in ("+", "+1"):
        sign = 1
    if sign in ("-", "-1"):
        sign = -1
    if sign not in (1, -1):
        raise SpecError(f"z_sign must be +1 or -1, got {params.get('z_sign')!r}")
    exp = params.get("z_exp", 0)
    try:
        exp = HalfInt.parse(exp)
    except (ValueError, TypeError):
        raise SpecError(f"z_exp must be a half-integer, got {params.get('z_exp')!r}")
    return Monomial(sign, exp)


def _opt_placement(params: dict, j: int, limit: int) -> frozenset:
    if params.get("placement") is None:
        if j > limit:
            raise SpecError(f"no legal placement: need {j} positions within 1..{limit}")
        return frozenset(range(1, j + 1))
    p = params["placement"]
    try:
        p = frozenset(int(i) for i in p)
    except (TypeError, ValueError):
        raise SpecError(f"placement must be a collection of positions, got {p!r}")
    if len(p) != j:
        raise SpecError(f"placement {sorted(p)} must have exactly j={j} positions")
    if not all(1 <= i <= limit for i in p):
        raise SpecError(f"placement {sorted(p)} must lie within 1..{limit}")
    return p


# monomial z sampling policies (numerators of half-integer exponents)
_POLICY_MS = (-2, -1, 0, 1, 2, 3)
_LIMIT_MS = (-3, -1, 0, 1, 2, 3, 5)


def _z_samples(z: Optional[Monomial], ms: Sequence[int], posed: Callable[[int], bool]) -> List[Monomial]:
    if z is not None:
        if not posed(z.q_exp.num):
            raise SpecError(f"z = {z} is outside the well-posed window for these parameters")
        return [z]
    out = [Monomial(sig, HalfInt(m)) for m in ms if posed(m) for sig in (1, -1)]
    if not out:
        raise SpecError("no well-posed z sample exists for these parameters")
    return out


# ---------------------------------------------------------------------------
# shared builders

_INV_QFAC_CACHE: Dict[Tuple[int, int], List[int]] = {}


def _inv_qfac(d: int, wnum: int) -> QSeries:
    """1 / (q; q)_d truncated below wnum (half-exponent units)."""
    if d < 0:
        raise SpecError(f"negative Pochhammer depth {d}")
    key = (d, wnum)
    got = _INV_QFAC_CACHE.get(key)
    if got is None:
        if d == 0:
            got = [0] * wnum
            if wnum > 0:
                got[0] = 1
        else:
            got = list(_INV_QFAC_CACHE_get(d - 1, wnum))
            step = 2 * d
            for i in range(step, wnum):
                got[i] += got[i - step]
        _INV_QFAC_CACHE[key] = got
    return QSeries(0, list(got), wnum)


def _INV_QFAC_CACHE_get(d: int, wnum: int) -> List[int]:
    _inv_qfac(d, wnum)
    return _INV_QFAC_CACHE[(d, wnum)]


def _ag_lambda(k: int, r: int) -> Tuple[int, ...]:
    # +1 on the last r indices
    return tuple(1 if i + 1 > k - r else 0 for i in range(k))


def _bress_lambda(k: int, j: int, r: int = 0) -> Tuple[int, ...]:
    # -1 on the first j indices, +1 on the last r
    return tuple((-1 if i + 1 <= j else 0) + (1 if i + 1 > k - r else 0) for i in range(k))


def _triple(mod_q: int, sign1: int, e1: HalfInt, sign2: int, e2: HalfInt, weight: int = 1) -> TripleProductSpec:
    return TripleProductSpec(qe(mod_q), Monomial(sign1, e1), Monomial(sign2, e2), weight)


def _chain_sum(
    n: int,
    depth: int,
    wnum: int,
    gap_first: bool,
    factor: Callable[[int, int, int], QSeries],
) -> Dict[int, QSeries]:
    """Accumulate scalar weights over chains n >= s_1 >= ... >= s_depth >= 0.

    factor(t, prev, s) is the multiplicative weight of level t (1-based);
    the gap inverse Pochhammer 1/(q)_{prev-s} is included automatically,
    for the first level only when gap_first.  Returns buckets keyed by
    the last index, each a QSeries scalar at order wnum.
    """
    buckets: Dict[int, QSeries] = {}

    def walk(t: int, prev: int, val: QSeries) -> None:
        for s in range(prev, -1, -1):
            v = val * factor(t, prev, s)
            if t > 1 or gap_first:
                v = v * _inv_qfac(prev - s, wnum)
            if t == depth:
                buckets[s] = buckets.get(s, QSeries.zero(he(wnum))) + v
            else:
                walk(t + 1, s, v)

    walk(1, n, QSeries.one(he(wnum)))
    return buckets


def _qsq(s: int, lin: int = 0) -> QSeries:
    return QSeries.monomial(1, qe(s * s + lin * s))


# ---------------------------------------------------------------------------
# sum--product families


def _prep_ag(params: dict) -> dict:
    _reject_unknown(params, ("k", "r"))
    k = _need_int(params, "k", 1)
    r = _need_int(params, "r", 0, k)
    return {"k": k, "r": r}


def _run_ag(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    k, r = p["k"], p["r"]
    lhs = eval_multisum(SummandSpec(k, _ag_lambda(k, r)), he(wnum), stats)
    rhs = eval_product_sum(
        [_triple(2 * k + 3, 1, qe(k + 1 - r), 1, qe(k + 2 + r))], he(wnum)
    )
    return [Check(f"k={k} r={r}: sum vs modulus-{2 * k + 3} product", lhs, rhs)]


def _run_neg_ag(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    # deliberately wrong modulus (one more than the true one); a suite can
    # mark this id with expect: fail to prove the harness detects mismatches
    k, r = p["k"], p["r"]
    lhs = eval_multisum(SummandSpec(k, _ag_lambda(k, r)), he(wnum), stats)
    rhs = eval_product_sum(
        [_triple(2 * k + 4, 1, qe(k + 1 - r), 1, qe(k + 2 + r))], he(wnum)
    )
    return [Check(f"k={k} r={r}: sum vs modulus-{2 * k + 4} product (control)", lhs, rhs)]


def _run_bressoud_even(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    k, r = p["k"], p["r"]
    lhs = eval_multisum(SummandSpec(k, _ag_lambda(k, r), tail=TailEven()), he(wnum), stats)
    rhs = eval_product_sum(
        [_triple(2 * k + 2, 1, qe(k + 1 - r), 1, qe(k + 1 + r))], he(wnum)
    )
    return [Check(f"k={k} r={r}: sum vs modulus-{2 * k + 2} product", lhs, rhs)]


def _prep_bress_j(params: dict) -> dict:
    _reject_unknown(params, ("k", "j"))
    k = _need_int(params, "k", 1)
    j = _need_int(params, "j", 0, k)
    return {"k": k, "j": j}


def _run_bress_j(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    k, j = p["k"], p["j"]
    lhs = eval_multisum(SummandSpec(k, _bress_lambda(k, j)), he(wnum), stats)
    rhs = eval_product_sum(
        [
            _triple(2 * k + 3, 1, qe(k + 1 + j - 2 * s), 1, qe(k + 2 - j + 2 * s))
            for s in range(j + 1)
        ],
        he(wnum),
    )
    return [Check(f"k={k} j={j}: sum vs {j + 1}-term product", lhs, rhs)]


def _prep_thm3(params: dict) -> dict:
    _reject_unknown(params, ("k", "r", "j", "placement"))
    k = _need_int(params, "k", 1)
    r = _need_int(params, "r", 0, k)
    j = _need_int(params, "j", 0, k - r)
    return {"k": k, "r": r, "j": j, "placement": _opt_placement(params, j, k - r)}


def _prep_thm3_noplacement(params: dict) -> dict:
    _reject_unknown(params, ("k", "r", "j"))
    k = _need_int(params, "k", 1)
    r = _need_int(params, "r", 0, k)
    j = _need_int(params, "j", 0, k - r)
    return {"k": k, "r": r, "j": j}


def _binomial_products(mod_q: int, base1: int, base2: int, j: int, weighted: bool) -> List[TripleProductSpec]:
    return [
        _triple(
            mod_q,
            1,
            qe(base1 + j - 2 * s),
            1,
            qe(base2 - j + 2 * s),
            binom(j, s) if weighted else 1,
        )
        for s in range(j + 1)
    ]


def _run_thm_3_1(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    k, r, j, pl = p["k"], p["r"], p["j"], p["placement"]
    lhs = eval_multisum(
        SummandSpec(k, _ag_lambda(k, r), placement=pl), he(wnum), stats
    )
    rhs = eval_product_sum(
        _binomial_products(2 * k + 3, k + 1 - r, k + 2 + r, j, True), he(wnum)
    )
    return [Check(f"k={k} r={r} j={j} P={sorted(pl)}: sum vs binomial product", lhs, rhs)]


def _run_thm_3_2(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    k, r, j = p["k"], p["r"], p["j"]
    lhs = eval_multisum(SummandSpec(k, _bress_lambda(k, j, r)), he(wnum), stats)
    rhs = eval_product_sum(
        _binomial_products(2 * k + 3, k + 1 - r, k + 2 + r, j, False), he(wnum)
    )
    return [Check(f"k={k} r={r} j={j}: sum vs {j + 1}-term product", lhs, rhs)]


def _run_thm_4_1(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    k, r, j, pl = p["k"], p["r"], p["j"], p["placement"]
    lhs = eval_multisum(
        SummandSpec(k, _ag_lambda(k, r), placement=pl, tail=TailEven()), he(wnum), stats
    )
    rhs = eval_product_sum(
        _binomial_products(2 * k + 2, k + 1 - r, k + 1 + r, j, True), he(wnum)
    )
    return [Check(f"k={k} r={r} j={j} P={sorted(pl)}: even sum vs binomial product", lhs, rhs)]


def _run_thm_4_2(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    k, r, j = p["k"], p["r"], p["j"]
    lhs = eval_multisum(
        SummandSpec(k, _bress_lambda(k, j, r), tail=TailEven()), he(wnum), stats
    )
    rhs = eval_product_sum(
        _binomial_products(2 * k + 2, k + 1 - r, k + 1 + r, j, False), he(wnum)
    )
    return [Check(f"k={k} r={r} j={j}: even sum vs {j + 1}-term product", lhs, rhs)]


# ---------------------------------------------------------------------------
# overpartition families (K = k+1 summation indices)


def _prep_over_binom(params: dict) -> dict:
    _reject_unknown(params, ("k", "j", "placement", "z_sign", "z_exp"))
    k = _need_int(params, "k", 0)
    j = _need_int(params, "j", 0, k + 1)
    placement = _opt_placement(params, j, k + 1)
    return {"k": k, "j": j, "placement": placement, "z": _opt_z(params)}


def _prep_over_plain(params: dict) -> dict:
    _reject_unknown(params, ("k", "j", "z_sign", "z_exp"))
    k = _need_int(params, "k", 0)
    j = _need_int(params, "j", 0, k + 1)
    return {"k": k, "j": j, "z": _opt_z(params)}


def _over_window(k: int, j: int) -> Callable[[int], bool]:
    return lambda m: 2 * (j - k - 1) < m < 2 * (k + 2 - j)


def _over_products(k: int, j: int, z: Monomial, weighted: bool) -> List[TripleProductSpec]:
    m = z.q_exp
    return [
        _triple(
            2 * k + 3,
            -z.sign,
            qe(k + 1 + j - 2 * s) + m,
            -z.sign,
            qe(k + 2 - j + 2 * s) - m,
            binom(j, s) if weighted else 1,
        )
        for s in range(j + 1)
    ]


def _run_over_1(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    k, j, pl = p["k"], p["j"], p["placement"]
    K = k + 1
    checks = []
    for z in _z_samples(p["z"], _POLICY_MS, _over_window(k, j)):
        lhs = eval_multisum(
            SummandSpec(K, (0,) * K, placement=pl, tail=TailOver(z)), he(wnum), stats
        )
        rhs = eval_product_sum(_over_products(k, j, z, True), he(wnum))
        checks.append(Check(f"k={k} j={j} z={z}: sum vs binomial product", lhs, rhs))
    return checks


def _run_over_2(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    k, j = p["k"], p["j"]
    K = k + 1
    lam = tuple(-1 if i + 1 <= j else 0 for i in range(K))
    checks = []
    for z in _z_samples(p["z"], _POLICY_MS, _over_window(k, j)):
        lhs = eval_multisum(SummandSpec(K, lam, tail=TailOver(z)), he(wnum), stats)
        rhs = eval_product_sum(_over_products(k, j, z, False), he(wnum))
        checks.append(Check(f"k={k} j={j} z={z}: sum vs {j + 1}-term product", lhs, rhs))
    return checks


def _prep_over_3(params: dict) -> dict:
    _reject_unknown(params, ("k", "z_sign", "z_exp"))
    return {"k": _need_int(params, "k", 0), "z": _opt_z(params)}


def _run_over_3(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    # the odd-index closing factor; note the product arguments pair q^(k+1)
    # with 1/z and q^(k+2) with z, mirroring the orientation of the
    # even-index families -- this is the orientation the series satisfy
    k = p["k"]
    K = k + 1
    checks = []
    for z in _z_samples(p["z"], _POLICY_MS, lambda m: -2 * (k + 2) < m < 2 * (k + 1)):
        m = z.q_exp
        lhs = eval_multisum(
            SummandSpec(K, (1,) * K, tail=TailOverOdd(z, k)), he(wnum), stats
        )
        rhs = eval_product_sum(
            [_triple(2 * k + 3, -z.sign, qe(k + 1) - m, -z.sign, qe(k + 2) + m)],
            he(wnum),
        )
        checks.append(Check(f"k={k} z={z}: odd-index sum vs product", lhs, rhs))
    return checks


def _prep_curious(params: dict) -> dict:
    _reject_unknown(params, ("z_sign", "z_exp"))
    return {"z": _opt_z(params)}


def _run_curious(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    checks = []
    for z in _z_samples(p["z"], _POLICY_MS, lambda m: -2 < m < 4):
        m = z.q_exp
        even = eval_multisum(SummandSpec(1, (0,), tail=TailOver(z)), he(wnum), stats)
        odd = eval_multisum(
            SummandSpec(1, (1,), tail=TailOverOdd(z.inverted(), 0)), he(wnum), stats
        )
        prod = eval_product_sum(
            [_triple(3, -z.sign, qe(1) + m, -z.sign, qe(2) - m)], he(wnum)
        )
        checks.append(Check(f"z={z}: even-index expansion vs product", even, prod))
        checks.append(Check(f"z={z}: odd-index expansion vs product", odd, prod))
        checks.append(Check(f"z={z}: the two expansions agree", even, odd))
    return checks


def _prep_cor_infty(params: dict) -> dict:
    _reject_unknown(params, ("k", "z_sign", "z_exp"))
    return {"k": _need_int(params, "k", 0), "z": _opt_z(params)}


def _run_cor_infty(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    # closing factor (qz, 1/z; q)_s / (q)_{2s} realized as the a=1/2
    # polynomial tail evaluated at -z q^(1/2)
    k = p["k"]
    K = k + 1
    checks = []
    for z in _z_samples(p["z"], _POLICY_MS, lambda m: -2 * (k + 2) < m < 2 * (k + 1)):
        m = z.q_exp
        w = Monomial(-z.sign, m + he(1))
        lhs = eval_multisum(
            SummandSpec(K, (0,) * K, tail=TailH(he(1), w)), he(wnum), stats
        )
        rhs = eval_product_sum(
            [_triple(2 * k + 3, z.sign, qe(k + 2) + m, z.sign, qe(k + 1) - m)],
            he(wnum),
        )
        checks.append(Check(f"k={k} z={z}: iterated sum vs product", lhs, rhs))
    return checks


# ---------------------------------------------------------------------------
# structural identities at finite n (symbolic in z)

_A_GRID_DOC = "a is any half-integer; tests sweep 1/2 .. 7/2"


def _prep_n_a(params: dict) -> dict:
    _reject_unknown(params, ("n", "a"))
    return {"n": _need_int(params, "n", 0), "a": _need_half(params, "a")}


def _run_key_lemma(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    n, a = p["n"], p["a"]
    W = wnum + pad
    lhs = h_poly(HSpec(n, a), he(W)) * _inv_qfac(2 * n, W)
    rhs = ZLaurent.zero()
    for s in range(n + 1):
        coef = _qsq(s) * _inv_qfac(n - s, W) * _inv_qfac(2 * s, W)
        rhs = rhs + h_poly(HSpec(s, a - he(2)), he(W)) * coef
    return [Check(f"n={n} a={a}: one-step expansion", lhs, rhs)]


def _prep_iter(params: dict) -> dict:
    _reject_unknown(params, ("n", "k", "a"))
    return {
        "n": _need_int(params, "n", 0),
        "k": _need_int(params, "k", 0),
        "a": _need_half(params, "a"),
    }


def _run_iter_prop(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    n, k, a = p["n"], p["k"], p["a"]
    W = wnum + pad
    lhs = h_poly(HSpec(n, a + qe(k + 1)), he(W)) * _inv_qfac(2 * n, W)
    buckets = _chain_sum(n, k + 1, W, True, lambda t, prev, s: _qsq(s))
    rhs = ZLaurent.zero()
    for s, c in sorted(buckets.items()):
        rhs = rhs + h_poly(HSpec(s, a), he(W)) * (c * _inv_qfac(2 * s, W))
    return [Check(f"n={n} k={k} a={a}: iterated expansion", lhs, rhs)]


def _prep_n(params: dict) -> dict:
    _reject_unknown(params, ("n",))
    return {"n": _need_int(params, "n", 0)}


def _pochz_rising(s: int) -> ZLaurent:
    # (qz, 1/z; q)_s, exact
    return poch_finite(Monomial(1, qe(1), 1), s) * poch_finite(Monomial(1, qe(0), -1), s)


def _run_special_a(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    n = p["n"]
    lhs = h_poly(HSpec(n, he(1)), INF).zshift(he(1)).znegate()
    rhs = _pochz_rising(n)
    return [Check(f"n={n}: half-weight polynomial factors", lhs, rhs)]


def _prep_nk(params: dict) -> dict:
    _reject_unknown(params, ("n", "k"))
    return {"n": _need_int(params, "n", 0), "k": _need_int(params, "k", 0)}


def _run_iterate_bress(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    n, k = p["n"], p["k"]
    W = wnum + pad
    lhs = (
        h_poly(HSpec(n, he(2 * k + 3)), he(W)).zshift(he(1)).znegate()
        * _inv_qfac(2 * n, W)
    )
    buckets = _chain_sum(n, k + 1, W, True, lambda t, prev, s: _qsq(s))
    rhs = ZLaurent.zero()
    for s, c in sorted(buckets.items()):
        rhs = rhs + _pochz_rising(s).truncated(he(W)) * (c * _inv_qfac(2 * s, W))
    return [Check(f"n={n} k={k}: iterated expansion with factored tail", lhs, rhs)]


def _prep_func_eq(params: dict) -> dict:
    _reject_unknown(params, ("n", "c"))
    return {"n": _need_int(params, "n", 0), "c": _need_half(params, "c")}


def _run_func_eq(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    n, c = p["n"], p["c"]
    H = h_poly(HSpec(n, c), INF)
    lhs = H.substitute(-1, c)
    rhs = H.substitute(-1, c - he(2)) * QSeries.monomial(1, qe(n))
    return [Check(f"n={n} c={c}: value at -q^c vs q^n times value at -q^(c-1)", lhs, rhs)]


def _one_plus_q(exp_q: int) -> QSeries:
    return QSeries.one() + QSeries.monomial(1, qe(exp_q))


def _run_new_prop(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    n, a = p["n"], p["a"]
    W = wnum + pad
    H = h_poly(HSpec(n, a + he(2)), he(W + 2 * n))
    G = H.zshift(qe(1))
    lhs = (G + G.zinvert()) * _inv_qfac(2 * n, W)
    rhs = ZLaurent.zero()
    for s in range(n + 1):
        coef = (
            _qsq(s, -1)
            * _one_plus_q(n + s)
            * _inv_qfac(n - s, W)
            * _inv_qfac(2 * s, W)
        )
        rhs = rhs + h_poly(HSpec(s, a), he(W)) * coef
    return [Check(f"n={n} a={a}: shifted-pair expansion", lhs, rhs)]


def _prep_nja(params: dict) -> dict:
    _reject_unknown(params, ("n", "j", "a"))
    return {
        "n": _need_int(params, "n", 0),
        "j": _need_int(params, "j", 0),
        "a": _need_half(params, "a"),
    }


def _prep_nja_pos(params: dict) -> dict:
    out = _prep_nja(params)
    if out["j"] < 1:
        raise SpecError("this identity needs j >= 1")
    return out


def _run_new_prop2(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    n, j, a = p["n"], p["j"], p["a"]
    W = wnum + pad
    lhs = f_func(FSpec(n, j + 1, a + he(2)), he(W + 2 * n * (j + 1))) * _inv_qfac(2 * n, W)
    rhs = ZLaurent.zero()
    for s in range(n + 1):
        coef = (
            _qsq(s, -1)
            * _one_plus_q(n + s)
            * _inv_qfac(n - s, W)
            * _inv_qfac(2 * s, W)
        )
        rhs = rhs + f_func(FSpec(s, j, a), he(W + 2 * s * j)) * coef
    return [Check(f"n={n} j={j} a={a}: shifted-pair expansion of the closure", lhs, rhs)]


def _run_another_f(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    n, j, a = p["n"], p["j"], p["a"]
    W = wnum + pad
    lhs = f_func(FSpec(n, j, a), he(W + 2 * n * j)) * _inv_qfac(2 * n, W)

    def factor(t: int, prev: int, s: int) -> QSeries:
        return _qsq(s, -1) * _one_plus_q(prev + s)

    buckets = _chain_sum(n, j, W, True, factor)
    rhs = ZLaurent.zero()
    for s, c in sorted(buckets.items()):
        rhs = rhs + h_poly(HSpec(s, a - qe(j)), he(W)) * (c * _inv_qfac(2 * s, W))
    return [Check(f"n={n} j={j} a={a}: full chain expansion", lhs, rhs)]


def _run_f_sum(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    n, j, a = p["n"], p["j"], p["a"]
    W = wnum + pad
    lhs = f_func(FSpec(n, j, a), he(W + 2 * n * j)) * _inv_qfac(2 * n, W)
    rhs = ZLaurent.zero()
    for s in range(n + 1):
        coef = _qsq(s) * _inv_qfac(n - s, W) * _inv_qfac(2 * s, W)
        rhs = rhs + f_func(FSpec(s, j, a - he(2)), he(W + 2 * s * j)) * coef
    return [Check(f"n={n} j={j} a={a}: one-step expansion of the closure", lhs, rhs)]


def _run_recurse_f(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    # F(n, j, a) as a binomial combination of shifted copies of H; exact
    n, j, a = p["n"], p["j"], p["a"]
    F = f_func(FSpec(n, j, a), INF)
    H = h_poly(HSpec(n, a), INF)
    rhs = ZLaurent.zero()
    for s in range(j):
        shifted = H.zshift(qe(j - 2 * s))
        rhs = rhs + (shifted + shifted.zinvert()) * binom(j - 1, s)
    return [Check(f"n={n} j={j} a={a}: recursion vs binomial combination", F, rhs)]


# ---------------------------------------------------------------------------
# limit identities


def _prep_h_limit(params: dict) -> dict:
    _reject_unknown(params, ("a", "z_sign", "z_exp"))
    a = _need_half(params, "a")
    if a.num <= 0:
        raise SpecError(f"the limit needs a > 0, got a={a}")
    return {"a": a, "z": _opt_z(params)}


def _run_h_limit(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    a = p["a"]
    checks = []
    for z in _z_samples(p["z"], _LIMIT_MS, lambda m: abs(m) < a.num):
        w = Monomial(-z.sign, z.q_exp)
        val, n = stabilized_h_value(a, w, he(wnum))
        prod = h_limit_product(a, z, he(wnum))
        checks.append(Check(f"a={a} z={z}: polynomial at certified n={n} vs product", val, prod))
    return checks


def _prep_f_limit(params: dict) -> dict:
    _reject_unknown(params, ("j", "a", "z_sign", "z_exp"))
    a = _need_half(params, "a")
    j = _need_int(params, "j", 0)
    if a.num <= 0:
        raise SpecError(f"the limit needs a > 0, got a={a}")
    return {"j": j, "a": a, "z": _opt_z(params)}


def _run_f_limit(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    j, a = p["j"], p["a"]
    checks = []
    for z in _z_samples(p["z"], _LIMIT_MS, lambda m: abs(m) + 2 * j < a.num):
        w = Monomial(-z.sign, z.q_exp)
        val, n = stabilized_f_value(j, a, w, he(wnum))
        s = f_limit_sum(j, a, z, he(wnum))
        checks.append(
            Check(f"j={j} a={a} z={z}: closure value at certified n={n} vs product sum", val, s)
        )
    return checks


# ---------------------------------------------------------------------------
# combinatorial supporting facts


@dataclass(frozen=True)
class EdgeSet:
    """A matching of the path 1-2-...-j; member i stands for edge (i, i+1)."""

    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(int(i) for i in self.edges))
        if any(i < 1 for i in self.edges):
            raise SpecError(f"edges must be labelled by their left vertex >= 1: {sorted(self.edges)}")
        s = sorted(self.edges)
        for x, y in zip(s, s[1:]):
            if y - x <= 1:
                raise SpecError(f"edges {x} and {y} share a vertex")

    @property
    def covered(self) -> frozenset:
        return frozenset(v for i in self.edges for v in (i, i + 1))


def enumerate_edge_sets(j: int) -> List[EdgeSet]:
    """All matchings of the path on vertices 1..j (Fibonacci(j+1) of them)."""
    if j < 0:
        raise SpecError(f"need j >= 0, got {j}")
    out: List[List[int]] = [[]]
    for i in range(1, j):  # edge (i, i+1)
        out.extend([e + [i] for e in out if not e or e[-1] < i - 1])
    sets = [EdgeSet(frozenset(e)) for e in out]
    sets.sort(key=lambda E: (len(E.edges), sorted(E.edges)))
    return sets


def edge_weight(E: EdgeSet, s: Sequence[int], order: Order = INF) -> QSeries:
    """q^(-s_i)(1 + q^(s_(i-1)+s_i)) over uncovered i >= 2, times q^(-s_1)
    when vertex 1 is uncovered; a Laurent polynomial in q."""
    j = len(s)
    if any(i + 1 > j for i in E.edges):
        raise SpecError(f"edge set {sorted(E.edges)} does not fit a path on {j} vertices")
    covered = E.covered
    w = QSeries.one(order)
    if j >= 1 and 1 not in covered:
        w = w.shift(qe(-s[0]))
    for i in range(2, j + 1):
        if i not in covered:
            w = w * (
                QSeries.monomial(1, qe(-s[i - 1])) + QSeries.monomial(1, qe(s[i - 2]))
            )
    return w


def _edge_samples(j: int, count: int, cap: int = 10, seed: int = 0) -> List[Tuple[int, ...]]:
    rng = random.Random(0x5EED + 1000 * j + seed)
    out = []
    for _ in range(count):
        t = []
        prev = rng.randint(0, cap)
        for _ in range(j):
            t.append(prev)
            prev = rng.randint(0, prev)
        out.append(tuple(t))
    return out


def _prep_edge_lemma(params: dict) -> dict:
    _reject_unknown(params, ("j", "samples"))
    j = _need_int(params, "j", 0)
    samples = params.get("samples")
    if samples is not None:
        samples = [tuple(int(v) for v in s) for s in samples]
        for s in samples:
            if len(s) != j:
                raise SpecError(f"sample {s} does not have j={j} entries")
            if any(v < 0 for v in s) or any(x < y for x, y in zip(s, s[1:])):
                raise SpecError(f"sample {s} must be weakly decreasing and nonnegative")
    return {"j": j, "samples": samples}


def _run_edge_lemma(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    j = p["j"]
    samples = p["samples"]
    if samples is None:
        samples = [] if j != 3 else [(2, 1, 1)]
        samples += _edge_samples(j, 10)
    sets = enumerate_edge_sets(j)
    checks = []
    for s in samples:
        total = QSeries.zero(INF)
        for E in sets:
            w = edge_weight(E, s)
            total = total + (-w if len(E.edges) % 2 else w)
        target = QSeries.monomial(1, qe(-sum(s)))
        checks.append(Check(f"j={j} s={s}: signed weights collapse", total, target))
    return checks


def _prep_j(params: dict) -> dict:
    _reject_unknown(params, ("j",))
    return {"j": _need_int(params, "j", 0)}


def _run_chu(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    j = p["j"]
    checks = []
    for u in range(j + 1):
        total = 0
        for t in range(0, min(u, j // 2) + 1):
            lead = binom(j - t, t)
            if lead:
                total += lead * (-1) ** t * binom(j - 2 * t, u - t)
        checks.append(
            Check(f"j={j} u={u}: double sum collapses to 1", QSeries.monomial(total), QSeries.one())
        )
    return checks


def _prep_even_fact(params: dict) -> dict:
    _reject_unknown(params, ("s_max",))
    return {"s_max": _opt_int(params, "s_max", 8, 0)}


def _run_even_fact(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    W = wnum + pad
    checks = []
    for s in range(p["s_max"] + 1):
        lhs = h_poly(HSpec(s, qe(1)), he(W)).substitute(-1, qe(0)) * _inv_qfac(2 * s, W)
        rhs = poch_finite_scalar(Monomial(1, qe(2)), s, base_exp=qe(2)).inverse(he(W))
        checks.append(Check(f"s={s}: even-weight value factors", lhs, rhs))
    return checks


# ---------------------------------------------------------------------------
# the guided reduction to the classical sum side


def _prep_andrews_answer(params: dict) -> dict:
    _reject_unknown(params, ("k", "r", "n"))
    k = _need_int(params, "k", 1)
    r = _need_int(params, "r", 0, k)
    n = _opt_int(params, "n", 5, 0)
    return {"k": k, "r": r, "n": n}


def _run_andrews_answer(p: dict, wnum: int, pad: int, stats: SumStats) -> List[Check]:
    """Reproduce the reduction schedule: expand k-r+1 times, insert a linear
    factor, then alternate expansion and insertion for the remaining r-1
    factors; the closing factor forces the innermost index to zero and the
    surviving scalar is the classical sum side."""
    k, r, n = p["k"], p["r"], p["n"]
    W = wnum + pad
    checks = []

    # the closing factor vanishes for every positive index
    for s in range(1, max(2, min(n, 4)) + 1):
        vanish = h_poly(HSpec(s, he(1)), INF).substitute(-1, he(1))
        checks.append(Check(f"s={s}: closing factor kills positive indices", vanish, QSeries.zero(INF)))

    # finite-n pipeline: state = sum_s bucket[s] * H(s, a)(-q^x) / (q)_{2s}
    bucket: Dict[int, QSeries] = {n: QSeries.one(he(W))}
    a_num = 2 * k + 3
    x_num = 2 * r + 1

    def lemma_step() -> None:
        nonlocal a_num, bucket
        new: Dict[int, QSeries] = {}
        for m, c in bucket.items():
            for s in range(m + 1):
                add = c * _inv_qfac(m - s, W) * _qsq(s)
                new[s] = new.get(s, QSeries.zero(he(W))) + add
        bucket = new
        a_num -= 2

    def funceq_step() -> None:
        nonlocal x_num, bucket
        if x_num != a_num:
            raise QidentError("reduction schedule out of sync")
        bucket = {m: c * QSeries.monomial(1, qe(m)) for m, c in bucket.items()}
        x_num -= 2

    for _ in range(k - r + 1):
        lemma_step()
    for _ in range(r):
        funceq_step()
        lemma_step()
    if (a_num, x_num) != (1, 1):
        raise QidentError("reduction schedule did not terminate at the half weight")

    # every step preserved the value, so bucket[0] must equal the start
    start = h_poly(HSpec(n, he(2 * k + 3)), he(W)).substitute(-1, he(2 * r + 1)) * _inv_qfac(
        2 * n, W
    )
    checks.append(Check(f"n={n}: pipeline value equals the starting value", bucket[0], start))

    # and it is exactly the bounded classical sum side
    lam = _ag_lambda(k, r)

    def factor(t: int, prev: int, s: int) -> QSeries:
        return _qsq(s, lam[t - 1])

    chain = _chain_sum(n, k, W, True, factor)
    direct = QSeries.zero(he(W))
    for s, c in sorted(chain.items()):
        direct = direct + c * _inv_qfac(s, W)
    checks.append(Check(f"n={n}: pipeline value is the bounded sum side", bucket[0], direct))

    # in the limit, the same shape with the closing factor reproduces the
    # classical identity
    lam_ext = lam + (0,)
    forced = eval_multisum(
        SummandSpec(k + 1, lam_ext, tail=TailH(he(1), Monomial(-1, he(1)))),
        he(wnum),
        stats,
    )
    plain = eval_multisum(SummandSpec(k, lam), he(wnum), stats)
    checks.append(Check("forced innermost index reproduces the sum side", forced, plain))
    prod = eval_product_sum(
        [_triple(2 * k + 3, 1, qe(k + 1 - r), 1, qe(k + 2 + r))], he(wnum)
    )
    checks.append(Check("sum side meets the product side", plain, prod))
    return checks


# ---------------------------------------------------------------------------
# registry assembly


def _reg(id: str, prepare, runner, default_ordnum) -> None:
    _REGISTRY[id] = _Entry(prepare, runner, default_ordnum)


def _mod_window(mod_q: Callable[[dict], int]) -> Callable[[dict], int]:
    return lambda p: 2 * mod_q(p) + 60


_reg("AG", _prep_ag, _run_ag, _mod_window(lambda p: 2 * p["k"] + 3))
_reg("NEG_AG", _prep_ag, _run_neg_ag, _mod_window(lambda p: 2 * p["k"] + 4))
_reg("BRESSOUD_EVEN", _prep_ag, _run_bressoud_even, _mod_window(lambda p: 2 * p["k"] + 2))
_reg("BRESS_J", _prep_bress_j, _run_bress_j, _mod_window(lambda p: 2 * p["k"] + 3))
_reg("THM_3_1", _prep_thm3, _run_thm_3_1, _mod_window(lambda p: 2 * p["k"] + 3))
_reg("THM_3_2", _prep_thm3_noplacement, _run_thm_3_2, _mod_window(lambda p: 2 * p["k"] + 3))
_reg("THM_4_1", _prep_thm3, _run_thm_4_1, _mod_window(lambda p: 2 * p["k"] + 2))
_reg("THM_4_2", _prep_thm3_noplacement, _run_thm_4_2, _mod_window(lambda p: 2 * p["k"] + 2))
_reg("OVER_1", _prep_over_binom, _run_over_1, _mod_window(lambda p: 2 * p["k"] + 3))
_reg("OVER_2", _prep_over_plain, _run_over_2, _mod_window(lambda p: 2 * p["k"] + 3))
_reg("OVER_3", _prep_over_3, _run_over_3, _mod_window(lambda p: 2 * p["k"] + 3))
_reg("CURIOUS", _prep_curious, _run_curious, _mod_window(lambda p: 3))
_reg("COR_INFTY", _prep_cor_infty, _run_cor_infty, _mod_window(lambda p: 2 * p["k"] + 3))
_reg("KEY_LEMMA", _prep_n_a, _run_key_lemma, lambda p: 80)
_reg("ITER_PROP", _prep_iter, _run_iter_prop, lambda p: 80)
_reg("SPECIAL_A", _prep_n, _run_special_a, lambda p: 80)
_reg("ITERATE_BRESS", _prep_nk, _run_iterate_bress, lambda p: 80)
_reg("FUNC_EQ", _prep_func_eq, _run_func_eq, lambda p: 80)
_reg("NEW_PROP", _prep_n_a, _run_new_prop, lambda p: 80)
_reg("NEW_PROP2", _prep_nja, _run_new_prop2, lambda p: 80)
_reg("ANOTHER_F", _prep_nja_pos, _run_another_f, lambda p: 80)
_reg("F_SUM", _prep_nja, _run_f_sum, lambda p: 80)
_reg("RECURSE_F", _prep_nja_pos, _run_recurse_f, lambda p: 80)
_reg("H_LIMIT", _prep_h_limit, _run_h_limit, lambda p: 80)
_reg("F_LIMIT", _prep_f_limit, _run_f_limit, lambda p: 80)
_reg("EDGE_LEMMA", _prep_edge_lemma, _run_edge_lemma, lambda p: 80)
_reg("CHU_COEFF", _prep_j, _run_chu, lambda p: 80)
_reg("EVEN_FACT", _prep_even_fact, _run_even_fact, lambda p: 80)
_reg("ANDREWS_ANSWER", _prep_andrews_answer, _run_andrews_answer, _mod_window(lambda p: 2 * p["k"] + 3))


# ---------------------------------------------------------------------------
# the driver


def verify(case: IdentityCase) -> VerificationReport:
    """Build both sides of a registered identity and certify equality."""
    t0 = time.perf_counter()
    stats = SumStats()
    try:
        entry = _REGISTRY.get(case.id)
        if entry is None:
            raise SpecError(f"unknown identity id {case.id!r}; known: {', '.join(registered_ids())}")
        params = entry.prepare(dict(case.params))
        ordnum = case.order.num if case.order is not None else entry.default_ordnum(params)
        if ordnum <= 0:
            raise SpecError(f"order must be positive, got {_ord_obj(ordnum)}")

        pad = 0
        for _ in range(8):
            stats = SumStats()
            checks = entry.runner(params, ordnum, pad, stats)
            if not checks:
                raise QidentError("runner produced no checks")
            compared_num: Optional[int] = None  # None is infinite
            first = True
            for c in checks:
                res = c.lhs.eq_upto(c.rhs)
                rnum = _ord_num(res.compared_order)
                if first:
                    compared_num, first = rnum, False
                else:
                    compared_num = _min_ord(compared_num, rnum)
                if not res.equal:
                    return VerificationReport(
                        case,
                        "fail",
                        res.compared_order,
                        res.mismatch,
                        time.perf_counter() - t0,
                        stats.tuples,
                        detail=c.label,
                    )
            if compared_num is None or compared_num >= ordnum:
                return VerificationReport(
                    case,
                    "pass",
                    _ord_obj(compared_num),
                    None,
                    time.perf_counter() - t0,
                    stats.tuples,
                )
            pad = 2 * pad + (ordnum - compared_num) + 2
        raise QidentError(
            f"could not reach order {_ord_obj(ordnum)}; working padding stalled at {pad}"
        )
    except QidentError as e:
        detail = str(e)
    except Exception as e:  # e.g. RecursionError or MemoryError from an oversized input
        detail = f"{type(e).__name__}: {e}"
    return VerificationReport(
        case, "error", None, None, time.perf_counter() - t0, stats.tuples, detail=detail
    )


def verify_edge_lemma(j: int, samples: Optional[Sequence[Sequence[int]]] = None) -> VerificationReport:
    """Signed edge-set weights collapse to q^(-s_1-...-s_j) at every sample."""
    return verify(make_case("EDGE_LEMMA", j=j, samples=samples))


def verify_chu_collapse(j: int) -> bool:
    """The binomial double sum equals 1 for every u in 0..j."""
    return verify(make_case("CHU_COEFF", j=j)).ok


def verify_even_fact(s_max: int, order=None) -> VerificationReport:
    return verify(make_case("EVEN_FACT", order=order, s_max=s_max))


def verify_andrews_answer(k: int, r: int, order=None, n: Optional[int] = None) -> VerificationReport:
    return verify(make_case("ANDREWS_ANSWER", order=order, k=k, r=r, n=n))
