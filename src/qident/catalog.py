"""Registry of the verified identities.

Every registered id names one displayed result and knows how to build
both of its sides: sum--product identities over a modulus family, the
structural polynomial identities in n (verified symbolically in z as
ZLaurent equalities), limit statements (polynomial values at a certified
n against infinite products), and the combinatorial supporting facts
(edge sets, the binomial collapse, the even replacement fact).

Three families are data, one row per id and one runner per table.
`_SUM_ROWS`, run by `_run_row`, are cases of one Andrews-Gordon /
Bressoud shape with binomial placements; `_EXPANSIONS`, run by
`_run_expansion`, are cases of Bressoud's key lemma summed over chains
n >= s_1 >= ... >= s_d >= 0, which run on the sum side's kernel from a
bounded start (`multisum._chain_values`), as do ANDREWS_ANSWER's two
chains; `_LIMITS`, run by `_run_limit`, hold the
limits at a certified n (H_LIMIT is F_LIMIT at j = 0).  Parameters are
checked by family, from the names each id takes: `_prep_sum` serves the
sum rows and CURIOUS, `_prep_plain` the ids whose parameters are plain
counts and half-integer weights.  Every z family samples z through
`_z_samples`.  A sum--product id's default order is q^(modulus + 30),
read off its own modulus; every other id defaults to q^40.

`verify` runs the checks for a case and reports pass/fail/error, the
order actually compared, the first mismatching coefficient if any, and
the summation engine's kernel cell counts (visited, skipped by the
truncation floor, evaluated), one kernel per batch of sums that differ
only in their tails and one per chain of an expansion.  Each runner runs
once: it builds its sides at the requested order plus the closed-form
loss of its own shifts and substitutions, so a pass that compares below
the request is an engine bug, reported as an `error`.  `verify` never
raises: an exception from any check becomes an `error` report.
"""

from __future__ import annotations

import random
import time
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .hfamily import (
    FSpec,
    HSpec,
    _limit_specs,
    _stabilized_values,
    f_func,
    h_poly,
)
from .multisum import (
    SummandSpec,
    SumStats,
    TailEven,
    TailOdd,
    TailOver,
    TailOverOdd,
    _chain_values,
    eval_multisum,
    eval_multisums,
)
from .products import TripleProductSpec, eval_product_sum, eval_product_sums
from .qobjects import Monomial, _inv_poch_ladder, _poch_rows, binom
from .series import (
    INF,
    HalfInt,
    Mismatch,
    Order,
    QidentError,
    QSeries,
    SpecError,
    ZLaurent,
    _Record,
    _min_ord,
    _ord_num,
    _ord_obj,
    _whole,
    he,
    qe,
)


class IdentityCase(_Record):
    """One verification job: an id, its parameters, and a truncation order,
    which `HalfInt.parse` reads ("7/2", "4", an int or a HalfInt)."""

    __slots__ = ("id", "params", "order")

    def __init__(self, id: str, params: Mapping = {}, order=None):
        try:
            order = None if order is None else HalfInt.parse(order)
        except ValueError:
            raise SpecError(f"bad order {order!r}") from None
        _Record.__init__(self, id, dict(params), order)


class VerificationReport(_Record):
    """The outcome of one case; status is "pass", "fail" or "error"."""

    __slots__ = ("case", "status", "compared_order", "first_mismatch", "elapsed",
                 "tuple_count", "node_count", "pruned_count", "detail")
    __setattr__ = object.__setattr__  # settable, so unhashable
    __hash__ = None

    def __init__(self, case: IdentityCase, status: str, compared_order: Optional[Order],
                 first_mismatch: Optional[Mismatch], elapsed: float, tuple_count: int,
                 node_count: int, pruned_count: int, detail: str = ""):
        _Record.__init__(self, case, status, compared_order, first_mismatch, elapsed,
                         tuple_count, node_count, pruned_count, detail)

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class Check(_Record):
    """A labelled pair of sides, (label, lhs, rhs); both must support eq_upto."""

    __slots__ = ("label", "lhs", "rhs")


class _Entry(_Record):
    __slots__ = ("prepare", "runner", "modulus")

    def __init__(self, prepare: Callable[[dict], dict], runner: Callable[[dict, int, SumStats], List[Check]],
                 modulus: Optional[Callable[[dict], int]] = None):
        _Record.__init__(self, prepare, runner, modulus)

    def default_ordnum(self, p: dict) -> int:
        """q^(modulus + 30) for the sum--product ids, q^40 for the rest."""
        return 80 if self.modulus is None else 2 * self.modulus(p) + 60


_REGISTRY: Dict[str, _Entry] = {}


def registered_ids() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_case(id: str, order=None, **params) -> IdentityCase:
    return IdentityCase(id, params, order)


def _prepare(case: IdentityCase) -> Tuple[_Entry, dict, int]:
    """The case's entry, its validated parameters and its order (half-units)."""
    entry = _REGISTRY.get(case.id)
    if entry is None:
        raise SpecError(f"unknown identity id {case.id!r}; known: {', '.join(registered_ids())}")
    params = entry.prepare(dict(case.params))
    ordnum = case.order.num if case.order is not None else entry.default_ordnum(params)
    if ordnum <= 0:
        raise SpecError(f"order must be positive, got {_ord_obj(ordnum)}")
    return entry, params, ordnum


def validate_case(case: IdentityCase) -> None:
    """Raise SpecError when the id is unknown or the params do not check out.

    Cheap: runs only the parameter validation, not the verification.
    """
    _prepare(case)


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
    if not _whole(v):
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
        if not isinstance(v, bool):  # JSON true is not the weight 1
            return HalfInt.parse(v)
    except (ValueError, TypeError):
        pass
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
    if not _whole(sign) or sign not in (1, -1):
        raise SpecError(f"z_sign must be +1 or -1, got {params.get('z_sign')!r}")
    return Monomial(sign, _need_half(params, "z_exp") if "z_exp" in params else qe(0))


def _int_tuple(v) -> Optional[tuple]:
    """v as a tuple when it is a list, tuple or set of true ints (by _need_int's rule), else None."""
    ok = isinstance(v, (list, tuple, set, frozenset)) and all(_whole(i) for i in v)
    return tuple(v) if ok else None


def _opt_placement(params: dict, j: int, limit: int) -> frozenset:
    if params.get("placement") is None:
        return frozenset(range(1, j + 1))
    p = _int_tuple(params["placement"])
    if p is None:
        raise SpecError(f"placement must be a collection of positions, got {params['placement']!r}")
    p = frozenset(p)
    if len(p) != j:
        raise SpecError(f"placement {sorted(p)} must have exactly j={j} positions")
    if not all(1 <= i <= limit for i in p):
        raise SpecError(f"placement {sorted(p)} must lie within 1..{limit}")
    return p


def _prep_plain(names: Sequence[str], params: dict) -> dict:
    """Exactly `names`: a and c half-integers, every other name an int >= 0."""
    _reject_unknown(params, names)
    return {x: _need_half(params, x) if x in ("a", "c") else _need_int(params, x, 0) for x in names}


# monomial z sampling policies (numerators of half-integer exponents); the
# limits take m >= 0 only, as H(z) = H(1/z) makes a sample at -m repeat m's
_POLICY_MS = (-2, -1, 0, 1, 2, 3)
_LIMIT_MS = (0, 1, 2, 3, 5)


def _z_samples(
    z: Optional[Monomial], posed: Callable[[int], bool], ms: Sequence[int] = _POLICY_MS
) -> List[Monomial]:
    """[z] for the given z, else both signs of every sampled exponent m (in
    half-units) with posed(m)."""
    if z is not None:
        if not posed(z.q_exp.num):
            raise SpecError(f"z = {z} is outside the well-posed window for these parameters")
        return [z]
    zs = [Monomial(sig, HalfInt(m)) for m in ms if posed(m) for sig in (1, -1)]
    if not zs:
        raise SpecError("no well-posed z sample exists for these parameters")
    return zs


# ---------------------------------------------------------------------------
# shared builders


def _low(x: ZLaurent, default: int) -> int:
    # the least exponent of x in half-units (default when it has none below
    # its order): x times a coefficient known below W is known below W + _low(x)
    return min((x.slice(k).min_exp.num for k in x.z_support()), default=default)


def _bress_lambda(k: int, j: int, r: int = 0) -> Tuple[int, ...]:
    # -1 on the first j indices, +1 on the last r
    return tuple((-1 if i + 1 <= j else 0) + (1 if i + 1 > k - r else 0) for i in range(k))


# ---------------------------------------------------------------------------
# sum--product families: one table row per identity
#
# Every row is a case of one shape (Andrews, *The Theory of Partitions*,
# ch. 7; Bressoud, Mem. AMS 227): K indices with +1 on the last r linear
# weights, and j more shifts either placed (q^(-s_i) at the placement
# positions, binomial weights C(j, s) on the products) or, without a
# placement, as -1 on the first j linear weights (unit weights).  AG and
# BRESSOUD_EVEN are THM_3_1 and THM_4_1 at j = 0, BRESS_J is THM_3_2 at
# r = 0, and OVER_1/OVER_2 are the THM_3_1/THM_3_2 shapes on k+1 indices
# with the overpartition tail.  Every prepared parameter dict carries
# k, r, j and placement (None for the unplaced shape); z rows also z.


class _SumRow(_Record):
    __slots__ = ("names", "modulus", "summand", "products", "label", "window")

    def __init__(
        self,
        names: Tuple[str, ...],  # the parameters `_prep_sum` takes
        modulus: Callable[[dict], int],
        summand: Callable[[dict, Optional[Monomial]], SummandSpec],
        products: Callable[[dict, int, Optional[Monomial]], List[TripleProductSpec]],
        label: str,  # str.format fields: the parameters, mod, P (sorted placement), terms (j+1), z
        window: Optional[Callable[[dict, int], bool]] = None,  # z rows: is q^(m/2) well posed
    ):
        _Record.__init__(self, names, modulus, summand, products, label, window)


def _gordon_sum(p: dict, K: int, tail) -> SummandSpec:
    pl = p["placement"]
    lam = _bress_lambda(K, p["j"] if pl is None else 0, p["r"])
    return SummandSpec(K, lam, placement=pl, tail=tail)


def _odd_sum(p: dict, z: Optional[Monomial]) -> SummandSpec:
    return _gordon_sum(p, p["k"], TailOdd())


def _even_sum(p: dict, z: Optional[Monomial]) -> SummandSpec:
    return _gordon_sum(p, p["k"], TailEven())


def _over_sum(p: dict, z: Monomial) -> SummandSpec:
    return _gordon_sum(p, p["k"] + 1, TailOver(z))


def _gordon_products(p: dict, mod: int, z: Optional[Monomial]) -> List[TripleProductSpec]:
    """sum_s w_s (x q^(e+j-2s), x q^(mod-e-j+2s); q^mod)_inf / (q)_inf.

    Without z, x = 1 and e = k+1-r.  With z = sign q^m, x = -sign and
    e = k+1-r+m: the arguments are -z q^(k+1-r+j-2s) and -q^(...)/z.
    w_s = C(j, s) for a placed sum, else 1.
    """
    j, e = p["j"], qe(p["k"] + 1 - p["r"])
    sign, m = (1, qe(0)) if z is None else (-z.sign, z.q_exp)
    return [
        TripleProductSpec(
            qe(mod),
            Monomial(sign, e + m + qe(j - 2 * s)),
            Monomial(sign, qe(mod) - e - m - qe(j - 2 * s)),
            1 if p["placement"] is None else binom(j, s),
        )
        for s in range(j + 1)
    ]


def _over_window(p: dict, m: int) -> bool:
    return 2 * (p["j"] - p["k"] - 1) < m < 2 * (p["k"] + 2 - p["j"])


def _odd_index_window(p: dict, m: int) -> bool:
    return -2 * (p["k"] + 2) < m < 2 * (p["k"] + 1)


def _odd(p: dict) -> int:
    return 2 * p["k"] + 3


def _even(p: dict) -> int:
    return 2 * p["k"] + 2


_Z = ("z_sign", "z_exp")


def _prep_sum(names: Sequence[str], params: dict) -> dict:
    """k, r, j, placement and, on a z row (one taking z_sign / z_exp), z.

    A name the row does not take keeps its neutral value: 0, or None for
    placement.  A z row sums k + 1 indices, so it needs k >= 0, and j and
    the placement fit in k + 1 - r positions; every other row needs k >= 1
    and has k - r positions.
    """
    _reject_unknown(params, names)
    zrow = "z_exp" in names
    k = _need_int(params, "k", 0 if zrow else 1) if "k" in names else 0
    r = _need_int(params, "r", 0, k) if "r" in names else 0
    limit = k + 1 - r if zrow else k - r
    j = _need_int(params, "j", 0, limit) if "j" in names else 0
    placement = _opt_placement(params, j, limit) if "placement" in names else None
    out = {"k": k, "r": r, "j": j, "placement": placement}
    return dict(out, z=_opt_z(params)) if zrow else out


_SUM_ROWS: Dict[str, _SumRow] = {
    "AG": _SumRow(
        ("k", "r"), _odd, _odd_sum, _gordon_products, "k={k} r={r}: sum vs modulus-{mod} product"
    ),
    # deliberately wrong modulus (one more than the true one) under AG's
    # arguments; a suite can mark this id with expect: fail to prove the
    # harness detects mismatches
    "NEG_AG": _SumRow(
        ("k", "r"),
        lambda p: 2 * p["k"] + 4,
        _odd_sum,
        lambda p, mod, z: [t._replace(modulus_exp=qe(mod)) for t in _gordon_products(p, mod - 1, z)],
        "k={k} r={r}: sum vs modulus-{mod} product (control)",
    ),
    "BRESSOUD_EVEN": _SumRow(
        ("k", "r"), _even, _even_sum, _gordon_products, "k={k} r={r}: sum vs modulus-{mod} product"
    ),
    "BRESS_J": _SumRow(
        ("k", "j"), _odd, _odd_sum, _gordon_products, "k={k} j={j}: sum vs {terms}-term product"
    ),
    "THM_3_1": _SumRow(
        ("k", "r", "j", "placement"), _odd, _odd_sum, _gordon_products,
        "k={k} r={r} j={j} P={P}: sum vs binomial product",
    ),
    "THM_3_2": _SumRow(
        ("k", "r", "j"), _odd, _odd_sum, _gordon_products,
        "k={k} r={r} j={j}: sum vs {terms}-term product",
    ),
    "THM_4_1": _SumRow(
        ("k", "r", "j", "placement"), _even, _even_sum, _gordon_products,
        "k={k} r={r} j={j} P={P}: even sum vs binomial product",
    ),
    "THM_4_2": _SumRow(
        ("k", "r", "j"), _even, _even_sum, _gordon_products,
        "k={k} r={r} j={j}: even sum vs {terms}-term product",
    ),
    "OVER_1": _SumRow(
        ("k", "j", "placement") + _Z, _odd, _over_sum, _gordon_products,
        "k={k} j={j} z={z}: sum vs binomial product", _over_window,
    ),
    "OVER_2": _SumRow(
        ("k", "j") + _Z, _odd, _over_sum, _gordon_products,
        "k={k} j={j} z={z}: sum vs {terms}-term product", _over_window,
    ),
    # the odd-index closing factor; the product pairs q^(k+1) with 1/z and
    # q^(k+2) with z, mirroring the orientation of the even-index families
    # -- this is the orientation the series satisfy
    "OVER_3": _SumRow(
        ("k",) + _Z,
        _odd,
        lambda p, z: SummandSpec(p["k"] + 1, (1,) * (p["k"] + 1), tail=TailOverOdd(z, p["k"])),
        lambda p, mod, z: _gordon_products(p, mod, z.inverted()),
        "k={k} z={z}: odd-index sum vs product",
        _odd_index_window,
    ),
    # closing factor (qz, 1/z; q)_s / (q)_{2s}, which is TailOver at -1/z:
    # the row is OVER_2's shape at j = 0 evaluated at -1/z, sum and product
    "COR_INFTY": _SumRow(
        ("k",) + _Z,
        _odd,
        lambda p, z: _over_sum(p, Monomial(-z.sign, -z.q_exp)),
        lambda p, mod, z: _gordon_products(p, mod, Monomial(-z.sign, -z.q_exp)),
        "k={k} z={z}: iterated sum vs product",
        _odd_index_window,
    ),
}


def _run_row(row: _SumRow, p: dict, wnum: int, stats: SumStats) -> List[Check]:
    mod = row.modulus(p)
    fields = dict(p, mod=mod, P=sorted(p["placement"] or ()), terms=p["j"] + 1)
    zs = [None] if row.window is None else _z_samples(p["z"], lambda m: row.window(p, m))
    sums = eval_multisums([row.summand(p, z) for z in zs], he(wnum), stats)
    prods = eval_product_sums([row.products(p, mod, z) for z in zs], he(wnum))
    return [Check(row.label.format_map(dict(fields, z=z)), lhs, rhs) for z, lhs, rhs in zip(zs, sums, prods)]


def _run_curious(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    # k = 0 of the overpartition rows: OVER_2's sum at z and OVER_3's at
    # 1/z expand the same product
    even_row, odd_row = _SUM_ROWS["OVER_2"], _SUM_ROWS["OVER_3"]
    zs = _z_samples(p["z"], lambda m: even_row.window(p, m))
    evens = eval_multisums([even_row.summand(p, z) for z in zs], he(wnum), stats)
    odds = eval_multisums([odd_row.summand(p, z.inverted()) for z in zs], he(wnum), stats)
    prods = eval_product_sums([even_row.products(p, even_row.modulus(p), z) for z in zs], he(wnum))
    checks = []
    for z, even, odd, prod in zip(zs, evens, odds, prods):
        checks += [
            Check(f"z={z}: even-index expansion vs product", even, prod),
            Check(f"z={z}: odd-index expansion vs product", odd, prod),
            Check(f"z={z}: the two expansions agree", even, odd),
        ]
    return checks


# ---------------------------------------------------------------------------
# structural identities at finite n (symbolic in z)

def _prep_n_a(params: dict) -> dict:
    return dict(_prep_plain(("n", "a"), params), j=0)


def _prep_n(params: dict) -> dict:
    _reject_unknown(params, ("n",))
    # SPECIAL_A is exact (order INF): n = 40 verifies in about 0.25 s, and
    # the cost grows about as n^4 (n = 60 takes 1.2 s)
    return {"n": _need_int(params, "n", 0, 40)}


def _pochz_rising(s: int, order: Order) -> ZLaurent:
    # (qz, 1/z; q)_s
    return _poch_rows([(1, 1, 2 * i + 2) for i in range(s)] + [(1, -1, 2 * i) for i in range(s)], order)


def _run_special_a(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    n = p["n"]
    lhs = h_poly(HSpec(n, he(1)), INF).zshift(he(1)).znegate()
    rhs = _pochz_rising(n, INF)
    return [Check(f"n={n}: half-weight polynomial factors", lhs, rhs)]


def _run_func_eq(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    n, c = p["n"], p["c"]
    H = h_poly(HSpec(n, c), INF)
    lhs = H.substitute(-1, c)
    rhs = H.substitute(-1, c - he(2)) * QSeries.monomial(1, qe(n))
    return [Check(f"n={n} c={c}: value at -q^c vs q^n times value at -q^(c-1)", lhs, rhs)]


def _prep_nja_pos(params: dict) -> dict:
    out = _prep_plain(("n", "j", "a"), params)
    if out["j"] < 1:
        raise SpecError("this identity needs j >= 1")
    return out


def _run_recurse_f(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    # F(n, j, a) by its definition, j steps G(z) -> G(zq) + G(q/z) from H,
    # against a binomial combination of shifted copies of H; exact
    n, j, a = p["n"], p["j"], p["a"]
    H = F = h_poly(HSpec(n, a), INF)
    for _ in range(j):
        g = F.zshift(qe(1))
        F = g + g.zinvert()
    rhs = ZLaurent.zero()
    for s in range(j):
        shifted = H.zshift(qe(j - 2 * s))
        rhs = rhs + (shifted + shifted.zinvert()) * binom(j - 1, s)
    return [Check(f"n={n} j={j} a={a}: recursion vs binomial combination", F, rhs)]


# ---------------------------------------------------------------------------
# the expansions at finite n: one table row per identity
#
# Every row is a case of the shape of Bressoud's key lemma: lhs(n) / (q)_{2n}
# equals the sum over chains n = s_0 >= s_1 >= ... >= s_d >= 0 of the level
# weights over (q)_{s_{t-1} - s_t}, times term(s_d) / (q)_{2 s_d}.  A level
# weighs q^(s_t^2), or q^(s_t^2 - s_t) (1 + q^(s_{t-1} + s_t)) on a placed
# row, so the chain sums K(s_d) are the multisum kernel's from the bounded
# start s_0 = n (`multisum._chain_values`), and the report carries its cell
# counts.  F(n, 0, a) is H(n, a), so KEY_LEMMA and NEW_PROP are the rows
# F_SUM and NEW_PROP2 at j = 0, each with its own prepare and label.


class _Expansion(_Record):
    __slots__ = (
        "prepare",
        "lhs",  # (p, wnum) -> ZLaurent: the polynomial at n
        "depth",  # p -> d, the chain length
        "placed",  # every level weighs the pair q^(s^2 - s) (1 + q^(prev + s)), else q^(s^2)
        "term",  # (p, s, wnum) -> ZLaurent: the polynomial at s_d
        "label",  # str.format fields: the parameters
    )


_F_SUM = _Expansion(
    partial(_prep_plain, ("n", "j", "a")),
    lambda p, w: f_func(FSpec(p["n"], p["j"], p["a"]), he(w)),
    lambda p: 1, False,
    lambda p, s, w: f_func(FSpec(s, p["j"], p["a"] - he(2)), he(w)),
    "n={n} j={j} a={a}: one-step expansion of the closure",
)
_NEW_PROP2 = _Expansion(
    partial(_prep_plain, ("n", "j", "a")),
    lambda p, w: f_func(FSpec(p["n"], p["j"] + 1, p["a"] + he(2)), he(w)),
    lambda p: 1, True,
    lambda p, s, w: f_func(FSpec(s, p["j"], p["a"]), he(w)),
    "n={n} j={j} a={a}: shifted-pair expansion of the closure",
)
_EXPANSIONS: Dict[str, _Expansion] = {
    "KEY_LEMMA": _F_SUM._replace(prepare=_prep_n_a, label="n={n} a={a}: one-step expansion"),
    "F_SUM": _F_SUM,
    "NEW_PROP": _NEW_PROP2._replace(prepare=_prep_n_a, label="n={n} a={a}: shifted-pair expansion"),
    "NEW_PROP2": _NEW_PROP2,
    "ANOTHER_F": _Expansion(
        _prep_nja_pos, _F_SUM.lhs, lambda p: p["j"], True,
        lambda p, s, w: h_poly(HSpec(s, p["a"] - qe(p["j"])), he(w)),
        "n={n} j={j} a={a}: full chain expansion",
    ),
    "ITER_PROP": _Expansion(
        partial(_prep_plain, ("n", "k", "a")),
        lambda p, w: h_poly(HSpec(p["n"], p["a"] + qe(p["k"] + 1)), he(w)),
        lambda p: p["k"] + 1, False,
        lambda p, s, w: h_poly(HSpec(s, p["a"]), he(w)),
        "n={n} k={k} a={a}: iterated expansion",
    ),
    # w + n: the zshift by q^(1/2) moves slice -n down by n half-units
    "ITERATE_BRESS": _Expansion(
        partial(_prep_plain, ("n", "k")),
        lambda p, w: (
            h_poly(HSpec(p["n"], he(2 * p["k"] + 3)), he(w + p["n"])).zshift(he(1)).znegate()
        ),
        lambda p: p["k"] + 1, False,
        lambda p, s, w: _pochz_rising(s, he(w)),
        "n={n} k={k}: iterated expansion with factored tail",
    ),
}


def _run_expansion(row: _Expansion, p: dict, wnum: int, stats: SumStats) -> List[Check]:
    n, d, lhs = p["n"], row.depth(p), row.lhs(p, wnum)
    terms = [row.term(p, s, wnum) for s in range(n + 1)]
    # term(s) / (q)_{2s} starts at q^(floor/2), so K(s) is needed only below wnum - floor
    floors = [_low(t, wnum) for t in terms]
    inv = _inv_poch_ladder(2, wnum - min([0, _low(lhs, 0)] + floors))
    spec = SummandSpec(d, (0,) * d, frozenset(range(1, d + 1)) if row.placed else None)
    rhs = ZLaurent.zero()
    for s, (term, chain) in enumerate(zip(terms, _chain_values(spec, n, floors, wnum, stats))):
        rhs = rhs + term * (chain * inv(2 * s))
    return [Check(row.label.format_map(p), lhs * inv(2 * n), rhs)]


# ---------------------------------------------------------------------------
# limit identities: H_LIMIT is F_LIMIT at j = 0


def _prep_limit(names: Sequence[str], params: dict) -> dict:
    """a > 0, j >= 0 (0 when the id does not take it) and z."""
    _reject_unknown(params, names)
    a = _need_half(params, "a")
    j = _need_int(params, "j", 0) if "j" in names else 0
    if a.num <= 0:
        raise SpecError(f"the limit needs a > 0, got a={a}")
    return {"j": j, "a": a, "z": _opt_z(params)}


def _run_limit(label: str, p: dict, wnum: int, stats: SumStats) -> List[Check]:
    """F(n, j, a)(-z) at each z sample's certified n against `f_limit_sum`'s products."""
    j, a = p["j"], p["a"]
    zs = _z_samples(p["z"], lambda m: abs(m) + 2 * j < a.num, _LIMIT_MS)
    vals = _stabilized_values(j, a, [Monomial(-z.sign, z.q_exp) for z in zs], he(wnum))
    prods = eval_product_sums([_limit_specs(j, a, z) for z in zs], he(wnum))
    return [Check(label.format_map(dict(p, z=z, n=n)), v, rhs) for z, (v, n), rhs in zip(zs, vals, prods)]


# id: (parameter names, check label with the parameters, z and the certified n as fields)
_LIMITS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "H_LIMIT": (("a",) + _Z, "a={a} z={z}: polynomial at certified n={n} vs product"),
    "F_LIMIT": (("j", "a") + _Z, "j={j} a={a} z={z}: closure value at certified n={n} vs product sum"),
}


# ---------------------------------------------------------------------------
# combinatorial supporting facts


class EdgeSet(_Record):
    """A matching of the path 1-2-...-j; member i stands for edge (i, i+1)."""

    __slots__ = ("edges",)

    def __init__(self, edges: frozenset):
        _Record.__init__(self, frozenset(edges))
        if not all(_whole(i) for i in self.edges):
            raise SpecError(f"edges are labelled by plain ints, got {set(self.edges)!r}")
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
    if not _whole(j) or j < 0:
        raise SpecError(f"need an int j >= 0, got j={j!r}")
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


def _edge_samples(j: int) -> List[Tuple[int, ...]]:
    rng = random.Random(0x5EED + 1000 * j)
    out = []
    for _ in range(10):
        t = []
        prev = rng.randint(0, 10)
        for _ in range(j):
            t.append(prev)
            prev = rng.randint(0, prev)
        out.append(tuple(t))
    return out


def _prep_edge_lemma(params: dict) -> dict:
    _reject_unknown(params, ("j", "samples"))
    # all Fibonacci(j+1) matchings are built as objects: j = 15 verifies in
    # about 1.0 s, and the count grows about 1.6x per step of j
    j = _need_int(params, "j", 0, 15)
    samples = params.get("samples")
    if samples is not None:
        rows = [_int_tuple(s) for s in samples] if isinstance(samples, (list, tuple)) else [None]
        if None in rows:
            raise SpecError(f"samples must be a list of index lists, got {samples!r}")
        samples = rows
        for s in samples:
            if len(s) != j:
                raise SpecError(f"sample {s} does not have j={j} entries")
            if any(v < 0 for v in s) or any(x < y for x, y in zip(s, s[1:])):
                raise SpecError(f"sample {s} must be weakly decreasing and nonnegative")
    return {"j": j, "samples": samples}


def _run_edge_lemma(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    j = p["j"]
    samples = p["samples"]
    if samples is None:
        samples = [] if j != 3 else [(2, 1, 1)]
        samples += _edge_samples(j)
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


def _run_chu(p: dict, wnum: int, stats: SumStats) -> List[Check]:
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


def _run_even_fact(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    inv, inv_even = _inv_poch_ladder(2, wnum), _inv_poch_ladder(4, wnum)
    checks = []
    for s in range(p["s_max"] + 1):
        lhs = h_poly(HSpec(s, qe(1)), he(wnum)).substitute(-1, qe(0)) * inv(2 * s)
        rhs = inv_even(s)
        checks.append(Check(f"s={s}: even-weight value factors", lhs, rhs))
    return checks


# ---------------------------------------------------------------------------
# the guided reduction to the classical sum side


def _prep_andrews_answer(params: dict) -> dict:
    _reject_unknown(params, ("k", "r", "n"))
    k = _need_int(params, "k", 1)
    r = _need_int(params, "r", 0, k)
    n = _opt_int(params, "n", 5, 0)
    return {"k": k, "r": r, "j": 0, "placement": None, "n": n}


def _run_andrews_answer(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    """Reproduce the reduction schedule: expand k-r+1 times, insert a linear
    factor, then alternate expansion and insertion for the remaining r-1
    factors; the closing factor forces the innermost index to zero and the
    surviving scalar is the classical sum side."""
    k, r, n = p["k"], p["r"], p["n"]
    inv = _inv_poch_ladder(2, wnum)
    checks = []

    # the H form of the closing factor vanishes for every positive index;
    # SPECIAL_A at z = 1 equates it with (q, 1; q)_s, the factor of the
    # forced sum below, which vanishes through its factor 1 - q^0
    for s in range(1, max(2, min(n, 4)) + 1):
        vanish = h_poly(HSpec(s, he(1)), INF).substitute(-1, he(1))
        checks.append(Check(f"s={s}: H(s, 1/2) vanishes at -q^(1/2)", vanish, QSeries.zero(INF)))

    # finite-n pipeline: state = sum_s K(s) * H(s, a)(-q^x) / (q)_{2s},
    # from K(n) = 1, a = k + 3/2, x = r + 1/2.  Each expansion (the key lemma)
    # adds a chain level of weight q^(s^2) and lowers a by 1; a = x after
    # k - r + 1 of them, and from then on the functional equation, which
    # lowers x by 1 and multiplies K(s) by q^s, comes before each expansion.
    # Both end at 1/2, where H(s, 1/2)(-q^(1/2)) vanishes but at s = 0, so
    # the value is K(0) of the (k+1)-level chain from n whose linear weights
    # are 1 on the last r of the first k levels, the ones those functional
    # equations shifted.  Only K(0) is read: the other last-level cells get
    # the floor wnum, which skips them.
    ag = _SUM_ROWS["AG"]
    plain_spec = ag.summand(p, None)
    forced_spec = SummandSpec(k + 1, plain_spec.linear + (0,), tail=TailOver(Monomial(-1, qe(0))))
    value = _chain_values(forced_spec, n, [0] + [wnum] * n, wnum, stats)[0]

    # every step preserved the value, so K(0) must equal the start;
    # wnum + n(2r+1): substituting -q^(r+1/2) moves slice -n down by n(2r+1) half-units
    H = h_poly(HSpec(n, he(2 * k + 3)), he(wnum + n * (2 * r + 1)))
    start = H.substitute(-1, he(2 * r + 1)) * inv(2 * n)
    checks.append(Check(f"n={n}: pipeline value equals the starting value", value, start))

    # and it is exactly the bounded classical sum side, AG's: the k-level
    # chain closed by 1/(q)_{s_k}, here as series products
    direct = QSeries.zero(he(wnum))
    for s, c in enumerate(_chain_values(plain_spec, n, [0] * (n + 1), wnum, stats)):
        direct = direct + c * inv(s)
    checks.append(Check(f"n={n}: pipeline value is the bounded sum side", value, direct))

    # in the limit, the same shape closed by (1, q; q)_s / (q)_{2s}, TailOver
    # at z = -1 and the H form above, reproduces the classical identity
    forced = eval_multisum(forced_spec, he(wnum), stats)
    plain = eval_multisum(plain_spec, he(wnum), stats)
    checks.append(Check("forced innermost index reproduces the sum side", forced, plain))
    prod = eval_product_sum(ag.products(p, ag.modulus(p), None), he(wnum))
    checks.append(Check("sum side meets the product side", plain, prod))
    return checks


# ---------------------------------------------------------------------------
# registry assembly


def _reg(id: str, prepare, runner, modulus=None) -> None:
    _REGISTRY[id] = _Entry(prepare, runner, modulus)


for _id, _row in _SUM_ROWS.items():
    _reg(_id, partial(_prep_sum, _row.names), partial(_run_row, _row), _row.modulus)
for _id, _exp in _EXPANSIONS.items():
    _reg(_id, _exp.prepare, partial(_run_expansion, _exp))
_reg("CURIOUS", partial(_prep_sum, _Z), _run_curious, _odd)
_reg("SPECIAL_A", _prep_n, _run_special_a)
_reg("FUNC_EQ", partial(_prep_plain, ("n", "c")), _run_func_eq)
_reg("RECURSE_F", _prep_nja_pos, _run_recurse_f)
for _id, (_names, _label) in _LIMITS.items():
    _reg(_id, partial(_prep_limit, _names), partial(_run_limit, _label))
_reg("EDGE_LEMMA", _prep_edge_lemma, _run_edge_lemma)
_reg("CHU_COEFF", partial(_prep_plain, ("j",)), _run_chu)
_reg("EVEN_FACT", _prep_even_fact, _run_even_fact)
_reg("ANDREWS_ANSWER", _prep_andrews_answer, _run_andrews_answer, _odd)


# ---------------------------------------------------------------------------
# the driver


def verify(case: IdentityCase) -> VerificationReport:
    """Build both sides of a registered identity and certify equality."""
    t0 = time.perf_counter()
    stats = SumStats()

    def report(status, compared=None, mismatch=None, detail=""):
        elapsed = time.perf_counter() - t0
        counts = (stats.tuples, stats.nodes, stats.pruned)
        return VerificationReport(case, status, compared, mismatch, elapsed, *counts, detail)

    try:
        entry, params, ordnum = _prepare(case)
        checks = entry.runner(params, ordnum, stats)
        if not checks:
            raise QidentError("runner produced no checks")
        compared_num: Optional[int] = None  # None is infinite
        for c in checks:
            res = c.lhs.eq_upto(c.rhs)
            if not res.equal:
                return report("fail", res.compared_order, res.mismatch, c.label)
            compared_num = _min_ord(compared_num, _ord_num(res.compared_order))
        if compared_num is not None and compared_num < ordnum:
            raise QidentError(
                f"compared only below q^{_ord_obj(compared_num)}, "
                f"not the requested q^{_ord_obj(ordnum)}"
            )
        return report("pass", _ord_obj(compared_num))
    except QidentError as e:
        return report("error", detail=str(e))
    except Exception as e:  # e.g. RecursionError or MemoryError from an oversized input
        return report("error", detail=f"{type(e).__name__}: {e}")
