"""The sum--product identities, CURIOUS and NEG_AG; importing it registers them.

`_SUM_ROWS`, run by `_run_row`, are cases of one Andrews-Gordon /
Bressoud shape with binomial placements, each product side a Jacobi item
of ints for the theta kernel; `_prep_sum` checks k, r, j, placement and z
for every row, for CURIOUS and for the control NEG_AG, whose runner sums
its non-Jacobi product list by the factor route, `eval_product_sum`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .catalog import Check, _Z, _need_int, _opt_placement, _opt_z, _reg, _reject_unknown, _z_samples
from .multisum import SummandSpec, TailEven, TailOdd, TailOver, TailOverOdd, eval_multisums
from .products import TripleProductSpec, _jacobi_key, _product_sums, eval_product_sum
from .qobjects import Monomial
from .series import SumStats, _Record, he, qe


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
# k, r, j and placement (None for the unplaced shape); z rows also z.  A z
# row's terms are z^s times whole powers of q, so its sampling parity is 0.


class _SumRow(_Record):
    __slots__ = ("names", "modulus", "summand", "products", "label", "window")

    def __init__(
        self,
        names: Tuple[str, ...],  # the parameters `_prep_sum` takes
        modulus: Callable[[dict], int],
        summand: Callable[[dict, Optional[Monomial]], SummandSpec],
        products: Callable[[dict, int, Optional[Monomial]], tuple],
        label: str,  # str.format fields: the parameters, mod, P (sorted placement), terms (j+1), z
        window: Optional[Callable[[dict], Tuple[int, int]]] = None,  # z rows: q^(m/2) well posed for lo < m < hi
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


def _gordon_key(p: dict, mod: int, z: Optional[Monomial]) -> tuple:
    """sum_s w_s (x q^(e+j-2s), x q^(mod-e-j+2s); q^mod)_inf / (q)_inf, as a Jacobi item.

    Without z, x = 1 and e = k+1-r.  With z = sign q^m, x = -sign and
    e = k+1-r+m: the arguments are -z q^(k+1-r+j-2s) and -q^(...)/z.
    w_s = C(j, s) for a placed sum, else 1.
    """
    x, m = (1, 0) if z is None else (-z.sign, z.q_exp.num)
    return _jacobi_key(2 * mod, x, 2 * (p["k"] + 1 - p["r"]) + m, p["j"], p["placement"] is not None)


def _over_window(p: dict) -> Tuple[int, int]:
    return 2 * (p["j"] - p["k"] - 1), 2 * (p["k"] + 2 - p["j"])  # centre 1: z <-> q/z


def _odd_index_window(p: dict) -> Tuple[int, int]:
    return -2 * (p["k"] + 2), 2 * (p["k"] + 1)  # centre -1: z <-> 1/(qz)


def _odd(p: dict) -> int:
    return 2 * p["k"] + 3


def _even(p: dict) -> int:
    return 2 * p["k"] + 2


def _prep_sum(names: Sequence[str], window: Optional[Callable[[dict], Tuple[int, int]]], params: dict) -> dict:
    """k, r, j, placement and, on a z row (one with a window), z inside it.

    A name the row does not take keeps its neutral value: 0, or None for
    placement.  A z row sums k + 1 indices, so it needs k >= 0, and j and
    the placement fit in k + 1 - r positions; every other row needs k >= 1
    and has k - r positions.
    """
    _reject_unknown(params, names)
    zrow = window is not None
    k = _need_int(params, "k", 0 if zrow else 1) if "k" in names else 0
    r = _need_int(params, "r", 0, k) if "r" in names else 0
    limit = k + 1 - r if zrow else k - r
    j = _need_int(params, "j", 0, limit) if "j" in names else 0
    placement = _opt_placement(params, j, limit) if "placement" in names else None
    out = {"k": k, "r": r, "j": j, "placement": placement}
    return dict(out, z=_opt_z(params, window(out))) if zrow else out


_SUM_ROWS: Dict[str, _SumRow] = {
    "AG": _SumRow(
        ("k", "r"), _odd, _odd_sum, _gordon_key, "k={k} r={r}: sum vs modulus-{mod} product"
    ),
    "BRESSOUD_EVEN": _SumRow(
        ("k", "r"), _even, _even_sum, _gordon_key, "k={k} r={r}: sum vs modulus-{mod} product"
    ),
    "BRESS_J": _SumRow(
        ("k", "j"), _odd, _odd_sum, _gordon_key, "k={k} j={j}: sum vs {terms}-term product"
    ),
    "THM_3_1": _SumRow(
        ("k", "r", "j", "placement"), _odd, _odd_sum, _gordon_key,
        "k={k} r={r} j={j} P={P}: sum vs binomial product",
    ),
    "THM_3_2": _SumRow(
        ("k", "r", "j"), _odd, _odd_sum, _gordon_key,
        "k={k} r={r} j={j}: sum vs {terms}-term product",
    ),
    "THM_4_1": _SumRow(
        ("k", "r", "j", "placement"), _even, _even_sum, _gordon_key,
        "k={k} r={r} j={j} P={P}: even sum vs binomial product",
    ),
    "THM_4_2": _SumRow(
        ("k", "r", "j"), _even, _even_sum, _gordon_key,
        "k={k} r={r} j={j}: even sum vs {terms}-term product",
    ),
    "OVER_1": _SumRow(
        ("k", "j", "placement") + _Z, _odd, _over_sum, _gordon_key,
        "k={k} j={j} z={z}: sum vs binomial product", _over_window,
    ),
    "OVER_2": _SumRow(
        ("k", "j") + _Z, _odd, _over_sum, _gordon_key,
        "k={k} j={j} z={z}: sum vs {terms}-term product", _over_window,
    ),
    # the odd-index closing factor (-q^(k+1)/z; q)_{s+1} (-z q^(-k); q)_s /
    # (q)_{2s+1}, TailOverOdd at z q^(-k); the product pairs q^(k+1) with 1/z
    # and q^(k+2) with z, mirroring the orientation of the even-index
    # families -- this is the orientation the series satisfy
    "OVER_3": _SumRow(
        ("k",) + _Z,
        _odd,
        lambda p, z: SummandSpec(p["k"] + 1, (1,) * (p["k"] + 1), tail=TailOverOdd(Monomial(z.sign, z.q_exp - p["k"]))),
        lambda p, mod, z: _gordon_key(p, mod, z.inverted()),
        "k={k} z={z}: odd-index sum vs product",
        _odd_index_window,
    ),
    # closing factor (qz, 1/z; q)_s / (q)_{2s}, which is TailOver at -1/z:
    # the row is OVER_2's shape at j = 0 evaluated at -1/z, sum and product
    "COR_INFTY": _SumRow(
        ("k",) + _Z,
        _odd,
        lambda p, z: _over_sum(p, Monomial(-z.sign, -z.q_exp)),
        lambda p, mod, z: _gordon_key(p, mod, Monomial(-z.sign, -z.q_exp)),
        "k={k} z={z}: iterated sum vs product",
        _odd_index_window,
    ),
}


def _run_row(row: _SumRow, p: dict, wnum: int, stats: SumStats) -> List[Check]:
    mod = row.modulus(p)
    fields = dict(p, mod=mod, P=sorted(p["placement"] or ()), terms=p["j"] + 1)
    zs = [None] if row.window is None else _z_samples(p["z"], row.window(p))
    sums = eval_multisums([row.summand(p, z) for z in zs], he(wnum), stats)
    prods = _product_sums([row.products(p, mod, z) for z in zs], he(wnum))
    return [Check(row.label.format_map(dict(fields, z=z)), lhs, rhs) for z, lhs, rhs in zip(zs, sums, prods)]


def _run_curious(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    # k = 0 of the overpartition rows: OVER_2's sum at z and OVER_3's at
    # 1/z expand the same product
    even_row, odd_row = _SUM_ROWS["OVER_2"], _SUM_ROWS["OVER_3"]
    zs = _z_samples(p["z"], even_row.window(p))
    evens = eval_multisums([even_row.summand(p, z) for z in zs], he(wnum), stats)
    odds = eval_multisums([odd_row.summand(p, z.inverted()) for z in zs], he(wnum), stats)
    prods = _product_sums([even_row.products(p, even_row.modulus(p), z) for z in zs], he(wnum))
    checks = []
    for z, even, odd, prod in zip(zs, evens, odds, prods):
        checks += [
            Check(f"z={z}: even-index expansion vs product", even, prod),
            Check(f"z={z}: odd-index expansion vs product", odd, prod),
            Check(f"z={z}: the two expansions agree", even, odd),
        ]
    return checks


def _run_control(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    # NEG_AG: AG's sum against AG's product arguments on a modulus one more
    # than the true one, so no product is in Jacobi's form; a suite can mark
    # this id with expect: fail to prove the harness detects mismatches
    mod = _odd(p) + 1
    specs = [TripleProductSpec(qe(mod), Monomial(1, he(e)), Monomial(1, he(M - e)), w)
             for M, e, w in _gordon_key(p, _odd(p), None)[1]]
    (lhs,) = eval_multisums([_odd_sum(p, None)], he(wnum), stats)
    return [Check(f"k={p['k']} r={p['r']}: sum vs modulus-{mod} product (control)", lhs, eval_product_sum(specs, he(wnum)))]


for _id, _row in _SUM_ROWS.items():
    _reg(_id, partial(_prep_sum, _row.names, _row.window), partial(_run_row, _row), _row.modulus)
_reg("NEG_AG", partial(_prep_sum, ("k", "r"), None), _run_control, lambda p: _odd(p) + 1)
_reg("CURIOUS", partial(_prep_sum, _Z, _over_window), _run_curious, _odd)
