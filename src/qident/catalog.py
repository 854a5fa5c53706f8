"""Registry of the verified identities.

Every registered id names one displayed result and knows how to build
both of its sides.  Each id belongs to one family module, which
registers its ids when imported: `sums`, the sum--product identities
over a modulus family and CURIOUS (on `multisum` and `products`);
`limits`, polynomial values at a certified n against infinite products
(on `hfamily` and `products`); `finite`, the structural identities in n
(symbolic in z, as ZLaurent equalities), the expansions at finite n, the
combinatorial supporting facts and ANDREWS_ANSWER.  This module is what
they share: the records, the parameter checks, the z sampling,
`_REGISTRY`, and `_FAMILIES`, the one table of each id's module, which
`registered_ids` reads and from which `_prepare` imports the module on
the id's first use; so `import qident` compiles no family and no engine.

Parameters are checked by family, from the names each id takes:
`_prep_plain` serves the ids whose parameters are plain counts and
half-integer weights, and each family adds its own.  Every z family
samples z through `_z_samples`, one of each pair z = +-q^(m/2),
+-q^((lo + hi - m)/2), which mirror about the centre of the family's
window (lo, hi) and give equal checks, and only +z where q^(1/2) ->
-q^(1/2) takes the check at +z to the one at -z (m plus the family's
parity odd).  A sum--product id's default order is q^(modulus + 30), read
off its own modulus; every other id defaults to q^40.

`verify` runs the checks for a case and reports pass/fail/error, the
order actually compared, the first mismatching coefficient if any, and
the summation engine's kernel cell counts (visited, skipped by the
truncation floor, evaluated), one kernel per batch of sums that differ
only in their tails and one per chain of an expansion.  Each runner runs
once: it builds its sides at the requested order plus the closed-form
loss of its own shifts and substitutions, so a pass that compares below
the request is an engine bug, reported as an `error`.  `verify` never
raises: an exception from any check becomes an `error` report.  It
imports the id's module before its clock starts, so `elapsed` is the
case's own work.
"""

from __future__ import annotations

import time
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .qobjects import Monomial
from .series import (
    HalfInt,
    Mismatch,
    Order,
    QidentError,
    SpecError,
    SumStats,
    _Record,
    _min_ord,
    _ord_num,
    _ord_obj,
    _whole,
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

# id -> the module of the package that registers it
_FAMILIES: Dict[str, str] = {
    id: module
    for module, ids in (
        ("sums", "AG NEG_AG BRESSOUD_EVEN BRESS_J THM_3_1 THM_3_2 THM_4_1 THM_4_2 OVER_1 OVER_2 OVER_3 COR_INFTY "
                 "CURIOUS"),
        ("limits", "H_LIMIT F_LIMIT"),
        ("finite", "SPECIAL_A FUNC_EQ RECURSE_F KEY_LEMMA F_SUM NEW_PROP NEW_PROP2 ANOTHER_F ITER_PROP ITERATE_BRESS "
                   "EDGE_LEMMA CHU_COEFF EVEN_FACT ANDREWS_ANSWER"),
    )
    for id in ids.split()
}


def registered_ids() -> Tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def make_case(id: str, order=None, **params) -> IdentityCase:
    return IdentityCase(id, params, order)


def _entry(id: str) -> _Entry:
    """The registry entry of `id`, importing its module on the id's first use."""
    module = _FAMILIES.get(id)
    if module is None:
        raise SpecError(f"unknown identity id {id!r}; known: {', '.join(registered_ids())}")
    if id not in _REGISTRY:
        import_module(f"{__package__}.{module}")
    return _REGISTRY[id]


def _prepare(case: IdentityCase) -> Tuple[_Entry, dict, int]:
    """The case's entry, its validated parameters and its order (half-units)."""
    entry = _entry(case.id)
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


def _reg(id: str, prepare, runner, modulus=None) -> None:
    _REGISTRY[id] = _Entry(prepare, runner, modulus)


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


def _opt_z(params: dict, window: Tuple[int, int]) -> Optional[Monomial]:
    """z = sign q^(m/2) from z_sign / z_exp, lo < m < hi in `window`; absent means "use the sampling policy"."""
    if "z_sign" not in params and "z_exp" not in params:
        return None
    sign = params.get("z_sign", 1)
    if sign in ("+", "+1"):
        sign = 1
    if sign in ("-", "-1"):
        sign = -1
    if not _whole(sign) or sign not in (1, -1):
        raise SpecError(f"z_sign must be +1 or -1, got {params.get('z_sign')!r}")
    z = Monomial(sign, _need_half(params, "z_exp") if "z_exp" in params else qe(0))
    if not window[0] < z.q_exp.num < window[1]:
        raise SpecError(f"z = {z} is outside the well-posed window for these parameters")
    return z


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


# monomial z sampling policies (numerators of half-integer exponents); a
# limit's window is centred on 0 (H(z) = H(1/z)), so -m mirrors m: m >= 0 suffice
_POLICY_MS = (-2, -1, 0, 1, 2, 3)
_LIMIT_MS = (0, 1, 2, 3, 5)


def _z_samples(
    z: Optional[Monomial], window: Tuple[int, int], ms: Sequence[int] = _POLICY_MS, parity: int = 0
) -> List[Monomial]:
    """[z] for the given z, else one z = +-q^(m/2), m in ms (half-units) inside
    the open window (lo, hi), per orbit of the family's two symmetries.  The
    prepares refuse a z outside the window and a window that keeps no m.

    The mirror m -> lo + hi - m keeps the sign: m is skipped when its mirror
    is in ms before it.  The sign twin: a family's terms are z^s times
    q^(parity s^2 / 2) times whole powers of q, so q^(1/2) -> -q^(1/2), which
    fixes q, takes both sides at sign q^(m/2) to both sides at
    (-1)^(m + parity) sign q^(m/2); when m + parity is odd, only + is kept.
    """
    lo, hi = window
    kept = [m for i, m in enumerate(ms) if lo < m < hi and lo + hi - m not in ms[:i]]
    return [z] if z is not None else [
        Monomial(sig, HalfInt(m)) for m in kept for sig in ((1,) if (m + parity) % 2 else (1, -1))
    ]



# an explicit z, which every z family takes
_Z = ("z_sign", "z_exp")


# ---------------------------------------------------------------------------
# the driver


def verify(case: IdentityCase) -> VerificationReport:
    """Build both sides of a registered identity and certify equality."""
    stats, t0 = SumStats(), None

    def report(status, compared=None, mismatch=None, detail=""):
        elapsed = 0.0 if t0 is None else time.perf_counter() - t0
        counts = (stats.tuples, stats.nodes, stats.pruned)
        return VerificationReport(case, status, compared, mismatch, elapsed, *counts, detail)

    try:
        _entry(case.id)  # the clock starts after a first use imports the id's module
        t0 = time.perf_counter()
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
