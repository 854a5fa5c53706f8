"""The limits at a certified n (H_LIMIT is F_LIMIT at j = 0); importing it registers them.

`_LIMITS`, run by `_run_limit`, holds one row per id: values from
`hfamily`'s stabilization against `products`' sides.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple

from .catalog import Check, _LIMIT_MS, _Z, _need_half, _need_int, _opt_z, _reg, _reject_unknown, _z_samples
from .hfamily import _limit_key, _stabilized_values
from .products import _product_sums
from .qobjects import Monomial
from .series import HalfInt, SpecError, SumStats, he


def _limit_window(j: int, a: HalfInt) -> Tuple[int, int]:
    # terms z^s q^(a s^2), centre 0; empty unless a > j, and then it holds m = 0
    return 2 * j - a.num, a.num - 2 * j


def _prep_limit(names: Sequence[str], params: dict) -> dict:
    """a > 0, j >= 0 (0 when the id does not take it), a > j (else no z is well posed), and z."""
    _reject_unknown(params, names)
    a = _need_half(params, "a")
    j = _need_int(params, "j", 0) if "j" in names else 0
    if a.num <= 0:
        raise SpecError(f"the limit needs a > 0, got a={a}")
    if a.num <= 2 * j:
        raise SpecError("no well-posed z sample exists for these parameters")
    return {"j": j, "a": a, "z": _opt_z(params, _limit_window(j, a))}


def _run_limit(label: str, p: dict, wnum: int, stats: SumStats) -> List[Check]:
    """F(n, j, a)(-z) at each z sample's certified n against `f_limit_sum`'s products."""
    j, a = p["j"], p["a"]
    zs = _z_samples(p["z"], _limit_window(j, a), _LIMIT_MS, a.num)
    vals = _stabilized_values(j, a, [Monomial(-z.sign, z.q_exp) for z in zs], he(wnum))
    prods = _product_sums([_limit_key(j, a, z) for z in zs], he(wnum))
    return [Check(label.format_map(dict(p, z=z, n=n)), v, rhs) for z, (v, n), rhs in zip(zs, vals, prods)]


# id: (parameter names, check label with the parameters, z and the certified n as fields)
_LIMITS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "H_LIMIT": (("a",) + _Z, "a={a} z={z}: polynomial at certified n={n} vs product"),
    "F_LIMIT": (("j", "a") + _Z, "j={j} a={a} z={z}: closure value at certified n={n} vs product sum"),
}


for _id, (_names, _label) in _LIMITS.items():
    _reg(_id, partial(_prep_limit, _names), partial(_run_limit, _label))
