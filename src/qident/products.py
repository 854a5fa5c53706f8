"""Triple-product evaluation: the product sides of the catalog.

The right-hand sides in this family are weighted sums of normalised
triple products (A, B, q^M; q^M)_inf / (q; q)_inf on a common modulus
exponent M.  A spec with A B = q^M and equal signs is in Jacobi's form
(Andrews, *The Theory of Partitions*, Thm 2.8): its numerator is the
sparse theta series `theta_triple_sum`.  `eval_product_sum` sums those
and multiplies once by the cached 1/(q; q)_inf; any other spec takes the
factor route `_triple`, which the tests also use as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qobjects import Monomial, partition_series, poch_infinite
from .series import HalfInt, IllPosedError, QSeries, SpecError, _ord_num


@dataclass(frozen=True, slots=True)
class TripleProductSpec:
    """weight * (arg1, arg2, q^modulus_exp; q^modulus_exp)_inf / (q; q)_inf."""

    modulus_exp: HalfInt
    arg1: Monomial
    arg2: Monomial
    weight: int = 1

    def __post_init__(self):
        if isinstance(self.modulus_exp, int):
            object.__setattr__(self, "modulus_exp", HalfInt(2 * self.modulus_exp))
        elif not isinstance(self.modulus_exp, HalfInt):
            raise SpecError(f"bad modulus exponent {self.modulus_exp!r}")
        if self.modulus_exp.num <= 0:
            raise IllPosedError(f"modulus exponent must be positive, got {self.modulus_exp}")
        for arg in (self.arg1, self.arg2):
            if arg.z_exp != 0:
                raise SpecError("product arguments must be z-free")
            if arg.q_exp.num <= 0:
                raise IllPosedError(
                    f"product argument {arg} needs a positive q-exponent"
                )


def _triple(spec: TripleProductSpec, order) -> QSeries:
    m = spec.modulus_exp
    out = poch_infinite(spec.arg1, m, order)
    out = out * poch_infinite(spec.arg2, m, order)
    out = out * poch_infinite(Monomial(1, m), m, order)
    return out * partition_series(order)


def eval_product_sum(specs, order) -> QSeries:
    """Weighted sum of normalised triple products."""
    specs = list(specs)
    if not specs:
        raise SpecError("empty product list")
    acc = theta = QSeries.zero()
    for spec in specs:
        a, b = spec.arg1, spec.arg2
        if a.sign == b.sign and a.q_exp + b.q_exp == spec.modulus_exp:  # Jacobi's form
            theta = theta + theta_triple_sum(a, spec.modulus_exp, order) * spec.weight
        else:
            acc = acc + _triple(spec, order) * spec.weight
    return acc + theta * partition_series(order)


def theta_triple_sum(arg: Monomial, modulus_exp, order) -> QSeries:
    """sum_{s in Z} (-arg)^s q^(modulus_exp * s(s-1)/2) truncated at order.

    Jacobi's triple product says this equals
    (arg, q^modulus_exp/arg, q^modulus_exp; q^modulus_exp)_inf.
    """
    m = HalfInt._coerce(modulus_exp)
    if m is None or m.num <= 0:
        raise IllPosedError(f"modulus exponent must be positive, got {modulus_exp!r}")
    if arg.z_exp != 0:
        raise SpecError("theta argument must be z-free")
    nnum = _ord_num(order)
    if nnum is None:
        raise IllPosedError("a theta sum needs a finite truncation order")
    en = arg.q_exp.num
    mn = m.num

    def exponent(s: int) -> int:
        return mn * (s * (s - 1) // 2) + en * s

    terms: dict = {}

    def put(s: int) -> bool:
        e = exponent(s)
        if e < nnum:
            c = 1 if (s % 2 == 0 or arg.sign == -1) else -1
            key = HalfInt(e)
            terms[key] = terms.get(key, 0) + c
            return True
        return False

    s = 0
    while True:
        hit = put(s)
        # increasing once m*s + e > 0, so safe to stop after that point
        if not hit and mn * s + en > 0:
            break
        s += 1
    s = -1
    while True:
        hit = put(s)
        if not hit and mn * (s - 1) + en < 0:
            break
        s -= 1
    return QSeries.from_terms(terms, HalfInt(nnum))
