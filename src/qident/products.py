"""Triple-product evaluation: the product sides of the catalog.

The right-hand sides in this family are weighted sums of normalised
triple products (A, B, q^M; q^M)_inf / (q; q)_inf on a common modulus
exponent M.  A spec with A B = q^M and equal signs is in Jacobi's form
(Andrews, *The Theory of Partitions*, Thm 2.8): its numerator is the
sparse theta series `qobjects.theta_triple_sum`, which also builds
(q; q)_inf.  `eval_product_sum` sums those and multiplies once by the
cached 1/(q; q)_inf; any other spec takes the factor route `_triple`,
which the tests also use as the oracle.
"""

from __future__ import annotations

from .qobjects import Monomial, partition_series, poch_infinite, theta_triple_sum
from .series import HalfInt, IllPosedError, QSeries, SpecError, _Record


class TripleProductSpec(_Record):
    """weight * (arg1, arg2, q^modulus_exp; q^modulus_exp)_inf / (q; q)_inf."""

    __slots__ = ("modulus_exp", "arg1", "arg2", "weight")

    def __init__(self, modulus_exp: HalfInt, arg1: Monomial, arg2: Monomial, weight: int = 1):
        m = HalfInt._coerce(modulus_exp)
        if m is None:
            raise SpecError(f"bad modulus exponent {modulus_exp!r}")
        if m.num <= 0:
            raise IllPosedError(f"modulus exponent must be positive, got {m}")
        _Record.__init__(self, m, arg1, arg2, weight)
        for arg in (arg1, arg2):
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
