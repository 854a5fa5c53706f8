"""Triple-product evaluation: the product sides of the catalog.

The right-hand sides in this family are weighted sums of normalised
triple products (A, B, q^M; q^M)_inf / (q; q)_inf on a common modulus
exponent M.  A product with A B = q^M and equal signs is in Jacobi's form
(Andrews, *The Theory of Partitions*, Thm 2.8): at A = sign q^e its
numerator is the theta series E - sign O, the halves at even and odd
index, `qobjects._theta_terms`.  The sum rows and the limits build each
list from ints as an item (sign, key), (M, e, w) in half-units per
product (`_jacobi_key`).  `_product_sums` multiplies both halves of each
distinct key by the cached 1/(q; q)_inf once per batch, as plain lists
from q^0 by slice adds (`series._convolve_sparse`), and reads every item
off them as E - sign O, so z's and -z's items share both products.
`eval_product_sum` is the factor route alone: it sums a list of
`TripleProductSpec`s, Jacobi or not, as products of four infinite
Pochhammer series, and shares no step with the theta kernel.  It is
NEG_AG's product side and the tests' oracle.
"""

from __future__ import annotations

from operator import add, sub
from typing import List

from .qobjects import Monomial, _theta_terms, binom, partition_series, poch_infinite
from .series import HalfInt, IllPosedError, QSeries, SpecError, _convolve_sparse, _Record, _ord_num, _whole


class TripleProductSpec(_Record):
    """weight * (arg1, arg2, q^modulus_exp; q^modulus_exp)_inf / (q; q)_inf."""

    __slots__ = ("modulus_exp", "arg1", "arg2", "weight")

    def __init__(self, modulus_exp: HalfInt, arg1: Monomial, arg2: Monomial, weight: int = 1):
        m = HalfInt._coerce(modulus_exp)
        if m is None:
            raise SpecError(f"bad modulus exponent {modulus_exp!r}")
        if m.num <= 0:
            raise IllPosedError(f"modulus exponent must be positive, got {m}")
        if not _whole(weight):
            raise SpecError(f"a product weight must be an int, got {weight!r}")
        _Record.__init__(self, m, arg1, arg2, weight)
        for arg in (arg1, arg2):
            if arg.q_exp.num <= 0:
                raise IllPosedError(
                    f"product argument {arg} needs a positive q-exponent"
                )


def _jacobi_key(M: int, x: int, e: int, j: int, weighted: bool = True) -> tuple:
    """sum_s w_s (x q^(e/2+j-2s), x q^((M-e)/2-j+2s); q^(M/2))_inf / (q)_inf, s = 0..j, as an item.

    w_s = C(j, s), or 1 when not `weighted`; refused, as `TripleProductSpec` is, unless every exponent is positive.
    """
    key = tuple((M, e + 2 * j - 4 * s, binom(j, s) if weighted else 1) for s in range(j + 1))
    for _, f, _ in key:
        if f <= 0 or f >= M:
            raise IllPosedError(f"product argument {Monomial(x, HalfInt(min(f, M - f)))} needs a positive q-exponent")
    return x, key


def _triple(spec: TripleProductSpec, order) -> QSeries:
    m = spec.modulus_exp
    out = poch_infinite(spec.arg1, m, order)
    out = out * poch_infinite(spec.arg2, m, order)
    out = out * poch_infinite(Monomial(1, m), m, order)
    return out * partition_series(order)


def eval_product_sum(specs, order) -> QSeries:
    """Weighted sum of normalised triple products, each built from its factors."""
    specs = list(specs)
    if not specs:
        raise SpecError("empty product list")
    return sum((_triple(t, order) * t.weight for t in specs), QSeries.zero())


def _product_sums(items, order) -> List[QSeries]:
    """Each (sign, key) item's sum below `order`; a theta half has about sqrt(order) terms, one slice add each."""
    inv, nnum, shared, out = partition_series(order)._coeffs, _ord_num(order), {}, []
    for sign, key in items:
        if key not in shared:  # the even and odd halves from q^0, each times 1/(q; q)_inf
            halves = [0] * nnum, [0] * nnum  # a theta series in Jacobi's form starts at q^0
            for m, e, w in key:
                for parity, x in _theta_terms(e, m, nnum):
                    halves[parity][x] += w
            shared[key] = [_convolve_sparse(h, inv, nnum, 2) for h in halves]  # 1/(q; q)_inf is whole-q
        out.append(QSeries(0, list(map(sub if sign > 0 else add, *shared[key])), nnum))
    return out
