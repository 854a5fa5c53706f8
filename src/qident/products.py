"""Triple-product evaluation: the product sides of the catalog.

The right-hand sides in this family are weighted sums of normalised
triple products (A, B, q^M; q^M)_inf / (q; q)_inf on a common modulus
exponent M.  A spec with A B = q^M and equal signs is in Jacobi's form
(Andrews, *The Theory of Partitions*, Thm 2.8): at A = sign q^e its
numerator is the theta series E - sign O, the halves at even and odd
index, `qobjects._theta_terms`.  `eval_product_sums` multiplies both
halves of each distinct Jacobi part by the cached 1/(q; q)_inf once per
batch, as plain lists from q^0 by slice adds (`series._convolve_sparse`),
and reads every list off them in one pass as E - sign O, so the list
with every sign flipped, as z's and -z's are, shares both products.  Any
other spec takes the factor route `_triple`, which the tests also use as
the oracle.  `_jacobi_specs` builds the binomial Jacobi lists of the sum
rows and of the limits.
"""

from __future__ import annotations

from operator import add, sub
from typing import List

from .qobjects import Monomial, _theta_terms, binom, partition_series, poch_infinite
from .series import HalfInt, IllPosedError, QSeries, SpecError, _convolve_sparse, _Record, _ord_num, _whole, qe


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


def _jacobi_specs(M: HalfInt, x: int, e: HalfInt, j: int, weighted: bool = True) -> List[TripleProductSpec]:
    """sum_s w_s (x q^(e+j-2s), x q^(M-e-j+2s); q^M)_inf / (q)_inf, s = 0..j, as specs.

    w_s = C(j, s), or 1 when not `weighted`.  Every spec is in Jacobi's form.
    """
    return [
        TripleProductSpec(M, Monomial(x, e + qe(j - 2 * s)), Monomial(x, M - e - qe(j - 2 * s)), binom(j, s) if weighted else 1)
        for s in range(j + 1)
    ]


def _triple(spec: TripleProductSpec, order) -> QSeries:
    m = spec.modulus_exp
    out = poch_infinite(spec.arg1, m, order)
    out = out * poch_infinite(spec.arg2, m, order)
    out = out * poch_infinite(Monomial(1, m), m, order)
    return out * partition_series(order)


def eval_product_sum(specs, order) -> QSeries:
    """Weighted sum of normalised triple products."""
    return eval_product_sums([specs], order)[0]


def eval_product_sums(spec_lists, order) -> List[QSeries]:
    """[eval_product_sum(specs, order) for specs in spec_lists], sign mirrors sharing their products.

    A theta half has about sqrt(order) terms, so each half times 1/(q; q)_inf
    is a plain list, one slice add per term.
    """
    spec_lists = [list(specs) for specs in spec_lists]
    if not all(spec_lists):
        raise SpecError("empty product list")
    inv, nnum, shared, out = partition_series(order)._coeffs, _ord_num(order), {}, []
    for specs in spec_lists:
        jacobi = [t for t in specs if t.arg1.sign == t.arg2.sign and t.arg1.q_exp + t.arg2.q_exp == t.modulus_exp]
        sign = jacobi[0].arg1.sign if jacobi else 1
        key = tuple((t.modulus_exp, t.arg1.q_exp, t.weight, t.arg1.sign * sign) for t in jacobi if t.weight)
        acc = QSeries.zero()
        if key:
            if key not in shared:  # the even and odd halves from q^0, each times 1/(q; q)_inf
                halves = [0] * nnum, [0] * nnum  # a theta series in Jacobi's form starts at q^0
                for m, e, w, rel in key:
                    for parity, x in _theta_terms(e.num, m.num, nnum):
                        halves[parity][x] += w * rel if parity else w
                shared[key] = [_convolve_sparse(h, inv, nnum, 2) for h in halves]  # 1/(q; q)_inf is whole-q
            acc = QSeries(0, list(map(sub if sign > 0 else add, *shared[key])), nnum)  # E - sign O
        out.append(sum((_triple(t, order) * t.weight for t in specs if t not in jacobi), acc))
    return out
