"""The values of H(n, a) and its closure F(n, j, a) at a certified n, and their limits.

`zpoly` builds H and F as polynomials in z for the finite-n family; this
module builds only their values at a sampled z.

With z fixed to a monomial sign*q^m, |m| < a, the values H(n, a)(z)
converge coefficientwise as n grows, and the limit is certified rather
than detected.  [2n, n-s]_q counts the partitions in an (n-s) x (n+s)
box, so it agrees with 1/(q)_inf through q^(n-|s|) (Andrews, *The Theory
of Partitions*, ch. 3).  `_certified_n` turns that into the least n at
which the value is final below a given order, in O(1).  A value stays
final at every larger n, so `_stabilized_values` walks H's column,
`qobjects._h_column`, once per batch, at its largest certified n, into
one even and one odd frame per |m| (H(z) = H(1/z)), and reads off each
sample's F value, the binomial sum sum_i C(j, i) H(n, a)(z q^(j-2i)),
starting from its i = 0 term (so H's value is one pass, E + sign O),
and reports the sample's own certified n.  `stabilized_h_value` /
`stabilized_f_value` are its one-sample case.  The limits themselves
are the binomial combinations `f_limit_sum` of infinite products; the
product `h_limit_product`, H's limit, is its case j = 0.  The arguments
of each product multiply to q^2a, so the sum is the Jacobi item
`_limit_key` on modulus 2a, ints built by `products._jacobi_key`, which
the catalog sums for every sample in one `products._product_sums` batch.
"""

from __future__ import annotations

from operator import add, sub
from typing import List, Sequence, Tuple

from .products import _jacobi_key, _product_sums
from .qobjects import Monomial, _h_column, _quad_min, _quad_top, _weight, binom
from .series import HalfInt, IllPosedError, QSeries, SpecError, _ord_num, _whole


def h_limit_product(a: HalfInt, z: Monomial, order) -> QSeries:
    """lim H(n, a)(-z) = (q^2a, z q^a, q^a/z; q^2a)_inf / (q;q)_inf: `f_limit_sum` at j = 0."""
    return f_limit_sum(0, a, z, order)


def f_limit_sum(j: int, a: HalfInt, z: Monomial, order) -> QSeries:
    """sum_i C(j,i) (q^2a, z q^(a+j-2i), q^(a-j+2i)/z; q^2a)_inf / (q;q)_inf for monomial z.

    This is the n -> infinity limit of F(n, j, a)(-z); every argument
    exponent must be positive for the products to make sense.
    """
    return _product_sums([_limit_key(j, a, z)], order)[0]


def _limit_key(j: int, a: HalfInt, z: Monomial) -> tuple:
    """The Jacobi item on modulus 2a that `f_limit_sum` sums."""
    if not _whole(j) or j < 0:
        raise SpecError(f"needs an int j >= 0, got j={j!r}")
    a = _weight(a)
    if a.num <= 0:
        raise IllPosedError(f"limit sum needs a > 0, got {a}")
    return _jacobi_key(2 * a.num, z.sign, a.num + z.q_exp.num, j)


def _certified_n(a: HalfInt, ms: Sequence[int], ordnum: int) -> int:
    """Least n at which H(n, a)(+-q^(m/2)) is final below q^(ordnum/2), for every m in ms.

    By the box lemma slice s of H(n, a) differs from its limit
    q^(a s^2 + m s) / (q)_inf from q^(n + 1 - |s| + a s^2 + m s) on, and the
    limit's slices |s| > n, missing from H, start at q^(a (n+1)^2 - |m| (n+1)).
    Both must reach the order.  In half-units, with A = 2a and mu = |m|, the
    first reads
        2 (n+1) + min_s (A s^2 - (2 + mu) s) >= ordnum,
    and taking the minimum over every s >= 0, not only s <= n, makes it
    imply the second: at s = n + 1 it is A (n+1)^2 - mu (n+1) >= ordnum,
    and that side grows with n because mu < A.
    """
    A = a.num
    n = 0
    for m in ms:
        mu = abs(m)
        if mu >= A:
            raise IllPosedError(f"a certified limit needs |m| < a, got m={HalfInt(m)} a={a}")
        n = max(n, (ordnum - _quad_min(A, -2 - mu) + 1) // 2 - 1)
    return n


def _stabilized_values(j: int, a: HalfInt, ws: Sequence[Monomial], order) -> List[Tuple[QSeries, int]]:
    """[(F(n, j, a)(w), n) for w in ws] below `order`, n each sample's certified n.

    F(n, j, a)(z) = sum_i C(j, i) H(n, a)(z q^(j-2i)), so n is certified for
    every shifted argument, and each has |m| < a.  A value is final below
    the order at every n past its certified one, so one walk along the
    binomial column, at the largest certified n, serves the batch.  With
    every |m| < a, H's lowest exponent is q^0, at slice 0.  The walk adds
    each slice times q^(a t^2 + mu t) into the frame E_mu (t even) or O_mu
    (t odd) of each argument's mu = |m|, slot x holding q^(x/2), as long as
    a slice +-s starts below the order for some mu: since H(z) = H(1/z),
    the arguments +-q^(m/2) and +-q^(-m/2) share both frames.  At mu = 0
    the slices t = +-s land on the same slots, so each is added once,
    doubled.  H(sign q^(m/2)) is E_mu + sign O_mu, so a sample's value is
    sum_i C(j, i) (E_(mu_i) + sign O_(mu_i)), its i = 0 term of weight 1.
    """
    if not _whole(j) or j < 0:
        raise SpecError(f"needs an int j >= 0, got j={j!r}")
    a = _weight(a)
    if a.num <= 0:
        raise IllPosedError(f"a limit value needs a > 0, got {a}")
    ordnum = _ord_num(order)
    if ordnum is None or ordnum <= 0:
        raise IllPosedError(f"a limit value needs a positive finite order, got {order}")
    shifts = [[w.q_exp.num + 2 * (j - 2 * i) for i in range(j + 1)] for w in ws]
    ns = [_certified_n(a, ms, ordnum) for ms in shifts]
    if not ws:
        return []
    A, n = a.num, max(ns)
    frames = {abs(m): ([0] * ordnum, [0] * ordnum) for ms in shifts for m in ms}
    for k, b in _h_column(n, _quad_top(A, max(frames), ordnum, n), (ordnum + 1) // 2):
        s = n - k
        for mu, halves in frames.items():
            for t in (s, -s) if s and mu else (s,):  # at mu = 0, t = +-s share their slots
                e = A * t * t + mu * t
                if e < ordnum:
                    f, at = halves[t % 2], slice(e, ordnum, 2)
                    f[at] = map(add, f[at], b if mu or not s else map((2).__mul__, b))
    out = []
    for w, ms, own in zip(ws, shifts, ns):
        op = add if w.sign > 0 else sub
        acc = list(map(op, *frames[abs(ms[0])]))  # its i = 0 term, weight 1
        for i, m in enumerate(ms[1:], 1):
            acc[:] = map(add, acc, map(binom(j, i).__mul__, map(op, *frames[abs(m)])))
        out.append((QSeries(0, acc, ordnum), own))
    return out


def stabilized_h_value(a: HalfInt, w: Monomial, order) -> Tuple[QSeries, int]:
    """H(n, a)(w) below `order` at the certified n; returns (value, n).

    `w` = sign*q^m is the actual argument substituted into H (no
    normalization), with |m| < a, so every exponent of H(n, a)(w) is >= 0.
    This is the case j = 0 of `stabilized_f_value`.
    """
    return _stabilized_values(0, a, [w], order)[0]


def stabilized_f_value(j: int, a: HalfInt, w: Monomial, order) -> Tuple[QSeries, int]:
    """F(n, j, a)(w) below `order` at the certified n; returns (value, n).

    The one-sample case of `_stabilized_values`.
    """
    return _stabilized_values(j, a, [w], order)[0]
