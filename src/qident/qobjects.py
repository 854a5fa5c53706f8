"""q-Pochhammer symbols, Gaussian binomials, and z-free monomial arguments.

Everything here returns exact truncated series from the kernel in
`series`.  The two standard generating-function facts this module leans
on: Jacobi's triple product, whose sparse theta series
`theta_triple_sum` at argument Q and modulus Q^3 is Euler's pentagonal
series for (Q; Q)_inf, used whenever an Euler-type product is requested
(Andrews, *The Theory of Partitions*, ch. 2), and the column step
[N, k] = [N, k-1] (1 - q^(N-k+1)) / (1 - q^k) for Gaussian binomials
(ch. 3).  Both have slower independent counterparts in the test suite's
`naive` oracles.  A theta series is built as its two halves, the terms at
even and at odd index (`_theta_terms`), which arg and -arg share.
`partition_series` keeps the module's one cache, the deepest order built
so far, and reads a shallower order off it by truncation.

The bounds on quadratic exponents live here, in closed form, for every
engine: `_quad_min`, the least A t^2 + m t over 0 <= t (<= n), and
`_quad_top`, the last s >= 0 with A s^2 - mu s below a bound.  The theta
ends, the windows of H and F and the certified n of the limits, and
`multisum`'s floors read them.

The in-place list passes live here too.  On a dense list whose slot i holds
the coefficient of x^i (x = q^(1/2) in the engines, x = q in the binomial
column), `_two_term` multiplies by 1 + c x^e (or adds c x^e times another
list) and `_prefix_add` divides by 1 - x^d.  The binomial column
`_qbinom_column`, H, every multisum tail and every Pochhammer product are
built from these passes: `_poch_lists` makes one two-term pass per factor
(sign, k, e), 1 - sign z^k q^(e/2), on one plain list per z-power, and
`poch_finite` reads its row k = 0 as a series, so no product here needs a
polynomial in z (`zpoly._poch_rows` reads all the rows as one).  The column
is one walk from a start [N, k0]: H's `_h_column` starts at the centre
[2n, n], below q^L 1/(q)_inf (the box lemma), when n + 1 >= L, else at
[2n, 0].  Each pass is a few whole-slice operations, never a Python loop
over slots: `_two_term` one, `_prefix_add` at most min(d, ceil(len / d)),
an `accumulate` per residue class mod d when d^2 < len, else one block add
per d slots.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, sub
from typing import Iterator, Optional, Tuple

from .series import (
    INF,
    HalfInt,
    IllPosedError,
    Order,
    QSeries,
    SpecError,
    _Record,
    _ord_num,
    _spread,
    _whole,
    qe,
)


class Monomial(_Record):
    """sign * q**q_exp with sign in {+1, -1}: a scalar, or a sampled value of z."""

    __slots__ = ("sign", "q_exp")

    def __init__(self, sign: int, q_exp: HalfInt):
        if not _whole(sign) or sign not in (1, -1):
            raise SpecError(f"monomial sign must be +-1, got {sign}")
        e = HalfInt._coerce(q_exp)
        if e is None:
            raise SpecError(f"bad monomial exponent {q_exp!r}")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "q_exp", e)

    def inverted(self) -> "Monomial":
        """The reciprocal monomial (signs are their own inverses)."""
        return Monomial(self.sign, -self.q_exp)

    def __str__(self):
        return ("-" if self.sign < 0 else "") + (f"q^{self.q_exp}" if self.q_exp.num else "1")


def _weight(a) -> HalfInt:  # a quadratic weight: a half-integer, or an int in whole q-units
    w = HalfInt._coerce(a)
    if w is None:
        raise SpecError(f"bad weight {a!r}")
    return w


def binom(n: int, k: int) -> int:
    """Ordinary binomial; out-of-range k gives 0."""
    if not (_whole(n) and _whole(k)) or n < 0:
        raise SpecError(f"binom needs ints n >= 0 and k, got n={n!r}, k={k!r}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _quad_min(A: int, m: int, n: Optional[int] = None) -> int:
    """min of A t^2 + m t over integers 0 <= t (<= n when n is given), A > 0.

    The parabola is convex, so that is at the integer nearest its vertex, clamped."""
    t = max(0, (A - m) // (2 * A))  # floor(-m / 2A + 1/2)
    t = t if n is None else min(t, n)
    return A * t * t + m * t


def _quad_top(A: int, mu: int, hi: int, n: Optional[int] = None) -> int:
    """Largest s (<= n when given) with A s^2 - mu s < hi (A > 0), or -1 if no s >= 0 has it.

    The integer below the larger root of A s^2 - mu s = hi, one step lower
    when that root is an integer.  Past n it is n.
    """
    d = mu * mu + 4 * A * hi
    s = (mu + math.isqrt(d)) // (2 * A) if d > 0 else -1
    if s >= 0 and A * s * s - mu * s >= hi:
        s -= 1
    if s < 0 or A * s * s - mu * s >= hi:
        return -1
    return s if n is None else min(s, n)


def _two_term(c: list, sign: int, e: int, src: Optional[list] = None) -> list:
    """c += sign*x^e src in place, src no longer than c; by default src = c, so c times 1 + sign*x^e.

    A negative e leaves the top -e slots stale.
    """
    op = add if sign > 0 else sub
    src = c if src is None else src
    if e >= 0:
        c[e : e + len(src)] = map(op, c[e : e + len(src)], src)
    else:
        c[: max(len(src) + e, 0)] = map(op, c, src[-e:])
    return c


def _prefix_add(c: list, step: int) -> list:
    """Multiply c by 1 / (1 - x^step) in place: c[i] += c[i - step].

    A short step runs one `accumulate` per residue class mod step; a long
    one (step^2 >= len(c)) adds each block of `step` slots to the block
    below it, lowest block first, so each reads an already-divided block.
    Either way a pass costs at most min(step, ceil(len / step)) slice operations.
    """
    n = len(c)
    if step * step < n:
        for r in range(step):
            c[r::step] = accumulate(c[r::step])
    else:
        for i in range(step, n, step):
            c[i : i + step] = map(add, c[i : i + step], c[i - step : i])
    return c


def _qbinom_column(N: int, top: int, b: list, k0: int = 0) -> Iterator[Tuple[int, list]]:
    """Yield (k, [N, k]_q) for k = k0..top, whole-q, from b = [N, k0]_q truncated to len(b).

    b is updated in place, one step per k > k0: a two-term pass by
    1 - q^(N-k+1), then a prefix-add by 1/(1 - q^k), skipped when k >= len(b),
    where it moves nothing.  Read each value before advancing; O((top - k0) len(b)).
    """
    for k in range(k0, top + 1):
        if k > k0:
            _two_term(b, -1, N - k + 1)
            if k < len(b):
                _prefix_add(b, k)
        yield k, b


def _h_column(n: int, top: int, length: int) -> Iterator[Tuple[int, list]]:
    """H's slices s = 0..top, none when top < 0: (n - s, [2n, n - s]_q) below q^L, L = `length`.

    One `_qbinom_column` walk.  When n + 1 >= L, as at every certified limit, it
    starts at the centre [2n, n], below q^L 1/(q)_inf (the box lemma), and walks
    k = n + s up, [2n, n + s] = [2n, n - s]: each divisor 1 - q^(n+s+1) lies at
    or past q^L, so a step is one two-term pass by 1 - q^(n-s).  Else it starts
    at [2n, 0] = 1 and yields k >= n - top.
    """
    if n + 1 >= length:
        b = (partition_series(qe(length))._coeffs[::2] + [0] * length)[:length]
        return ((2 * n - k, b) for k, b in _qbinom_column(2 * n, n + top, b, n))
    return ((k, b) for k, b in _qbinom_column(2 * n, n, [1] + [0] * (length - 1)) if k >= n - top)


def _grid_series(c: list, lo: int, ordnum: Optional[int], g: int) -> QSeries:
    """The series whose exponent lo + g x (half-units) has coefficient c[x], known below ordnum."""
    return QSeries(lo, c if g == 1 else _spread(c, 2 * len(c) - 1), ordnum)


def _poch_lists(factors: list, order: Order) -> Tuple[dict, int, Optional[int], int]:
    """prod (1 - sign z^k q^(e/2)) over the factors (sign, k, e) as (rows, lo, top, g).

    rows maps each z-power to a list from q^(lo/2) on spacing g, known below
    q^(top/2) (top None: exact); lo is the sum of the negative e, top is
    order + lo, and g = 2 when every e is even.  A factor is one two-term
    pass per row, row j + k taking -sign q^(e/2) row j up to row j's running
    degree, the rows visited away from the side k moves to, so each is read
    before it changes.  A negative e leaves the top -e half-units stale.  A
    factor 1 - q^0 makes the product an exact zero, the one row [].
    """
    if (1, 0, 0) in factors:
        return {0: []}, 0, None, 1
    lo = sum(min(e, 0) for _, _, e in factors)
    g = 2 if all(e % 2 == 0 for _, _, e in factors) else 1
    ordnum = _ord_num(order)
    width = (sum(max(e, 0) for _, _, e in factors) - lo) // g + 1
    if ordnum is not None:
        width = max(min(width, -((lo - ordnum) // g)), 0)
    rows = {0: ([0] * (-lo // g) + [1] + [0] * width)[:width]}
    deg = {0: -lo // g}  # each row's last slot that can be nonzero
    for sign, k, e in factors:
        for j in sorted(rows, reverse=k > 0):
            if j + k not in rows:
                rows[j + k], deg[j + k] = [0] * width, -1
            _two_term(rows[j + k], -sign, e // g, rows[j][: deg[j] + 1])
            deg[j + k] = min(max(deg[j + k], deg[j] + e // g), width - 1)
    return rows, lo, None if ordnum is None else ordnum + lo, g


def poch_finite(arg: Monomial, n: int, base_exp=qe(1), order: Order = INF) -> QSeries:
    """(arg; q**base_exp)_n = prod_{i<n} (1 - arg * q**(i*base_exp)), row 0 of `_poch_lists`."""
    if not _whole(n) or n < 0:
        raise SpecError(f"finite Pochhammer length must be an int >= 0, got {n!r}")
    base = HalfInt._coerce(base_exp)
    if base is None:
        raise SpecError(f"bad base exponent {base_exp!r}")
    rows, lo, top, g = _poch_lists([(arg.sign, 0, arg.q_exp.num + base.num * i) for i in range(n)], order)
    return _grid_series(rows[0], lo, top, g)


def poch_finite_scalar(arg: Monomial, n: int, base_exp=qe(1), order: Order = INF) -> QSeries:
    """The same product as `poch_finite`, under its older name."""
    return poch_finite(arg, n, base_exp, order)


def _theta_terms(en: int, mn: int, nnum: int) -> list:
    """[(s % 2, e)] for the terms q^(e/2), e = mn s(s-1)/2 + en s, that lie below q^(nnum/2).

    2e = mn s^2 - (mn - 2 en) s, so both ends are `_quad_top`'s; below a
    non-positive order the terms at s = 0 and -1 may be past it."""
    up, down = _quad_top(mn, mn - 2 * en, 2 * nnum), _quad_top(mn, 2 * en - mn, 2 * nnum)
    terms = ((s % 2, mn * (s * (s - 1) // 2) + en * s) for s in (*range(up + 1), *range(-1, -down - 1, -1)))
    return [t for t in terms if t[1] < nnum]


def theta_triple_sum(arg: Monomial, modulus_exp, order) -> QSeries:
    """sum_{s in Z} (-arg)^s q^(modulus_exp * s(s-1)/2) truncated at order.

    Jacobi's triple product says this equals
    (arg, q^modulus_exp/arg, q^modulus_exp; q^modulus_exp)_inf; at arg = Q
    and modulus Q^3 that is (Q; Q)_inf, the pentagonal series.  At arg =
    sign q^e it is E - sign O, E and O its terms at even and at odd s.
    """
    m = HalfInt._coerce(modulus_exp)
    if m is None:
        raise SpecError(f"bad modulus exponent {modulus_exp!r}")
    if m.num <= 0:
        raise IllPosedError(f"modulus exponent must be positive, got {modulus_exp!r}")
    nnum = _ord_num(order)
    if nnum is None:
        raise IllPosedError("a theta sum needs a finite truncation order")
    terms = _theta_terms(arg.q_exp.num, m.num, nnum)
    lo = min([e for _, e in terms], default=nnum)
    halves = [0] * (nnum - lo), [0] * (nnum - lo)
    for parity, e in terms:
        halves[parity][e - lo] += 1
    return QSeries(lo, list(map(sub if arg.sign > 0 else add, *halves)), nnum)


def poch_infinite(arg: Monomial, base_exp=qe(1), order: Order = None) -> QSeries:
    """(arg; q**base_exp)_inf truncated at `order` (which must be finite).

    Well-posedness: the factors must tend to 1, so base_exp > 0 and
    arg.q_exp > 0 are required, except that sign == -1 admits q_exp == 0
    (the factor 2 of (-1; q)_inf).
    """
    base = HalfInt._coerce(base_exp)
    if base is None:
        raise SpecError(f"bad base exponent {base_exp!r}")
    ordnum = _ord_num(order)
    if ordnum is None:
        raise IllPosedError("an infinite product needs a finite truncation order")
    if base.num <= 0:
        raise IllPosedError(f"infinite Pochhammer base exponent must be positive, got {base}")
    if arg.q_exp.num < 0 or (arg.q_exp.num == 0 and arg.sign == 1):
        raise IllPosedError(f"infinite Pochhammer argument {arg} does not converge")
    if arg.sign == 1 and arg.q_exp == base:
        # (Q; Q)_inf: Euler's pentagonal series, Jacobi's triple product at modulus Q^3
        return theta_triple_sum(arg, HalfInt(3 * base.num), HalfInt(ordnum))
    # the factors below the order
    return poch_finite(arg, max(-((arg.q_exp.num - ordnum) // base.num), 0), base, HalfInt(ordnum))


# One entry, the deepest order built so far; a shallower order is read off
# it by truncation, a deeper one replaces it.
_PARTITION_CACHE: dict = {}


def euler_series(order) -> QSeries:
    """(q; q)_inf truncated at order."""
    return poch_infinite(Monomial(1, qe(1)), qe(1), order)


def partition_series(order) -> QSeries:
    """1/(q; q)_inf truncated at order, cached; below a non-positive order, a zero."""
    n = _ord_num(order)
    if n is None:
        raise IllPosedError("an infinite product needs a finite truncation order")
    for have, got in _PARTITION_CACHE.items():
        if n <= have:
            return got.truncated(HalfInt(n))
    _PARTITION_CACHE.clear()
    got = _PARTITION_CACHE[n] = euler_series(HalfInt(n)).inverse() if n > 0 else QSeries.zero(HalfInt(n))
    return got
