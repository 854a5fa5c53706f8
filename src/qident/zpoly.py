"""The finite-n z-polynomials: `ZLaurent`, Bressoud's H(n, a) and its closure F.

Only the finite-n family (`finite`) builds these: no other module
imports this one but the package's lazy exports, so the limits and the
sum rows compile none of it.

A `ZLaurent` is a Laurent polynomial in a second variable z whose
coefficients are QSeries, all known below one common order.  A z-span
(lo, hi) bounds the structural support: a z-power outside it is exactly
zero, and one inside it with no stored slice is zero below the order, so
a slice that vanishes there is not stored.  A ZLaurent adds ZLaurents and
multiplies only by scalars, an int or a QSeries; a product in z is built
as lists, one per z-power, by `qobjects._poch_lists`, which `_poch_rows`
reads as a ZLaurent.

H(n, a) is the Laurent polynomial sum_{s=-n..n} [2n, n-s]_q q^(a s^2) z^s;
the closure F(n, j, a) applies j times the step G(z) -> G(zq) + G(q/z).
Since H(z) = H(1/z), that is F = sum_i C(j, i) H(n, a)(z q^(j-2i)), so
slice s of F is H's slice s times sum_i C(j, i) q^((j-2i) s), and
`f_func` builds F, and H as its case j = 0, in one walk along the
Gaussian-binomial column, `qobjects._h_column`, below the q^L that the
lowest slice and a negative weight need.  The walk stops at the last
slice that starts below the order: at a finite order and a > 0, the
largest s with a s^2 - j s below it, so H(400, 2) below q^40 stores 9
slices; the span (-n, n) keeps the rest, zero below the order.  That s
and F's least exponent `_f_min` (the expansions read their terms' floors
off it too) are `qobjects`' quadratic bounds `_quad_top` and `_quad_min`.
The step itself is run only by the catalog's RECURSE_F, which checks it
against this binomial form.  `qbinom_poly`, the exact Gaussian binomial,
and `_inv_poch_ladder`, the inverse (q)_d at every d, walk the same list
passes.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Optional

from .qobjects import (_grid_series, _h_column, _poch_lists, _prefix_add, _qbinom_column, _quad_min, _quad_top,
                       _weight, binom)
from .series import (INF, CompareResult, HalfInt, Order, QSeries, SpecError, _min_ord, _ord_num, _ord_obj, _Record,
                     _whole)


class ZLaurent:
    """A Laurent polynomial in z whose coefficients are QSeries.

    All slices share one truncation order.  The span (lo, hi) bounds the
    structural support: a z-power outside it is exactly zero, and one
    inside it with no stored slice has no coefficient below the order.  At
    a finite order a slice that is zero there is not stored; the span still
    counts it, so `zshift` and `substitute`, which move slice k by a
    multiple of k, bound the new order by the span's two ends.
    """

    __slots__ = ("_terms", "_ordnum", "_span")

    def __init__(self, terms: dict, ordnum: Optional[int], span=None, _raw=False):
        if not _raw:
            live = {k: s for k, s in terms.items() if s._coeffs or s._ordnum is not None}
            common = ordnum
            for s in live.values():
                common = _min_ord(common, s._ordnum)
            if common is None or span is None:
                span = (min(live), max(live)) if live else None
            if common is not None:
                cap = HalfInt(common)
                live = {k: t for k, s in live.items() if (t := s.truncated(cap))._coeffs}
            terms = live
            ordnum = None if span is None else common
        self._terms = terms
        self._ordnum = ordnum
        self._span = span

    @staticmethod
    def zero() -> "ZLaurent":
        return ZLaurent({}, None, _raw=True)

    @property
    def order(self) -> Order:
        return _ord_obj(self._ordnum)

    def z_support(self) -> list:
        """The z-powers with a coefficient below the order."""
        return sorted(self._terms)

    def slice(self, z_exp: int) -> QSeries:
        if z_exp in self._terms:
            return self._terms[z_exp]
        lo, hi = self._span or (1, 0)
        return QSeries.zero(self.order if lo <= z_exp <= hi else INF)

    @property
    def is_zero(self) -> bool:
        return all(s.is_zero for s in self._terms.values())

    def _moved(self, e: int) -> Optional[int]:
        """The order once slice k moves by q^(e k / 2): the span's ends bound it."""
        if self._ordnum is None:
            return None
        lo, hi = self._span
        return self._ordnum + min(e * lo, e * hi)

    def __add__(self, other):
        if not isinstance(other, ZLaurent):
            return NotImplemented
        out = dict(self._terms)
        for k, s in other._terms.items():
            out[k] = out[k] + s if k in out else s
        spans = [x._span for x in (self, other) if x._span]
        span = (min(lo for lo, _ in spans), max(hi for _, hi in spans)) if spans else None
        return ZLaurent(out, _min_ord(self._ordnum, other._ordnum), span)

    def __mul__(self, other):
        if _whole(other):
            other = QSeries.monomial(other) if other else QSeries.zero()
        if not isinstance(other, QSeries):
            return NotImplemented
        if self._span is None or (not other._coeffs and other._ordnum is None):
            return ZLaurent.zero()
        # a scalar never raises the order; a zero slice of either side starts at its order
        ordnum = None if self._ordnum is None else self._ordnum + min(other._min, 0)
        if other._ordnum is not None:
            low = min((s._min for s in self._terms.values()), default=self._ordnum)
            ordnum = _min_ord(ordnum, other._ordnum + low)
        return ZLaurent({k: s * other for k, s in self._terms.items()}, ordnum, self._span)

    __rmul__ = __mul__

    def zshift(self, exp) -> "ZLaurent":
        """Substitute z -> z*q**exp (slice s picks up q**(exp*s))."""
        e = HalfInt._coerce(exp)
        if e is None:
            raise SpecError(f"bad exponent {exp!r}")
        return ZLaurent(
            {k: s.shift(HalfInt(e.num * k)) for k, s in self._terms.items()},
            self._moved(e.num),
            self._span,
        )

    def zinvert(self) -> "ZLaurent":
        """Substitute z -> 1/z."""
        span = self._span and (-self._span[1], -self._span[0])
        return ZLaurent(dict((-k, s) for k, s in self._terms.items()), self._ordnum, span, _raw=True)

    def znegate(self) -> "ZLaurent":
        """Substitute z -> -z."""
        return ZLaurent(
            {k: (-s if k % 2 else s) for k, s in self._terms.items()},
            self._ordnum,
            self._span,
            _raw=True,
        )

    def substitute(self, sign: int, m) -> QSeries:
        """Evaluate at z = sign * q**m, returning a scalar series."""
        if not _whole(sign) or sign not in (1, -1):
            raise SpecError(f"substitution sign must be +-1, got {sign}")
        e = HalfInt._coerce(m)
        if e is None:
            raise SpecError(f"bad exponent {m!r}")
        acc = QSeries.zero(INF)
        for k, s in self._terms.items():
            term = s.shift(HalfInt(e.num * k))
            if sign == -1 and k % 2:
                term = -term
            acc = acc + term
        return acc.truncated(_ord_obj(self._moved(e.num)))

    def truncated(self, order) -> "ZLaurent":
        n = _ord_num(order)
        if n is None:
            return self
        return ZLaurent(dict(self._terms), _min_ord(n, self._ordnum), self._span)

    def eq_upto(self, other: "ZLaurent") -> CompareResult:
        capnum = _min_ord(self._ordnum, other._ordnum)
        cap = _ord_obj(capnum)
        for k in sorted(set(self._terms) | set(other._terms)):
            r = self.slice(k).eq_upto(other.slice(k), z_exp=k)
            if not r.equal:
                return CompareResult(False, cap, r.mismatch)
        return CompareResult(True, cap)

    def __eq__(self, other):
        if not isinstance(other, ZLaurent):
            return NotImplemented
        return (self._ordnum, self._span, self._terms) == (other._ordnum, other._span, other._terms)

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"z^{k}: {self._terms[k]!r}" for k in self.z_support()[:4])
        more = "..." if len(self._terms) > 4 else ""
        return f"<ZLaurent {{{body}{more}}}>"


def _poch_rows(factors: list, order: Order) -> ZLaurent:
    """prod (1 - sign z^k q^(e/2)) over the factors (sign, k, e): `qobjects._poch_lists`' rows as a ZLaurent.

    Its span runs from the sum of the negative k to the sum of the positive k.
    """
    rows, lo, top, g = _poch_lists(factors, order)
    span = (sum(min(k, 0) for _, k, _ in factors), sum(max(k, 0) for _, k, _ in factors))
    return ZLaurent({j: _grid_series(c, lo, top, g) for j, c in rows.items()}, top, span)


def _inv_poch_ladder(unit: int, wnum: int) -> Callable[[int], QSeries]:
    """d -> 1 / prod_{1<=i<=d} (1 - q^(unit*i/2)) below q^(wnum/2).

    Rungs are built on demand, one prefix-add pass each, and kept.  The
    pass of rung d is a no-op once unit * d >= wnum, so every such rung is
    the last one before it.
    """
    store = [[1] + [0] * (wnum - 1)]

    def rung(d: int) -> QSeries:
        d = min(d, max(wnum - 1, 0) // unit)
        while len(store) <= d:
            store.append(_prefix_add(list(store[-1]), unit * len(store)))
        return QSeries(0, store[d], wnum)

    return rung


def qbinom_poly(n: int, k: int):
    """Gaussian binomial [n, k]_q as a dense list of q-grid coefficients.

    Exact polynomial of degree k*(n-k).  Returns [] outside 0 <= k <= n.
    """
    if not (_whole(n) and _whole(k)):
        raise SpecError(f"qbinom_poly needs ints n and k, got n={n!r}, k={k!r}")
    if k < 0 or k > n:
        return []
    k = min(k, n - k)
    for _, b in _qbinom_column(n, k, [1] + [0] * (k * (n - k))):
        pass
    return b


class HSpec(_Record):
    """H with 2n rows and quadratic weight a (a half-integer)."""

    __slots__ = ("n", "a")

    def __init__(self, n: int, a: HalfInt):
        if not _whole(n) or n < 0:
            raise SpecError(f"H needs an int n >= 0, got {n!r}")
        _Record.__init__(self, n, _weight(a))


class FSpec(_Record):
    """j-fold shift closure of H(n, a)."""

    __slots__ = ("n", "j", "a")

    def __init__(self, n: int, j: int, a: HalfInt):
        if not all(_whole(v) and v >= 0 for v in (n, j)):
            raise SpecError(f"F needs ints n, j >= 0, got n={n!r} j={j!r}")
        _Record.__init__(self, n, j, _weight(a))


def h_poly(spec: HSpec, order: Order = INF) -> ZLaurent:
    """sum_{s=-n..n} [2n, n-s]_q q^(a s^2) z^s, truncated at `order`: `f_func` at j = 0."""
    return f_func(FSpec(spec.n, 0, spec.a), order)


def _f_min(n: int, j: int, A: int) -> int:
    """F(n, j, a)'s least exponent in half-units, A = 2a: slice s starts at q^(a s^2 - j|s|).

    It sizes `f_func`'s walk, and each of `finite`'s expansion terms takes its floor from it."""
    return _quad_min(A, -2 * j, n) if A > 0 else A * n * n - 2 * j * n


def f_func(spec: FSpec, order: Order = INF) -> ZLaurent:
    """F(n, j, a) = sum_i C(j, i) H(n, a)(z q^(j-2i)), truncated at `order`.

    Slice s is [2n, n-s]_q q^(a s^2) sum_i C(j, i) q^((j-2i) s), which
    starts at q^(a s^2 - j|s|), so the binomials are built as deep as the
    lowest of these (at |s| = n when a <= 0) needs.  A slice is known
    through its half-slot 2L - 1 too, which is structurally zero.  At a
    finite order and a > 0 only the slices that start below it are
    stored; the span (-n, n) keeps the others, zero below the order.
    """
    n, j, A = spec.n, spec.j, spec.a.num
    ordnum = _ord_num(order)
    if ordnum is None:
        L, top = n * n + 1, n
    else:
        L = max((ordnum - _f_min(n, j, A) + 1) // 2, 1)
        top = _quad_top(A, 2 * j, ordnum, n) if A > 0 else n
    terms = {}
    for k, b in _h_column(n, top, L):
        s = n - k
        c = [0] * (2 * len(b) - 1 + 4 * j * s)
        for i in range(j + 1):
            at = slice(4 * i * s, 4 * i * s + 2 * len(b) - 1, 2)
            c[at] = map(add, c[at], map(binom(j, i).__mul__, b))
        terms[s] = terms[-s] = QSeries(A * s * s - 2 * j * s, c, ordnum)
    return ZLaurent(terms, ordnum, (-n, n))
