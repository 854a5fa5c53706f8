"""The central two-parameter polynomial family and its z -> zq shift closure.

H(n, a) is the Laurent polynomial sum_{s=-n..n} [2n, n-s]_q q^(a s^2) z^s;
the closure F(n, j, a) applies j times the step G(z) -> G(zq) + G(q/z).
Since H(z) = H(1/z), that is F = sum_i C(j, i) H(n, a)(z q^(j-2i)), so
slice s of F is H's slice s times sum_i C(j, i) q^((j-2i) s), and
`f_func` builds F, and H as its case j = 0, in one walk along the
Gaussian-binomial column, `qobjects._h_column`, below the q^L that the
lowest slice and a negative weight need: one `_qbinom_column` walk from the
centre [2n, n], below q^L 1/(q)_inf when n + 1 >= L, else from [2n, 0].  The
walk stops at the last slice that starts below the order: at a finite
order and a > 0, the largest s with a s^2 - j s below it, so
H(400, 2) below q^40 stores 9 slices; the span (-n, n) keeps the rest,
zero below the order; that s, F's least exponent `_f_min` (the catalog's
expansions read their terms' floors off it too) and `_certified_n` are
`qobjects`' quadratic bounds `_quad_top` and `_quad_min`.  The step itself
is run only by the catalog's RECURSE_F, which checks it against this
binomial form.

With z fixed to a monomial sign*q^m, |m| < a, the values H(n, a)(z)
converge coefficientwise as n grows, and the limit is certified rather
than detected.  [2n, n-s]_q counts the partitions in an (n-s) x (n+s)
box, so it agrees with 1/(q)_inf through q^(n-|s|) (Andrews, *The Theory
of Partitions*, ch. 3).  `_certified_n` turns that into the least n at
which the value is final below a given order, in O(1).  A value stays
final at every larger n, so `_stabilized_values` walks the column once
per batch, at its largest certified n, into one even and one odd frame
per |m| (H(z) = H(1/z)), and reads off each sample's F value, the
binomial sum sum_i C(j, i) H(n, a)(z q^(j-2i)), starting from its i = 0
term (so H's value is one pass, E + sign O), and reports the sample's
own certified n.  `stabilized_h_value` / `stabilized_f_value` are its
one-sample case.  The limits themselves are the binomial combinations
`f_limit_sum` of infinite products; the product `h_limit_product`, H's
limit, is its case j = 0.  The arguments of each product multiply to
q^2a, so the sum is the Jacobi item `_limit_key` on modulus 2a, plain
ints built by `products._jacobi_key`, which the catalog sums for every
sample in one `products._product_sums` batch.
"""

from __future__ import annotations

from operator import add, sub
from typing import List, Sequence, Tuple

from .products import _jacobi_key, _product_sums
from .qobjects import Monomial, binom, _h_column, _quad_min, _quad_top
from .series import (
    INF,
    HalfInt,
    IllPosedError,
    Order,
    QSeries,
    SpecError,
    ZLaurent,
    _Record,
    _ord_num,
    _whole,
)


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


def _weight(a) -> HalfInt:
    w = HalfInt._coerce(a)
    if w is None:
        raise SpecError(f"bad weight {a!r}")
    return w


def h_poly(spec: HSpec, order: Order = INF) -> ZLaurent:
    """sum_{s=-n..n} [2n, n-s]_q q^(a s^2) z^s, truncated at `order`: `f_func` at j = 0."""
    return f_func(FSpec(spec.n, 0, spec.a), order)


def _f_min(n: int, j: int, A: int) -> int:
    """F(n, j, a)'s least exponent in half-units, A = 2a: slice s starts at q^(a s^2 - j|s|)."""
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
