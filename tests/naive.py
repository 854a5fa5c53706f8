"""Slow, independent oracles for the test suite.

Everything here follows the same mathematical definitions as the main
kernel but deliberately shares no arithmetic code with it: plain dense
schoolbook convolution over one coefficient window, infinite products
expanded factor by factor (no pentagonal shortcut), Gaussian binomials
through the Pochhammer quotient (no Pascal recurrence), multisums by
exhaustive enumeration without pruning, and partition counts by direct
dynamic programming.  Tests compare the fast paths against these.
"""

from __future__ import annotations

from functools import lru_cache


class UnsupportedOracleError(Exception):
    """The oracle does not cover the requested parameters."""


class NaiveSeries:
    """Dense coefficient window on the half-exponent grid.

    `coeffs[i]` is the coefficient of q**((offset + i)/2); the window
    always runs exactly up to (but not including) `order` (a numerator).
    """

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs: list, order: int):
        if len(coeffs) != order - offset:
            raise ValueError("window length must equal order - offset")
        self.offset = offset
        self.coeffs = coeffs
        self.order = order

    @staticmethod
    def zero(order: int, offset: int = 0) -> "NaiveSeries":
        return NaiveSeries(offset, [0] * (order - offset), order)

    @staticmethod
    def monomial(c: int, expnum: int, order: int) -> "NaiveSeries":
        out = NaiveSeries.zero(order, min(expnum, order))
        if expnum < order:
            out.coeffs[expnum - out.offset] = c
        return out

    @staticmethod
    def one(order: int) -> "NaiveSeries":
        return NaiveSeries.monomial(1, 0, order)

    def coeff(self, expnum: int) -> int:
        if expnum >= self.order:
            raise UnsupportedOracleError(f"coefficient {expnum}/2 beyond window")
        i = expnum - self.offset
        return self.coeffs[i] if i >= 0 else 0

    def add(self, other: "NaiveSeries") -> "NaiveSeries":
        order = min(self.order, other.order)
        offset = min(self.offset, other.offset)
        out = [0] * (order - offset)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                e = src.offset + i
                if e < order:
                    out[e - offset] += c
        return NaiveSeries(offset, out, order)

    def neg(self) -> "NaiveSeries":
        return NaiveSeries(self.offset, [-c for c in self.coeffs], self.order)

    def sub(self, other: "NaiveSeries") -> "NaiveSeries":
        return self.add(other.neg())

    def mul(self, other: "NaiveSeries") -> "NaiveSeries":
        order = min(self.order + other.offset, other.order + self.offset)
        offset = self.offset + other.offset
        out = [0] * max(order - offset, 0)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                e = self.offset + other.offset + i + j
                if e < order:
                    out[e - offset] += a * b
        return NaiveSeries(offset, out, max(order, offset))

    def inv(self) -> "NaiveSeries":
        lead = None
        for i, c in enumerate(self.coeffs):
            if c:
                lead = i
                break
        if lead is None:
            raise ZeroDivisionError("cannot invert zero window")
        c0 = self.coeffs[lead]
        if c0 not in (1, -1):
            raise UnsupportedOracleError(f"leading coefficient {c0} is not a unit")
        m = self.offset + lead
        order = self.order - 2 * m
        offset = -m
        n = order - offset
        a = self.coeffs[lead:]
        out = [0] * n
        out[0] = c0
        for i in range(1, n):
            s = 0
            for t in range(1, min(i, len(a) - 1) + 1):
                if a[t]:
                    s += a[t] * out[i - t]
            out[i] = -c0 * s
        return NaiveSeries(offset, out, order)

    def truncate(self, order: int) -> "NaiveSeries":
        if order >= self.order:
            return self
        return NaiveSeries(self.offset, self.coeffs[: max(order - self.offset, 0)], max(order, self.offset))


@lru_cache(maxsize=None)
def n_poch_finite(sign: int, qnum: int, n: int, basenum: int, order: int) -> NaiveSeries:
    # the product of the first n - 1 factors is cached, then one more factor
    if n == 0:
        return NaiveSeries.one(order)
    f = NaiveSeries.monomial(1, 0, order).add(
        NaiveSeries.monomial(-sign, qnum + (n - 1) * basenum, order)
    )
    return n_poch_finite(sign, qnum, n - 1, basenum, order).mul(f)


def n_poch_z(sign: int, z_exp: int, qnum: int, n: int, basenum: int) -> dict:
    """prod_{i<n} (1 - sign z^z_exp q^((qnum + i basenum)/2)), exact, as
    {(z-power, half-exponent numerator): nonzero coefficient}."""
    acc = {(0, 0): 1}
    for i in range(n):
        out = dict(acc)
        for (k, e), c in acc.items():
            key = (k + z_exp, e + qnum + i * basenum)
            out[key] = out.get(key, 0) - sign * c
        acc = {key: c for key, c in out.items() if c}
    return acc


def n_poch_infinite(sign: int, qnum: int, basenum: int, order: int) -> NaiveSeries:
    acc = NaiveSeries.one(order)
    i = 0
    while qnum + i * basenum < order:
        f = NaiveSeries.monomial(1, 0, order).add(
            NaiveSeries.monomial(-sign, qnum + i * basenum, order)
        )
        acc = acc.mul(f)
        i += 1
    return acc


@lru_cache(maxsize=None)
def n_qbinom(n: int, k: int, order: int) -> NaiveSeries:
    """Gaussian binomial via the quotient (q;q)_n / ((q;q)_k (q;q)_{n-k})."""
    if k < 0 or k > n:
        return NaiveSeries.zero(order)
    num = n_poch_finite(1, 2, n, 2, order)
    den = n_poch_finite(1, 2, k, 2, order).mul(n_poch_finite(1, 2, n - k, 2, order))
    return num.mul(den.inv()).truncate(order)


@lru_cache(maxsize=None)
def n_hpoly_at(n: int, anum: int, sign: int, mnum: int, order: int) -> NaiveSeries:
    """H_{2n}(z, a | q) evaluated at z = sign * q**(mnum/2)."""
    acc = NaiveSeries.zero(order)
    for t in range(-n, n + 1):
        c = 1 if t % 2 == 0 else sign
        e = anum * t * t + mnum * t
        if e >= order:
            continue  # the slice lies wholly beyond the window
        acc = acc.add(NaiveSeries.monomial(c, e, order).mul(n_qbinom(2 * n, n - t, order)))
    return acc


def iter_weakly_decreasing(length: int, cap: int):
    """All tuples cap >= s_1 >= ... >= s_length >= 0."""
    if length == 0:
        yield ()
        return
    for s in range(cap + 1):
        for rest in iter_weakly_decreasing(length - 1, s):
            yield (s,) + rest


def _tail_min_expnum(tail) -> int:
    """Certified lower bound (numerator units) for a tail's minimum exponent.

    Finite Pochhammer factors contribute at worst the sum of their negative
    binomial exponents; the evaluated H polynomial at worst the vertex of
    its exponent parabola.  Everything is a small constant independent of
    the summation index.
    """
    kind = tail[0]
    if kind in ("odd", "even"):
        return 0
    if kind == "over":
        _, _, mnum = tail
        bases = (mnum, 2 - mnum)
    elif kind == "over_odd":
        _, _, mnum, kk = tail
        bases = (2 * kk + 2 - mnum, mnum - 2 * kk)
    elif kind == "h":
        _, anum, _, mnum = tail
        return min(anum * t * t + mnum * t for t in range(-abs(mnum) - 1, abs(mnum) + 2))
    else:
        raise UnsupportedOracleError(f"unknown tail kind {kind!r}")
    lo = 0
    for base in bases:
        i = 0
        while base + 2 * i < 0:
            lo += base + 2 * i
            i += 1
    return lo


def brute_force_multisum(
    k: int,
    linear,
    placement,
    tail,
    order: int,
    cap: int,
    quad=None,
) -> NaiveSeries:
    """Unpruned multisum over all weakly decreasing tuples with s_1 <= cap.

    `quad` holds the quadratic weights, one per index (default all 1).

    `tail` is a plain descriptor tuple:
      ("odd",)                       1/(q;q)_{s_k}
      ("even",)                      1/(q^2;q^2)_{s_k}
      ("over", sign, mnum)           (-z, -q/z; q)_{s_k} / (q;q)_{2 s_k}
      ("over_odd", sign, mnum, kk)   (-q^{kk+1}/z;q)_{s_k+1}(-z q^{-kk};q)_{s_k} / (q;q)_{2 s_k + 1}
      ("h", anum, sign, mnum)        H_{2 s_k}(z, a) / (q;q)_{2 s_k}
    with z = sign * q**(mnum/2) where it appears.

    The caller is responsible for `cap` being large enough that all
    discarded tuples fall beyond `order`.
    """
    placement = frozenset(placement or ())
    quad = quad or (1,) * k
    tail_lo = _tail_min_expnum(tail)
    acc = NaiveSeries.zero(order)
    for tup in iter_weakly_decreasing(k, cap):
        expnum = 0
        for i in range(k):
            expnum += 2 * quad[i] * tup[i] * tup[i] + 2 * linear[i] * tup[i]
        drop = 2 * sum(tup[pos - 1] for pos in placement)
        # every other factor has min exponent >= 0, so the whole term sits
        # at or above expnum - drop + tail_lo; window each tuple just wide
        # enough for its own negative offsets instead of one huge pad
        if expnum - drop + tail_lo >= order:
            continue
        W = order + drop - tail_lo + 2
        term = NaiveSeries.monomial(1, expnum, W)
        for pos in placement:
            s_here = tup[pos - 1]
            term = term.mul(NaiveSeries.monomial(1, -2 * s_here, W))
            if pos >= 2:
                pair = NaiveSeries.monomial(1, 0, W).add(
                    NaiveSeries.monomial(1, 2 * (tup[pos - 2] + s_here), W)
                )
                term = term.mul(pair)
        for i in range(k - 1):
            term = term.mul(n_poch_finite(1, 2, tup[i] - tup[i + 1], 2, W).inv())
        s_last = tup[-1]
        kind = tail[0]
        if kind == "odd":
            term = term.mul(n_poch_finite(1, 2, s_last, 2, W).inv())
        elif kind == "even":
            term = term.mul(n_poch_finite(1, 4, s_last, 4, W).inv())
        elif kind == "over":
            _, sign, mnum = tail
            term = term.mul(n_poch_finite(-sign, mnum, s_last, 2, W))
            term = term.mul(n_poch_finite(-sign, 2 - mnum, s_last, 2, W))
            term = term.mul(n_poch_finite(1, 2, 2 * s_last, 2, W).inv())
        elif kind == "over_odd":
            _, sign, mnum, kk = tail
            term = term.mul(n_poch_finite(-sign, 2 * kk + 2 - mnum, s_last + 1, 2, W))
            term = term.mul(n_poch_finite(-sign, mnum - 2 * kk, s_last, 2, W))
            term = term.mul(n_poch_finite(1, 2, 2 * s_last + 1, 2, W).inv())
        elif kind == "h":
            _, anum, sign, mnum = tail
            term = term.mul(n_hpoly_at(s_last, anum, sign, mnum, W))
            term = term.mul(n_poch_finite(1, 2, 2 * s_last, 2, W).inv())
        else:
            raise UnsupportedOracleError(f"unknown tail kind {kind!r}")
        if term.order < order:
            raise UnsupportedOracleError("padding too small for this spec")
        acc = acc.add(term.truncate(order))
    return acc


def brute_force_chains(n: int, linear, placement, order: int) -> list:
    """K(s) for s = 0..n, each below q^(order/2), over every chain
    n = s_0 >= s_1 >= ... >= s_d = s (d = len(linear)) of

        prod_i q^(s_i^2 + linear_i s_i) P_i / (q;q)_{s_(i-1) - s_i}

    with P_i = q^(-s_i) (1 + q^(s_(i-1) + s_i)) at the positions i in
    `placement` (position 1 pairs with s_0 = n) and 1 elsewhere.
    """
    placement = frozenset(placement or ())
    out = [NaiveSeries.zero(order) for _ in range(n + 1)]
    for tup in iter_weakly_decreasing(len(linear), n):
        chain = (n,) + tup
        expnum = sum(2 * s * s + 2 * c * s for s, c in zip(tup, linear))
        expnum -= 2 * sum(chain[pos] for pos in placement)
        if expnum >= order:
            continue
        # every other factor starts at q^0, so a window this wide keeps the order
        W = order - min(expnum, 0)
        term = NaiveSeries.monomial(1, expnum, W)
        for pos in placement:
            pair = NaiveSeries.monomial(1, 0, W).add(NaiveSeries.monomial(1, 2 * (chain[pos - 1] + chain[pos]), W))
            term = term.mul(pair)
        for prev, s in zip(chain, tup):
            term = term.mul(n_poch_finite(1, 2, prev - s, 2, W).inv())
        out[tup[-1]] = out[tup[-1]].add(term.truncate(order))
    return out


# ---------------------------------------------------------------------------
# partition counting


def count_partitions_in_residues(n: int, modulus: int, allowed) -> int:
    """Partitions of n into parts whose residue mod `modulus` lies in `allowed`."""
    if n < 0:
        raise ValueError("n must be >= 0")
    allowed = set(allowed)
    if not allowed or any(r <= 0 or r >= modulus for r in allowed):
        raise ValueError("allowed residues must be within 1..modulus-1")
    parts = [p for p in range(1, n + 1) if p % modulus in allowed]
    dp = [0] * (n + 1)
    dp[0] = 1
    for p in parts:
        for v in range(p, n + 1):
            dp[v] += dp[v - p]
    return dp[n]


def count_gap_partitions(n: int, k: int, r: int) -> int:
    """Partitions of n into parts differing by at least 2, smallest part > r.

    Only the k = 1 family is supported; other k raise so a test can never
    silently compare against an unimplemented oracle.
    """
    if k != 1:
        raise UnsupportedOracleError("gap-condition oracle only covers k = 1")
    if r not in (0, 1):
        raise UnsupportedOracleError("smallest-part condition only covers r in {0, 1}")

    @lru_cache(maxsize=None)
    def ways(m: int, low: int) -> int:
        # partitions of m with ascending parts >= low and gaps >= 2
        if m == 0:
            return 1
        total = 0
        for p in range(low, m + 1):
            total += ways(m - p, p + 2)
        return total

    return ways(n, r + 1)
