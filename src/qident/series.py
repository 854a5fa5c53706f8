"""Exact truncated Laurent series over a half-exponent grid.

The whole library computes with a single scalar value type: a Laurent
series in a formal variable t with t**2 = q.  Exponents are counted in
half-steps of q, so quantities like q**(3/2), or a substitution that
shifts a slice by q**(s/2), are ordinary grid operations rather than
special cases.  A HalfInt holds the numerator; its value is num/2 in
units of the q-exponent.

A series is a triple (min_exp, coeffs, order):

* coeffs[i] is the integer coefficient of the exponent min_exp + i/2,
* order is the truncation bound: coefficients at exponents strictly
  below order are exact, everything at or above order is unknown,
* the canonical zero has no coefficients and order = INF.

Orders are tracked conservatively through every operation so a result
never claims knowledge it does not have.  A product's order is
min(a.order + b.min_exp, b.order + a.min_exp); an inverse of a series
with min_exp m and order o is known below o - 2m, and costs O(length x
nonzero terms), so 1/(q)_inf below q^N costs O(N sqrt N) by the
pentagonal theorem; a sum's order is the minimum of the operands'.  A
series that becomes zero through cancellation keeps its finite order
instead of collapsing to the canonical zero.

Coefficients are plain Python integers, so everything is exact at
arbitrary precision.  A product takes one of two paths, picked from the
operand lengths and nonzero counts (`len - count(0)`).  With na the
nonzero count of the sparser operand x and y the other one:

* slice adds (`_convolve_sparse`): one whole-slice add of y per nonzero
  of x, stepping by 2 when y's odd slots are empty (a whole-q y, such as
  1/(q)_inf against a theta series), so na * min(len(y), out_len) / step
  element adds;
* Kronecker substitution (`_convolve_kronecker`): each operand packed
  once into one signed big integer, one CPython multiply, one unpack;
  whole-q operands use their even slots alone, spread back once.  Below
  about 64 pairs a schoolbook loop is faster (2 x 8: 2.2 against 6.2 us,
  `timeit`, 2-core x86), but no workload or bundled suite case has one.

The slice adds are taken when their element count is at most
sqrt(len(x) + len(y)) / 3 times the operands' total length (`__mul__`
compares the squares, in integers).  Packing is linear in that total,
but the multiply grows faster, so the measured crossover rises with it:
about 0.14 to 0.6 times the square root, from 16-bit to 64-bit digits.

Laurent polynomials in a second variable z over these series, `ZLaurent`,
live in `zpoly`, which only the finite-n family loads.
"""

from __future__ import annotations

import struct
from itertools import compress
from operator import add, eq, ge, gt, le, lt, sub
from typing import Iterator, Optional, Union


class QidentError(Exception):
    """Base class for all library errors."""


class NonInvertibleError(QidentError):
    """Series inversion needs a unit (+1 or -1) leading coefficient."""


class IllPosedError(QidentError):
    """An operation was requested outside its domain of validity."""


class SpecError(QidentError):
    """A declarative description (summand spec, case params) is malformed."""


class OrderExceededError(QidentError):
    """A coefficient at or beyond the truncation order was requested."""


# ---------------------------------------------------------------------------
# half-integer exponents


def _whole(v) -> bool:
    """v is a plain int: a count, a position or a whole q-exponent; a bool is none of these."""
    return isinstance(v, int) and not isinstance(v, bool)


def _compare(op, below_inf: bool):
    """A HalfInt comparison: op on the numerators, with INF above every HalfInt."""

    def method(self, other):
        if other is INF:
            return below_inf
        o = self._coerce(other)
        return NotImplemented if o is None else op(self.num, o.num)

    return method


class _Record:
    """A record on its __slots__, frozen unless a subclass puts back
    object.__setattr__ (and drops the hash): ==, hash and a dataclass-style
    repr from the slot values, and `_replace(**changes)`, a copy built
    through __init__ as `dataclasses.replace` builds one."""

    __slots__ = ()

    def __init__(self, *values):
        for name, v in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, v)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._values()

    def _replace(self, **changes):
        values = [changes.pop(f, getattr(self, f)) for f in self.__slots__]
        if changes:
            raise TypeError(f"{type(self).__qualname__} has no field {', '.join(changes)}")
        return type(self)(*values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__qualname__}")


class SumStats(_Record):
    """Counters filled in by the engine, accumulated over calls: `nodes`
    (level, index) kernel cells visited, `pruned` cells skipped, `tuples`
    evaluated; a batch of `multisum.eval_multisums` builds one kernel."""

    __slots__ = ("tuples", "nodes", "pruned")
    __setattr__ = object.__setattr__  # settable, so unhashable
    __hash__ = None

    def __init__(self, tuples: int = 0, nodes: int = 0, pruned: int = 0):
        for v in (tuples, nodes, pruned):
            if not _whole(v) or v < 0:
                raise SpecError(f"a count must be an int >= 0, got {v!r}")
        _Record.__init__(self, tuples, nodes, pruned)


class HalfInt(_Record):
    """An exponent on the half grid; the value is num/2 q-units."""

    __slots__ = ("num",)

    def __init__(self, num: int):
        if not _whole(num):
            raise SpecError(f"half-integer numerator must be int, got {num!r}")
        object.__setattr__(self, "num", num)

    # int operands are whole q-exponents
    @staticmethod
    def _coerce(other) -> Optional["HalfInt"]:
        if isinstance(other, HalfInt):
            return other
        if _whole(other):
            return HalfInt(2 * other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HalfInt(self.num + o.num)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HalfInt(self.num - o.num)

    def __neg__(self):
        return HalfInt(-self.num)

    def __mul__(self, other):
        # HalfInt * HalfInt could leave the grid, so only int scaling exists
        if _whole(other):
            return HalfInt(self.num * other)
        return NotImplemented

    __rmul__ = __mul__

    __lt__ = _compare(lt, True)
    __le__ = _compare(le, True)
    __gt__ = _compare(gt, False)
    __ge__ = _compare(ge, False)
    __eq__ = _compare(eq, False)

    def __hash__(self):
        # an integral HalfInt equals its int, so it hashes as that int
        return hash(self.num // 2) if self.num % 2 == 0 else hash(("HalfInt", self.num))

    @property
    def is_integral(self) -> bool:
        return self.num % 2 == 0

    def __str__(self) -> str:
        if self.num % 2 == 0:
            return str(self.num // 2)
        return f"{self.num}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.num})"

    @staticmethod
    def parse(text) -> "HalfInt":
        """Accepts "p/2" strings, plain integer strings, or ints (q-units), not bools."""
        if isinstance(text, bool):
            raise ValueError(f"not a half-integer: {text!r}")
        if isinstance(text, int):
            return HalfInt(2 * text)
        if isinstance(text, HalfInt):
            return text
        s = str(text).strip()
        if s.endswith("/2"):
            return HalfInt(int(s[:-2]))
        return HalfInt(2 * int(s))


def qe(n: int) -> HalfInt:
    """The exponent of q**n, n a plain int."""
    if not _whole(n):
        raise SpecError(f"q-exponent must be an int, got {n!r}")
    return HalfInt(2 * n)


def he(num: int) -> HalfInt:
    """The exponent of q**(num/2)."""
    return HalfInt(num)


class _Infinity:
    """Order sentinel above every HalfInt, absorbing under addition."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INF

    def __gt__(self, other):
        return other is not INF

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return INF

    __radd__ = __add__

    def __str__(self):
        return "inf"

    def __repr__(self):
        return "INF"

    def __reduce__(self):
        return "INF"  # the module's one instance, so that `is INF` survives pickling


INF = _Infinity()

Order = Union[HalfInt, _Infinity]


def _ord_num(order) -> Optional[int]:
    """Internal: an order as a numerator, None meaning infinity."""
    if order is INF or order is None:
        return None
    if isinstance(order, HalfInt):
        return order.num
    if _whole(order):
        return 2 * order
    raise SpecError(f"not an order: {order!r}")


def _ord_obj(num: Optional[int]) -> Order:
    return INF if num is None else HalfInt(num)


def _min_ord(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# ---------------------------------------------------------------------------
# integer convolution


def _convolve_kronecker(a: list, b: list, out_len: int) -> list:
    ma = max(map(abs, a))
    mb = max(map(abs, b))
    # every result digit is bounded by ma*mb*overlap; digits of nb bytes hold
    # it with a sign bit to spare, so adding H = 2^(8 nb - 1) to each makes
    # every digit nonnegative with no carry between digits
    bits = (ma * mb * min(len(a), len(b))).bit_length() + 2
    nb = next((w for w in (2, 4, 8) if 8 * w >= bits), (bits + 7) // 8)
    code = {2: "h", 4: "i", 8: "q"}.get(nb)

    def biases(n: int) -> int:  # H in each of n digits
        return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")

    def pack(xs) -> int:
        # two's complement digits in one buffer; XOR with the biases turns
        # digit x into x + H, and subtracting them leaves sum x_i B^i
        if code:
            raw = struct.pack(f"<{len(xs)}{code}", *xs)
        else:
            raw = b"".join(x.to_bytes(nb, "little", signed=True) for x in xs)
        h = biases(len(xs))
        return (int.from_bytes(raw, "little") ^ h) - h

    h = biases(out_len)
    prod = ((pack(a) * pack(b) + h) & ((1 << (8 * nb * out_len)) - 1)) ^ h
    raw = prod.to_bytes(nb * out_len, "little")
    if code:
        return list(struct.unpack(f"<{out_len}{code}", raw))
    return [int.from_bytes(raw[i : i + nb], "little", signed=True) for i in range(0, len(raw), nb)]


def _convolve_sparse(a: list, b: list, out_len: int, step: int) -> list:
    """a * b by one slice add per nonzero of a; step 2 needs b's odd slots empty."""
    b = b[::step]
    out = [0] * out_len
    for i in compress(range(min(len(a), out_len)), a):
        c = a[i]
        at = slice(i, min(out_len, i + step * len(b)), step)
        if c == 1:
            out[at] = map(add, out[at], b)
        elif c == -1:
            out[at] = map(sub, out[at], b)
        else:
            out[at] = map(add, out[at], map(c.__mul__, b))
    return out


def _spread(half: list, n: int) -> list:
    """n half-grid slots holding half[i] at slot 2i and zeros between."""
    out = [0] * n
    out[::2] = half
    return out


# ---------------------------------------------------------------------------
# comparison results


class Mismatch(_Record):
    """First differing coefficient of a comparison."""

    __slots__ = ("exp", "lhs", "rhs", "z_exp")

    def __init__(self, exp: HalfInt, lhs: int, rhs: int, z_exp: Optional[int] = None):
        _Record.__init__(self, exp, lhs, rhs, z_exp)


class CompareResult(_Record):
    __slots__ = ("equal", "compared_order", "mismatch")

    def __init__(self, equal: bool, compared_order: Order, mismatch: Optional[Mismatch] = None):
        _Record.__init__(self, equal, compared_order, mismatch)


# ---------------------------------------------------------------------------
# the series type


class QSeries:
    """An exact Laurent series in q**(1/2), truncated at `order`."""

    __slots__ = ("_min", "_coeffs", "_ordnum")

    def __init__(self, min_num: int, coeffs: list, ordnum: Optional[int], _raw=False):
        # normalizes: clamp to order, strip zero margins, canonical empty form
        if not _raw:
            if ordnum is not None and coeffs:
                keep = ordnum - min_num
                if keep < len(coeffs):
                    coeffs = coeffs[: max(keep, 0)]
            lo = 0
            hi = len(coeffs)
            while lo < hi and coeffs[lo] == 0:
                lo += 1
            while hi > lo and coeffs[hi - 1] == 0:
                hi -= 1
            if lo or hi != len(coeffs):
                min_num += lo
                coeffs = coeffs[lo:hi]
            if not coeffs:
                min_num = ordnum if ordnum is not None else 0
        self._min = min_num
        self._coeffs = coeffs
        self._ordnum = ordnum

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(order: Order = INF) -> "QSeries":
        return QSeries(0, [], _ord_num(order))

    @staticmethod
    def one(order: Order = INF) -> "QSeries":
        return QSeries.monomial(1, HalfInt(0), order)

    @staticmethod
    def monomial(coeff: int, exp=HalfInt(0), order: Order = INF) -> "QSeries":
        if not _whole(coeff):
            raise SpecError(f"a coefficient must be an int, got {coeff!r}")
        e = HalfInt._coerce(exp)
        if e is None:
            raise SpecError(f"bad exponent {exp!r}")
        return QSeries(e.num, [coeff], _ord_num(order))

    # -- inspection --------------------------------------------------------

    @property
    def min_exp(self) -> HalfInt:
        """Lowest stored exponent; for a zero series this equals the order."""
        return HalfInt(self._min)

    @property
    def order(self) -> Order:
        return _ord_obj(self._ordnum)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, exp) -> int:
        e = HalfInt._coerce(exp)
        if e is None:
            raise SpecError(f"bad exponent {exp!r}")
        if self._ordnum is not None and e.num >= self._ordnum:
            raise OrderExceededError(
                f"coefficient at {e} requested, series only known below {_ord_obj(self._ordnum)}"
            )
        i = e.num - self._min
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def terms(self) -> Iterator:
        for i, c in enumerate(self._coeffs):
            if c:
                yield HalfInt(self._min + i), c

    def __bool__(self):
        return bool(self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if _whole(other):
            other = QSeries.monomial(other) if other else QSeries.zero()
        if not isinstance(other, QSeries):
            return NotImplemented
        ordnum = _min_ord(self._ordnum, other._ordnum)
        if not self._coeffs and not other._coeffs:
            return QSeries(0, [], ordnum)
        if not self._coeffs:
            return QSeries(other._min, list(other._coeffs), ordnum)
        if not other._coeffs:
            return QSeries(self._min, list(self._coeffs), ordnum)
        lo = min(self._min, other._min)
        hi = max(self._min + len(self._coeffs), other._min + len(other._coeffs))
        out = [0] * (hi - lo)
        out[self._min - lo : self._min - lo + len(self._coeffs)] = self._coeffs
        at = slice(other._min - lo, other._min - lo + len(other._coeffs))
        out[at] = map(add, out[at], other._coeffs)
        return QSeries(lo, out, ordnum)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self._min, [-c for c in self._coeffs], self._ordnum, _raw=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if _whole(other):
            if other == 0:
                return QSeries.zero(INF)
            if other == 1:
                return self
            return QSeries(
                self._min, [other * c for c in self._coeffs], self._ordnum, _raw=True
            )
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self, other
        # an exact zero annihilates regardless of the other order
        if (not a._coeffs and a._ordnum is None) or (not b._coeffs and b._ordnum is None):
            return QSeries.zero(INF)
        # a truncated zero still bounds the product: min_exp == order there
        ordnum = _min_ord(
            a._ordnum + b._min if a._ordnum is not None else None,
            b._ordnum + a._min if b._ordnum is not None else None,
        )
        if not a._coeffs or not b._coeffs:
            return QSeries(0, [], ordnum)
        lo = a._min + b._min
        full = len(a._coeffs) + len(b._coeffs) - 1
        out_len = full if ordnum is None else min(full, ordnum - lo)
        if out_len <= 0:
            return QSeries(0, [], ordnum)
        x, y = a._coeffs, b._coeffs
        na, nb = len(x) - x.count(0), len(y) - y.count(0)
        if nb < na:
            x, y, na = y, x, nb
        step = 1 if any(y[1::2]) else 2
        if 9 * (na * min(len(y), out_len) // step) ** 2 <= (len(x) + len(y)) ** 3:
            out = _convolve_sparse(x, y, out_len, step)
        elif step == 2 and not any(x[1::2]):
            # both whole-q: convolve the even slots alone and spread once
            out = _spread(_convolve_kronecker(x[::2], y[::2], (out_len + 1) // 2), out_len)
        else:
            out = _convolve_kronecker(x, y, out_len)
        return QSeries(lo, out, ordnum)

    __rmul__ = __mul__

    def shift(self, exp) -> "QSeries":
        """Multiply by q**exp; the coefficient array is shared, not copied."""
        e = HalfInt._coerce(exp)
        if e is None:
            raise SpecError(f"bad exponent {exp!r}")
        if e.num == 0 or (not self._coeffs and self._ordnum is None):
            return self  # q^e times an exact zero is the canonical zero
        ordnum = None if self._ordnum is None else self._ordnum + e.num
        return QSeries(self._min + e.num, self._coeffs, ordnum, _raw=True)

    def inverse(self, order: Order = None) -> "QSeries":
        """Multiplicative inverse.

        The natural order of the result is self.order - 2*self.min_exp; an
        explicit `order` lowers it (and is required when inverting an exact
        non-monomial series, whose inverse has infinitely many terms).
        """
        a = self._coeffs
        if not a:
            raise NonInvertibleError("cannot invert zero")
        lead = a[0]
        if lead not in (1, -1):
            raise NonInvertibleError(f"leading coefficient {lead} is not a unit")
        natural = None if self._ordnum is None else self._ordnum - 2 * self._min
        target = _min_ord(natural, _ord_num(order))
        if target is None:
            if len(a) > 1:
                raise NonInvertibleError("an exact series needs an explicit inversion order")
            return QSeries(-self._min, [lead], None)
        out_len = target + self._min
        if out_len <= 0:
            return QSeries(0, [], target)
        # out[i] = -lead * sum of a[t] out[i - t] over the nonzero a[t], t >= 1;
        # a whole-q divisor has a whole-q inverse, so then only even slots run
        step = 1 if any(a[1::2]) else 2
        n = -(-out_len // step)
        terms = [(t, c) for t, c in enumerate(a[::step]) if c and t]
        out = [lead] + [0] * (n - 1)
        for i in range(1, n):
            s = 0
            for t, c in terms:
                if t > i:
                    break
                s += c * out[i - t]
            out[i] = -lead * s
        return QSeries(-self._min, out if step == 1 else _spread(out, out_len), target)

    def truncated(self, order) -> "QSeries":
        n = _ord_num(order)
        if n is None:
            return self
        if self._ordnum is not None and self._ordnum <= n:
            return self
        return QSeries(self._min, list(self._coeffs), n)

    # -- comparison --------------------------------------------------------

    def eq_upto(self, other: "QSeries", z_exp: Optional[int] = None) -> CompareResult:
        """Compare coefficients below the smaller of the two orders."""
        capnum = _min_ord(self._ordnum, other._ordnum)
        starts = []
        if self._coeffs:
            starts.append(self._min)
        if other._coeffs:
            starts.append(other._min)
        if not starts:
            return CompareResult(True, _ord_obj(capnum))
        lo = min(starts)
        hi = max(self._min + len(self._coeffs), other._min + len(other._coeffs))
        if capnum is not None:
            hi = min(hi, capnum)
        n = hi - lo
        if n <= 0:
            return CompareResult(True, _ord_obj(capnum))

        def window(s: "QSeries") -> list:  # s at lo .. hi - 1; a nonzero s starts at or above lo
            return ([0] * (s._min - lo) + s._coeffs + [0] * n)[:n] if s._coeffs else [0] * n

        a, b = window(self), window(other)
        if a == b:
            return CompareResult(True, _ord_obj(capnum))
        i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        return CompareResult(False, _ord_obj(capnum), Mismatch(HalfInt(lo + i), a[i], b[i], z_exp))

    def __eq__(self, other):
        # structural equality: same coefficients and same order
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self._ordnum == other._ordnum
            and self._min == other._min
            and self._coeffs == other._coeffs
        )

    __hash__ = None

    def __repr__(self):
        def power(e: HalfInt) -> str:
            return f"q^{e}" if e.is_integral else f"q^({e})"

        parts = []
        for exp, c in self.terms():
            if len(parts) == 8:
                parts.append("...")
                break
            parts.append(str(c) if exp.num == 0 else f"{c}*{power(exp)}")
        if not parts:
            parts.append("0")
        tail = "" if self._ordnum is None else f" + O({power(HalfInt(self._ordnum))})"
        return "<QSeries " + " + ".join(parts) + tail + ">"

