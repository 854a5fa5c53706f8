"""Truncated evaluation of multisums with the quadratic form sum_i s_i^2.

A summand spec describes sums of the shape

    sum_{s_1 >= s_2 >= ... >= s_k >= 0}
        q^(sum_i s_i^2 + lambda_i s_i) * B(s) *
        tail(s_k) / prod_{i<k} (q; q)_{s_i - s_{i+1}}

where B(s) is an optional product over a set P of positions: position 1
contributes q^(-s_1), a position i >= 2 contributes
q^(-s_i) (1 + q^(s_{i-1} + s_i)).  The tail kinds cover the closing
factors of this family of identities, z taken at a monomial +-q^(m/2).

Evaluation runs bottom up over index positions.  With
e_i(s) = s^2 + lambda_i s (position 1's q^(-s_1) folded in),

    V_k(s) = q^(e_k(s)) tail(s)
    V_i(s) = q^(e_i(s)) sum_{t <= s} P_{i+1}(s, t) V_{i+1}(t) / (q; q)_{s-t}

and the multisum is the sum of V_1(s) over s <= top; P_{i+1} is
1 + q^(s+t) for a placed position i+1 >= 2, else 1.  Each inner sum is
a Horner chain in which 1/(1 - q^j) is one in-place prefix-add pass, so
no series product is needed.  Cell V_i(s) matters only below
R_i(s) = N - sum_{j<i} min_{s<=t<=top} e_j(t) and is computed to exactly
that order; a cell whose certified minimal exponent reaches R_i(s) is
skipped, so the truncated result is still exact, and a tail value known
to a lower order than its cell needs raises IllPosedError.  `SumStats`
counts the cells visited, skipped and evaluated; the test suite checks
the engine against an unpruned brute force.

The tails are built by the same list passes, which live in `qobjects`
(`_two_term`, `_prefix_add`).  1/(q)_s, 1/(q^2;q^2)_s and the
overpartition tails are rungs of one ladder, each stepped from s - 1 to s
in place: a two-term pass per new factor 1 + c q^e, a prefix-add pass per
new 1/(1 - q^d).  No tail multiplies two series.  Value s is built only
as wide as the bottom cells at s and above read it, and a rung on a list
-lo / g slots wider: a two-term pass with shift -e < 0 leaves its top e
slots stale, and up to s these shifts add up to -tail_min_num(tail, s)
<= -lo.

Every pass above the tails moves by whole q-units: the shifts e_i(s), the
prefix-add steps s - t and the placement offsets t.  So the tails, every
level and the final sum share one grid of spacing g half-units, slot x
holding the exponent lo + g x, and g = 2 whenever the tail's exponents
are all whole: always for TailOdd and TailEven, for TailOver and
TailOverOdd at an even z exponent m (in half-units).  The frame's lo is
then whole too, every list is half as long, and the result is spread
back onto the half grid once (`qobjects._grid_series`).  A mixed-parity
tail keeps g = 1, one interleaved list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import add
from typing import Optional, Tuple, Union

from .hfamily import _h_min_num, _h_top
from .qobjects import Monomial, _grid_series, _prefix_add, _two_term
from .series import (
    HalfInt,
    IllPosedError,
    QSeries,
    SpecError,
    _ord_num,
    _whole,
)


@dataclass(frozen=True, slots=True)
class TailOdd:
    """1 / (q; q)_{s_k}"""


@dataclass(frozen=True, slots=True)
class TailEven:
    """1 / (q^2; q^2)_{s_k}"""


@dataclass(frozen=True, slots=True)
class TailOver:
    """(-z, -q/z; q)_{s_k} / (q; q)_{2 s_k} at monomial z."""

    z: Monomial


@dataclass(frozen=True, slots=True)
class TailOverOdd:
    """(-q^(off+1)/z; q)_{s_k + 1} (-z q^(-off); q)_{s_k} / (q; q)_{2 s_k + 1}."""

    z: Monomial
    offset: int

    def __post_init__(self):
        if not _whole(self.offset):
            raise SpecError(f"TailOverOdd offset must be an int, got {self.offset!r}")


Tail = Union[TailOdd, TailEven, TailOver, TailOverOdd]


@dataclass(frozen=True)
class SummandSpec:
    """Declarative description of one multisum."""

    k: int
    linear: Tuple[int, ...]
    placement: Optional[frozenset] = None
    tail: Tail = field(default_factory=TailOdd)

    def __post_init__(self):
        if not _whole(self.k) or self.k < 1:
            raise SpecError(f"need at least one index, got k={self.k!r}")
        object.__setattr__(self, "linear", tuple(self.linear))
        if len(self.linear) != self.k:
            raise SpecError(f"{self.k} indices but {len(self.linear)} linear weights")
        if not all(_whole(c) for c in self.linear):
            raise SpecError("linear weights are whole q-exponents (plain ints)")
        if self.placement is not None:
            p = frozenset(self.placement)
            if not all(_whole(i) and 1 <= i <= self.k for i in p):
                raise SpecError(f"placement {sorted(p)} must be positions in 1..{self.k}")
            object.__setattr__(self, "placement", p)

    def effective_linear_num(self) -> list:
        """Per-index linear exponent numerators including placement's q^-s_i."""
        p = self.placement or frozenset()
        return [
            2 * self.linear[i] - (2 if (i + 1) in p else 0) for i in range(self.k)
        ]


@dataclass
class SumStats:
    """Counters filled in by eval_multisum, accumulated over calls: `nodes`
    (level, index) cells visited, `pruned` cells skipped, `tuples` evaluated."""

    tuples: int = 0
    nodes: int = 0
    pruned: int = 0


def _neg_sum(c: int, s: int) -> int:
    """sum_{i<s} min(0, c + 2i): its first n = clamp((1 - c) // 2, 0, s) terms are the negative ones."""
    n = max(0, min(s, (1 - c) // 2))
    return n * c + n * (n - 1)


def tail_min_num(tail: Tail, s: int) -> int:
    """Exact minimal exponent numerator of the tail's finite factors at s.

    Inverse Pochhammer factors have minimal exponent 0 and are ignored.
    """
    if isinstance(tail, (TailOdd, TailEven)):
        return 0
    if isinstance(tail, TailOver):
        m = tail.z.q_exp.num
        return _neg_sum(m, s) + _neg_sum(2 - m, s)
    if isinstance(tail, TailOverOdd):
        m = tail.z.q_exp.num - 2 * tail.offset
        return _neg_sum(2 - m, s + 1) + _neg_sum(m, s)
    raise SpecError(f"unknown tail {tail!r}")


def _tail_floor_num(tail: Tail) -> int:
    """min of tail_min_num over all s >= 0."""
    if isinstance(tail, (TailOver, TailOverOdd)):
        # a sum of _neg_sum(c, s) terms, c in {m, 2 - m} with m the z exponent
        # less twice the offset; each stops falling once s >= (1 - c) // 2
        m = tail.z.q_exp.num - 2 * getattr(tail, "offset", 0)
        return tail_min_num(tail, abs(m) + 1)
    return tail_min_num(tail, 0)


def _index_min_num(lamnum: int, cap: Optional[int]) -> int:
    """min over 0 <= s (<= cap when given) of 2s^2 + lamnum*s, in half-units."""
    # at lamnum < 0 the least value over |s| <= cap has s >= 0
    return 0 if lamnum >= 0 else _h_min_num(2, lamnum, cap)


def _first_cap(lamnum: int, rest_floor: int, nnum: int) -> int:
    """Hard cap on the first index: the least s at which e(s) = 2s^2 +
    lamnum*s has stopped falling and e(s) + rest_floor >= nnum, so that past
    it even the best completion starts at or above the requested order."""
    rise = max(0, -((2 + lamnum) // 4))
    return max(rise, _h_top(2, -lamnum, nnum - rest_floor) + 1)


def _grid(tail: Tail) -> int:
    """2 when every exponent of every tail value is whole, else 1."""
    if isinstance(tail, (TailOdd, TailEven)):
        return 2
    return 2 - tail.z.q_exp.num % 2


class _TailValues:
    """The tail's values at working order W, built by list passes (see the
    module docstring) on frames from lo at the tail's grid spacing g: slot
    x holds the exponent lo + g x, and value s is known below
    W + tail_min_num(tail, s) within the `reach` slots its readers ask for;
    rungs carry the stale-slot `margin` (a value reaching below lo raises)."""

    def __init__(self, tail: Tail, lo: int, wnum: int):
        self.tail = tail
        self.lo = lo
        self.w = wnum
        self.g = g = _grid(tail)
        self.margin = -lo // g
        # rung s: 1/(q)_s, 1/(q^2;q^2)_s, or TailOver at z (at z q^(-offset) for TailOverOdd)
        self.rungs = [[0] * self.margin + [1] + [0] * ((wnum - 1) // g)]

    def _rung(self, i: int, length: int) -> list:
        t, g = self.tail, self.g
        c = self.rungs[-1][:length]
        if isinstance(t, (TailOdd, TailEven)):
            return _prefix_add(c, (4 if isinstance(t, TailEven) else 2) * i // g)
        m = t.z.q_exp.num - (2 * t.offset if isinstance(t, TailOverOdd) else 0)
        c = _two_term(_two_term(c, t.z.sign, (m + 2 * i - 2) // g), t.z.sign, (2 * i - m) // g)
        return _prefix_add(_prefix_add(c, (4 * i - 2) // g), 4 * i // g)

    def value(self, s: int, low: int, reach: int) -> Tuple[list, int]:
        """(frame, top): value s on the frame, known below top = W + low in
        its first `reach` slots, where low = tail_min_num(tail, s); every
        value asked for later must have a reach no wider."""
        t, g = self.tail, self.g
        if low < self.lo:
            raise IllPosedError(f"tail value at s={s} reaches q^{HalfInt(low)}, below its frame")
        while len(self.rungs) <= s:
            self.rungs.append(self._rung(len(self.rungs), reach + self.margin))
        c = self.rungs[s]
        if isinstance(t, TailOverOdd):
            m = t.z.q_exp.num - 2 * t.offset
            c = _prefix_add(_two_term(c[: reach + self.margin], t.z.sign, (2 - m + 2 * s) // g), (4 * s + 2) // g)
        return c, self.w + low


def _horner(cells: list, s: int, width: int, lift: int, g: int) -> list:
    """sum_{t<=s} q^(lift*t) cells[t] / (q; q)_{s-t} in its first `width` slots.

    Horner from t = 0 up: once cells[t] has joined the partial sum, it is
    divided by (1 - q^(s-t)), one prefix-add pass.  None cells are zero.
    """
    acc = [0] * width
    for t in range(s + 1):
        c = cells[t]
        off = 2 * lift * t // g
        if c is not None and off < width:
            acc[off:] = map(add, acc[off:], c[: width - off])
        if t < s and any(acc):
            _prefix_add(acc, 2 * (s - t) // g)
    return acc


def _shift(w: list, e: int) -> list:
    """Move a window up by e slots (down for e < 0), keeping its upper end fixed in the frame."""
    if e < 0 and any(w[:-e]):
        raise IllPosedError("a partial sum reaches below its certified floor")
    return [0] * e + w if e >= 0 else w[-e:]


def eval_multisum(spec: SummandSpec, order, stats: Optional[SumStats] = None) -> QSeries:
    """Evaluate the multisum exactly below `order`."""
    nnum = _ord_num(order)
    if nnum is None:
        raise IllPosedError("a multisum needs a finite truncation order")
    if stats is None:
        stats = SumStats()
    lam = spec.effective_linear_num()
    k = spec.k
    placement = spec.placement or frozenset()

    # rest_floor: the least exponent of the indices below the first and
    # the tail.  Every cell and every partial sum lies at or above it plus
    # the first index's least exponent, so all of them share one frame:
    # slot x holds the exponent lo + x
    rest_floor = _tail_floor_num(spec.tail)
    rest_floor += sum(_index_min_num(lam[i], None) for i in range(1, k))
    lo = min(0, rest_floor + _index_min_num(lam[0], None))
    tails = _TailValues(spec.tail, lo, nnum - lo)

    top = _first_cap(lam[0], rest_floor, nnum)

    cap = range(top + 1)
    e = [[2 * s * s + lam[i] * s for s in cap] for i in range(k)]
    # need[i][s] = R_i(s): V_i(s) matters only below N - sum_{j<i} min_{s<=t<=top} e_j(t)
    need = [[nnum] * (top + 1)]
    for i in range(1, k):
        run = list(accumulate(reversed(e[i - 1]), min))[::-1]
        need.append([r - m for r, m in zip(need[-1], run)])
    # floor[i][s]: certified minimal exponent of V_i(s) / q^(e_i(s))
    floor = [[tail_min_num(spec.tail, s) for s in cap]]
    rest = list(accumulate(floor[0], min))  # the least tail_min_num up to each s
    for i in range(k - 1, 0, -1):
        rest = [r + _index_min_num(lam[i], s) for s, r in enumerate(rest)]
        floor.insert(0, rest)

    # reach[s]: the most slots that a bottom cell at s' >= s reads of its tail value
    g, b = tails.g, k - 1
    reach = [-(-(need[b][s] - e[b][s] - lo) // g) if floor[b][s] + e[b][s] < need[b][s] else 0 for s in cap]
    reach = list(accumulate(reversed(reach), max))[::-1]

    # bottom up over the levels; a cell is a window of need - lo half-units,
    # g to a slot, None when it is certified zero there
    cells = None
    for i in range(k - 1, -1, -1):
        row = []
        for s in cap:
            stats.nodes += 1
            if floor[i][s] + e[i][s] >= need[i][s]:
                stats.pruned += 1
                row.append(None)
                continue
            stats.tuples += 1
            span = need[i][s] - e[i][s] - lo
            width = -(-span // g)
            if cells is None:
                c, known = tails.value(s, floor[i][s], reach[s])
                if known < lo + span:
                    t = _grid_series(c, lo, known, g)
                    raise IllPosedError(f"tail value {t!r} does not cover q^{HalfInt(lo)}..q^{HalfInt(lo + span)}")
                w = c[:width]
            else:
                w = _horner(cells, s, width, 0, g)
                off = 2 * s // g
                if i + 2 in placement and width > off:
                    w[off:] = map(add, w[off:], _horner(cells, s, width - off, 1, g))
            row.append(_shift(w, e[i][s] // g))
        cells = row
    live = [c for c in cells if c is not None]
    return _grid_series([sum(col) for col in zip(*live)], lo, nnum, g)
