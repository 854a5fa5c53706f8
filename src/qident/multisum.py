"""Truncated evaluation of multisums with the quadratic form sum_i s_i^2.

A summand spec describes sums of the shape

    sum_{s_1 >= s_2 >= ... >= s_k >= 0}
        q^(sum_i s_i^2 + lambda_i s_i) * B(s) *
        T(s_k) / prod_{i<k} (q; q)_{s_i - s_{i+1}}

where B(s) is an optional product over a set P of positions: position 1
contributes q^(-s_1), a position i >= 2 contributes
q^(-s_i) (1 + q^(s_{i-1} + s_i)).  The tail kinds T cover the closing
factors of this family of identities, z taken at a monomial +-q^(m/2);
a factor shifted to z q^(-k), as OVER_3's is, is the tail at z q^(-k).

The sum is linear in the tail values and only they depend on z, so it
is sum_t K(t) T(t) with a z-free kernel K, built once for all the specs
of a batch that differ only in their tails (`eval_multisums`).  With
e_i(s) = s^2 + lambda_i s (placement's q^(-s_i) folded in), the kernel
runs the level recurrence transposed, from the first index down:

    W_1(s) = q^(e_1(s)),  K(t) = W_k(t),
    W_{i+1}(t) = q^(e_{i+1}(t)) sum_{s >= t} P_{i+1}(s, t) W_i(s) / (q; q)_{s-t}

where P_{i+1} is 1 + q^(s+t) for a placed position i+1 >= 2, else 1.
Each inner sum is a Horner chain from the top index down in which
1/(1 - q^j) is one in-place prefix-add pass (`qobjects`), held only from
the lowest slot a cell has reached; a placed position adds each cell twice,
the second time q^(s+t) higher.  Cell W_i(s) lies at or above
U_i(s), the least exponent of the indices before it, and matters only
below N - D_i(s), D_i(s) the least exponent of the indices after it and
of every tail, capped at s.  It is computed on exactly that window, whole
q-units to a slot, and skipped when the window is empty; `SumStats`
counts these cells.  An index's least exponent and the first index's cap
are `qobjects`' quadratic bounds `_quad_min` and `_quad_top`.  The test
suite checks the engine against an unpruned brute force.

The same level loop (`_kernel`) also takes a bounded start: one cell
W_0(n) = 1 with top n, so that W_1(t) = q^(e_1(t)) P_1(n, t) / (q; q)_{n-t}
(there a placed first position has its pair factor too) and K(s) sums
the chains n = s_0 >= s_1 >= ... >= s_k = s.  `_chain_values` returns these
K(s) as series for the finite-n expansions of `finite`; there the last
level's floor D_k(s) is the least exponent of what multiplies K(s).

Each tail then takes one closing Horner on r(t) = T(t) / T(t-1):
acc = K(top), acc = acc * r(t) + K(t-1) for t = top..1, then acc * T(0).
r(t) is a two-term pass per new factor 1 + c q^e and a prefix-add pass
per new 1/(1 - q^d); T(0) = 1 but for TailOverOdd.  The closing frame
starts at the kernel floor plus `_tail_floor_num`, computed once per tail
and batch; it has whole q-units to a slot when every tail exponent is
whole (TailOdd, TailEven, and the overpartition tails at an even z
exponent m in half-units), else half units, the kernel read at every other
slot.  acc is sum_{u >= t} K(u) T(u) / T(t), held only from its certified
floor, which falls with t.  A two-term pass with shift -e < 0 leaves its
top e slots stale; up to t the shifts add up to -tail_min_num(tail, t), so
the frame ends -_tail_floor_num above the order.  A nonzero value pushed
below acc's floor, or a result known short of the request, raises IllPosedError.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import List, Optional, Sequence, Tuple, Union

from .qobjects import Monomial, _grid_series, _prefix_add, _quad_min, _quad_top, _two_term
from .series import (
    HalfInt,
    IllPosedError,
    QSeries,
    SpecError,
    SumStats,
    _Record,
    _ord_num,
    _whole,
)


class TailOdd(_Record):
    """1 / (q; q)_{s_k}"""

    __slots__ = ()


class TailEven(_Record):
    """1 / (q^2; q^2)_{s_k}"""

    __slots__ = ()


class TailOver(_Record):
    """(-z, -q/z; q)_{s_k} / (q; q)_{2 s_k} at monomial z."""

    __slots__ = ("z",)

    def __init__(self, z: Monomial):
        _Record.__init__(self, z)


class TailOverOdd(_Record):
    """(-q/z; q)_{s_k + 1} (-z; q)_{s_k} / (q; q)_{2 s_k + 1} at monomial z."""

    __slots__ = ("z",)

    def __init__(self, z: Monomial):
        _Record.__init__(self, z)


Tail = Union[TailOdd, TailEven, TailOver, TailOverOdd]


class SummandSpec(_Record):
    """Declarative description of one multisum."""

    __slots__ = ("k", "linear", "placement", "tail")

    def __init__(self, k: int, linear: Tuple[int, ...], placement: Optional[frozenset] = None, tail: Tail = TailOdd()):
        if not _whole(k) or k < 1:
            raise SpecError(f"need at least one index, got k={k!r}")
        linear = tuple(linear)
        if len(linear) != k:
            raise SpecError(f"{k} indices but {len(linear)} linear weights")
        if not all(_whole(c) for c in linear):
            raise SpecError("linear weights are whole q-exponents (plain ints)")
        if placement is not None:
            placement = frozenset(placement)
            if not all(_whole(i) and 1 <= i <= k for i in placement):
                raise SpecError(f"placement {sorted(placement)} must be positions in 1..{k}")
        if not isinstance(tail, (TailOdd, TailEven, TailOver, TailOverOdd)):
            raise SpecError(f"unknown tail {tail!r}")
        _Record.__init__(self, k, linear, placement, tail)

    def effective_linear_num(self) -> list:
        """Per-index linear exponent numerators including placement's q^-s_i."""
        p = self.placement or frozenset()
        return [
            2 * self.linear[i] - (2 if (i + 1) in p else 0) for i in range(self.k)
        ]


def tail_min_num(tail: Tail, s: int) -> int:
    """Exact minimal exponent numerator of the tail's finite factors at s:
    the negative shifts of the two-term factors of `_ratio`'s r(t), t <= s.

    Inverse Pochhammer factors have minimal exponent 0 and are ignored.
    """
    if not _whole(s) or s < 0:
        raise SpecError(f"tail_min_num needs an int s >= 0, got s={s!r}")
    return sum(min(e, 0) for t in range(s + 1) for _, e in _ratio(tail, t)[0])


def _tail_floor_num(tail: Tail) -> int:
    """min of tail_min_num over all s >= 0."""
    if isinstance(tail, (TailOver, TailOverOdd)):
        # r(t)'s shifts are at least m + 2t - 2 and 2t - m, m the z exponent,
        # so none is negative past t = |m| + 1
        return tail_min_num(tail, abs(tail.z.q_exp.num) + 1)
    return tail_min_num(tail, 0)


def _first_cap(lamnum: int, rest_floor: int, nnum: int) -> int:
    """Hard cap on the first index: the least s at which e(s) = 2s^2 +
    lamnum*s has stopped falling and e(s) + rest_floor >= nnum, so that past
    it even the best completion starts at or above the requested order."""
    rise = max(0, -((2 + lamnum) // 4))
    return max(rise, _quad_top(2, -lamnum, nnum - rest_floor) + 1)


def _grid(tail: Tail) -> int:
    """2 when every exponent of every tail value is whole, else 1."""
    if isinstance(tail, (TailOdd, TailEven)):
        return 2
    return 2 - tail.z.q_exp.num % 2


def _ratio(tail: Tail, t: int) -> Tuple[tuple, tuple]:
    """T(t) / T(t-1), with T(-1) = 1: the factors 1 + sign q^(e/2), as
    (sign, e), over the factors 1 - q^(d/2), as d."""
    if isinstance(tail, (TailOdd, TailEven)):
        return (), ((4 if isinstance(tail, TailEven) else 2) * t,) if t else ()
    sign, m = tail.z.sign, tail.z.q_exp.num
    if isinstance(tail, TailOver):
        return (((sign, m + 2 * t - 2), (sign, 2 * t - m)), (4 * t - 2, 4 * t)) if t else ((), ())
    if not t:
        return ((sign, 2 - m),), (2,)
    return ((sign, m + 2 * t - 2), (sign, 2 * t + 2 - m)), (4 * t, 4 * t + 2)


def _chain(cells: list, t: int, x: int, width: int, pair: bool) -> list:
    """sum_{s>=t} P(s, t) W(s) / (q; q)_{s-t} in `width` whole-q slots from
    q^(x/2), P(s, t) = 1 + q^(s+t) when `pair`, else 1.

    Horner from the top s down: once W(s + 1) and the cells above have
    joined the partial sum, it is divided by (1 - q^(s+1-t)), one
    prefix-add pass.  The sum is held only from slot a, the lowest a cell
    has reached, and grows downward as cells join; a pass whose step is as
    long as what is held moves nothing and is skipped.  The pair factor is
    two adds of a cell, at its slot and s + t above it.  A cell is (its
    first exponent x0, its list, the slots past its end zero) or None for
    zero, and every cell at s >= t starts at or above x.
    """
    acc, a = [], width
    for s in range(len(cells) - 1, t - 1, -1):
        if s + 1 - t < len(acc):
            _prefix_add(acc, s + 1 - t)
        if cells[s] is not None:
            x0, c = cells[s]
            lo = (x0 - x) // 2
            for p in (lo, lo + s + t) if pair else (lo,):
                if p < width:
                    if p < a:
                        acc[:0] = [0] * (a - p)
                        a = p
                    at = slice(p - a, p - a + len(c))
                    acc[at] = map(add, acc[at], c)
    return [0] * a + acc


def _close(tail: Tail, ratio: list, tm: list, kernel: list, low: list, base: int, floor: int, nnum: int) -> QSeries:
    """sum_t K(t) T(t) below q^(nnum/2) by the closing Horner on `_ratio`'s
    ratio[t], on the tail's grid from `base`; tm[t] is tail_min_num(tail, t),
    floor is `_tail_floor_num(tail)`, and K(t) is known below nnum - low[t]."""
    g = _grid(tail)
    size = -(-(nnum - floor - base) // g)  # the frame [base, N - floor): a stale-slot margin of -floor
    top = max((t for t, c in enumerate(kernel) if c is not None), default=-1)
    tm = tm[: top + 1] + [0]  # tm[-1] = 0: T(-1) = 1
    acc, a, known = [], size, base + g * size
    best = known
    for t in range(top, -1, -1):
        cell = kernel[t]
        if cell is not None:
            best = min(best, cell[0] + tm[t])
        # acc + K(t) = sum_{u >= t} K(u) T(u) / T(t), and that times r(t), lie at or above best - tm[t - 1]
        x = min(max((best - tm[t - 1] - base) // g, 0), a)
        acc[:0] = [0] * (a - x)
        a = x
        if cell is not None:  # the kernel's whole-q slots are every (2 // g)-th
            i, step = (cell[0] - base) // g - a, 2 // g
            at = slice(i, i + step * min(len(cell[1]), -(-(len(acc) - i) // step)), step)
            acc[at] = map(add, acc[at], cell[1])
            known = min(known, nnum - low[t])
        for sign, e in ratio[t][0]:
            if e < 0 and any(acc[: -e // g]):
                raise IllPosedError("a closing sum reaches below its certified floor")
            known += min(e, 0)  # a shift below zero leaves its top -e half-units stale
            _two_term(acc, sign, e // g)
        for d in ratio[t][1]:
            _prefix_add(acc, d // g)
    if known < nnum:
        raise IllPosedError(f"the sum closed by {tail} is known below q^{HalfInt(known)}, not q^{HalfInt(nnum)}")
    return _grid_series(acc, base + g * a, nnum, g)


def _kernel(lam: list, placement: frozenset, start: Optional[list], low: list, nnum: int, stats: SumStats) -> list:
    """The kernel cells W_k(s), s <= top = len(low) - 1, each known below
    nnum - low[s]: (x0, its list from q^(x0/2), the slots past its end zero)
    or None when that window is empty.  `lam` holds the k indices' linear
    exponents, placement's q^(-s_i) folded in.

    `start` is the row of a level 0 before the first index, its cells at or
    above q^0; None leaves the first index free, W_1(s) = q^(e_1(s)), each
    cell the bare monomial (x0, [1]).  Every later cell is one `_chain`,
    paired on a placed level, on its whole window.
    """
    k, cap = len(lam), range(len(low))
    e = [[2 * s * s + c * s for s in cap] for c in lam]
    # up[i][s] = U_i(s): W_i(s) / q^(e_i(s)) lies at or above the sum over
    # j < i of min_{s<=t<=top} e_j(t)
    up = [[0] * len(low)]
    for i in range(1, k):
        run = list(accumulate(reversed(e[i - 1]), min))[::-1]
        up.append([u + r for u, r in zip(up[-1], run)])
    # down[i][s] = D_i(s): low at the last level; before it, the least of low
    # up to s plus each later index at its least
    down, run = [low], list(accumulate(low, min))
    for i in range(k - 1, 0, -1):
        run = [d + _quad_min(2, lam[i], s) for s, d in enumerate(run)]
        down.insert(0, run)

    # top down over the levels; a cell's list runs from q^(x0/2) to the slot
    # below N - D_i(s)
    cells = start
    for i in range(k):
        row = []
        for t in cap:
            stats.nodes += 1
            x0, hi = up[i][t] + e[i][t], nnum - down[i][t]
            if x0 >= hi:
                stats.pruned += 1
                row.append(None)
                continue
            stats.tuples += 1
            width = (hi - x0 + 1) // 2
            row.append((x0, [1] if cells is None else _chain(cells, t, up[i][t], width, i + 1 in placement)))
        cells = row
    return cells


def _chain_values(spec: SummandSpec, n: int, low: List[int], nnum: int, stats: SumStats) -> List[QSeries]:
    """K(s), s = 0..n, summed over the chains n = s_0 >= s_1 >= ... >= s_k = s,
    each known below q^((nnum - low[s])/2).

    Level i weighs q^(s_i^2 + lambda_i s_i) B_i / (q; q)_{s_(i-1) - s_i},
    with the spec's linear weights and placement, B_i as in the sums but
    also at i = 1; the spec's tail is not used.
    """
    start = [None] * n + [(0, [1])]
    cells = _kernel(spec.effective_linear_num(), spec.placement or frozenset(), start, low, nnum, stats)
    return [
        QSeries(0, [], nnum - d) if c is None else _grid_series(c[1], c[0], nnum - d, 2)
        for c, d in zip(cells, low)
    ]


def eval_multisums(specs: Sequence[SummandSpec], order, stats: Optional[SumStats] = None) -> List[QSeries]:
    """Evaluate multisums that differ only in their tails, each exactly below
    `order`, on one kernel; an empty batch gives []."""
    nnum = _ord_num(order)
    if nnum is None:
        raise IllPosedError("a multisum needs a finite truncation order")
    if not specs:
        return []
    if len({(s.k, s.linear, s.placement) for s in specs}) != 1:
        raise SpecError("a batch of multisums must differ only in their tails")
    stats = stats or SumStats()
    lam = specs[0].effective_linear_num()
    tails = [s.tail for s in specs]

    # the least exponent of the indices after the first and of the tails,
    # and the kernel floor: every index at its least
    mins = [_quad_min(2, c) for c in lam]
    floors = [_tail_floor_num(tail) for tail in tails]
    top = _first_cap(lam[0], min(floors) + sum(mins[1:]), nnum)

    # each tail's ratios r(s) for s <= top, and tail_min_num at each s, the
    # running sum of their negative shifts, which never rises; the last
    # level's floor is its least over the tails
    ratios = [[_ratio(tail, s) for s in range(top + 1)] for tail in tails]
    tms = [list(accumulate(sum(min(d, 0) for _, d in twos) for twos, _ in r)) for r in ratios]
    low = [min(col) for col in zip(*tms)]
    cells = _kernel(lam, specs[0].placement or frozenset(), None, low, nnum, stats)

    return [
        _close(tail, ratio, tm, cells, low, sum(mins) + floor, floor, nnum)
        for tail, ratio, tm, floor in zip(tails, ratios, tms, floors)
    ]


def eval_multisum(spec: SummandSpec, order, stats: Optional[SumStats] = None) -> QSeries:
    """Evaluate the multisum exactly below `order`."""
    return eval_multisums([spec], order, stats)[0]
