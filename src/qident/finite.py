"""The identities at finite n and the combinatorial facts; importing it registers them.

The structural identities in n, symbolic in z; `_EXPANSIONS`, run by
`_run_expansion`, cases of Bressoud's key lemma summed over chains
n >= s_1 >= ... >= s_d >= 0 on the sum side's kernel from a bounded start
(`multisum._chain_values`), as are ANDREWS_ANSWER's two chains; the edge
sets, the binomial collapse and the even replacement fact.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Sequence, Tuple

from .catalog import Check, _int_tuple, _need_int, _opt_int, _prep_plain, _reg, _reject_unknown
from .multisum import SummandSpec, TailOver, _chain_values, eval_multisum
from .products import _product_sums
from .qobjects import Monomial, _grid_series, _poch_lists, binom
from .series import INF, Order, QSeries, SpecError, SumStats, _Record, _whole, he, qe
from .sums import _SUM_ROWS, _odd
from .zpoly import FSpec, HSpec, ZLaurent, _f_min, _inv_poch_ladder, _poch_rows, f_func, h_poly


# ---------------------------------------------------------------------------
# structural identities at finite n (symbolic in z)

def _prep_n_a(params: dict) -> dict:
    return dict(_prep_plain(("n", "a"), params), j=0)


def _prep_n(params: dict) -> dict:
    _reject_unknown(params, ("n",))
    # SPECIAL_A is exact (order INF): n = 40 verifies in about 0.13 s, and
    # the cost grows about as n^4 (n = 60 takes 0.64 s)
    return {"n": _need_int(params, "n", 0, 40)}


def _pochz_rising(s: int, order: Order) -> ZLaurent:
    # (qz, 1/z; q)_s
    return _poch_rows([(1, 1, 2 * i + 2) for i in range(s)] + [(1, -1, 2 * i) for i in range(s)], order)


def _run_special_a(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    n = p["n"]
    lhs = h_poly(HSpec(n, he(1)), INF).zshift(he(1)).znegate()
    rhs = _pochz_rising(n, INF)
    return [Check(f"n={n}: half-weight polynomial factors", lhs, rhs)]


def _run_func_eq(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    n, c = p["n"], p["c"]
    H = h_poly(HSpec(n, c), INF)
    lhs = H.substitute(-1, c)
    rhs = H.substitute(-1, c - he(2)).shift(qe(n))
    return [Check(f"n={n} c={c}: value at -q^c vs q^n times value at -q^(c-1)", lhs, rhs)]


def _prep_nja_pos(params: dict) -> dict:
    out = _prep_plain(("n", "j", "a"), params)
    if out["j"] < 1:
        raise SpecError("this identity needs j >= 1")
    return out


def _run_recurse_f(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    # F(n, j, a) by its definition, j steps G(z) -> G(zq) + G(q/z) from H,
    # against a binomial combination of shifted copies of H; exact
    n, j, a = p["n"], p["j"], p["a"]
    H = F = h_poly(HSpec(n, a), INF)
    for _ in range(j):
        g = F.zshift(qe(1))
        F = g + g.zinvert()
    rhs = ZLaurent.zero()
    for s in range(j):
        shifted = H.zshift(qe(j - 2 * s))
        rhs = rhs + (shifted + shifted.zinvert()) * binom(j - 1, s)
    return [Check(f"n={n} j={j} a={a}: recursion vs binomial combination", F, rhs)]


# ---------------------------------------------------------------------------
# the expansions at finite n: one table row per identity
#
# Every row is a case of the shape of Bressoud's key lemma: lhs(n) / (q)_{2n}
# equals the sum over chains n = s_0 >= s_1 >= ... >= s_d >= 0 of the level
# weights over (q)_{s_{t-1} - s_t}, times term(s_d) / (q)_{2 s_d}.  A level
# weighs q^(s_t^2), or q^(s_t^2 - s_t) (1 + q^(s_{t-1} + s_t)) on a placed
# row, so the chain sums K(s_d) are the multisum kernel's from the bounded
# start s_0 = n (`multisum._chain_values`), and the report carries its cell
# counts.  Each term's floor is closed-form, so term(s) is built only where
# K(s) is nonzero.  F(n, 0, a) is H(n, a), so KEY_LEMMA and NEW_PROP are the
# rows F_SUM and NEW_PROP2 at j = 0, each with its own prepare and label.


class _Expansion(_Record):
    __slots__ = (
        "prepare",
        "lhs",  # (p, wnum) -> ZLaurent: the polynomial at n, starting at or above term(n)
        "depth",  # p -> d, the chain length
        "placed",  # every level weighs the pair q^(s^2 - s) (1 + q^(prev + s)), else q^(s^2)
        # (p, s) -> FSpec(s, j, a) of F at s_d, j and a fixed by p, from q^(_f_min/2);
        # None: (qz, 1/z; q)_s, from q^0
        "term",
        "label",  # str.format fields: the parameters
    )


_F_SUM = _Expansion(
    partial(_prep_plain, ("n", "j", "a")),
    lambda p, w: f_func(FSpec(p["n"], p["j"], p["a"]), he(w)),
    lambda p: 1, False,
    lambda p, s: FSpec(s, p["j"], p["a"] - he(2)),
    "n={n} j={j} a={a}: one-step expansion of the closure",
)
_NEW_PROP2 = _Expansion(
    partial(_prep_plain, ("n", "j", "a")),
    lambda p, w: f_func(FSpec(p["n"], p["j"] + 1, p["a"] + he(2)), he(w)),
    lambda p: 1, True,
    lambda p, s: FSpec(s, p["j"], p["a"]),
    "n={n} j={j} a={a}: shifted-pair expansion of the closure",
)
_EXPANSIONS: Dict[str, _Expansion] = {
    "KEY_LEMMA": _F_SUM._replace(prepare=_prep_n_a, label="n={n} a={a}: one-step expansion"),
    "F_SUM": _F_SUM,
    "NEW_PROP": _NEW_PROP2._replace(prepare=_prep_n_a, label="n={n} a={a}: shifted-pair expansion"),
    "NEW_PROP2": _NEW_PROP2,
    "ANOTHER_F": _Expansion(
        _prep_nja_pos, _F_SUM.lhs, lambda p: p["j"], True,
        lambda p, s: FSpec(s, 0, p["a"] - qe(p["j"])),
        "n={n} j={j} a={a}: full chain expansion",
    ),
    "ITER_PROP": _Expansion(
        partial(_prep_plain, ("n", "k", "a")),
        lambda p, w: h_poly(HSpec(p["n"], p["a"] + qe(p["k"] + 1)), he(w)),
        lambda p: p["k"] + 1, False,
        lambda p, s: FSpec(s, 0, p["a"]),
        "n={n} k={k} a={a}: iterated expansion",
    ),
    # w + n: the zshift by q^(1/2) moves slice -n down by n half-units
    "ITERATE_BRESS": _Expansion(
        partial(_prep_plain, ("n", "k")),
        lambda p, w: (
            h_poly(HSpec(p["n"], he(2 * p["k"] + 3)), he(w + p["n"])).zshift(he(1)).znegate()
        ),
        lambda p: p["k"] + 1, False, None,
        "n={n} k={k}: iterated expansion with factored tail",
    ),
}


def _run_expansion(row: _Expansion, p: dict, wnum: int, stats: SumStats) -> List[Check]:
    n, d = p["n"], row.depth(p)
    # K(s) is needed below wnum - floor; the lhs starts no lower than term(n).
    # Every term has term(0)'s j and weight, so each floor is `_f_min` at s,
    # and an FSpec is built only for a live term
    f = row.term and row.term(p, 0)
    floors = [0 if f is None else min(_f_min(s, f.j, f.a.num), wnum) for s in range(n + 1)]
    inv = _inv_poch_ladder(2, wnum - min([0] + floors))
    spec = SummandSpec(d, (0,) * d, frozenset(range(1, d + 1)) if row.placed else None)
    rhs = ZLaurent({}, wnum, (-n, n))  # term(n)'s span: a dead term is zero only below the order
    for s, chain in enumerate(_chain_values(spec, n, floors, wnum, stats)):
        if chain:
            term = _pochz_rising(s, he(wnum)) if f is None else f_func(row.term(p, s), he(wnum))
            rhs = rhs + term * (chain * inv(2 * s))
    return [Check(row.label.format_map(p), row.lhs(p, wnum) * inv(2 * n), rhs)]


# ---------------------------------------------------------------------------
# combinatorial supporting facts


class EdgeSet(_Record):
    """A matching of the path 1-2-...-j; member i stands for edge (i, i+1)."""

    __slots__ = ("edges",)

    def __init__(self, edges: frozenset):
        _Record.__init__(self, frozenset(edges))
        if not all(_whole(i) for i in self.edges):
            raise SpecError(f"edges are labelled by plain ints, got {set(self.edges)!r}")
        if any(i < 1 for i in self.edges):
            raise SpecError(f"edges must be labelled by their left vertex >= 1: {sorted(self.edges)}")
        s = sorted(self.edges)
        for x, y in zip(s, s[1:]):
            if y - x <= 1:
                raise SpecError(f"edges {x} and {y} share a vertex")

    @property
    def covered(self) -> frozenset:
        return frozenset(v for i in self.edges for v in (i, i + 1))


def enumerate_edge_sets(j: int) -> List[EdgeSet]:
    """All matchings of the path on vertices 1..j (Fibonacci(j+1) of them)."""
    if not _whole(j) or j < 0:
        raise SpecError(f"need an int j >= 0, got j={j!r}")
    out: List[List[int]] = [[]]
    for i in range(1, j):  # edge (i, i+1)
        out.extend([e + [i] for e in out if not e or e[-1] < i - 1])
    sets = [EdgeSet(frozenset(e)) for e in out]
    sets.sort(key=lambda E: (len(E.edges), sorted(E.edges)))
    return sets


def edge_weight(E: EdgeSet, s: Sequence[int]) -> QSeries:
    """q^(-s_i)(1 + q^(s_(i-1)+s_i)) over uncovered i >= 2, times q^(-s_1)
    when vertex 1 is uncovered; a Laurent polynomial in q, row 0 of `_poch_lists`."""
    j = len(s)
    if any(i + 1 > j for i in E.edges):
        raise SpecError(f"edge set {sorted(E.edges)} does not fit a path on {j} vertices")
    covered = E.covered
    free = [i for i in range(1, j + 1) if i not in covered]
    rows, lo, top, g = _poch_lists([(-1, 0, 2 * (s[i - 2] + s[i - 1])) for i in free if i >= 2], INF)
    return _grid_series(rows[0], lo, top, g).shift(qe(-sum(s[i - 1] for i in free)))


def _edge_samples(j: int) -> List[Tuple[int, ...]]:
    rng = random.Random(0x5EED + 1000 * j)
    out = []
    for _ in range(10):
        t = []
        prev = rng.randint(0, 10)
        for _ in range(j):
            t.append(prev)
            prev = rng.randint(0, prev)
        out.append(tuple(t))
    return out


def _prep_edge_lemma(params: dict) -> dict:
    _reject_unknown(params, ("j", "samples"))
    # all Fibonacci(j+1) matchings are built as objects: j = 15 verifies in
    # about 0.3 s, and the count grows about 1.6x per step of j
    j = _need_int(params, "j", 0, 15)
    samples = params.get("samples")
    if samples is not None:
        rows = [_int_tuple(s) for s in samples] if isinstance(samples, (list, tuple)) else [None]
        if None in rows:
            raise SpecError(f"samples must be a list of index lists, got {samples!r}")
        if not rows:
            raise SpecError(f"samples must list at least one sample, got {samples!r}")
        samples = rows
        for s in samples:
            if len(s) != j:
                raise SpecError(f"sample {s} does not have j={j} entries")
            if any(v < 0 for v in s) or any(x < y for x, y in zip(s, s[1:])):
                raise SpecError(f"sample {s} must be weakly decreasing and nonnegative")
    return {"j": j, "samples": samples}


def _run_edge_lemma(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    j = p["j"]
    samples = p["samples"]
    if samples is None:
        samples = [] if j != 3 else [(2, 1, 1)]
        samples += _edge_samples(j)
    sets = enumerate_edge_sets(j)
    checks = []
    for s in samples:
        total = QSeries.zero(INF)
        for E in sets:
            w = edge_weight(E, s)
            total = total + (-w if len(E.edges) % 2 else w)
        target = QSeries.monomial(1, qe(-sum(s)))
        checks.append(Check(f"j={j} s={s}: signed weights collapse", total, target))
    return checks


def _run_chu(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    j = p["j"]
    checks = []
    for u in range(j + 1):
        total = 0
        for t in range(0, min(u, j // 2) + 1):
            lead = binom(j - t, t)
            if lead:
                total += lead * (-1) ** t * binom(j - 2 * t, u - t)
        checks.append(
            Check(f"j={j} u={u}: double sum collapses to 1", QSeries.monomial(total), QSeries.one())
        )
    return checks


def _prep_even_fact(params: dict) -> dict:
    _reject_unknown(params, ("s_max",))
    return {"s_max": _opt_int(params, "s_max", 8, 0)}


def _run_even_fact(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    inv, inv_even = _inv_poch_ladder(2, wnum), _inv_poch_ladder(4, wnum)
    checks = []
    for s in range(p["s_max"] + 1):
        lhs = h_poly(HSpec(s, qe(1)), he(wnum)).substitute(-1, qe(0)) * inv(2 * s)
        rhs = inv_even(s)
        checks.append(Check(f"s={s}: even-weight value factors", lhs, rhs))
    return checks


# ---------------------------------------------------------------------------
# the guided reduction to the classical sum side


def _prep_andrews_answer(params: dict) -> dict:
    _reject_unknown(params, ("k", "r", "n"))
    k = _need_int(params, "k", 1)
    r = _need_int(params, "r", 0, k)
    n = _opt_int(params, "n", 5, 0)
    return {"k": k, "r": r, "j": 0, "placement": None, "n": n}


def _run_andrews_answer(p: dict, wnum: int, stats: SumStats) -> List[Check]:
    """Reproduce the reduction schedule: expand k-r+1 times, insert a linear
    factor, then alternate expansion and insertion for the remaining r-1
    factors; the closing factor forces the innermost index to zero and the
    surviving scalar is the classical sum side."""
    k, r, n = p["k"], p["r"], p["n"]
    inv = _inv_poch_ladder(2, wnum)
    checks = []

    # the H form of the closing factor vanishes for every positive index;
    # SPECIAL_A at z = 1 equates it with (q, 1; q)_s, the factor of the
    # forced sum below, which vanishes through its factor 1 - q^0
    for s in range(1, max(2, min(n, 4)) + 1):
        vanish = h_poly(HSpec(s, he(1)), INF).substitute(-1, he(1))
        checks.append(Check(f"s={s}: H(s, 1/2) vanishes at -q^(1/2)", vanish, QSeries.zero(INF)))

    # finite-n pipeline: state = sum_s K(s) * H(s, a)(-q^x) / (q)_{2s},
    # from K(n) = 1, a = k + 3/2, x = r + 1/2.  Each expansion (the key lemma)
    # adds a chain level of weight q^(s^2) and lowers a by 1; a = x after
    # k - r + 1 of them, and from then on the functional equation, which
    # lowers x by 1 and multiplies K(s) by q^s, comes before each expansion.
    # Both end at 1/2, where H(s, 1/2)(-q^(1/2)) vanishes but at s = 0, so
    # the value is K(0) of the (k+1)-level chain from n whose linear weights
    # are 1 on the last r of the first k levels, the ones those functional
    # equations shifted.  Only K(0) is read: the other last-level cells get
    # the floor wnum, which skips them.
    ag = _SUM_ROWS["AG"]
    plain_spec = ag.summand(p, None)
    forced_spec = SummandSpec(k + 1, plain_spec.linear + (0,), tail=TailOver(Monomial(-1, qe(0))))
    value = _chain_values(forced_spec, n, [0] + [wnum] * n, wnum, stats)[0]

    # every step preserved the value, so K(0) must equal the start;
    # wnum + n(2r+1): substituting -q^(r+1/2) moves slice -n down by n(2r+1) half-units
    H = h_poly(HSpec(n, he(2 * k + 3)), he(wnum + n * (2 * r + 1)))
    start = H.substitute(-1, he(2 * r + 1)) * inv(2 * n)
    checks.append(Check(f"n={n}: pipeline value equals the starting value", value, start))

    # and it is exactly the bounded classical sum side, AG's: the k-level
    # chain closed by 1/(q)_{s_k}, here as series products
    direct = QSeries.zero(he(wnum))
    for s, c in enumerate(_chain_values(plain_spec, n, [0] * (n + 1), wnum, stats)):
        direct = direct + c * inv(s)
    checks.append(Check(f"n={n}: pipeline value is the bounded sum side", value, direct))

    # in the limit, the same shape closed by (1, q; q)_s / (q)_{2s}, TailOver
    # at z = -1 and the H form above, reproduces the classical identity
    forced = eval_multisum(forced_spec, he(wnum), stats)
    plain = eval_multisum(plain_spec, he(wnum), stats)
    checks.append(Check("forced innermost index reproduces the sum side", forced, plain))
    prod = _product_sums([ag.products(p, ag.modulus(p), None)], he(wnum))[0]
    checks.append(Check("sum side meets the product side", plain, prod))
    return checks


for _id, _exp in _EXPANSIONS.items():
    _reg(_id, _exp.prepare, partial(_run_expansion, _exp))
_reg("SPECIAL_A", _prep_n, _run_special_a)
_reg("FUNC_EQ", partial(_prep_plain, ("n", "c")), _run_func_eq)
_reg("RECURSE_F", _prep_nja_pos, _run_recurse_f)
_reg("EDGE_LEMMA", _prep_edge_lemma, _run_edge_lemma)
_reg("CHU_COEFF", partial(_prep_plain, ("j",)), _run_chu)
_reg("EVEN_FACT", _prep_even_fact, _run_even_fact)
_reg("ANDREWS_ANSWER", _prep_andrews_answer, _run_andrews_answer, _odd)
