"""Timing spans around the public functions of each qident module.

`install` replaces, from outside the package, every binding a caller
uses for each traced function: module globals imported by name, the
package re-exports, and class attributes such as ``QSeries.__radd__``
(an alias of ``__add__``).  Each call records one span: name, start,
end, parent span, case index and whether it is the outermost span of
its name.  Spans stay in memory; `write_spans` saves them when the run
ends and `layer_metrics` reduces them to the per-layer figures.

A layer's self time is the duration of its spans minus the time their
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []  # (name index, start, end, parent span or -1, case index, outermost)
        self.stack: list = []
        self.depth: list = []
        self.case = -1
        self.case_labels: list = []
        self.counts: Counter = Counter()
        self.partition_orders: set = set()
        self.missing: list = []

    def wrap(self, name, fn):
        """Return fn wrapped so that every call records a span called `name`."""
        if name in self.names:
            nid = self.names.index(name)
        else:
            nid = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        spans, stack, depth, clock = self.spans, self.stack, self.depth, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[nid] -= 1
                stack.pop()
                spans[sid] = (nid, t0, t1, parent, tracer.case, depth[nid] == 0)

        return traced


def _patch(orig, replacement, namespaces) -> None:
    hits = 0
    for ns in namespaces:
        for attr, val in list(vars(ns).items()):
            if val is orig:
                setattr(ns, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"no binding of {orig!r} found to trace")


def install(tracer: Tracer, qident) -> None:
    """Wrap the public functions and methods of every qident layer.

    A function that no longer exists is skipped and listed in
    tracer.missing; its metrics then read 0.
    """
    cli = importlib.import_module(qident.__name__ + ".cli")
    modules = [qident] + [m for n, m in sorted(sys.modules.items()) if n.startswith("qident.")]
    QSeries, ZLaurent = qident.QSeries, qident.ZLaurent
    namespaces = modules + [QSeries, ZLaurent]
    counts = tracer.counts

    def hook(name, owner, attr, counted=None):
        orig = getattr(owner, attr, None)
        if orig is None:
            tracer.missing.append(f"{owner.__name__}.{attr}")
            return
        _patch(orig, tracer.wrap(name, counted(orig) if counted else orig), namespaces)

    # series: the kernel
    def count_mul(mul):
        def stored(x):
            return getattr(x, "_coeffs", None) if isinstance(x, QSeries) else None

        def counted(a, b):
            ca, cb = stored(a), stored(b)
            if ca is not None and cb is not None:
                counts["mul_pairs"] += len(ca) * len(cb)
                counts["mul_stored"] += len(ca) + len(cb)
                counts["mul_nonzero"] += len(ca) - ca.count(0) + len(cb) - cb.count(0)
            return mul(a, b)

        return counted

    hook("series.mul", QSeries, "__mul__", count_mul)
    hook("series.add", QSeries, "__add__")
    hook("series.inverse", QSeries, "inverse")
    hook("series.eq_upto", QSeries, "eq_upto")
    hook("series.eq_upto", ZLaurent, "eq_upto")

    # qobjects
    def count_partition_series(partition_series):
        def counted(order):
            tracer.partition_orders.add(str(order))
            return partition_series(order)

        return counted

    hook("qobjects.partition_series", qident, "partition_series", count_partition_series)
    hook("qobjects.poch_infinite", qident, "poch_infinite")
    hook("qobjects.qbinom_poly", qident, "qbinom_poly")
    hook("qobjects.poch_finite", qident, "poch_finite")
    hook("qobjects.poch_finite", qident, "poch_finite_scalar")

    # multisum: node, pruned and tuple counts are read from the caller's SumStats
    def count_multisum(eval_multisum):
        def counted(spec, order, stats=None):
            if stats is None:
                stats = qident.SumStats()
            before = (stats.nodes, stats.pruned, stats.tuples)
            try:
                return eval_multisum(spec, order, stats)
            finally:
                counts["nodes"] += stats.nodes - before[0]
                counts["pruned"] += stats.pruned - before[1]
                counts["tuples"] += stats.tuples - before[2]

        return counted

    hook("multisum.eval_multisum", qident, "eval_multisum", count_multisum)

    # products
    hook("products.eval_product_sum", qident, "eval_product_sum")

    # hfamily
    def count_stabilize(stabilized):
        def counted(*args, **kwargs):
            value, n = stabilized(*args, **kwargs)
            counts["stabilize_n"] += n
            return value, n

        return counted

    hook("hfamily.h_poly", qident, "h_poly")
    hook("hfamily.f_func", qident, "f_func")
    hook("hfamily.stabilize", qident, "stabilized_h_value", count_stabilize)
    hook("hfamily.stabilize", qident, "stabilized_f_value", count_stabilize)
    hook("hfamily.limit_side", qident, "h_limit_product")
    hook("hfamily.limit_side", qident, "f_limit_sum")

    # catalog: each verify call opens a new case index
    def count_verify(verify):
        def counted(case):
            tracer.case = len(tracer.case_labels)
            tracer.case_labels.append(f"{case.id} {dict(case.params)} order={case.order}")
            rep = verify(case)
            if rep.status == "error":
                counts["error_reports"] += 1
            return rep

        return counted

    hook("catalog.verify", qident, "verify", count_verify)

    # cli: the suite runner, traced only when it runs in this process
    hook("cli.main", cli, "main")


def layer_metrics(tracer: Tracer, suite_doc=None) -> dict:
    """Reduce the recorded spans and counts to the per-layer metrics."""
    n = len(tracer.names)
    calls, outer, self_s = [0] * n, [0.0] * n, [0.0] * n
    child = [0.0] * len(tracer.spans)
    for nid, t0, t1, parent, _case, outermost in tracer.spans:
        calls[nid] += 1
        if outermost:
            outer[nid] += t1 - t0
        if parent >= 0:
            child[parent] += t1 - t0
    for sid, (nid, t0, t1, _parent, _case, _outer) in enumerate(tracer.spans):
        self_s[nid] += (t1 - t0) - child[sid]

    def pick(values, name):
        return values[tracer.names.index(name)] if name in tracer.names else 0

    def layer_self(layer):
        return sum(s for name, s in zip(tracer.names, self_s) if name.startswith(layer + "."))

    c = tracer.counts
    ps_calls = pick(calls, "qobjects.partition_series")
    m = {
        "series.mul_calls": pick(calls, "series.mul"),
        "series.mul_s": pick(outer, "series.mul"),
        "series.mul_pairs": c["mul_pairs"],
        "series.mul_nonzero_frac": c["mul_nonzero"] / c["mul_stored"] if c["mul_stored"] else 0.0,
        "series.inverse_calls": pick(calls, "series.inverse"),
        "series.inverse_s": pick(outer, "series.inverse"),
        "series.add_calls": pick(calls, "series.add"),
        "series.add_s": pick(outer, "series.add"),
        "series.eq_upto_s": pick(outer, "series.eq_upto"),
        "series.self_s": layer_self("series"),
        "qobjects.partition_series_calls": ps_calls,
        "qobjects.partition_series_s": pick(outer, "qobjects.partition_series"),
        "qobjects.partition_series_hit_ratio": (
            1.0 - len(tracer.partition_orders) / ps_calls if ps_calls else 0.0
        ),
        "qobjects.poch_infinite_s": pick(outer, "qobjects.poch_infinite"),
        "qobjects.qbinom_poly_s": pick(outer, "qobjects.qbinom_poly"),
        "qobjects.poch_finite_s": pick(outer, "qobjects.poch_finite"),
        "qobjects.self_s": layer_self("qobjects"),
        "multisum.eval_calls": pick(calls, "multisum.eval_multisum"),
        "multisum.eval_s": pick(outer, "multisum.eval_multisum"),
        "multisum.self_s": layer_self("multisum"),
        "multisum.nodes": c["nodes"],
        "multisum.pruned": c["pruned"],
        "multisum.tuples": c["tuples"],
        "multisum.tuple_yield": c["tuples"] / c["nodes"] if c["nodes"] else 0.0,
        "products.eval_calls": pick(calls, "products.eval_product_sum"),
        "products.eval_s": pick(outer, "products.eval_product_sum"),
        "products.self_s": layer_self("products"),
        "hfamily.h_poly_calls": pick(calls, "hfamily.h_poly"),
        "hfamily.h_poly_s": pick(outer, "hfamily.h_poly"),
        "hfamily.f_func_s": pick(outer, "hfamily.f_func"),
        "hfamily.stabilize_s": pick(outer, "hfamily.stabilize"),
        "hfamily.stabilize_n": c["stabilize_n"],
        "hfamily.limit_side_s": pick(outer, "hfamily.limit_side"),
        "hfamily.self_s": layer_self("hfamily"),
        "catalog.verify_calls": pick(calls, "catalog.verify"),
        "catalog.verify_s": pick(outer, "catalog.verify"),
        "catalog.self_s": layer_self("catalog"),
        "catalog.error_reports": c["error_reports"],
        "cli.suite_s": pick(outer, "cli.main"),
        "cli.case_sum_s": 0.0,
        "cli.case_p50_ms": 0.0,
        "cli.case_max_s": 0.0,
    }
    if suite_doc is not None:
        ms = [row["elapsed_ms"] for row in suite_doc["cases"]]
        m["cli.case_sum_s"] = sum(ms) / 1000.0
        m["cli.case_p50_ms"] = statistics.median(ms)
        m["cli.case_max_s"] = max(ms) / 1000.0
    return m


def write_spans(tracer: Tracer, path) -> None:
    """Save every span, times relative to the first one, as one JSON document."""
    base = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        json.dump(
            {
                "fields": ["name", "start_s", "end_s", "parent", "case", "outermost"],
                "names": tracer.names,
                "cases": tracer.case_labels,
                "spans": [
                    [nid, round(t0 - base, 7), round(t1 - base, 7), parent, case, int(o)]
                    for nid, t0, t1, parent, case, o in tracer.spans
                ],
            },
            fh,
            separators=(",", ":"),
        )
