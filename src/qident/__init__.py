"""Exact q-series verification of a family of sum--product identities.

Everything is integer arithmetic on a half-exponent grid: series carry
a truncation order and comparisons certify equality of every
coefficient strictly below the order actually reached.

`import qident` loads the kernel, the q-objects and the registry core;
an engine or an identity family is imported on its first use.
"""

from importlib import import_module as _import_module

from .series import (
    INF,
    CompareResult,
    HalfInt,
    IllPosedError,
    Mismatch,
    NonInvertibleError,
    Order,
    OrderExceededError,
    QidentError,
    QSeries,
    SpecError,
    SumStats,
    he,
    qe,
)
from .qobjects import (
    Monomial,
    binom,
    euler_series,
    partition_series,
    poch_finite,
    poch_finite_scalar,
    poch_infinite,
    theta_triple_sum,
)
from .catalog import (
    IdentityCase,
    VerificationReport,
    make_case,
    registered_ids,
    validate_case,
    verify,
)

__version__ = "0.1.0"

# the exports of the engines, of the finite-n z-polynomials and of the
# finite-n family: each module is imported when one of its names is first
# read (PEP 562), and the name is then bound here
_LAZY = {
    name: module
    for module, names in (
        ("multisum", "SummandSpec TailEven TailOdd TailOver TailOverOdd eval_multisum tail_min_num"),
        ("products", "TripleProductSpec eval_product_sum"),
        ("hfamily", "f_limit_sum h_limit_product stabilized_f_value stabilized_h_value"),
        ("zpoly", "ZLaurent FSpec HSpec f_func h_poly qbinom_poly"),
        ("finite", "EdgeSet edge_weight enumerate_edge_sets"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


__all__ = [
    "INF", "CompareResult", "HalfInt", "IllPosedError", "Mismatch", "NonInvertibleError", "Order",
    "OrderExceededError", "QidentError", "QSeries", "SpecError", "ZLaurent", "he", "qe",
    "Monomial", "binom", "euler_series", "partition_series", "poch_finite", "poch_finite_scalar",
    "poch_infinite", "qbinom_poly", "theta_triple_sum",
    "SummandSpec", "SumStats", "TailEven", "TailOdd", "TailOver", "TailOverOdd", "eval_multisum", "tail_min_num",
    "TripleProductSpec", "eval_product_sum",
    "FSpec", "HSpec", "f_func", "f_limit_sum", "h_limit_product", "h_poly", "stabilized_f_value",
    "stabilized_h_value",
    "EdgeSet", "IdentityCase", "VerificationReport", "edge_weight", "enumerate_edge_sets", "make_case",
    "registered_ids", "validate_case", "verify",
]
