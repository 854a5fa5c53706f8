"""Exact q-series verification of a family of sum--product identities.

Everything is integer arithmetic on a half-exponent grid: series carry
a truncation order and comparisons certify equality of every
coefficient strictly below the order actually reached.
"""

from types import ModuleType as _ModuleType

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
    ZLaurent,
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
    qbinom_poly,
    theta_triple_sum,
)
from .multisum import (
    SummandSpec,
    SumStats,
    TailEven,
    TailOdd,
    TailOver,
    TailOverOdd,
    eval_multisum,
    tail_min_num,
)
from .products import (
    TripleProductSpec,
    eval_product_sum,
)
from .hfamily import (
    FSpec,
    HSpec,
    f_func,
    f_limit_sum,
    h_limit_product,
    h_poly,
    stabilized_f_value,
    stabilized_h_value,
)
from .catalog import (
    EdgeSet,
    IdentityCase,
    VerificationReport,
    edge_weight,
    enumerate_edge_sets,
    make_case,
    registered_ids,
    validate_case,
    verify,
)

__version__ = "0.1.0"

# the public names are the ones imported above; the submodules that the
# imports bind as attributes are not exports
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]
