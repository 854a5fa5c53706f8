"""The package's public surface: one list of exports, each one resolving."""

import pathlib
import re
from types import ModuleType

import qident

# the 50 public names, in the order the package imports them
_EXPORTS = [
    "INF", "CompareResult", "HalfInt", "IllPosedError", "Mismatch", "NonInvertibleError", "Order",
    "OrderExceededError", "QidentError", "QSeries", "SpecError", "ZLaurent", "he", "qe",
    "Monomial", "binom", "euler_series", "partition_series", "poch_finite", "poch_finite_scalar",
    "poch_infinite", "qbinom_poly", "theta_triple_sum",
    "SummandSpec", "SumStats", "TailEven", "TailOdd", "TailOver", "TailOverOdd",
    "eval_multisum", "tail_min_num",
    "TripleProductSpec", "eval_product_sum",
    "FSpec", "HSpec", "f_func", "f_limit_sum", "h_limit_product", "h_poly", "stabilized_f_value",
    "stabilized_h_value",
    "EdgeSet", "IdentityCase", "VerificationReport", "edge_weight", "enumerate_edge_sets", "make_case",
    "registered_ids", "validate_case", "verify",
]


def test_all_lists_the_public_names_once_and_no_module():
    # every name resolves to an object that is not a submodule
    assert len(_EXPORTS) == 50
    assert qident.__all__ == _EXPORTS
    for name in qident.__all__:
        assert not isinstance(getattr(qident, name), ModuleType), name



def test_readme_states_the_export_count():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    stated = re.findall(r"`qident.__all__` lists the (\d+) exported names", readme)
    assert stated == [str(len(qident.__all__))]
