"""The package's public surface: one list of exports, each one resolving,
the records' value semantics, and what `import qident` loads."""

import json
import os
import pathlib
import pickle
import re
import subprocess
import sys
from types import ModuleType

import pytest

import qident
from qident import (
    INF,
    CompareResult,
    EdgeSet,
    FSpec,
    HalfInt,
    HSpec,
    IdentityCase,
    Mismatch,
    Monomial,
    SummandSpec,
    SumStats,
    TailEven,
    TailOdd,
    TailOver,
    TailOverOdd,
    TripleProductSpec,
    VerificationReport,
    catalog,
    finite,
    he,
    qe,
    sums,
)

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


def _fresh(code: str) -> object:
    """What `code`, run in a fresh interpreter on this package, prints as JSON."""
    src = str(pathlib.Path(qident.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_importing_qident_loads_no_dataclasses():
    # every fresh interpreter imports the package: `dataclasses` and what it
    # pulls in (inspect, ast, dis, tokenize) would be about a third of that
    assert _fresh("import json, sys, qident; print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))") == []


_LOADED = "sorted(m[7:] for m in sys.modules if m.startswith('qident.'))"


def test_importing_qident_compiles_no_family_and_no_engine():
    # the package, the kernel, the q-objects and the registry core; an
    # export of an engine loads that engine and is then bound in the package
    assert _fresh(f"import json, sys, qident; print(json.dumps({_LOADED}))") == ["catalog", "qobjects", "series"]
    code = (f"import json, sys, qident; before = 'h_poly' in vars(qident); qident.h_poly; "
            f"print(json.dumps([before, 'h_poly' in vars(qident), {_LOADED}]))")
    assert _fresh(code) == [False, True, ["catalog", "qobjects", "series", "zpoly"]]


@pytest.mark.parametrize("id, params, loaded", [
    ("H_LIMIT", {"a": "3/2"}, ["catalog", "hfamily", "limits", "products", "qobjects", "series"]),
    ("AG", {"k": 1, "r": 0}, ["catalog", "multisum", "products", "qobjects", "series", "sums"]),
    ("KEY_LEMMA", {"n": 4, "a": 2},
     ["catalog", "finite", "multisum", "products", "qobjects", "series", "sums", "zpoly"]),
])
def test_validating_a_case_loads_its_family_and_the_engines_it_needs(id, params, loaded):
    # and running the case then imports nothing more; only the finite-n
    # family compiles the z-polynomials
    assert ("zpoly" in loaded) == (id == "KEY_LEMMA")
    code = (
        f"import json, sys, qident\n"
        f"case = qident.make_case({id!r}, order=20, **{params!r})\n"
        f"qident.validate_case(case)\n"
        f"before = {_LOADED}\n"
        f"print(json.dumps([before, qident.verify(case).status, {_LOADED}]))\n"
    )
    assert _fresh(code) == [loaded, "pass", loaded]


def test_each_id_is_registered_by_the_module_the_table_names():
    code = (
        "import json, qident\n"
        "from importlib import import_module\n"
        "from qident import catalog\n"
        "for module in set(catalog._FAMILIES.values()):\n"
        "    import_module('qident.' + module)\n"
        "owners = {id: getattr(e.runner, 'func', e.runner).__module__ for id, e in catalog._REGISTRY.items()}\n"
        "print(json.dumps([owners, catalog._FAMILIES, list(qident.registered_ids())]))\n"
    )
    owners, families, ids = _fresh(code)
    assert set(owners) == set(ids) == set(families) and len(ids) == 29
    assert owners == {id: "qident." + module for id, module in families.items()}


def test_verify_reads_its_clock_only_once_the_family_is_loaded():
    # a spy on the clock that verify reads: a module's first import (its
    # compile) must not land inside a case's elapsed time, so both reads of
    # each case see its family loaded and the same package modules; one id
    # per family, and NEG_AG, whose factor route reaches poch_infinite's
    # general branch
    code = (
        "import json, sys, time, types, qident\n"
        "from qident import catalog\n"
        "reads = []\n"
        "def clock():\n"
        "    reads[-1].append(sorted(m[7:] for m in sys.modules if m.startswith('qident.')))\n"
        "    return time.perf_counter()\n"
        "catalog.time = types.SimpleNamespace(perf_counter=clock)\n"
        "out = []\n"
        "for id, params in [('H_LIMIT', {'a': '3/2'}), ('AG', {'k': 1, 'r': 0}), ('KEY_LEMMA', {'n': 4, 'a': 2}),\n"
        "                   ('NEG_AG', {'k': 1, 'r': 0})]:\n"
        "    reads.append([])\n"
        "    out.append([id, qident.verify(qident.make_case(id, order=20, **params)).status])\n"
        "print(json.dumps([out, reads]))\n"
    )
    out, reads = _fresh(code)
    assert out == [["H_LIMIT", "pass"], ["AG", "pass"], ["KEY_LEMMA", "pass"], ["NEG_AG", "fail"]]
    for (id, _), family, case_reads in zip(out, ("limits", "sums", "finite", "sums"), reads):
        assert len(case_reads) == 2 and case_reads[0] == case_reads[1] and family in case_reads[0], (id, case_reads)


_Z = Monomial(1, he(2))

# each record type: a builder of equal fresh instances, and for the types
# that are hashed (set members, cache keys) one instance that differs
_RECORDS = {
    "HalfInt": (lambda: HalfInt(3), HalfInt(5)),
    "Mismatch": (lambda: Mismatch(he(3), 1, 2), None),
    "CompareResult": (lambda: CompareResult(False, he(4), Mismatch(he(3), 1, 2, -1)), None),
    "Monomial": (lambda: Monomial(-1, 1), Monomial(1, qe(1))),
    "TripleProductSpec": (lambda: TripleProductSpec(3, Monomial(-1, 1), Monomial(-1, 2)),
                          TripleProductSpec(3, Monomial(-1, 1), Monomial(-1, 2), 2)),
    "HSpec": (lambda: HSpec(2, 3), None),
    "FSpec": (lambda: FSpec(2, 1, he(3)), None),
    "TailOdd": (TailOdd, TailEven()),
    "TailEven": (TailEven, TailOdd()),
    "TailOver": (lambda: TailOver(_Z), TailOver(_Z.inverted())),
    "TailOverOdd": (lambda: TailOverOdd(Monomial(1, he(0))), TailOverOdd(Monomial(1, he(-2)))),
    "SummandSpec": (lambda: SummandSpec(2, [1, 0], {1}, TailOver(_Z)), SummandSpec(2, (1, 0), {1})),
    "SumStats": (lambda: SumStats(1, 2, 3), None),
    "IdentityCase": (lambda: IdentityCase("AG", {"k": 1, "r": 0}, 30), None),
    "VerificationReport": (lambda: VerificationReport(IdentityCase("AG"), "pass", he(40), None, 0.5, 1, 2, 3), None),
    "Check": (lambda: catalog.Check("label", 1, 2), None),
    "_Entry": (lambda: catalog._REGISTRY["AG"]._replace(), None),
    "_SumRow": (lambda: sums._SUM_ROWS["AG"]._replace(), None),
    "_Expansion": (lambda: finite._EXPANSIONS["KEY_LEMMA"]._replace(), None),
    "EdgeSet": (lambda: EdgeSet([1, 3]), None),
}
_SETTABLE = {"SumStats", "VerificationReport"}


@pytest.mark.parametrize("name", _RECORDS)
def test_records_compare_by_value_and_refuse_assignment_unless_settable(name):
    build, other = _RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    assert a == b and not (a != b)
    assert a._replace() == a
    for field in a.__slots__:
        if name in _SETTABLE:
            setattr(a, field, getattr(b, field))
        else:
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(b, field))
            with pytest.raises(AttributeError):
                delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    assert a == b
    if not callable(getattr(a, "prepare", None)):  # the catalog's rows hold lambdas
        assert pickle.loads(pickle.dumps(a)) == a
    if other is not None:
        assert hash(a) == hash(b) and len({a, b, other}) == 2
        assert a != other and other != a


def test_an_integral_half_int_hashes_as_its_int():
    # HalfInt(2k) == k, so the two must hash alike: a set or dict holding
    # one finds the other
    for k in (-3, 0, 1, 7, 10**20):
        assert qe(k) == k and hash(qe(k)) == hash(k)
        assert k in {qe(k)} and qe(k) in {k} and {k: 1}[qe(k)] == 1
    for num in (-3, 1, 5):
        assert he(num) != num // 2 and he(num) not in {num // 2, (num + 1) // 2}
        assert hash(he(num)) == hash(HalfInt(num)) and he(num) in {HalfInt(num)}


def test_inf_stays_the_one_sentinel_through_pickle():
    # every `order is INF` test, cli._half_token's among them, relies on this
    assert pickle.loads(pickle.dumps(INF)) is INF
    rep = VerificationReport(IdentityCase("AG"), "pass", INF, None, 0.5, 1, 2, 3)
    back = pickle.loads(pickle.dumps(rep))
    assert back.compared_order is INF and back == rep


def test_record_repr_and_replace_read_as_the_dataclasses_did():
    assert repr(TailOver(Monomial(1, he(2)))) == "TailOver(z=Monomial(sign=1, q_exp=HalfInt(2)))"
    assert repr(Mismatch(he(10), 2, 3)) == "Mismatch(exp=HalfInt(10), lhs=2, rhs=3, z_exp=None)"
    assert repr(SumStats()) == "SumStats(tuples=0, nodes=0, pruned=0)"
    # a copy goes through __init__, so its checks and coercions still apply
    spec = TripleProductSpec(3, Monomial(-1, 1), Monomial(-1, 2))
    assert spec._replace(modulus_exp=4).modulus_exp == qe(4)
    with pytest.raises(qident.IllPosedError):
        spec._replace(modulus_exp=0)
    with pytest.raises(TypeError, match="no field weights"):
        spec._replace(weights=2)
