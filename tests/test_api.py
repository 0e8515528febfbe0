import importlib
import pkgutil

import strictqst
import strictqst.cli
import strictqst.estimators
import strictqst.experiments
from strictqst.measurement import PovmMap


def test_every_exported_name_resolves():
    modules = [strictqst] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(strictqst.__path__, "strictqst.")
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing name {name!r}"


def test_benchmark_wrapped_names_exist():
    # perfbench/spans.py looks these up with getattr and no default
    assert callable(PovmMap.operator_norm)
    assert callable(strictqst.measurement.map_matrix)
    assert callable(strictqst.measurement.hermitian_operator_basis)
    # it counts solves by rebinding each estimator function wherever a
    # strictqst module holds it by name, and by rewriting the CLI's method
    # table as (kind, fn) pairs; a solve reached any other way goes uncounted
    for name in ("estimate_least_squares", "estimate_trace_min", "estimate_max_likelihood"):
        assert getattr(strictqst.experiments, name) is getattr(strictqst.estimators, name)
    kinds = {}
    for kind, fn in strictqst.cli._METHODS.values():
        assert fn is getattr(strictqst.estimators, fn.__name__)
        kinds[kind] = fn.__name__
    assert kinds == {
        "least_squares": "estimate_least_squares",
        "trace_min": "estimate_trace_min",
        "max_likelihood": "estimate_max_likelihood",
        "feasibility": "feasibility",
    }
