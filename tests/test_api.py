import importlib
import pkgutil

import strictqst
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
