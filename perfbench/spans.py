"""Boundary wrappers for the benchmark: solve counters and traced spans.

Nothing inside ``src/`` is changed.  ``instrument`` rebinds the public
functions of each strictqst layer, in every module that imported them, to
wrappers from this file:

* always: the operations (estimator entry points and ``kernel_analysis``),
  to record each one's wall time and each solve's iterations, convergence
  and stop reason (the untraced run needs these for wall_s and ok_frac);
* with tracing on: every layer boundary, recording one span per call.

A span is (name, start, end, parent span, operation id).  An operation is
one estimator solve or one ``kernel_analysis`` call; spans opened inside it
carry its id, all others carry -1.  Spans are kept in flat in-memory arrays
and written out once, by ``Recorder.save``, after the timed work.
"""

from __future__ import annotations

import array
import functools
import sys
import time
from collections import Counter

import numpy as np

import strictqst
import strictqst.cli
import strictqst.estimators
import strictqst.experiments
import strictqst.measurement
import strictqst.quantum

# module-level function boundaries: (module, attribute, span name)
_FUNCTIONS = [
    (strictqst.cli, "main", "cli.main"),
    (strictqst.experiments, "run_completeness_sweep", "experiments.run_completeness_sweep"),
    (strictqst.experiments, "run_noisy_protocol", "experiments.run_noisy_protocol"),
    (strictqst.experiments, "run_robustness_scan", "experiments.run_robustness_scan"),
    (strictqst.measurement, "povm_from_bases", "measurement.povm_from_bases"),
    (strictqst.measurement, "noiseless_record", "measurement.noiseless_record"),
    (strictqst.measurement, "sample_record", "measurement.sample_record"),
    (strictqst.measurement, "map_matrix", "measurement.map_matrix"),
    (strictqst.measurement, "hermitian_operator_basis", "measurement.hermitian_operator_basis"),
    (strictqst.quantum, "haar_random_unitary", "quantum.haar_random_unitary"),
    (strictqst.quantum, "random_pure_state", "quantum.random_pure_state"),
    (strictqst.quantum, "random_rank_r_state", "quantum.random_rank_r_state"),
    (strictqst.quantum, "random_full_rank_state", "quantum.random_full_rank_state"),
    (strictqst.quantum, "global_random_bases", "quantum.global_random_bases"),
    (strictqst.quantum, "local_random_bases", "quantum.local_random_bases"),
    (strictqst.quantum, "fidelity", "quantum.fidelity"),
    (strictqst.quantum, "infidelity", "quantum.infidelity"),
    (np.linalg, "eigh", "linalg.eigh"),
    (np.linalg, "eigvalsh", "linalg.eigvalsh"),
    (np.linalg, "svd", "linalg.svd"),
]

# method boundaries: (class, attribute, span name)
_METHODS = [
    (strictqst.measurement.PovmMap, "projector_values", "measurement.projector_values"),
    (strictqst.measurement.PovmMap, "adjoint_projectors", "measurement.adjoint_projectors"),
    (strictqst.measurement.PovmMap, "operator_norm", "measurement.operator_norm"),
    (strictqst.quantum.StateModel, "realize", "quantum.realize"),
]

# operation boundaries: (module, attribute, span name, estimator kind or None)
_OPERATIONS = [
    (strictqst.estimators, "estimate_least_squares", "estimators.least_squares", "least_squares"),
    (strictqst.estimators, "estimate_trace_min", "estimators.trace_min", "trace_min"),
    (strictqst.estimators, "estimate_max_likelihood", "estimators.max_likelihood", "max_likelihood"),
    (strictqst.measurement, "kernel_analysis", "measurement.kernel_analysis", None),
]

ESTIMATOR_KINDS = ("least_squares", "trace_min", "max_likelihood")


class Recorder:
    """Solve log plus, when tracing, the span arrays of one process."""

    def __init__(self, trace: bool, probe=None):
        self.trace = trace
        self.probe = probe  # timed before each operation when given
        self.solves: list[tuple[str, int, bool, str]] = []  # kind, iterations, converged, stop
        self.raised = 0
        self.kernel_calls = 0
        self.op_seconds: list[float] = []  # wall time of each operation, in call order
        self.op_probe_s: list[float] = []  # probe() before each operation
        self.probing_s = 0.0  # time spent in probe()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self._stack: list[int] = []
        self._op = -1
        self._next_op = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, fn, name: str, new_op: bool = False):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            outer_op = self._op
            if new_op:
                self._op = self._next_op
                self._next_op += 1
            self.op.append(self._op)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self._op = outer_op
                self.start[idx] = t0
                self.end[idx] = t1

        return wrapper

    def operation(self, fn, kind: str | None):
        """Time each solve (kind set) or kernel analysis and count its outcome."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.probe is not None:
                t = time.perf_counter()
                self.op_probe_s.append(self.probe())
                self.probing_s += time.perf_counter() - t
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised += 1
                raise
            finally:
                self.op_seconds.append(time.perf_counter() - t0)
            if kind is None:
                self.kernel_calls += 1
            else:
                self.solves.append((kind, result.iterations, result.converged, result.stop_reason))
            return result

        return wrapper

    # ------------------------------------------------------------------
    # results

    def solve_counts(self) -> dict:
        out = {}
        for kind in ESTIMATOR_KINDS:
            rows = [s for s in self.solves if s[0] == kind]
            out[kind] = {
                "calls": len(rows),
                "iters": sum(s[1] for s in rows),
                "nonconverged": sum(1 for s in rows if not s[2]),
                "stops": dict(Counter(s[3] for s in rows)),
            }
        return out

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, dur, dur - child, parent

    def layer_times(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; per
        module: self seconds and inclusive seconds of its outermost spans."""
        name, dur, self_t, parent = self._arrays()
        by_name = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            by_name[label] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        module_ids = {m: i for i, m in enumerate(sorted({n.split(".", 1)[0] for n in self.names}))}
        module_of_name = np.array([module_ids[n.split(".", 1)[0]] for n in self.names], dtype=int)
        span_module = module_of_name[name] if len(name) else np.zeros(0, dtype=int)
        parent_module = np.where(parent >= 0, span_module[np.maximum(parent, 0)], -1)
        by_module = {}
        for mod, mid in module_ids.items():
            sel = span_module == mid
            outer = sel & (parent_module != mid)
            by_module[mod] = {"self_s": float(self_t[sel].sum()), "s": float(dur[outer].sum())}
        return {"by_name": by_name, "by_module": by_module, "spans": int(len(name))}

    def save(self, path) -> None:
        """Write every span as parallel arrays (one .npz file)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def _rebind(original, wrapper) -> None:
    """Point every strictqst-module (and numpy.linalg) binding of original
    at wrapper, so calls through any import path go through it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "strictqst" or mod_name.startswith("strictqst.")
                               or mod_name == "numpy.linalg"):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)
    methods = strictqst.cli._METHODS
    for key, (kind, fn) in list(methods.items()):
        if fn is original:
            methods[key] = (kind, wrapper)


def instrument(recorder: Recorder) -> None:
    """Install the solve counters and, if tracing, the span wrappers."""
    for mod, attr, name, kind in _OPERATIONS:
        original = getattr(mod, attr)
        wrapped = recorder.operation(original, kind)
        if recorder.trace:
            wrapped = recorder.span(wrapped, name, new_op=True)
        _rebind(original, wrapped)
    if not recorder.trace:
        return
    for mod, attr, name in _FUNCTIONS:
        original = getattr(mod, attr)
        _rebind(original, recorder.span(original, name))
    for cls, attr, name in _METHODS:
        setattr(cls, attr, recorder.span(getattr(cls, attr), name))
