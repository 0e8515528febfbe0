"""strictqst benchmark.

    python3 perfbench/run.py --workload protocol|sweep|kernel|all \\
        --seed N --seconds S --trace 0|1

Workloads (perfbench/README.md says why each was chosen):

* protocol - finite-shot near-pure protocol through ``cli.main(["noisy"])``
* sweep    - noiseless onset sweep through ``run_completeness_sweep``
* kernel   - ``kernel_analysis`` on global basis unions

Every pass runs in a fresh process (perfbench/child.py) with the BLAS
thread pool fixed at BLAS_THREADS.  An untraced run repeats passes until
``--seconds`` have gone by, then adds set-up-only processes until it has
SETUP_SAMPLES set-up times, and reports medians.  A traced run makes an
untraced, a traced and another untraced pass and reports the per-layer
metrics of the traced one; its wall time minus the mean of the untraced
ones (less their probes) is the tracing overhead.

Output: a ``# env`` line (versions, BLAS threads, nproc, src line count), one
line per metric, and last a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output check failed
and 2 when the benchmark could not run (then no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("protocol", "sweep", "kernel")
BLAS_THREADS = 1
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run stops its passes and fails by then; runs must end within 180 s
# one run of each workload's speed probe (probes.py) takes this long on the
# reference machine when no other process slows its core (2-core x86_64 VM,
# numpy 2.4.6, OpenBLAS 0.3.31)
PROBE_REF_S = {"protocol": 0.0059}

ESTIMATOR_KINDS = ("least_squares", "trace_min", "max_likelihood")
STOP_REASONS = {
    "least_squares": ("projected_gradient", "max_iterations"),
    "trace_min": ("primal_dual_residual", "max_iterations"),
    "max_likelihood": ("support_stationarity", "backtracking_stalled", "max_iterations"),
}
MODULES = ("cli", "experiments", "estimators", "measurement", "linalg", "quantum")
SPAN_METRICS = {  # span name -> reported fields
    "measurement.projector_values": ("calls", "s"),
    "measurement.adjoint_projectors": ("calls", "s"),
    "measurement.operator_norm": ("calls", "s"),
    "measurement.map_matrix": ("s",),
    "measurement.kernel_analysis": ("calls", "s", "self_s"),
    "measurement.sample_record": ("s",),
    "measurement.noiseless_record": ("s",),
    "measurement.povm_from_bases": ("s",),
    "linalg.eigh": ("calls", "s"),
    "linalg.svd": ("calls", "s"),
    "linalg.eigvalsh": ("calls", "s"),
}
NO_SPANS = {"calls": 0, "s": 0.0, "self_s": 0.0}
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def environment() -> dict:
    """Stamp for every result: code identity, versions and machine."""
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
            if path.suffix == ".py":
                src_lines += sum(1 for line in data.decode().splitlines() if line.strip())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": src_lines,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_child(workload: str, seed: int, mode: str, trace: bool, workdir: Path,
              deadline: float, spans_out: Path | None = None) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--mode", mode, "--trace", str(int(trace))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{workload} {mode} process exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_counts(passes: list[dict]) -> tuple[int, int, int]:
    """(attempted, not converged, hard failures) summed over passes.  A hard
    failure is an operation that raised or a failed output check; a pass
    has at most as many as it attempted operations."""
    attempted = nonconverged = hard = 0
    for p in passes:
        solves = p["solves"]
        ops = sum(s["calls"] for s in solves.values()) + p["kernel_calls"] + p["raised"]
        attempted += ops
        nonconverged += sum(s["nonconverged"] for s in solves.values())
        hard += min(max(ops, 1), p["raised"] + len(p["failures"]))
    return max(attempted, 1), nonconverged, hard


def speed(workload: str, child: dict) -> float:
    """Factor that scales a process's times to the reference speed, from the
    probes after its set-up and after its pass; 1 if the workload has none."""
    if workload not in PROBE_REF_S:
        return 1.0
    return PROBE_REF_S[workload] / statistics.mean(child["probe_s"])


def unloaded_wall(workload: str, passes: list[dict]) -> float:
    """Wall time of one pass, each operation taken at its fastest pass.

    Every pass does the same work, so the i-th operation of each pass is the
    same solve.  Bursts from other processes spoil stretches of a pass; the
    operations in them are taken from another pass.  In a probed workload
    (probes.py) an operation's time is first scaled by the reference probe
    time over the mean of the two probes around it, and only passes whose
    two probes agree within 10% (no spell began or ended around it) count,
    unless none do.  The time outside operations, less the probes, is added
    at the median of its pass-level scaled values.
    """
    counts = {len(p["op_s"]) for p in passes}
    if len(counts) != 1:
        raise BenchError(f"passes made different numbers of operations: {sorted(counts)}")
    ref = PROBE_REF_S.get(workload)
    total = 0.0
    for i in range(counts.pop()):
        steady, every = [], []
        for p in passes:
            if ref is None:
                every.append(p["op_s"][i])
                continue
            before, after = p["op_probe_s"][i], p["op_probe_s"][i + 1]
            scaled = p["op_s"][i] * 2.0 * ref / (before + after)
            every.append(scaled)
            if max(before, after) <= 1.1 * min(before, after):
                steady.append(scaled)
        total += min(steady or every)
    outside = [(p["wall_s"] - sum(p["op_s"]) - p["probing_s"]) * speed(workload, p) for p in passes]
    return total + statistics.median(outside)


def untraced_run(workload: str, seed: int, seconds: float, workdir: Path, deadline: float) -> dict:
    start = time.monotonic()
    passes = []
    while True:
        passes.append(run_child(workload, seed, "pass", False, workdir, deadline))
        if time.monotonic() - start >= seconds:
            break
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "setup", False, workdir, deadline))
    attempted, nonconverged, hard = op_counts(passes)
    infid = passes[0]["infid_gmean"]
    metrics = {
        "setup_s": (statistics.median(c["setup_s"] * speed(workload, c) for c in setups), "s"),
        "wall_s": (unloaded_wall(workload, passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        # kernel makes no estimates: 1 is the neutral value there
        "infid_gmean": (1.0 if infid is None else infid, "1"),
        "ok_frac": (1.0 - (nonconverged + hard) / attempted, "1"),
    }
    return {"passes": passes, "setup_samples": setups[len(passes):], "metrics": metrics,
            "attempted": attempted, "failed": hard,
            "correct": all(not p["failures"] for p in passes)}


def traced_run(workload: str, seed: int, workdir: Path, deadline: float) -> dict:
    """Untraced, traced, untraced pass: per-layer metrics of the traced one,
    tracing overhead against the mean of the two untraced ones (their wall
    times less their probes)."""
    spans_out = OUT / f"spans-{workload}-seed{seed}.npz"
    before = run_child(workload, seed, "pass", False, workdir, deadline)
    traced = run_child(workload, seed, "pass", True, workdir, deadline, spans_out)
    after = run_child(workload, seed, "pass", False, workdir, deadline)
    layers = traced["layers"]
    by_name = layers["by_name"]
    wall = traced["wall_s"]
    untraced_wall = statistics.mean(p["wall_s"] - p["probing_s"] for p in (before, after))
    attempted, nonconverged, hard = op_counts([traced])
    m = {}
    for kind in ESTIMATOR_KINDS:
        c = traced["solves"][kind]
        seconds = by_name.get(f"estimators.{kind}", NO_SPANS)["s"]
        m[f"estimators.{kind}.calls"] = (c["calls"], "count")
        m[f"estimators.{kind}.s"] = (seconds, "s")
        m[f"estimators.{kind}.iters"] = (c["iters"], "count")
        m[f"estimators.{kind}.us_per_iter"] = (1e6 * seconds / c["iters"] if c["iters"] else 0.0, "us")
        m[f"estimators.{kind}.nonconverged"] = (c["nonconverged"], "count")
        for reason in STOP_REASONS[kind]:
            m[f"estimators.{kind}.stop.{reason}"] = (c["stops"].get(reason, 0), "count")
        other = sum(n for reason, n in c["stops"].items() if reason not in STOP_REASONS[kind])
        m[f"estimators.{kind}.stop.other"] = (other, "count")
    for name, fields in SPAN_METRICS.items():
        row = by_name.get(name, NO_SPANS)
        for field in fields:
            m[f"{name}.{field}"] = (row[field], FIELD_UNITS[field])
    for mod in MODULES:
        row = layers["by_module"].get(mod, NO_SPANS)
        m[f"{mod}.s"] = (row["s"], "s")
        m[f"{mod}.self_s"] = (row["self_s"], "s")
    m["bench.self_s"] = (layers["by_module"].get("bench", NO_SPANS)["self_s"], "s")
    m["layers.self_sum_frac"] = (sum(m[f"{mod}.self_s"][0] for mod in MODULES) / wall, "1")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    m["trace.spans"] = (layers["spans"], "count")
    m["ops.nonconverged"] = (nonconverged, "count")
    m["fail_frac"] = ((nonconverged + hard) / attempted, "1")
    passes = [before, traced, after]
    return {"passes": passes, "metrics": m, "attempted": attempted, "failed": hard,
            "correct": all(not p["failures"] for p in passes)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        if trace:
            return traced_run(workload, seed, workdir, deadline)
        return untraced_run(workload, seed, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "strictqst" / "__init__.py").is_file():
        print(f"no strictqst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            # with "all", each workload gets its own deadline
            wl_deadline = deadline if len(names) == 1 else time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), wl_deadline)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    first = next(iter(results.values()))["passes"][0]
    env.update(numpy=first["numpy"], blas=first["blas"])
    print("# env " + json.dumps(env))
    for name, res in results.items():
        detail = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        detail.write_text(json.dumps({"env": env, "args": vars(args), **res}, indent=1) + "\n")
        for metric, (value, unit) in res["metrics"].items():
            print(f"# {name} {metric} = {value:.6g} {unit}")
        for failure in sorted({f for p in res["passes"] for f in p["failures"]}):
            print(f"# {name} CHECK FAILED: {failure}")
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, r in results.items()
            for metric, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
