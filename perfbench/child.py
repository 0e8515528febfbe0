"""One benchmark pass in a fresh process; run.py starts it.

    python3 perfbench/child.py --workload W --seed N --workdir DIR --mode pass|setup --trace 0|1

Set-up (timed as setup_s) is: import strictqst, build the workload's
inputs, one warm-up call.  In ``pass`` mode the workload's fixed work then
runs once, timed as wall_s, and its outputs are checked.  The child prints
one JSON line; it exits non-zero only when it cannot run at all.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

# infidelities below this floor reflect how far a noiseless solve was driven,
# not estimation quality; the floor keeps infid_gmean from following them
INFID_FLOOR = 1e-6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=["pass", "setup"], required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    workdir = Path(args.workdir)

    t0 = time.perf_counter()
    import strictqst

    origin = Path(strictqst.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"strictqst imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    import probes

    make_probe = probes.PROBES.get(args.workload)
    probe = make_probe() if make_probe else None
    out = {"setup_s": setup_s, "probe_s": [probes.probe_s(probe, 25)] if probe else []}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import numpy as np

    import spans

    # an untraced pass of a probed workload probes the core before every
    # operation and after the last one; a traced pass does not, as that time
    # would land in its spans
    op_probe = probe is not None and not args.trace
    recorder = spans.Recorder(trace=bool(args.trace),
                              probe=(lambda: probes.probe_s(probe, 5)) if op_probe else None)
    spans.instrument(recorder)
    run = recorder.span(wl.run, "bench.pass") if args.trace else wl.run
    failures = []
    t1 = time.perf_counter()
    try:
        run()
    except Exception as exc:  # a program error is a failed operation, not a crash
        failures.append(f"raised {exc!r}")
    wall_s = time.perf_counter() - t1
    if op_probe:  # a traced pass skips these: its spans would record the probes
        recorder.op_probe_s.append(probes.probe_s(probe, 5))
        out["probe_s"].append(probes.probe_s(probe, 25))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not failures:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        failures = wl.check(reference)
    infid = np.maximum(np.array(wl.infidelities, dtype=float), INFID_FLOOR)
    solves = recorder.solve_counts()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out.update(
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        failures=failures,
        solves=solves,
        kernel_calls=recorder.kernel_calls,
        op_s=recorder.op_seconds,
        op_probe_s=recorder.op_probe_s,
        probing_s=recorder.probing_s,
        raised=recorder.raised,
        infid_gmean=float(np.exp(np.log(infid).mean())) if infid.size else None,
        reference_view=getattr(wl, "reference_view", None),
        numpy=np.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
    )
    if args.trace:
        out["layers"] = recorder.layer_times()
        if args.spans_out:
            recorder.save(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
