"""Time the north-star layers of strictqst, one BLAS thread, at several d.

For each dimension d, on a union of k global random bases and the
noiseless record of a random pure state (both drawn from --seed), print
one markdown table row per layer, one column per d:

* psd_clip            one anchored least-squares clip with its factor
                      (one eigh), of the step from the solve's estimate
* projector_values    the image of that estimate (k*d values)
* adjoint_projectors  the adjoint of its residual (a d x d matrix)
* LS step             one least-squares gradient step: the time of a full
                      solve over its iterations
* LS solve            one full least-squares solve (noiseless records run
                      gradient steps alone), its iterations in brackets

The three single calls take the fastest of --repeat timeit runs of at
least 0.2 s each; the solve takes its fastest of --repeat solves.  The
BLAS thread count is fixed at 1 before numpy is imported.

    python tools/layer_times.py [--dims 11 16 32 64] [--bases 5] [--seed 0] [--repeat 3]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strictqst import (  # noqa: E402
    estimate_least_squares,
    global_random_bases,
    noiseless_record,
    povm_from_bases,
    random_pure_state,
)
from strictqst.linalg import psd_clip  # noqa: E402


def best_call_us(fn, repeat: int) -> float:
    """Fastest time of one call to fn, in us."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return 1e6 * min(timer.repeat(repeat, number)) / number


def layer_row(d: int, k: int, seed: int, repeat: int) -> dict[str, str]:
    """The cells of one dimension's column, keyed by layer."""
    rng = np.random.default_rng(seed)
    state = random_pure_state(d, rng)
    povm = povm_from_bases(global_random_bases(d, k, rng))
    record = noiseless_record(povm, state)
    solves = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        est = estimate_least_squares(povm, record)
        solves.append(time.perf_counter() - t0)
    lip0 = povm.traceless_lipschitz
    weight = (k / lip0 - 1.0) / d  # the least-squares anchor (see estimators._least_squares)
    p = est.X_hat
    res = povm.projector_values(p) - record.values
    h = p - povm.adjoint_projectors(res) / lip0
    trace = np.trace(p).real
    cells = {
        "psd_clip": best_call_us(lambda: psd_clip(h, trace, weight, True), repeat),
        "projector_values": best_call_us(lambda: povm.projector_values(p), repeat),
        "adjoint_projectors": best_call_us(lambda: povm.adjoint_projectors(res), repeat),
    }
    out = {name: f"{us:.1f} µs" for name, us in cells.items()}
    out["LS step"] = f"{1e6 * min(solves) / est.iterations:.0f} µs"
    out["LS solve"] = f"{1e3 * min(solves):.0f} ms ({est.iterations})"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[11, 16, 32, 64])
    parser.add_argument("--bases", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    columns = {d: layer_row(d, args.bases, args.seed, args.repeat) for d in args.dims}
    print(f"k = {args.bases} bases, seed {args.seed}, numpy {np.__version__}, one BLAS thread")
    print("| layer | " + " | ".join(f"d={d}" for d in args.dims) + " |")
    print("|---|" + "---|" * len(args.dims))
    for name in next(iter(columns.values())):
        print(f"| {name} | " + " | ".join(columns[d][name] for d in args.dims) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
