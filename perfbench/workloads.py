"""The three workloads: inputs, warm-up call, timed work and output checks.

Each workload is built from the benchmark seed and a work directory, then
``warm_up()`` runs once, ``run()`` is the timed work and ``check()``
validates the outputs afterwards.  ``check`` returns the list of failed
checks, each one a string; the infidelities of every estimate are left in
``self.infidelities``.

protocol and sweep run one fixed instance: the seed of the bundled desk
config of the same experiment.  Their solvers' iteration counts swing by
4x between random instances, and whether a maximum-likelihood solve stalls
or runs to its iteration cap flips with last-bit rounding, so a run that
drew its instance from the seed could not average enough instances within
its time to be steady.  The kernel workload's cost does not depend on its
inputs, so its bases and probes are drawn from the seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import strictqst
import strictqst.cli

PROTOCOL_DIM = 11
PROTOCOL_SEED = 11  # seed of the bundled protocol_desk config
SWEEP_DIM = 32
SWEEP_SEED = 7  # seed of the bundled onset_desk config
SWEEP_STATES = 4
SWEEP_THRESHOLD = 1e-5
PAPER_RANK1_ONSET = 6  # the acceptance suite's rank-1 onset; the band is +-1
KERNEL_DIM = 32
KERNEL_BASES = range(2, 9)
KERNEL_PROBES = 64

# protocol outputs at the fixed instance may drift this much from the
# reference (geometric mean over k = 6..10, where every estimator's program
# has a unique solution) before the check fails
PROTOCOL_REF_FACTOR = 1.25


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _gmean(values) -> float:
    return float(math.exp(np.mean(np.log(values))))


class Protocol:
    """Finite-shot near-pure protocol through ``strictqst.cli.main(["noisy"])``:
    one target at d=11, global bases k=1..10, all three estimators."""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.config = _write_json(
            workdir / "protocol.json",
            {
                "experiment": "noisy",
                "dim": PROTOCOL_DIM,
                "basis_type": "global",
                "n_targets": 1,
                "mixing": 0.001,
                "min_bases": 1,
                "max_bases": 10,
                "seed": PROTOCOL_SEED,
            },
        )
        self.out_dir = workdir / "protocol_out"
        self.infidelities: list[float] = []
        self.exit_code = None

    def warm_up(self) -> None:
        tiny = _write_json(
            self.workdir / "warm.json",
            {"experiment": "noisy", "dim": 3, "n_targets": 1, "max_bases": 2,
             "estimators": ["least_squares", "trace_min"], "seed": 0},
        )
        code = strictqst.cli.main(
            ["noisy", "--config", str(tiny), "--out-dir", str(self.workdir / "warm_out"), "--jobs", "1"]
        )
        if code != 0:
            raise RuntimeError(f"warm-up noisy run exited {code}")

    def run(self) -> None:
        self.exit_code = strictqst.cli.main(
            ["noisy", "--config", str(self.config), "--out-dir", str(self.out_dir), "--jobs", "1"]
        )

    def check(self, reference: dict) -> list[str]:
        if self.exit_code != 0:
            return [f"noisy exited {self.exit_code}"]
        doc = json.loads((self.out_dir / "protocol_result.json").read_text())
        ks = doc["basis_counts"]
        failures = []
        summary = {}
        for est, rows in doc["infidelities"].items():
            vals = np.array(rows, dtype=float)
            self.infidelities.extend(vals.ravel().tolist())
            if not (np.all(np.isfinite(vals)) and vals.min() >= 0.0 and vals.max() <= 1.0):
                failures.append(f"{est}: infidelity outside [0, 1]")
                continue
            means = vals.mean(axis=1)
            if not means[ks.index(10)] < means[ks.index(1)]:
                failures.append(f"{est}: mean infidelity at k=10 not below k=1")
            summary[est] = _gmean(np.maximum(vals[ks.index(6):], 1e-300))
        for est, want in reference["gmean_k6_10"].items():
            got = summary.get(est)
            if got is None or abs(math.log(got / want)) > math.log(PROTOCOL_REF_FACTOR):
                failures.append(f"{est}: k=6..10 infidelity {got} vs reference {want}")
        self.reference_view = {"gmean_k6_10": summary}
        return failures


class Sweep:
    """Noiseless rank-1 onset sweep through ``run_completeness_sweep``:
    one d=32 cell of 4 states, global bases, threshold 1e-5, max 16 bases."""

    def __init__(self, seed: int, workdir: Path):
        self.config = strictqst.SweepConfig(
            dims=(SWEEP_DIM,),
            ranks=(1,),
            basis_type="global",
            states_per_cell=SWEEP_STATES,
            infidelity_threshold=SWEEP_THRESHOLD,
            max_bases=16,
            seed=SWEEP_SEED,
            jobs=1,
        )
        self.result = None
        self.infidelities: list[float] = []

    def warm_up(self) -> None:
        strictqst.run_completeness_sweep(
            strictqst.SweepConfig(dims=(3,), states_per_cell=1, max_bases=4, seed=0)
        )

    def run(self) -> None:
        self.result = strictqst.run_completeness_sweep(self.config)

    def check(self, reference: dict) -> list[str]:
        failures = []
        onsets = []
        for cell in self.result.cells:
            self.infidelities.extend(cell.errors.ravel().tolist())
            onset = cell.onset
            onsets.append(onset)
            if onset is None or abs(onset - PAPER_RANK1_ONSET) > 1:
                failures.append(f"d={cell.dim}: onset {onset} outside {PAPER_RANK1_ONSET} +- 1")
            elif not np.all(cell.errors[onset - 1] <= SWEEP_THRESHOLD):
                failures.append(f"d={cell.dim}: a state at the onset is above the threshold")
        if onsets != reference["onsets"]:
            failures.append(f"onsets {onsets} vs reference {reference['onsets']}")
        self.reference_view = {"onsets": onsets}
        return failures


class Kernel:
    """``kernel_analysis`` (r=1) on global unions of k=2..8 bases at d=32,
    with bases and probes drawn from the seed."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        bases = strictqst.global_random_bases(KERNEL_DIM, max(KERNEL_BASES), rng)
        self.povms = [strictqst.povm_from_bases(bases.prefix(k)) for k in KERNEL_BASES]
        self.reports = []
        self.infidelities: list[float] = []

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        povm = strictqst.povm_from_bases(strictqst.global_random_bases(3, 2, rng))
        strictqst.kernel_analysis(povm, 1, 4, rng)

    def run(self) -> None:
        self.reports = [
            strictqst.kernel_analysis(povm, 1, KERNEL_PROBES, np.random.default_rng([self.seed, k]))
            for k, povm in zip(KERNEL_BASES, self.povms)
        ]

    def check(self, reference: dict) -> list[str]:
        failures = []
        d = KERNEL_DIM
        dims = []
        for k, rep in zip(KERNEL_BASES, self.reports):
            dims.append(rep.kernel_dimension)
            want = d * d - min(d * d, k * (d - 1) + 1)
            if rep.kernel_dimension != want:
                failures.append(f"k={k}: kernel dimension {rep.kernel_dimension}, expected {want}")
            if len(rep.sampled_signatures) != KERNEL_PROBES:
                failures.append(f"k={k}: {len(rep.sampled_signatures)} probes, expected {KERNEL_PROBES}")
            if any(n_plus + n_minus > d for n_plus, n_minus in rep.sampled_signatures):
                failures.append(f"k={k}: a probe signature counts more than d eigenvalues")
        if dims != reference["kernel_dimensions"]:
            failures.append(f"kernel dimensions {dims} vs reference {reference['kernel_dimensions']}")
        self.reference_view = {"kernel_dimensions": dims}
        return failures


WORKLOADS = {"protocol": Protocol, "sweep": Sweep, "kernel": Kernel}
