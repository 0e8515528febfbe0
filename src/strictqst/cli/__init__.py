"""Command-line front end.

Subcommands
-----------
gen-bases    write a seeded random BasisSet to JSON
simulate     measure a state (noiseless or finite shots) into a record
estimate     run one estimation program on a stored record
sweep        strict-completeness onset sweep (CSV + JSON + SVG + manifest)
noisy        finite-shot protocol curves  (CSV + JSON + SVG + manifest)
robustness   error-versus-noise scan      (CSV + JSON + SVG + manifest)

Exit codes: 0 ok, 2 usage or config violation, 3 IO failure,
4 dimension mismatch, 5 infeasible program.
"""

from __future__ import annotations

import argparse
import datetime
import inspect
import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from .. import __version__
from ..errors import BadRank, DimensionMismatch, Infeasible, NotHermitian, NotPure
from ..estimators import (
    EstimatorSpec,
    estimate_least_squares,
    estimate_max_likelihood,
    estimate_trace_min,
    feasibility,
)
from ..experiments import (
    NoisyProtocolConfig,
    SweepConfig,
    _require_power_of_two,
    run_completeness_sweep,
    run_noisy_protocol,
    run_robustness_scan,
)
from ..measurement import noiseless_record, povm_from_bases, sample_record
from ..quantum import global_random_bases, local_random_bases, random_rank_r_state
from . import plots, serialization as ser
from .serialization import ConfigError

_METHODS = {
    "ls": ("least_squares", estimate_least_squares),
    "tracemin": ("trace_min", estimate_trace_min),
    "mle": ("max_likelihood", estimate_max_likelihood),
    "feasibility": ("feasibility", feasibility),
}


# --------------------------------------------------------------------------
# helpers

def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _resolve_config_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    bundled = resources.files("strictqst") / "configs" / name
    if bundled.is_file():
        return Path(str(bundled))
    raise FileNotFoundError(f"config {name!r} not found on disk or among bundled configs")


def _load_experiment(name: str, kind: str, constructor) -> tuple[dict, dict]:
    """The raw JSON of an experiment config and the keyword arguments it
    gives constructor (a config dataclass or run_robustness_scan).

    Only the keys are checked here: the allowed keys are the constructor's
    parameters less jobs, which comes only from --jobs; those without a
    default are required, and so is seed.  The constructor checks the
    values.
    """
    path = _resolve_config_path(name)
    raw = ser.load_json(path)
    if raw.get("experiment") != kind:
        raise ConfigError(f"{path}: experiment {raw.get('experiment')!r}, expected {kind!r}")
    params = inspect.signature(constructor).parameters
    fields = {key: value for key, value in raw.items() if key != "experiment"}
    unknown = set(fields) - (set(params) - {"jobs"})
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = {"seed", *(key for key, p in params.items() if p.default is p.empty)} - set(fields)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    return raw, fields


def _manifest(command: str, config: dict, seed, out_dir: Path, outputs: list[Path], started: str) -> None:
    doc = {
        "schema": "run_manifest",
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": {p.name: ser.sha256_file(p) for p in outputs},
    }
    ser.dump_json(doc, out_dir / "manifest.json")


def _curves_svg_from_csv(csv_path: Path, title: str) -> str:
    """Curves plot built only from the CSV contents (columns n_bases,
    estimator, mean_infidelity, stderr)."""
    header, rows = ser.read_csv(csv_path)
    idx = {name: i for i, name in enumerate(header)}
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        est = row[idx["estimator"]]
        series.setdefault(est, []).append(
            (float(row[idx["n_bases"]]), float(row[idx["mean_infidelity"]]))
        )
    return plots.line_plot(series, "measured bases", "mean infidelity", title=title)


def _robustness_svg_from_csv(csv_path: Path) -> str:
    header, rows = ser.read_csv(csv_path)
    idx = {name: i for i, name in enumerate(header)}
    pts = [(float(r[idx["epsilon"]]), float(r[idx["mean_error"]])) for r in rows]
    return plots.line_plot(
        {"least_squares": pts},
        "noise bound",
        "reconstruction error",
        title="Error scaling under injected noise",
        log_x=True,
    )


def _onset_svg_from_csv(csv_path: Path) -> str:
    header, rows = ser.read_csv(csv_path)
    idx = {name: i for i, name in enumerate(header)}
    table = [
        {
            "dim": int(r[idx["dim"]]),
            "rank": int(r[idx["rank"]]),
            "basis_type": r[idx["basis_type"]],
            "onset": int(r[idx["onset"]]) if r[idx["onset"]] else None,
            "n_states": int(r[idx["n_states"]]),
        }
        for r in rows
    ]
    return plots.onset_table_svg(table)


# --------------------------------------------------------------------------
# commands

def _cmd_gen_bases(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.type == "local":
        bs = local_random_bases(_require_power_of_two(args.dim), args.n_bases, rng,
                                seed_label=str(args.seed))
    else:
        bs = global_random_bases(args.dim, args.n_bases, rng, seed_label=str(args.seed))
    ser.dump_json(ser.basis_set_to_json(bs, seed=args.seed), Path(args.out))
    return 0


def _cmd_simulate(args) -> int:
    bs = ser.basis_set_from_json(ser.load_json(Path(args.bases)))
    povm = povm_from_bases(bs)
    rng = np.random.default_rng(args.seed)
    if args.state is not None:
        state = ser.state_from_json(ser.load_json(Path(args.state)))
    else:
        state = random_rank_r_state(bs.dim, args.random_rank, rng)
    if args.noiseless:
        rec = noiseless_record(povm, state)
    else:
        rec = sample_record(povm, state, args.shots, rng)
    ser.dump_json(ser.record_to_json(rec), Path(args.out))
    return 0


def _cmd_estimate(args) -> int:
    bs = ser.basis_set_from_json(ser.load_json(Path(args.bases)))
    povm = povm_from_bases(bs)
    rec = ser.record_from_json(ser.load_json(Path(args.record)))
    _, fn = _METHODS[args.method]
    result = fn(povm, rec, EstimatorSpec(noise_bound=args.epsilon))
    ser.dump_json(ser.estimate_to_json(result), Path(args.out))
    return 0


def _cmd_sweep(args) -> int:
    started = _utc_now()
    raw, fields = _load_experiment(args.config, "sweep", SweepConfig)
    config = SweepConfig(jobs=args.jobs, **fields)
    result = run_completeness_sweep(config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "onsets.csv"
    ser.write_csv(
        csv_path,
        ["dim", "rank", "basis_type", "onset", "n_states", "threshold"],
        [
            [c.dim, c.rank, c.basis_type, "" if c.onset is None else c.onset,
             c.errors.shape[1], c.threshold]
            for c in result.cells
        ],
    )
    json_path = out_dir / "sweep_result.json"
    ser.dump_json(
        {
            "schema": "sweep_result",
            "config": asdict(config),
            "cells": [
                {
                    "dim": c.dim,
                    "rank": c.rank,
                    "basis_type": c.basis_type,
                    "threshold": c.threshold,
                    "onset": c.onset,
                    "failure_counts": [int(v) for v in c.failure_counts],
                    "failure_log": [list(entry) for entry in c.failure_log],
                    "state_seed_keys": list(c.state_seed_keys),
                    "errors": [[float(v) for v in row] for row in c.errors],
                    "stop_reasons": list(c.stop_reasons),
                }
                for c in result.cells
            ],
        },
        json_path,
    )
    svg_path = out_dir / "onsets.svg"
    svg_path.write_text(_onset_svg_from_csv(csv_path) + "\n")
    _manifest("sweep", raw, raw["seed"], out_dir, [csv_path, json_path, svg_path], started)
    return 0


def _cmd_noisy(args) -> int:
    started = _utc_now()
    raw, fields = _load_experiment(args.config, "noisy", NoisyProtocolConfig)
    config = NoisyProtocolConfig(jobs=args.jobs, **fields)
    result = run_noisy_protocol(config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "curves.csv"
    ser.write_csv(
        csv_path,
        ["n_bases", "estimator", "mean_infidelity", "stderr"],
        [[r["n_bases"], r["estimator"], r["mean_infidelity"], r["stderr"]] for r in result.rows()],
    )
    json_path = out_dir / "protocol_result.json"
    ser.dump_json(
        {
            "schema": "protocol_result",
            "config": asdict(config),
            "basis_counts": list(result.basis_counts),
            "infidelities": {
                est: [[float(v) for v in row] for row in mat]
                for est, mat in result.infidelities.items()
            },
            "stop_reasons": {est: list(counts) for est, counts in result.stop_reasons.items()},
        },
        json_path,
    )
    svg_path = out_dir / "curves.svg"
    svg_path.write_text(_curves_svg_from_csv(csv_path, "Estimation of near-pure states") + "\n")
    _manifest("noisy", raw, raw["seed"], out_dir, [csv_path, json_path, svg_path], started)
    return 0


def _cmd_robustness(args) -> int:
    started = _utc_now()
    raw, fields = _load_experiment(args.config, "robustness", run_robustness_scan)
    scan = run_robustness_scan(**fields)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "robustness.csv"
    stderr = scan.errors.std(axis=1, ddof=1) / np.sqrt(scan.errors.shape[1]) if scan.errors.shape[1] > 1 else np.zeros(scan.epsilons.size)
    ser.write_csv(
        csv_path,
        ["epsilon", "mean_error", "stderr"],
        [[float(e), float(m), float(s)] for e, m, s in zip(scan.epsilons, scan.mean_errors, stderr)],
    )
    json_path = out_dir / "robustness_result.json"
    ser.dump_json(
        {
            "schema": "robustness_result",
            "dim": scan.dim,
            "rank": scan.rank,
            "n_bases": scan.n_bases,
            "seed": scan.seed,
            "epsilons": [float(v) for v in scan.epsilons],
            "errors": [[float(v) for v in row] for row in scan.errors],
            "mean_errors": [float(v) for v in scan.mean_errors],
            "slope": scan.slope,
            "c_hat": scan.c_hat,
            "zero_noise_error": scan.zero_noise_error,
        },
        json_path,
    )
    svg_path = out_dir / "robustness.svg"
    svg_path.write_text(_robustness_svg_from_csv(csv_path) + "\n")
    _manifest("robustness", raw, raw["seed"], out_dir, [csv_path, json_path, svg_path], started)
    return 0


# --------------------------------------------------------------------------
# parser / entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strictqst",
        description="Bounded-rank quantum state tomography with random orthonormal bases.",
    )
    parser.add_argument("--version", action="version", version=f"strictqst {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bases", help="generate random measurement bases")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n-bases", type=int, required=True)
    p.add_argument("--type", choices=["global", "local"], default="global")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_bases)

    p = sub.add_parser("simulate", help="simulate a measurement record")
    p.add_argument("--bases", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--state", help="state JSON file")
    src.add_argument("--random-rank", type=int, help="draw a random state of this rank")
    shots = p.add_mutually_exclusive_group(required=True)
    shots.add_argument("--shots", type=int, help="shots per basis")
    shots.add_argument("--noiseless", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate a state from a record")
    p.add_argument("--record", required=True)
    p.add_argument("--bases", required=True)
    p.add_argument("--method", choices=sorted(_METHODS), required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    for name, fn in [("sweep", _cmd_sweep), ("noisy", _cmd_noisy), ("robustness", _cmd_robustness)]:
        p = sub.add_parser(name, help=f"run the {name} experiment from a config file")
        p.add_argument("--config", required=True, help="path or bundled config name")
        p.add_argument("--out-dir", required=True)
        p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:  # JSONDecodeError before ValueError
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except DimensionMismatch as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return 4
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 5
    except (ConfigError, BadRank, NotPure, NotHermitian, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
