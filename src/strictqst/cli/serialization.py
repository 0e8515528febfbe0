"""Canonical JSON / CSV (de)serialization for every wire object.

Conventions: complex numbers are [re, im] pairs, matrices are row-major
nested lists, JSON is emitted with sorted keys and a fixed layout so that
seeded runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..errors import DimensionMismatch
from ..measurement import BasisSet, MeasurementRecord, _require_int
from ..quantum import QuantumState


class ConfigError(ValueError):
    """A config or input file violates its schema."""


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _numbers(data, where: str) -> np.ndarray:
    """data as a float array, checked to hold JSON numbers only: a string,
    bool or null entry, or a list where a number belongs, is rejected
    rather than coerced."""
    arr = np.asarray(data, dtype=object)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in arr.flat):
        raise ConfigError(f"{where}: entries must be JSON numbers")
    return arr.astype(float)


def matrix_from_json(data, expect_dim: int | None = None) -> np.ndarray:
    arr = _numbers(data, "matrix payload")
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ConfigError(f"matrix payload has shape {arr.shape}, expected (d, d, 2)")
    if expect_dim is not None and arr.shape[0] != expect_dim:
        raise DimensionMismatch(f"matrix dim {arr.shape[0]}, expected {expect_dim}")
    return arr[..., 0] + 1j * arr[..., 1]


def dump_json(obj: dict, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path: Path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object at top level")
    return data


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _expect(data: dict, key: str, types, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing key {key!r}")
    if not isinstance(data[key], types):
        raise ConfigError(f"{where}: key {key!r} has type {type(data[key]).__name__}")
    return data[key]


# --- basis sets -------------------------------------------------------------

def basis_set_to_json(bs: BasisSet, seed: int | None = None) -> dict:
    return {
        "schema": "basis_set",
        "dim": bs.dim,
        "n_bases": bs.n_bases,
        "kind": bs.kind,
        "labels": list(bs.labels),
        "seed": seed,
        "bases": [matrix_to_json(u) for u in bs.bases],
    }


def basis_set_from_json(data: dict) -> BasisSet:
    """BasisSet checks dim, kind, labels and the basis shapes itself."""
    dim = _expect(data, "dim", int, "basis_set")
    kind = _expect(data, "kind", str, "basis_set")
    payload = _expect(data, "bases", list, "basis_set")
    if _require_int("n_bases", _expect(data, "n_bases", int, "basis_set"), 0) != len(payload):
        raise ConfigError(f"basis_set: n_bases is {data['n_bases']} but {len(payload)} bases are given")
    labels = _expect(data, "labels", list, "basis_set") if "labels" in data else []
    bases = tuple(matrix_from_json(u) for u in payload)
    bs = BasisSet(dim=dim, bases=bases, kind=kind, labels=tuple(labels))
    bs.validate()
    return bs


# --- states -----------------------------------------------------------------

def state_to_json(state: QuantumState) -> dict:
    return {
        "schema": "state",
        "dim": state.dim,
        "declared_rank": state.declared_rank,
        "rho": matrix_to_json(state.rho),
    }


def state_from_json(data: dict) -> QuantumState:
    dim = _require_int("dim", _expect(data, "dim", int, "state"), 1)
    rho = matrix_from_json(_expect(data, "rho", list, "state"), dim)
    rank = data.get("declared_rank")
    return QuantumState(rho, declared_rank=rank)


# --- measurement records ----------------------------------------------------

def record_to_json(rec: MeasurementRecord) -> dict:
    return {
        "schema": "measurement_record",
        "dim": rec.dim,
        "n_bases": rec.n_bases,
        "kind": rec.kind,
        "shots_per_basis": rec.shots_per_basis,
        "noise_bound": rec.noise_bound,
        "values": [float(v) for v in rec.values],
    }


def record_from_json(data: dict) -> MeasurementRecord:
    dim = _expect(data, "dim", int, "measurement_record")
    n_bases = _expect(data, "n_bases", int, "measurement_record")
    values = _numbers(_expect(data, "values", list, "measurement_record"), "measurement_record values")
    if values.ndim != 1:
        raise ConfigError(f"measurement_record: values must be a flat list, got shape {values.shape}")
    return MeasurementRecord(
        dim=dim,
        n_bases=n_bases,
        values=values,
        kind=_expect(data, "kind", str, "measurement_record"),
        shots_per_basis=data.get("shots_per_basis"),
        noise_bound=data.get("noise_bound"),
    )


# --- estimate results --------------------------------------------------------

def estimate_to_json(res) -> dict:
    return {
        "schema": "estimate_result",
        "method": res.method,
        "dim": res.rho_hat.dim,
        "residual": float(res.residual),
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "stop_reason": res.stop_reason,
        "X_hat": matrix_to_json(res.X_hat),
        "rho_hat": matrix_to_json(res.rho_hat.rho),
        "objective_trace": [float(v) for v in res.objective_trace],
    }


# --- CSV ----------------------------------------------------------------------

def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_csv(path: Path) -> list[dict[str, str]]:
    """The rows of a CSV written by write_csv, keyed by its header."""
    header, *lines = Path(path).read_text().strip().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]
