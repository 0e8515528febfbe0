import inspect
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import strictqst.cli as cli
import strictqst.experiments
from strictqst.errors import NotHermitian
from strictqst.experiments import NoisyProtocolConfig, SweepConfig, run_robustness_scan
from strictqst.cli import serialization as ser
from strictqst.cli.plots import line_plot
from strictqst.measurement import povm_from_bases
from strictqst.quantum import QuantumState, random_pure_state, random_rank_r_state

from oracles import kron_explicit


def run(args):
    return cli.main([str(a) for a in args])


def load(path):
    with open(path) as fh:
        return json.load(fh)


def _write_config(tmp_path, doc) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def bundled_config_names() -> list[str]:
    root = resources.files("strictqst") / "configs"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


@pytest.fixture()
def schema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    import referencing

    root = resources.files("strictqst") / "schemas"
    registry = referencing.Registry()
    for item in root.iterdir():
        if item.name.endswith(".json"):
            doc = json.loads(item.read_text())
            registry = registry.with_resource(
                doc["$id"], referencing.Resource.from_contents(doc)
            )

    def validate(instance, schema_name):
        doc = json.loads((root / f"{schema_name}.schema.json").read_text())
        jsonschema.Draft202012Validator(doc, registry=registry).validate(instance)

    return validate


class TestGenBases:
    def test_writes_valid_unitary(self, tmp_path, schema_validator):
        out = tmp_path / "b.json"
        assert run(["gen-bases", "--dim", 2, "--n-bases", 1, "--seed", 4, "--out", out]) == 0
        doc = load(out)
        schema_validator(doc, "basis_set")
        u = ser.matrix_from_json(doc["bases"][0])
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-10

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen-bases", "--dim", 5, "--n-bases", 3, "--seed", 7, "--out", a])
        run(["gen-bases", "--dim", 5, "--n-bases", 3, "--seed", 7, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_local_bases_factor_as_kronecker(self, tmp_path):
        out = tmp_path / "local.json"
        seed = 21
        run(["gen-bases", "--dim", 8, "--n-bases", 2, "--type", "local", "--seed", seed, "--out", out])
        doc = load(out)
        assert doc["kind"] == "local"
        replay = np.random.default_rng(seed)
        from strictqst.quantum import haar_random_unitary

        for payload in doc["bases"]:
            u = ser.matrix_from_json(payload)
            factors = [haar_random_unitary(2, replay) for _ in range(3)]
            expected = kron_explicit(kron_explicit(factors[0], factors[1]), factors[2])
            assert np.max(np.abs(u - expected)) < 1e-12

    def test_local_requires_power_of_two(self, tmp_path):
        out = tmp_path / "x.json"
        for dim in (6, 0, 1, -4):
            assert run(["gen-bases", "--dim", dim, "--n-bases", 1, "--type", "local",
                        "--seed", 0, "--out", out]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_negative_basis_count_exits_2(self, tmp_path, kind):
        out = tmp_path / "x.json"
        assert run(["gen-bases", "--dim", 4, "--n-bases", -2, "--type", kind,
                    "--seed", 0, "--out", out]) == 2
        assert not out.exists()

    def test_empty_basis_set_is_written_but_cannot_be_measured(self, tmp_path, schema_validator):
        bases, rec = tmp_path / "b.json", tmp_path / "r.json"
        assert run(["gen-bases", "--dim", 3, "--n-bases", 0, "--seed", 0, "--out", bases]) == 0
        schema_validator(load(bases), "basis_set")
        assert run(["simulate", "--bases", bases, "--random-rank", 1, "--noiseless",
                    "--out", rec]) == 2
        assert not rec.exists()


class TestSimulate:
    def test_maximally_mixed_uniform_blocks(self, tmp_path, schema_validator):
        bases, state, rec = tmp_path / "b.json", tmp_path / "s.json", tmp_path / "r.json"
        run(["gen-bases", "--dim", 4, "--n-bases", 3, "--seed", 1, "--out", bases])
        ser.dump_json(ser.state_to_json(QuantumState(np.eye(4, dtype=complex) / 4)), state)
        assert run(["simulate", "--bases", bases, "--state", state, "--noiseless",
                    "--out", rec]) == 0
        doc = load(rec)
        schema_validator(doc, "measurement_record")
        assert np.allclose(doc["values"], 0.25, atol=1e-12)

    def test_sampled_matches_noiseless_within_error(self, tmp_path):
        bases = tmp_path / "b.json"
        run(["gen-bases", "--dim", 3, "--n-bases", 2, "--seed", 5, "--out", bases])
        state = tmp_path / "s.json"
        ser.dump_json(ser.state_to_json(random_pure_state(3, np.random.default_rng(2))), state)
        exact, sampled = tmp_path / "p.json", tmp_path / "f.json"
        run(["simulate", "--bases", bases, "--state", state, "--noiseless", "--out", exact])
        run(["simulate", "--bases", bases, "--state", state, "--shots", 1_000_000,
             "--seed", 3, "--out", sampled])
        p = np.array(load(exact)["values"])
        f = np.array(load(sampled)["values"])
        sig = np.sqrt(np.clip(p * (1 - p), 1e-12, None) / 1_000_000)
        assert np.all(np.abs(f - p) <= 5 * sig + 1e-9)

    def test_random_rank_state_roundtrip(self, tmp_path):
        bases, rec = tmp_path / "b.json", tmp_path / "r.json"
        run(["gen-bases", "--dim", 4, "--n-bases", 2, "--seed", 1, "--out", bases])
        assert run(["simulate", "--bases", bases, "--random-rank", 2, "--shots", 100,
                    "--seed", 9, "--out", rec]) == 0
        assert load(rec)["shots_per_basis"] == 100

    def test_missing_file_exits_3(self, tmp_path):
        assert run(["simulate", "--bases", tmp_path / "nope.json", "--random-rank", 1,
                    "--noiseless", "--out", tmp_path / "r.json"]) == 3

    def test_same_seed_byte_identical(self, tmp_path):
        bases = tmp_path / "b.json"
        run(["gen-bases", "--dim", 3, "--n-bases", 2, "--seed", 5, "--out", bases])
        a, b = tmp_path / "a.json", tmp_path / "bb.json"
        for out in (a, b):
            run(["simulate", "--bases", bases, "--random-rank", 2, "--shots", 200,
                 "--seed", 12, "--out", out])
        assert a.read_bytes() == b.read_bytes()


class TestEstimate:
    @pytest.fixture()
    def noiseless_setup(self, tmp_path):
        bases, state, rec = tmp_path / "b.json", tmp_path / "s.json", tmp_path / "r.json"
        run(["gen-bases", "--dim", 5, "--n-bases", 5, "--seed", 31, "--out", bases])
        ser.dump_json(ser.state_to_json(random_pure_state(5, np.random.default_rng(6))), state)
        run(["simulate", "--bases", bases, "--state", state, "--noiseless", "--out", rec])
        return bases, state, rec

    def test_methods_agree_on_strictly_complete_record(self, tmp_path, noiseless_setup, schema_validator):
        bases, state, rec = noiseless_setup
        outputs = {}
        for method in ("ls", "tracemin", "feasibility"):
            out = tmp_path / f"{method}.json"
            args = ["estimate", "--record", rec, "--bases", bases, "--method", method, "--out", out]
            if method in ("tracemin", "feasibility"):
                args += ["--epsilon", 0.0]
            assert run(args) == 0
            doc = load(out)
            schema_validator(doc, "estimate_result")
            outputs[method] = ser.matrix_from_json(doc["X_hat"])
        names = list(outputs)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert np.linalg.norm(outputs[a] - outputs[b]) <= 1e-4

    def test_estimate_recovers_stored_state(self, tmp_path, noiseless_setup):
        bases, state, rec = noiseless_setup
        out = tmp_path / "est.json"
        run(["estimate", "--record", rec, "--bases", bases, "--method", "ls", "--out", out])
        rho_hat = ser.matrix_from_json(load(out)["rho_hat"])
        rho = ser.matrix_from_json(load(state)["rho"])
        assert np.linalg.norm(rho_hat - rho) <= 1e-4

    def test_mle_uniform_record_returns_maximally_mixed(self, tmp_path):
        bases, rec, out = tmp_path / "b.json", tmp_path / "r.json", tmp_path / "e.json"
        run(["gen-bases", "--dim", 4, "--n-bases", 1, "--seed", 2, "--out", bases])
        state = tmp_path / "s.json"
        ser.dump_json(ser.state_to_json(QuantumState(np.eye(4, dtype=complex) / 4)), state)
        run(["simulate", "--bases", bases, "--state", state, "--noiseless", "--out", rec])
        assert run(["estimate", "--record", rec, "--bases", bases, "--method", "mle", "--out", out]) == 0
        rho_hat = ser.matrix_from_json(load(out)["rho_hat"])
        assert np.allclose(rho_hat, np.eye(4) / 4, atol=1e-8)

    def test_tracemin_without_noise_bound_exits_2(self, tmp_path, noiseless_setup):
        # a noiseless record carries no noise bound, and no --epsilon is given
        bases, _, rec = noiseless_setup
        out = tmp_path / "x.json"
        assert run(["estimate", "--record", rec, "--bases", bases, "--method", "tracemin",
                    "--out", out]) == 2
        assert not out.exists()

    def test_dimension_mismatch_exits_4(self, tmp_path, noiseless_setup):
        _, _, rec = noiseless_setup
        other = tmp_path / "other.json"
        run(["gen-bases", "--dim", 3, "--n-bases", 5, "--seed", 0, "--out", other])
        assert run(["estimate", "--record", rec, "--bases", other, "--method", "ls",
                    "--out", tmp_path / "x.json"]) == 4

    def test_infeasible_exits_5(self, tmp_path):
        bases, rec = tmp_path / "b.json", tmp_path / "r.json"
        run(["gen-bases", "--dim", 4, "--n-bases", 3, "--seed", 1, "--out", bases])
        run(["simulate", "--bases", bases, "--random-rank", 1, "--shots", 500, "--seed", 2,
             "--out", rec])
        assert run(["estimate", "--record", rec, "--bases", bases, "--method", "tracemin",
                    "--epsilon", 0.0, "--out", tmp_path / "x.json"]) == 5


class TestExperimentCommands:
    def test_sweep_outputs(self, tmp_path, schema_validator):
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", "onset_tiny.json", "--out-dir", out]) == 0
        header = (out / "onsets.csv").read_text().splitlines()[0]
        assert header == "dim,rank,basis_type,onset,n_states,threshold"
        doc = load(out / "sweep_result.json")
        schema_validator(doc, "sweep_result")
        schema_validator(load(out / "manifest.json"), "run_manifest")
        # one stop-reason count per evaluated basis count, over every state
        n_states = load(resources.files("strictqst") / "configs" / "onset_tiny.json")["states_per_cell"]
        for cell in doc["cells"]:
            assert len(cell["stop_reasons"]) == len(cell["errors"])
            assert all(sum(counts.values()) == n_states for counts in cell["stop_reasons"])
        rendered = cli._onset_svg_from_csv(out / "onsets.csv")
        assert rendered + "\n" == (out / "onsets.svg").read_text()

    def test_noisy_outputs_and_svg_is_pure_function_of_csv(self, tmp_path, schema_validator):
        out = tmp_path / "noisy"
        assert run(["noisy", "--config", "protocol_tiny.json", "--out-dir", out]) == 0
        header = (out / "curves.csv").read_text().splitlines()[0]
        assert header == "n_bases,estimator,mean_infidelity,stderr"
        doc = load(out / "protocol_result.json")
        schema_validator(doc, "protocol_result")
        # one stop-reason count per basis count and estimator, over every target
        config = load(resources.files("strictqst") / "configs" / "protocol_tiny.json")
        assert set(doc["stop_reasons"]) == set(doc["infidelities"])
        for counts in doc["stop_reasons"].values():
            assert len(counts) == len(doc["basis_counts"])
            assert all(sum(c.values()) == config["n_targets"] for c in counts)
        rendered = cli._curves_svg_from_csv(out / "curves.csv")
        assert rendered + "\n" == (out / "curves.svg").read_text()

    def test_robustness_outputs(self, tmp_path, schema_validator):
        out = tmp_path / "rob"
        assert run(["robustness", "--config", "robustness_tiny.json", "--out-dir", out]) == 0
        schema_validator(load(out / "robustness_result.json"), "robustness_result")
        header = (out / "robustness.csv").read_text().splitlines()[0]
        assert header == "epsilon,mean_error,stderr"

    def test_sweep_without_onset(self, tmp_path):
        # two bases are too few for either cell: the onset is an empty CSV
        # field, null in the JSON and "-" in the plot
        cfg = _write_config(tmp_path, {"experiment": "sweep", "dims": [5], "ranks": [1, 2],
                                       "states_per_cell": 2, "max_bases": 2, "seed": 3})
        out = tmp_path / "o"
        assert run(["sweep", "--config", cfg, "--out-dir", out]) == 0
        rows = ser.read_csv(out / "onsets.csv")
        assert [(row["rank"], row["onset"]) for row in rows] == [("1", ""), ("2", "")]
        assert [cell["onset"] for cell in load(out / "sweep_result.json")["cells"]] == [None, None]
        assert (out / "onsets.svg").read_text().count('text-anchor="middle">-</text>') == 2

    def test_curves_table_follows_config_order(self, tmp_path):
        # one row per (estimator in config order, basis count), with the
        # mean over targets; one target has a standard error of 0
        estimators = ["max_likelihood", "least_squares"]
        cfg = _write_config(tmp_path, {"experiment": "noisy", "dim": 4, "n_targets": 1,
                                       "shots_per_basis": 400, "estimators": estimators,
                                       "max_bases": 3, "seed": 8})
        out = tmp_path / "o"
        assert run(["noisy", "--config", cfg, "--out-dir", out]) == 0
        rows = ser.read_csv(out / "curves.csv")
        assert [(row["estimator"], row["n_bases"]) for row in rows] == [
            (est, str(k)) for est in estimators for k in (1, 2, 3)
        ]
        infidelities = load(out / "protocol_result.json")["infidelities"]
        for i, row in enumerate(rows):
            assert float(row["mean_infidelity"]) == infidelities[row["estimator"]][i % 3][0]
            assert row["stderr"] == "0.0"

    def test_robustness_table_single_repeat(self, tmp_path):
        # one noise direction per epsilon has a standard error of 0
        cfg = _write_config(tmp_path, {"experiment": "robustness", "dim": 5, "rank": 1,
                                       "n_bases": 5, "epsilons": [0.01, 0.001], "repeats": 1,
                                       "seed": 3})
        out = tmp_path / "o"
        assert run(["robustness", "--config", cfg, "--out-dir", out]) == 0
        rows = ser.read_csv(out / "robustness.csv")
        doc = load(out / "robustness_result.json")
        assert [float(row["epsilon"]) for row in rows] == doc["epsilons"] == [0.001, 0.01]
        assert [float(row["mean_error"]) for row in rows] == doc["mean_errors"]
        assert [row["stderr"] for row in rows] == ["0.0", "0.0"]

    @pytest.mark.parametrize("command, config", [("sweep", "onset_tiny.json"),
                                                 ("noisy", "protocol_tiny.json")])
    def test_jobs_leaves_data_files_unchanged(self, tmp_path, command, config, schema_validator):
        # --jobs sets only the worker count: the manifest records it, and
        # the CSV, JSON and SVG are the same bytes for any value
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
        for jobs, out in outs.items():
            assert run([command, "--config", config, "--out-dir", out, "--jobs", jobs]) == 0
            manifest = load(out / "manifest.json")
            schema_validator(manifest, "run_manifest")
            assert manifest["jobs"] == jobs
        names = sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.json")
        assert len(names) == 3
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    @pytest.mark.parametrize("command, config, jobs", [
        ("sweep", "onset_tiny.json", 0), ("noisy", "protocol_tiny.json", 0),
        ("robustness", "robustness_tiny.json", 0), ("noisy", "protocol_tiny.json", -3),
        ("robustness", "robustness_tiny.json", -3), ("robustness", "robustness_tiny.json", 2),
    ])
    def test_jobs_out_of_range_is_a_usage_error(self, tmp_path, command, config, jobs, capsys):
        # sweep and noisy need jobs >= 1; the robustness scan has no worker
        # pool, so it takes only --jobs 1.  Nothing is written
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out-dir", out, "--jobs", jobs]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_digests_match_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        run(["sweep", "--config", "onset_tiny.json", "--out-dir", out])
        manifest = load(out / "manifest.json")
        for name, digest in manifest["outputs"].items():
            assert ser.sha256_file(out / name) == digest

    def test_empty_dims_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "sweep", "dims": [], "seed": 0}))
        assert run(["sweep", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "sweep", "dims": [4], "seed": 0, "bogus": 1}))
        assert run(["sweep", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2

    def test_wrong_experiment_kind_exits_2(self, tmp_path):
        assert run(["noisy", "--config", "onset_tiny.json", "--out-dir", tmp_path / "o"]) == 2

    def test_config_requires_seed(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "sweep", "dims": [4]}))
        assert run(["sweep", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2

    def test_bundled_configs_parse(self):
        names = bundled_config_names()
        assert "onset_desk.json" in names and "protocol_desk.json" in names
        for name in names:
            path = cli._resolve_config_path(name)
            doc = load(path)
            assert doc["experiment"] in ("sweep", "noisy", "robustness")


EXPERIMENTS = {  # command: (constructor, bundled base config)
    "sweep": (SweepConfig, "onset_tiny.json"),
    "noisy": (NoisyProtocolConfig, "protocol_tiny.json"),
    "robustness": (run_robustness_scan, "robustness_tiny.json"),
}

MISSING = object()  # deletes the key

# (command, changes to its base config) rejected by the constructor's checks
BAD_VALUES = [
    ("sweep", {"states_per_cell": True}),
    ("noisy", {"n_targets": True}),
    ("robustness", {"repeats": False}),
    ("sweep", {"max_bases": 2.5}),
    ("noisy", {"shots_per_basis": 2.5}),
    ("sweep", {"dims": [4.5]}),
    ("sweep", {"dims": ["a"]}),
    ("sweep", {"infidelity_threshold": float("nan")}),
    ("noisy", {"noise_scale": float("nan")}),
    ("robustness", {"epsilons": [float("nan")]}),
    ("sweep", {"infidelity_threshold": -1e-5}),
    ("noisy", {"mixing": -0.1}),
    ("noisy", {"noise_scale": -1.0}),
    ("robustness", {"epsilons": [-1e-3, 1e-3]}),
    ("sweep", {"seed": -1}),
    ("sweep", {"dims": []}),
    ("noisy", {"estimators": []}),
    ("robustness", {"epsilons": []}),
    ("sweep", {"dims": [[5]]}),
    ("noisy", {"estimators": [["least_squares"]]}),
    ("robustness", {"epsilons": [[1e-3]]}),
    ("noisy", {"estimators": ["trace_min", "trace_min"]}),
    ("sweep", {"ranks": None}),
    ("noisy", {"noiseless": None}),
    ("robustness", {"repeats": None}),
    ("robustness", {"seed": None}),
]

# rejected by the CLI's key check: jobs comes only from --jobs, seed is required
BAD_KEYS = [
    ("sweep", {"jobs": 1}),
    ("noisy", {"jobs": 2}),
    ("robustness", {"jobs": 1}),
    ("sweep", {"seed": MISSING}),
    ("noisy", {"seed": MISSING}),
    ("robustness", {"seed": MISSING}),
]


def _case_ids(cases):
    return [
        command + ":" + ",".join(
            f"{key}={'missing' if value is MISSING else json.dumps(value)}"
            for key, value in changes.items()
        )
        for command, changes in cases
    ]


def _malformed(command, changes):
    doc = load(cli._resolve_config_path(EXPERIMENTS[command][1]))
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not MISSING}


class TestConfigContract:
    """The config schemas, the config constructors and the CLI agree."""

    @pytest.fixture()
    def schema_rejects(self, schema_validator):
        jsonschema = pytest.importorskip("jsonschema")

        def rejects(doc):
            try:
                json.dumps(doc, allow_nan=False)
            except ValueError:
                return True  # NaN is no JSON number (RFC 8259), so no schema admits it
            try:
                schema_validator(doc, f"{doc['experiment']}_config")
            except jsonschema.ValidationError:
                return True
            return False

        return rejects

    def test_bundled_configs_validate(self, schema_validator):
        for name in bundled_config_names():
            doc = load(cli._resolve_config_path(name))
            schema_validator(doc, f"{doc['experiment']}_config")

    @pytest.mark.parametrize("command", sorted(EXPERIMENTS))
    def test_schema_keys_match_constructor(self, command):
        schema = load(resources.files("strictqst") / "schemas" / f"{command}_config.schema.json")
        params = inspect.signature(EXPERIMENTS[command][0]).parameters
        assert set(schema["properties"]) == set(params) - {"jobs"} | {"experiment"}
        required = {key for key, p in params.items() if p.default is p.empty}
        assert set(schema["required"]) == required | {"seed", "experiment"}

    @pytest.mark.parametrize("command, changes", BAD_VALUES + BAD_KEYS,
                             ids=_case_ids(BAD_VALUES + BAD_KEYS))
    def test_malformed_config_rejected(self, tmp_path, command, changes, schema_rejects):
        doc = _malformed(command, changes)
        assert schema_rejects(doc)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run([command, "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, changes", BAD_VALUES, ids=_case_ids(BAD_VALUES))
    def test_malformed_values_rejected_before_any_draw(self, monkeypatch, command, changes):
        def no_draw(*args, **kwargs):
            raise AssertionError("a basis was drawn")

        monkeypatch.setattr(strictqst.experiments, "global_random_bases", no_draw)
        monkeypatch.setattr(strictqst.experiments, "local_random_bases", no_draw)
        fields = _malformed(command, changes)
        del fields["experiment"]
        with pytest.raises(ValueError):
            EXPERIMENTS[command][0](**fields)

    def test_null_means_default_only_for_shots(self, tmp_path, schema_validator):
        doc = _malformed("noisy", {"shots_per_basis": None})
        schema_validator(doc, "noisy_config")
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps(doc))
        assert run(["noisy", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0


class TestPlots:
    def test_line_plot_handles_log_scale(self):
        svg = line_plot({"a": [(1, 1e-1), (2, 1e-3)]}, "x", "y")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "polyline" in svg

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            line_plot({}, "x", "y")


class TestSerializationRoundTrips:
    def test_record_roundtrip(self, tmp_path, rng):
        from strictqst.measurement import sample_record
        from strictqst.quantum import global_random_bases

        povm = povm_from_bases(global_random_bases(3, 2, rng))
        rec = sample_record(povm, random_pure_state(3, rng), 250, rng)
        doc = ser.record_to_json(rec)
        back = ser.record_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(back.values, rec.values)
        assert back.noise_bound == rec.noise_bound

    def test_record_loader_rejects_bad_shots(self):
        doc = {"dim": 2, "n_bases": 1, "kind": "sampled", "values": [0.5, 0.5]}
        for shots in (-3, 0, 2.5, True):
            with pytest.raises(ValueError, match="shots_per_basis"):
                ser.record_from_json({**doc, "shots_per_basis": shots})
        assert ser.record_from_json({**doc, "shots_per_basis": 4}).shots_per_basis == 4

    def test_state_roundtrip(self, rng):
        state = random_pure_state(4, rng)
        back = ser.state_from_json(ser.state_to_json(state))
        assert np.allclose(back.rho, state.rho, atol=1e-15)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ser.ConfigError):
            ser.matrix_from_json([[1.0, 2.0]])
        # Python's json parses the non-standard NaN literal
        doc = json.loads(json.dumps(ser.state_to_json(QuantumState(np.eye(2, dtype=complex) / 2))))
        doc["rho"][0][0][0] = float("nan")
        with pytest.raises(NotHermitian):
            ser.state_from_json(json.loads(json.dumps(doc)))


# (input file, changes to a valid file of that kind) rejected by its loader;
# the valid files hold one basis in dimension 4, a rank-2 state and its record
BAD_INPUT_FILES = [
    ("bases", {"dim": True}),
    ("bases", {"dim": True, "bases": [[[[1.0, 0.0]]]]}),  # a 1 x 1 basis passes the shape check
    ("bases", {"n_bases": True}),
    ("bases", {"n_bases": 7}),
    ("bases", {"kind": "haar"}),
    ("bases", {"labels": ["global[0]", "global[1]"]}),
    ("bases", {"labels": [0]}),
    ("bases", {"labels": "global"}),
    ("state", {"dim": True}),
    ("state", {"declared_rank": 2.0}),
    ("record", {"dim": True}),
    ("record", {"n_bases": True}),
    ("record", {"values": ["0.25", "0.25", "0.25", "0.25"]}),
    ("record", {"values": [[0.25], [0.25], [0.25], [0.25]]}),
    ("record", {"kind": MISSING}),
    # the maximally mixed state, written with string entries
    ("state", {"declared_rank": 4, "rho": [[["0.25" if i == j else "0", "0"] for j in range(4)] for i in range(4)]}),
]


@pytest.mark.parametrize("name, changes", BAD_INPUT_FILES, ids=_case_ids(BAD_INPUT_FILES))
def test_malformed_input_file_exits_2(tmp_path, name, changes):
    files = {key: tmp_path / f"{key}.json" for key in ("bases", "state", "record")}
    run(["gen-bases", "--dim", 4, "--n-bases", 1, "--seed", 3, "--out", files["bases"]])
    ser.dump_json(ser.state_to_json(random_rank_r_state(4, 2, np.random.default_rng(1))), files["state"])
    run(["simulate", "--bases", files["bases"], "--state", files["state"], "--noiseless",
         "--out", files["record"]])
    doc = {**load(files[name]), **changes}
    files[name].write_text(json.dumps({key: value for key, value in doc.items() if value is not MISSING}))
    if name == "record":
        args = ["estimate", "--record", files["record"], "--bases", files["bases"], "--method", "ls"]
    else:
        args = ["simulate", "--bases", files["bases"], "--state", files["state"], "--noiseless"]
    out = tmp_path / "out.json"
    assert run(args + ["--out", out]) == 2
    assert not out.exists()
