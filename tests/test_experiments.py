"""Experiment harness: determinism, aggregate consistency, rendering."""

import hashlib
import inspect
import json
import platform
import re
from dataclasses import replace

import numpy as np
import pytest

from graphonlab import experiments
from graphonlab.experiments import (
    CATALOG,
    ExperimentConfig,
    default_config,
    describe_experiment,
    experiment_names,
    render_report,
    replica_seed,
    run_experiment,
)
from graphonlab.graphon_core import GraphonError
from graphonlab.sampling import sample_graphon_process


def small_config(name, seed=0):
    """Shrunken configs so the harness tests stay fast."""
    cfg = default_config(name, seed=seed)
    shrink = {
        "edge_growth": {"replicas": 20, "params": {"t": 10.0, "bounds": (0.5, 1.5)}},
        "density_convergence": {"replicas": 5, "params": {"motif": "triangle", "t": 20.0, "rel_tol": 0.5}},
        "metric_convergence": {"replicas": 5, "horizons": (10.0, 30.0)},
        "sequential_dichotomy": {"replicas": 10, "params": {"checkpoints": (20, 200),
                                                            "growth_factor": 1.5, "flat_tol": 0.5}},
        "tail_dichotomy": {"params": {"alpha": 0.5, "sizes": (400, 2000), "eps": 0.1, "growth": 1.2}},
        "degree_tail": {"replicas": 10, "params": {"t": 30.0, "lam": 0.5, "rel_tol": 0.25}},
        "bounded_degree_null": {"params": {"n": 2000, "tol": 1e-9, "bound": 0.05}},
        "exchangeability": {"replicas": 40, "params": {"t": 20.0, "bins": 4, "n_perms": 2,
                                                       "resamples": 500, "level": 0.01,
                                                       "control_p_early": 0.9, "control_p_late": 0.1}},
        "metric_axioms": {"params": {"triples": 8, "max_blocks": 4, "sym_tol": 1e-12, "tri_tol": 1e-9}},
        "cutnorm_oracle": {"params": {"count": 15, "max_blocks": 5, "tol": 1e-12}},
        "permutation_zero": {"params": {"count": 4, "blocks": 6, "tol": 1e-12}},
        "edge_density_one": {"params": {"graphs": 10, "graphons": 10, "tol": 1e-9}},
        "perturbation_bound": {"params": {"count": 5, "eps_values": (0.05,)}},
        "avg_degree_growth": {"replicas": 10, "horizons": (5.0, 20.0)},
    }
    override = shrink.get(name, {})
    return ExperimentConfig(
        experiment=name,
        replicas=override.get("replicas", cfg.replicas),
        seed=seed,
        graphon=cfg.graphon,
        horizons=override.get("horizons", cfg.horizons),
        params=override.get("params", cfg.params),
    )


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = default_config("edge_growth", seed=11)
        again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again.to_json() == cfg.to_json()

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(GraphonError, match="^unknown config keys replica; known: experiment, replicas,"):
            ExperimentConfig.from_json({"experiment": "edge_growth", "replica": 50})

    def test_zero_replicas_rejected(self):
        with pytest.raises(GraphonError, match="replica"):
            ExperimentConfig(experiment="edge_growth", replicas=0)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(GraphonError, match="unknown experiment"):
            run_experiment(ExperimentConfig(experiment="mystery"))

    def test_bad_graphon_rejected_before_compute(self):
        cfg = ExperimentConfig(
            experiment="edge_growth",
            graphon={"type": "step", "masses": [1.0], "values": [[2.0, 0.0]]},
        )
        with pytest.raises(GraphonError):
            run_experiment(cfg)

    def test_filled_config_does_not_share_catalog_dicts(self):
        before = describe_experiment("degree_tail"), json.dumps(CATALOG["degree_tail"].defaults, sort_keys=True)
        cfg = default_config("degree_tail")
        cfg.graphon["values"][0][0] = 0.9
        cfg.params["lam"] = -1.0
        assert (describe_experiment("degree_tail"), json.dumps(CATALOG["degree_tail"].defaults, sort_keys=True)) == before
        assert default_config("degree_tail").graphon["values"][0][0] != 0.9

    @pytest.mark.parametrize("key, value, message", [
        ("replicas", "abc", "replicas must be an integer, got 'abc'"),
        ("seed", "1.5", "seed must be an integer, got '1.5'"),
        ("seed", None, "seed must be an integer, got None"),
        ("replicas", [2], "replicas must be an integer, got [2]"),
    ], ids=["replicas-abc", "seed-1.5", "seed-None", "replicas-value3"])
    def test_from_json_rejects_non_integer_counts(self, key, value, message):
        with pytest.raises(GraphonError, match=f"^malformed config: {re.escape(message)}$"):
            ExperimentConfig.from_json({"experiment": "edge_growth", key: value})

    @pytest.mark.parametrize("payload, message", [
        ({}, "malformed config: missing key 'experiment'"),
        ({"experiment": 5}, "malformed config: experiment must be a string, got 5"),
    ], ids=["missing_experiment", "experiment_number"])
    def test_from_json_errors_name_their_field(self, payload, message):
        with pytest.raises(GraphonError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_json(payload)

    @pytest.mark.parametrize("key, value, message", [
        ("replicas", 2.7, "replicas must be an integer, got 2.7"),
        ("seed", True, "seed must be an integer, got True"),
        ("horizons", [True], "horizon must be a number, got True"),
        ("experiment", 5, "experiment must be a string, got 5"),
        ("params", [["t", 5.0]], "params must be an object, got [['t', 5.0]]"),
    ], ids=["replicas_fraction", "seed_bool", "horizon_bool", "experiment_number", "params_pairs"])
    def test_from_json_casts_nothing(self, key, value, message):
        with pytest.raises(GraphonError, match=f": {re.escape(message)}$"):
            ExperimentConfig.from_json({"experiment": "edge_growth", key: value})

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_defaults_load_as_json(self, name):
        """Configs built in Python from the catalog defaults pass the JSON reader unchanged."""
        cfg = default_config(name, seed=3)
        assert ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg

    def test_replica_seed_stable(self):
        assert replica_seed(7, 3) == replica_seed(7, 3)
        assert replica_seed(7, 3) != replica_seed(7, 4)


class TestParameterContract:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_runner_keywords_are_the_declared_params(self, name):
        params = inspect.signature(CATALOG[name].runner).parameters.values()
        keywords = sorted(p.name for p in params if p.kind is p.KEYWORD_ONLY)
        assert keywords == sorted(CATALOG[name].defaults["params"])
        assert all(p.default is p.empty for p in params)

    def test_misspelled_param_rejected(self):
        with pytest.raises(GraphonError, match="^unknown parameters T for edge_growth; known: bounds, t$"):
            run_experiment(ExperimentConfig("edge_growth", replicas=3, params={"T": 10.0}))

    def test_partial_config_reports_filled_config(self):
        full = default_config("metric_convergence", seed=3)
        partial = ExperimentConfig("metric_convergence", seed=3, params={"final_below": 1})
        rep = run_experiment(partial)
        assert rep.config == replace(full, replicas=1, params={"final_below": 1.0})
        assert type(rep.config.params["final_below"]) is float
        assert rep.records == run_experiment(replace(full, replicas=1)).records

    @pytest.mark.parametrize("name, params, message", [
        ("cutnorm_oracle", {"count": "abc"}, "parameter 'count' must be int, got 'abc'"),
        ("tail_dichotomy", {"sizes": 1000}, "parameter 'sizes' must be a list of int, got 1000"),
    ])
    def test_value_of_wrong_type_rejected(self, name, params, message):
        with pytest.raises(GraphonError, match=f"^{message}$"):
            run_experiment(ExperimentConfig(name, params=params))

    @pytest.mark.parametrize("name, params, message", [
        ("edge_growth", {"t": True}, "parameter 't' must be float, got True"),
        ("edge_growth", {"bounds": [False, 1]}, "parameter 'bounds' must be a list of float, got False"),
        ("cutnorm_oracle", {"count": 20.0}, "parameter 'count' must be int, got 20.0"),
        ("tail_dichotomy", {"sizes": [1000, 1e4]}, "parameter 'sizes' must be a list of int, got 10000.0"),
        ("density_convergence", {"motif": 5}, "parameter 'motif' must be str, got 5"),
        ("edge_growth", {"t": "30"}, "parameter 't' must be float, got '30'"),
    ], ids=["float_bool", "float_list_bool", "int_float", "int_list_float", "str_number", "float_string"])
    def test_value_is_not_cast(self, name, params, message):
        with pytest.raises(GraphonError, match=f"^{re.escape(message)}$"):
            run_experiment(ExperimentConfig(name, params=params))


class TestCatalog:
    def test_every_acceptance_criterion_is_covered(self):
        covered = sorted(c for entry in CATALOG.values() for c in entry.criteria)
        assert covered == list(range(1, 14))

    def test_describe_mentions_columns(self):
        for name in experiment_names():
            text = describe_experiment(name)
            assert "CSV columns" in text
            assert "default config" in text

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_runs_and_aggregates_consistent(self, name):
        report = run_experiment(small_config(name))
        assert isinstance(report.passed, bool)
        assert report.environment["version"]
        assert report.environment["python"] == platform.python_version()
        assert report.environment["numpy"] == np.__version__
        assert report.environment["platform"] == platform.platform()
        for key, value in report.aggregates.items():
            if key.startswith("mean_") and isinstance(value, float):
                field = key[len("mean_"):]
                if report.records and field in report.records[0]:
                    recomputed = float(np.mean([rec[field] for rec in report.records]))
                    assert recomputed == pytest.approx(value, abs=1e-12)

    def test_zero_graphon_densities_trivially_pass(self):
        cfg = ExperimentConfig(
            experiment="density_convergence", replicas=5, seed=0,
            graphon={"type": "step", "masses": [1.0], "values": [[0.0]]},
            params={"motif": "triangle", "t": 20.0, "rel_tol": 0.1},
        )
        rep = run_experiment(cfg)
        assert rep.passed
        assert all(r["h_inj"] == 0.0 for r in rep.records)

    def test_determinism_bitwise(self, tmp_path):
        cfg = small_config("edge_growth", seed=5)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.records == r2.records
        d1, d2 = tmp_path / "a", tmp_path / "b"
        render_report(r1, out_dir=str(d1))
        render_report(r2, out_dir=str(d2))
        for fname in ("edge_growth_records.csv", "edge_growth_report.json", "edge_growth_chart.svg"):
            assert (d1 / fname).read_bytes() == (d2 / fname).read_bytes()


class TestReplicaPaths:
    """Each replica is sampled once, at the largest horizon; a shorter horizon reads a cut of that trace."""

    # SHA-256 of the CSV records of the default run at seed 0, from when every
    # (horizon, replica) pair sampled its own trace
    RECORD_DIGESTS = {
        "metric_convergence": "d09abdae1167e54210094398d6f1ed08f5f22e90d9e03c3fb362aadec00adc87",
        "avg_degree_growth": "f0116fcade5e55876eb214f4d5d9844ace7976b9b4bd8055f0ae3aedca551d75",
    }

    @pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
    def test_records_are_pinned(self, name, tmp_path):
        (path,) = render_report(run_experiment(default_config(name, 0)), formats=("csv",), out_dir=tmp_path)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.RECORD_DIGESTS[name]

    @pytest.mark.parametrize("name", ["metric_convergence", "avg_degree_growth"])
    def test_one_trace_per_replica(self, name, monkeypatch):
        horizons = []

        def counted(w, horizon, seed, *args, **kwargs):
            horizons.append(horizon)
            return sample_graphon_process(w, horizon, seed, *args, **kwargs)

        monkeypatch.setattr(experiments, "sample_graphon_process", counted)
        cfg = default_config(name)
        run_experiment(cfg)
        assert horizons == [max(cfg.horizons)] * cfg.replicas
        assert cfg.replicas == {"metric_convergence": 20, "avg_degree_growth": 30}[name]


class TestRendering:
    def test_json_roundtrip_preserves_numbers(self, tmp_path):
        report = run_experiment(small_config("edge_growth"))
        (path,) = render_report(report, formats=("json",), out_dir=str(tmp_path))
        payload = json.loads(open(path).read())
        assert payload["records"] == report.records
        assert payload["aggregates"]["mean_ratio"] == report.aggregates["mean_ratio"]
        assert payload["passed"] == report.passed

    def test_csv_columns_match_records(self, tmp_path):
        report = run_experiment(small_config("metric_convergence"))
        (path,) = render_report(report, formats=("csv",), out_dir=str(tmp_path))
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "horizon,replica,estimate"
        assert len(lines) == 1 + len(report.records)

    def test_svg_contains_series_values(self, tmp_path):
        report = run_experiment(small_config("metric_convergence"))
        (path,) = render_report(report, formats=("svg",), out_dir=str(tmp_path))
        body = open(path).read()
        assert "<svg" in body and "polyline" in body
        for pt in report.aggregates["series"]:
            assert repr(pt["median_estimate"]) in body

    def test_unknown_format_rejected(self, tmp_path):
        report = run_experiment(small_config("edge_growth"))
        with pytest.raises(GraphonError, match="format"):
            render_report(report, formats=("pdf",), out_dir=str(tmp_path))
