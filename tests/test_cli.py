"""Command line surface: every subcommand, file formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphonlab
from graphonlab.cli import main
from graphonlab.graphon_core import CaronFoxGraphon, StepGraphon, save_graphon_file
from graphonlab.sampling import load_trace_file, sample_graphon_process, save_trace_file, trace_to_json


@pytest.fixture()
def one_block_spec(tmp_path):
    path = tmp_path / "w.json"
    save_graphon_file(StepGraphon([1.0], [[1.0]]), path)
    return str(path)


@pytest.fixture()
def corner_specs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_graphon_file(StepGraphon([1.0, 1.0], [[1.0, 0.0], [0.0, 0.0]]), a)
    save_graphon_file(StepGraphon([1.0, 1.0], [[0.5, 0.0], [0.0, 0.0]]), b)
    return str(a), str(b)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSample:
    def test_sample_writes_trace(self, tmp_path, one_block_spec, capsys):
        out = tmp_path / "trace.json"
        code, stdout = run_cli(
            capsys, "sample", "--spec", one_block_spec, "--t", "10", "--seed", "7",
            "--keep-isolated", "--out", str(out),
        )
        assert code == 0
        info = json.loads(stdout)
        trace = load_trace_file(out)
        assert info["vertices"] == trace.num_vertices
        assert trace.seed == 7

    def test_sample_deterministic(self, tmp_path, one_block_spec, capsys):
        out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
        run_cli(capsys, "sample", "--spec", one_block_spec, "--t", "8", "--seed", "3", "--out", str(out1))
        run_cli(capsys, "sample", "--spec", one_block_spec, "--t", "8", "--seed", "3", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestCutNorm:
    def test_exact_value(self, one_block_spec, capsys):
        code, stdout = run_cli(capsys, "cutnorm", "--spec", one_block_spec, "--mode", "exact")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["value"] == pytest.approx(1.0)
        assert payload["mode"] == "exact"
        assert set(payload) == {"value", "mode", "witness"}  # the result's cost counter stays out of the report

    def test_heuristic_flagged(self, one_block_spec, capsys):
        code, stdout = run_cli(capsys, "cutnorm", "--spec", one_block_spec, "--mode", "heuristic")
        assert json.loads(stdout)["mode"] == "heuristic_lower"


class TestCutDist:
    def test_exact_distance(self, corner_specs, capsys):
        a, b = corner_specs
        code, stdout = run_cli(capsys, "cutdist", "--a", a, "--b", b, "--mode", "exact")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["value"] == pytest.approx(0.5, abs=1e-12)
        assert payload["mode"] == "exact"
        assert payload["quantization_error"] == 0.0

    def test_anneal_reports_upper_bound(self, corner_specs, capsys):
        a, b = corner_specs
        code, stdout = run_cli(
            capsys, "cutdist", "--a", a, "--b", b, "--mode", "anneal",
            "--budget", "2000", "--seed", "3", "--quantum", "1.0",
        )
        payload = json.loads(stdout)
        assert payload["mode"] == "upper_bound"
        assert payload["value"] >= 0.5 - 1e-12


class TestHom:
    def test_trace_density(self, tmp_path, one_block_spec, capsys):
        trace_path = tmp_path / "trace.json"
        run_cli(capsys, "sample", "--spec", one_block_spec, "--t", "12", "--seed", "1",
                "--out", str(trace_path))
        code, stdout = run_cli(capsys, "hom", "--motif", "edge", "--graph", str(trace_path), "--at", "12")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["h"] == 1.0

    def test_inline_motif(self, tmp_path, one_block_spec, capsys):
        trace_path = tmp_path / "trace.json"
        run_cli(capsys, "sample", "--spec", one_block_spec, "--t", "12", "--seed", "1",
                "--out", str(trace_path))
        code, stdout = run_cli(capsys, "hom", "--motif", "[[0,1],[1,2]]", "--graph", str(trace_path))
        assert code == 0
        assert json.loads(stdout)["h"] > 0

    def test_analytic_density(self, tmp_path, capsys):
        spec = tmp_path / "cf.json"
        spec.write_text(json.dumps({
            "type": "caron_fox",
            "f": {"kind": "shifted_power", "c": 1.0, "gamma": 2.0},
            "truncation": {"x_max": 5.0},
        }))
        code, stdout = run_cli(capsys, "hom", "--motif", "edge", "--spec", str(spec),
                               "--analytic", "--mc", "20000", "--seed", "5")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["finite"]
        assert payload["h"] == pytest.approx(1.0, abs=5 * payload["stderr"] + 0.02)


class TestTailReg:
    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code, stdout = run_cli(
            capsys, "tailreg", "--graphs", "clique_example1:alpha=0.5:n=400,900",
            "--eps", "0.1", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "graph_id,n,num_edges,M_grid,share"
        assert len(lines) > 2
        assert "np.float" not in out.read_text()  # plain decimal literals only
        payload = json.loads(stdout)
        assert payload["ok"] and payload["uniform_m"] is not None

    def test_unknown_family(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "tailreg", "--graphs", "nope:n=10", "--eps", "0.1",
                          "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestExperimentCommand:
    def test_describe(self, capsys):
        code, stdout = run_cli(capsys, "experiment", "edge_growth", "--describe")
        assert code == 0
        assert "CSV columns" in stdout

    def test_run_with_config_writes_reports(self, tmp_path, capsys):
        cfg = {
            "experiment": "edge_growth",
            "replicas": 20,
            "seed": 1,
            "params": {"t": 10.0, "bounds": [0.5, 1.5]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "results"
        code, stdout = run_cli(capsys, "experiment", "edge_growth",
                               "--config", str(cfg_path), "--out", str(out_dir))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["passed"]
        for suffix in ("_records.csv", "_report.json", "_chart.svg"):
            assert (out_dir / f"edge_growth{suffix}").exists()

    def test_failing_tolerance_exit_code(self, tmp_path, capsys):
        cfg = {
            "experiment": "edge_growth",
            "replicas": 5,
            "seed": 1,
            "params": {"t": 10.0, "bounds": [0.999, 1.001]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _ = run_cli(capsys, "experiment", "edge_growth", "--config", str(cfg_path),
                          "--out", str(tmp_path / "r"))
        assert code == 1

    @pytest.mark.parametrize("cfg", [{"params": {"T": 10.0}}, {"replica": 50}, [], {"params": [1]},
                                     {"horizons": 5}, {"horizons": ["a"]}])
    def test_misspelled_config_name_exit_code(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _ = run_cli(capsys, "experiment", "edge_growth", "--config", str(cfg_path),
                          "--out", str(tmp_path / "r"))
        assert code == 2 and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"replicas": "abc"}, "replicas must be an integer, got 'abc'"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ], ids=["cfg0", "cfg1"])
    def test_non_integer_count_exit_code(self, tmp_path, capsys, cfg, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["experiment", "edge_growth", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert code == 2 and not (tmp_path / "r").exists()
        assert f"malformed config: {message}" in capsys.readouterr().err

    def test_config_name_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "degree_tail"}))
        code, _ = run_cli(capsys, "experiment", "edge_growth", "--config", str(cfg_path),
                          "--out", str(tmp_path / "r"))
        assert code == 2


@pytest.mark.parametrize("content", [None, b"{not json", b'{"type": "step", "masses": [1],', b"\xff\xfe"],
                         ids=["missing", "not_json", "cut_short", "not_utf8"])
@pytest.mark.parametrize("command", [
    ["sample", "--spec", "{path}", "--t", "1", "--out", "{out}"],
    ["cutnorm", "--spec", "{path}"],
    ["cutdist", "--a", "{path}", "--b", "{path}"],
    ["hom", "--motif", "edge", "--graph", "{path}"],
    ["experiment", "edge_growth", "--config", "{path}", "--out", "{out}"],
])
def test_unreadable_input_exit_code(tmp_path, capsys, command, content):
    """A missing file, or one that is not JSON, is reported in one line with exit 2."""
    path, out = tmp_path / "input.json", tmp_path / "out"
    if content is not None:
        path.write_bytes(content)
    code = main([arg.format(path=path, out=out) for arg in command])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["hom", "--motif", "[]", "--graph", "{path}"], "--motif"),
    (["hom", "--motif", "[[0,1]", "--graph", "{path}"], "--motif"),
    (["hom", "--motif", "[[0,1,2]]", "--graph", "{path}"], "--motif"),
    (["hom", "--motif", '[[0,"a"]]', "--graph", "{path}"], "--motif"),
    (["hom", "--motif", "[5]", "--graph", "{path}"], "--motif"),
    (["hom", "--motif", "[[0, 1.7], [1, 2]]", "--graph", "{path}"], "vertex must be an integer, got 1.7"),
    (["hom", "--motif", "[[true, 2], [0, 1]]", "--graph", "{path}"], "vertex must be an integer, got True"),
    (["tailreg", "--graphs", "er_example1:alpha", "--eps", "0.1", "--out", "{out}"], "--graphs"),
    (["tailreg", "--graphs", "er_example1:n=abc", "--eps", "0.1", "--out", "{out}"], "--graphs"),
    (["tailreg", "--graphs", "er_example1:alpha=x", "--eps", "0.1", "--out", "{out}"], "--graphs"),
    (["tailreg", "--graphs", "er_example1:alpha=1:n=1000000", "--eps", "0.1", "--out", "{out}"], "edge limit"),
    (["tailreg", "--graphs", "clique_example1:alpha=1:n=1000000", "--eps", "0.1", "--out", "{out}"], "edge limit"),
    (["tailreg", "--graphs", "clique_example1:alpha=0.5:n=-5", "--eps", "0.1", "--out", "{out}"], "vertex count"),
    (["tailreg", "--graphs", "clique_example1:alpha=nan:n=100", "--eps", "0.1", "--out", "{out}"], "alpha"),
    (["tailreg", "--graphs", "clique_example1:alpha=1.5:n=100", "--eps", "0.1", "--out", "{out}"], "alpha=1.5"),
    (["tailreg", "--graphs", f"er_example1:n={10 ** 400}", "--eps", "0.1", "--out", "{out}"], "vertex count"),
    (["sample", "--spec", "{spec}", "--t", "nan", "--out", "{out}"], "horizon"),
    (["sample", "--spec", "{spec}", "--t", "inf", "--out", "{out}"], "horizon"),
    (["hom", "--motif", "edge", "--graph", "{trace}", "--at", "nan"], "horizon"),
    (["hom", "--motif", "edge", "--analytic", "--spec", "{spec}", "--mc", "1"], "mc_samples"),
    (["sample", "--spec", "{spec}", "--t", "1", "--seed", "-1", "--out", "{out}"], "seed"),
    (["cutnorm", "--spec", "{spec}", "--mode", "heuristic", "--seed", "-1"], "seed"),
    (["cutdist", "--a", "{spec}", "--b", "{other}", "--mode", "anneal", "--seed", "-1"], "seed"),
    (["hom", "--motif", "edge", "--analytic", "--spec", "{analytic}", "--seed", "-1"], "seed"),
    (["tailreg", "--graphs", "er_example1:n=10", "--eps", "0.1", "--seed", "-1", "--out", "{out}"], "seed"),
    (["experiment", "edge_growth", "--seed", "-1", "--out", "{out}"], "seed"),
    (["experiment", "edge_growth", "--config", "{config}", "--out", "{out}"], "seed"),
], ids=["empty_motif", "motif_cut_short", "motif_triple", "motif_not_integer", "motif_not_pairs",
        "motif_fraction", "motif_bool",
        "family_no_value", "family_size_not_integer", "family_alpha_not_number", "er_too_many_edges",
        "clique_too_many_edges", "clique_negative_size", "clique_alpha_nan", "clique_alpha_above_one",
        "er_size_too_large", "horizon_nan", "horizon_inf", "snapshot_time_nan", "one_mc_sample", "sample_seed",
        "cutnorm_seed", "cutdist_seed", "hom_seed", "tailreg_seed", "experiment_seed", "config_seed"])
def test_malformed_argument_exit_code(tmp_path, capsys, command, message):
    """A malformed argument is reported in one line with exit 2 and writes no output; a malformed
    --motif or --graphs is reported before any file is read."""
    files = {"path": tmp_path / "missing.json", "out": tmp_path / "out.csv", "spec": tmp_path / "w.json",
             "other": tmp_path / "u.json", "analytic": tmp_path / "cf.json", "trace": tmp_path / "t.json",
             "config": tmp_path / "cfg.json"}
    save_graphon_file(StepGraphon([1.0], [[0.5]]), files["spec"])
    save_graphon_file(StepGraphon([1.0, 1.0], [[0.5, 0.1], [0.1, 0.3]]), files["other"])
    save_graphon_file(CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=10.0), files["analytic"])
    save_trace_file(sample_graphon_process(StepGraphon([1.0], [[0.5]]), 3.0, seed=0), files["trace"])
    files["config"].write_text(json.dumps({"experiment": "edge_growth", "seed": -2}))
    code = main([arg.format(**files) for arg in command])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not files["out"].exists()


@pytest.mark.parametrize("key, value, what", [
    ("keep_isolated", "false", "true or false"),
    ("seed", 2.7, "a non-negative integer"),
    ("seed", True, "a non-negative integer"),
    ("seed", -3, "a non-negative integer"),
    ("label", 1.5, "an integer"),
    ("horizon", "3", "a number"),
], ids=["keep_isolated_string", "seed_fraction", "seed_bool", "seed_negative", "label_fraction", "horizon_string"])
def test_hand_edited_trace_file_exit_code(tmp_path, capsys, key, value, what):
    """A trace file with a field edited to another JSON type, or to a negative seed, is reported
    in one line naming the field, with exit 2, instead of loading as another run."""
    payload = trace_to_json(sample_graphon_process(StepGraphon([1.0], [[0.5]]), 3.0, seed=0))
    (payload["vertices"][0] if key == "label" else payload)[key] = value
    path = tmp_path / "t.json"
    path.write_text(json.dumps(payload))
    code = main(["hom", "--motif", "edge", "--graph", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: malformed trace payload: {key} must be {what}, got {value!r}\n"


@pytest.mark.parametrize("path, value, message", [
    (("edges", 0, 0), 2.7, "edge endpoint must be an integer, got 2.7"),
    (("edges", 0, 0), True, "edge endpoint must be an integer, got True"),
    (("vertices", 1, "birth"), "0.5", "birth must be a number, got '0.5'"),
    (("vertices", 1, "feature"), ["0.5"], "feature must be a number, got '0.5'"),
    (("sampler",), 5, "sampler must be a string, got 5"),
], ids=["endpoint_fraction", "endpoint_bool", "birth_string", "feature_string", "sampler_number"])
def test_mistyped_trace_entry_exit_code(tmp_path, capsys, path, value, message):
    """An edge endpoint, birth, feature or layout name of another JSON type is reported in one line
    naming the field, with exit 2, instead of being cast."""
    payload = trace_to_json(sample_graphon_process(StepGraphon([1.0], [[0.5]]), 3.0, seed=0))
    entry = payload
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    assert main(["hom", "--motif", "edge", "--graph", str(trace)]) == 2
    assert capsys.readouterr().err == f"error: malformed trace payload: {message}\n"


def test_no_scipy_or_networkx_loaded():
    """Every module and the CLI run on numpy alone: a fresh interpreter that
    imports them all has loaded neither scipy nor networkx."""
    script = (
        "import importlib, pkgutil, sys\n"
        "import graphonlab\n"
        "for mod in pkgutil.iter_modules(graphonlab.__path__):\n"
        "    importlib.import_module('graphonlab.' + mod.name)\n"
        "from graphonlab import cli\n"
        "try:\n"
        "    cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))\n"
    )
    src = str(Path(graphonlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [f"graphonlab {graphonlab.__version__}", "[]"]
