import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fracwell import GridField, artifacts, cli, fracops, variational
from fracwell.cli import main
from fracwell.config import ConfigError, ExperimentConfig
from fracwell.params import ParamError
from fracwell.svgplot import Series, plot_svg
from fracwell.validate import SuiteResult

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_config(tmp_path, amplitude=0.5, t_end=2.0, seed=3, nodes=32, rtol=1e-7,
                directions=40, **extra):
    raw = {
        "params": {"N": 1, "s": 0.5, "p": 3.0, "q": 3.5, "sigma": 4.0, "beta": 0.0},
        "grid": {"extents": [1.0], "counts": [nodes]},
        "kirchhoff_p": {"kind": "affine_power", "a": 1.0, "b": 0.0, "c": 1.0},
        "kirchhoff_q": {"kind": "affine_power", "a": 1.0, "b": 0.0, "c": 1.0},
        "initial_u": {"preset": "sine", "amplitude": amplitude},
        "initial_v": {"preset": "sine", "amplitude": amplitude},
        "integrator": {"t_end": t_end, "rtol": rtol},
        "psi_variant": "consistent",
        "well_depth": {"directions": directions},
        "output_dir": str(tmp_path / "out"),
        "seed": seed,
    }
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        path = make_config(tmp_path)
        cfg = ExperimentConfig.load(path)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.load("/nonexistent/config.json")

    def test_missing_keys_reported(self):
        with pytest.raises(ConfigError, match="missing keys"):
            ExperimentConfig.from_dict({"params": {}})

    @pytest.mark.parametrize("block, key", [(None, "outputdir"),
                                            ("integrator", "rtoll"),
                                            ("well_depth", "direction")])
    def test_unknown_keys_rejected_by_name(self, tmp_path, block, key):
        raw = json.loads(make_config(tmp_path).read_text())
        (raw if block is None else raw[block])[key] = 1
        with pytest.raises(ConfigError, match=f"unknown .*'{key}'.*allowed") as info:
            ExperimentConfig.from_dict(raw)
        if block == "integrator":
            assert "'rtol'" in str(info.value)

    @pytest.mark.parametrize("block, contents, key", [
        ("grid", {"extents": [1.0], "counts": [48], "count": 48}, "count"),
        ("kirchhoff_p", {"kind": "affine_power", "a": 1.0, "B": 5.0}, "B"),
        ("kirchhoff_q", {"kind": "log1p", "a": 1.0}, "a"),
        ("kirchhoff_p", {"kind": "table", "z": [0.0, 1.0], "k": [1.0, 2.0], "c": 1.0}, "c"),
        ("initial_u", {"preset": "sine", "amplitud": 0.5}, "amplitud"),
        ("initial_v", {"preset": "indicator", "amplitude": 1.0, "subbox_lo": 0.0}, "subbox_lo"),
    ])
    def test_unknown_block_keys_fail_by_name(self, tmp_path, capsys, block, contents, key):
        # unchecked, a misspelt coefficient key ran with its default (b = 0)
        raw = json.loads((CONFIGS / "decay.json").read_text())
        raw[block] = contents
        raw["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["classify", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{block}" in err
        assert f"'{key}'" in err and "allowed" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, value", [
        ("grid", 5), ("kirchhoff_p", []), ("initial_u", "sine"), ("well_depth", None),
    ])
    def test_block_that_is_not_an_object_fails_by_name(self, tmp_path, capsys, block, value):
        raw = json.loads((CONFIGS / "decay.json").read_text())
        raw[block] = value
        raw["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["classify", "--config", str(path)]) == 1
        assert f"config error: {block} must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_an_object(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            ExperimentConfig.from_json("[1, 2]")

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json("{nope")

    def test_bad_psi_variant(self, tmp_path):
        path = make_config(tmp_path, psi_variant="misprint")
        with pytest.raises(ConfigError, match="psi_variant"):
            ExperimentConfig.load(path)

    def test_builders(self, tmp_path):
        cfg = ExperimentConfig.load(make_config(tmp_path))
        params = cfg.build_params()
        assert params.well_regime
        grid = cfg.build_grid()
        assert grid.node_count == 32
        Kp, Kq = cfg.build_kirchhoff()
        u0, v0 = cfg.build_initial_pair(grid)
        assert u0.max_abs() > 0

    @pytest.mark.parametrize("block, key, value", [
        ("integrator", "dt_max", -1), ("integrator", "dt_max", 0),
        ("integrator", "t_end", -1), ("integrator", "t_end", None),
        ("integrator", "rtol", "1e-8"),
        ("integrator", "t_end", math.inf), ("integrator", "rtol", math.inf),
        ("integrator", "dt_min", 1e-3), ("integrator", "dt_max", 1e-14),
        ("well_depth", "directions", -1), ("well_depth", "directions", 2.5),
        ("well_depth", "modes", 0), ("well_depth", "refine_iters", -3),
    ])
    def test_bad_values_fail_by_name(self, tmp_path, capsys, block, key, value):
        # unchecked, such a value integrates backwards, stalls, crashes with
        # exit 2 or runs silently: the run must stop before any work, by name
        raw = json.loads((CONFIGS / "decay.json").read_text())
        raw[block][key] = value
        raw["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{block} '{key}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key, value", [
        (None, "seed", -1), (None, "seed", "abc"), (None, "seed", 1.7), (None, "seed", True),
        (None, "output_dir", 5), (None, "output_dir", None),
        ("initial_u", "amplitude", math.nan), ("initial_v", "amplitude", math.inf),
        ("kirchhoff_p", "a", math.nan), ("kirchhoff_q", "b", math.nan),
        ("kirchhoff_p", "beta", math.nan), ("kirchhoff_q", "c", math.inf),
        ("grid", "extents", [math.nan]), ("grid", "extents", [math.inf]),
        ("grid", "counts", [48.7]),
    ], ids=["seed-negative", "seed-string", "seed-float", "seed-bool", "output_dir-int",
            "output_dir-null", "amplitude-nan", "amplitude-inf", "a-nan", "b-nan", "beta-nan",
            "c-inf", "extents-nan", "extents-inf", "counts-float"])
    def test_bad_run_and_model_values_fail_by_name(self, tmp_path, capsys, monkeypatch,
                                                   block, key, value):
        # unchecked, these crash with exit 2, run under another seed, directory
        # or node count, or print NaN and Infinity, which are not JSON
        raw = json.loads((CONFIGS / "decay.json").read_text())
        raw["output_dir"] = str(tmp_path / "out")
        (raw if block is None else raw[block])[key] = value
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert main(["classify", "--config", "bad.json"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{block or 'config'}" in err and f"'{key}'" in err
        assert [f.name for f in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("key", ["z", "k"])
    def test_kirchhoff_table_values_must_be_finite(self, tmp_path, capsys, key):
        table = {"kind": "table", "z": [0.0, 1.0], "k": [1.0, 2.0]}
        table[key] = [0.0, math.nan] if key == "z" else [1.0, math.inf]
        path = make_config(tmp_path, kirchhoff_q=table)
        assert main(["classify", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error: invalid kirchhoff_q block" in err and f"'{key}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key, value, message", [
        ("initial_u", "amplitude", True, "initial_u 'amplitude' must be a finite number"),
        ("kirchhoff_p", "a", True, "invalid kirchhoff_p block: 'a' must be a finite number"),
        ("kirchhoff_q", "beta", False,
         "invalid kirchhoff_q block: 'beta' must be a finite number"),
        ("table", "z", [0, True, 2], "invalid kirchhoff_q block: table 'z' values must be"),
        ("table", "k", ["1", 1, 1], "invalid kirchhoff_q block: table 'k' values must be"),
        ("table", "z", 5, "invalid kirchhoff_q block: table 'z' values must be"),
        ("table", "z", None, "invalid kirchhoff_q block: table 'z' values must be"),
        ("grid", "extents", [True], "invalid grid block: 'extents' must be positive"),
        ("grid", "extents", ["1.0"], "invalid grid block: 'extents' must be positive"),
        ("grid", "extents", None, "invalid grid block: 'extents' must be positive"),
        ("params", "N", True, "invalid params block: N must be 1 or 2, got True"),
        ("params", "beta", False, "invalid params block: beta must be a finite number"),
    ], ids=["amplitude-bool", "a-bool", "beta-bool", "table-z-bool", "table-k-string",
            "table-z-number", "table-z-null", "extents-bool", "extents-string",
            "extents-null", "N-bool", "params-beta-bool"])
    def test_values_that_are_not_numbers_fail_by_name(self, tmp_path, capsys, monkeypatch,
                                                      block, key, value, message):
        # a JSON boolean passed as a number and ran; a string in a table,
        # a lone number or null crashed with exit 2
        raw = json.loads((CONFIGS / "decay.json").read_text())
        raw["output_dir"] = str(tmp_path / "out")
        if block == "table":
            block = "kirchhoff_q"
            raw[block] = {"kind": "table", "z": [0.0, 1.0, 2.0], "k": [1.0, 1.0, 1.0]}
        raw[block][key] = value
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert main(["classify", "--config", "bad.json"]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["bad.json"]

    def test_seed_override_meets_the_seed_rule(self, tmp_path, capsys):
        path = make_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--seed", "-1"]) == 1
        assert "config error: config 'seed' must be an integer >= 0, got -1" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @staticmethod
    def decay_on_8x8(tmp_path, **params):
        raw = json.loads((CONFIGS / "decay.json").read_text())
        raw["grid"] = {"extents": [1.0, 1.0], "counts": [8, 8]}
        raw["params"].update(params)
        raw["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "2d.json"
        path.write_text(json.dumps(raw))
        return path

    @pytest.mark.parametrize("command", ["simulate", "classify", "well-depth", "fibering"])
    def test_dimension_mismatch_fails_by_name(self, tmp_path, capsys, command):
        # the kernel would weigh with the grid's N = 2, the window with N = 1
        path = self.decay_on_8x8(tmp_path)
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "params.N = 1" in err and "2-D" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "classify", "well-depth"])
    def test_outside_the_well_regime_fails_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, command):
        path = self.decay_on_8x8(tmp_path, N=2, mode="operations")
        monkeypatch.setattr(ExperimentConfig, "build_grid", None)     # never reached
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "window fails: 2*sigma <= min(p(1+2/N), q(1+2/N), p_crit, q_crit)" in err
        assert not (tmp_path / "out").exists()

    def test_fibering_runs_outside_the_well_regime(self, tmp_path, capsys):
        path = self.decay_on_8x8(tmp_path, N=2, mode="operations")
        assert main(["fibering", "--config", str(path), "--points", "5"]) == 0
        assert (tmp_path / "out" / "run-seed1" / "fibering.csv").is_file()

    @pytest.mark.parametrize("command", ["simulate", "fibering"])
    def test_grid_too_large_fails_before_the_tables(self, tmp_path, capsys, monkeypatch,
                                                    command):
        path = make_config(tmp_path, nodes=36)
        need = fracops.peak_bytes(36)
        monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(fracops, "_weight_table", None)               # never reached
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "[36]" in err and f"{need} bytes" in err
        assert not (tmp_path / "out").exists()

    def test_peak_bytes_counts_two_tables_and_the_pass_buffers(self):
        for m in (8, 127, 128, 256, 1024):                  # one thread at every M
            assert fracops.peak_bytes(m) == 8 * m ** 2 * (2 + 2)
        assert cli._physical_memory() > fracops.peak_bytes(1024)

    def test_zero_directions_keep_the_presets(self, tmp_path, capsys):
        assert main(["well-depth", "--config", str(make_config(tmp_path, directions=0))]) == 0
        assert json.loads(capsys.readouterr().out)["attempted"] == 3

    def test_unknown_kirchhoff_kind(self, tmp_path):
        path = make_config(tmp_path, kirchhoff_p={"kind": "mystery"})
        with pytest.raises(ConfigError, match="unknown Kirchhoff kind"):
            ExperimentConfig.load(path).build_kirchhoff()

    @pytest.mark.parametrize("command", ["simulate", "classify", "fibering", "well-depth"])
    @pytest.mark.parametrize("block", ["kirchhoff_p", "kirchhoff_q"])
    @pytest.mark.parametrize("kind", [[1], {}])
    def test_kirchhoff_kind_that_is_not_a_string_fails_by_name(self, tmp_path, capsys,
                                                               command, block, kind):
        # a list or an object was looked up in the kinds' dict: a TypeError
        path = make_config(tmp_path, **{block: {"kind": kind}})
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: unknown Kirchhoff kind {kind!r} in {block}" in err
        assert not (tmp_path / "out").exists()

    def test_amplitude_defaults_to_one(self, tmp_path, capsys):
        digests = {}
        for label, block in (("explicit", {"preset": "sine", "amplitude": 1.0}),
                             ("default", {"preset": "sine"})):
            (tmp_path / label).mkdir()
            path = make_config(tmp_path / label, t_end=0.2, initial_u=block,
                               initial_v=dict(block, preset="bump"))
            assert main(["simulate", "--config", str(path)]) == 0
            run_dir = tmp_path / label / "out" / "run-seed3"
            digests[label] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                              for f in run_dir.iterdir()}
        assert len(digests["default"]) == 10
        assert digests["default"] == digests["explicit"]


class TestClassifyCommand:
    def test_json_output_and_determinism(self, tmp_path, capsys):
        path = make_config(tmp_path)
        assert main(["classify", "--config", str(path)]) == 0
        out1 = json.loads(capsys.readouterr().out)
        assert out1["verdict"] == "GlobalDecay"
        for key in ("phi0", "psi0", "psi_variant", "d", "d_star",
                    "predicted_decay", "t_max_bound"):
            assert key in out1
        assert main(["classify", "--config", str(path)]) == 0
        out2 = json.loads(capsys.readouterr().out)
        assert out1 == out2

    # the initial pair's sums overflow on purpose, with numpy's warnings
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_numbers_are_written_as_json(self, tmp_path, capsys):
        # at amplitude 1e40, phi0 and psi0 are NaN and d* is -inf: classify
        # prints NaN as null, and it and summary.json keep d*'s sign
        raw = json.loads((CONFIGS / "blowup.json").read_text())
        for name in ("initial_u", "initial_v"):
            raw[name]["amplitude"] = 1e40
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))

        def strict(text):
            return json.loads(text, parse_constant=lambda token: pytest.fail(f"not JSON: {token}"))

        assert main(["classify", "--config", str(path)]) == 0
        out = strict(capsys.readouterr().out)
        assert (out["phi0"], out["psi0"], out["d_star"]) == (None, None, "-inf")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 10
        summary = strict((tmp_path / "out" / "run-seed1" / "summary.json").read_text())
        assert summary["classification"]["d_star"] == "-inf"

    def test_json_text_keeps_the_sign_of_infinities(self):
        payload = {"a": [np.inf, -np.inf, np.nan], "b": np.array([-np.inf, 1.5]),
                   "c": np.float64(-np.inf), "d": np.int64(3)}
        assert json.loads(artifacts.json_text(payload)) == {
            "a": ["inf", "-inf", None], "b": ["-inf", 1.5], "c": "-inf", "d": 3}

    def test_missing_config_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["classify", "--config", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_inadmissible_params_exit_code(self, tmp_path, capsys):
        path = make_config(tmp_path, params={"N": 1, "s": 0.5, "p": 3.0, "q": 3.5,
                                             "sigma": 3.0, "beta": 0.0})
        assert main(["classify", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_runtime_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # an exception raised after the config checks is a runtime failure,
        # not a config error, even when it is a parameter error
        def failing_sampler(*args, **kwargs):
            raise ParamError("well depth needs admissible (well-regime) parameters")

        monkeypatch.setattr(variational, "estimate_well_depth", failing_sampler)
        assert main(["classify", "--config", str(make_config(tmp_path))]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_one_coupling_pass_per_classification(self, tmp_path, capsys, monkeypatch):
        # d* reads the coupling mass from the ray that gives phi0 and psi0
        monkeypatch.setattr(cli, "_well_estimate", lambda *a: SimpleNamespace(d=0.9))
        calls = []
        real = variational._coupling_rows
        monkeypatch.setattr(variational, "_coupling_rows",
                            lambda *a: calls.append(a) or real(*a))
        assert main(["classify", "--config", str(make_config(tmp_path))]) == 0
        assert json.loads(capsys.readouterr().out)["d"] == 0.9
        assert len(calls) == 1


class TestSimulateCommand:
    def test_decay_run_artifacts(self, tmp_path, capsys):
        path = make_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        run_dir = tmp_path / "out" / "run-seed3"
        for name in ("trace.csv", "outcome.json", "summary.json", "initial_u.csv",
                     "initial_v.csv", "phi_linear.svg", "phi_log.svg", "mass.svg",
                     "fibering.svg"):
            assert (run_dir / name).is_file(), name
        field_lines = (run_dir / "initial_u.csv").read_text().splitlines()
        assert field_lines[0] == "x,value" and len(field_lines) == 33
        header = (run_dir / "trace.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "t", "dt", "phi", "psi_consistent", "psi_printed", "bracket_u",
            "bracket_v", "coupling_mass", "log_coupling", "l2_u", "l2_v",
            "maxabs_u", "maxabs_v", "D", "residual",
        ]
        outcome = json.loads((run_dir / "outcome.json").read_text())
        assert outcome["kind"] == "CompletedHorizon"

    def test_blowup_run_exit_code_and_bounds(self, tmp_path, capsys):
        path = make_config(tmp_path, amplitude=2.5, seed=5)
        assert main(["simulate", "--config", str(path)]) == 10
        summary = json.loads((tmp_path / "out" / "run-seed5" / "summary.json").read_text())
        pair = summary["bound_comparisons"]["t_detect_vs_t_max_bound"]
        assert pair["t_detect"] is not None and pair["t_max_bound"] is not None
        assert pair["t_detect"] <= pair["t_max_bound"]

    def test_one_row_blowup_writes_every_artifact(self, tmp_path, capsys):
        # amplitude 1e8 ends at t = 0 with one row and phi0 = -2.49e64, a
        # single value on phi_linear.svg's axis
        raw = json.loads((CONFIGS / "blowup.json").read_text())
        for name in ("initial_u", "initial_v"):
            raw[name]["amplitude"] = 1e8
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 10
        run_dir = tmp_path / "out" / "run-seed1"
        assert len((run_dir / "trace.csv").read_text().splitlines()) == 2
        assert sorted(f.name for f in run_dir.iterdir()) == [
            "fibering.csv", "fibering.svg", "initial_u.csv", "initial_v.csv", "mass.svg",
            "outcome.json", "phi_linear.svg", "phi_log.svg", "summary.json", "trace.csv"]

    def test_one_ray_serves_classification_and_fibering(self, tmp_path, capsys, monkeypatch):
        # the initial pair's ray gives d*, phi0 and psi0, and is then scanned
        calls = []
        real = variational.FiberingRay.of_rows.__func__
        monkeypatch.setattr(variational.FiberingRay, "of_rows", classmethod(
            lambda cls, stacks, *a: calls.append(list(stacks)) or real(cls, calls[-1], *a)))
        path = make_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        cfg = ExperimentConfig.load(path)
        u0, v0 = cfg.build_initial_pair(cfg.build_grid())
        initial = [1 for stacks in calls for U, V in stacks if len(U) == 1
                   and np.array_equal(U[0], u0.values) and np.array_equal(V[0], v0.values)]
        assert len(initial) == 1
        assert max(len(stacks) for stacks in calls) > 1     # the well depth's chunks too
        assert "eps*" in (tmp_path / "out" / "run-seed3" / "fibering.svg").read_text()

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        path = make_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--seed", "11",
                     "--out", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "run-seed11").is_dir()

    def test_nonconstant_kirchhoff_run(self, tmp_path, capsys):
        path = make_config(
            tmp_path, t_end=0.5, nodes=24, directions=20,
            params={"N": 1, "s": 0.5, "p": 3.0, "q": 3.5, "sigma": 4.4, "beta": 0.25},
            kirchhoff_p={"kind": "affine_power", "a": 1.0, "b": 1.0, "c": 0.25},
            kirchhoff_q={"kind": "log1p"},
            initial_u={"preset": "sine", "amplitude": 0.3},
            initial_v={"preset": "bump", "amplitude": 0.3},
        )
        assert main(["simulate", "--config", str(path)]) == 0
        trace = (tmp_path / "out" / "run-seed3" / "trace.csv").read_text().splitlines()
        phis = [float(line.split(",")[2]) for line in trace[1:]]
        assert phis[-1] < phis[0]

    def test_artifacts_get_the_mode_of_a_plain_open(self, tmp_path, capsys):
        umask = os.umask(0o022)
        try:
            assert main(["simulate", "--config", str(make_config(tmp_path, t_end=0.2))]) == 0
        finally:
            os.umask(umask)
        files = sorted((tmp_path / "out" / "run-seed3").iterdir())
        assert len(files) == 10
        assert {f.name: stat.S_IMODE(f.stat().st_mode) for f in files} == {
            f.name: 0o644 for f in files}

    def test_failed_svg_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "plot.svg"
        plot_svg(path, [Series([1.0, 2.0], [3.0, 4.0], "a")])
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            plot_svg(path, [Series([1.0, 2.0], [5.0, 6.0], "b")])
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["plot.svg"]

    def test_rerun_overwrites_deterministically(self, tmp_path, capsys):
        path = make_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        first = (tmp_path / "out" / "run-seed3" / "trace.csv").read_text()
        assert main(["simulate", "--config", str(path)]) == 0
        second = (tmp_path / "out" / "run-seed3" / "trace.csv").read_text()
        assert first == second


class TestFiberingCommand:
    def test_scan_artifacts_with_marker(self, tmp_path, capsys):
        path = make_config(tmp_path)
        assert main(["fibering", "--config", str(path)]) == 0
        run_dir = tmp_path / "out" / "run-seed3"
        lines = (run_dir / "fibering.csv").read_text().splitlines()
        assert lines[0] == "eps,phi,psi_consistent,psi_printed"
        assert len(lines) == 122
        svg = (run_dir / "fibering.svg").read_text()
        assert "eps*" in svg

    def test_one_ray_serves_scan_star_and_mark(self, tmp_path, capsys, monkeypatch):
        built = []
        real = variational.FiberingRay.of_rows.__func__
        monkeypatch.setattr(variational.FiberingRay, "of_rows", classmethod(
            lambda cls, *a: built.append(a) or real(cls, *a)))
        assert main(["fibering", "--config", str(make_config(tmp_path))]) == 0
        assert len(built) == 1
        assert "eps*" in (tmp_path / "out" / "run-seed3" / "fibering.svg").read_text()

    def test_range_missing_star_still_emits(self, tmp_path, capsys):
        path = make_config(tmp_path)
        assert main(["fibering", "--config", str(path),
                     "--eps-min", "1e-4", "--eps-max", "1e-3", "--points", "11"]) == 0
        run_dir = tmp_path / "out" / "run-seed3"
        assert (run_dir / "fibering.csv").is_file()
        svg = (run_dir / "fibering.svg").read_text()
        assert "outside scanned range" in svg

    @pytest.mark.parametrize("flags, name", [
        (["--points", "0"], "--points"), (["--points", "-5"], "--points"),
        (["--eps-min", "0"], "--eps-min"), (["--eps-min", "-1"], "--eps-min"),
        (["--eps-min", "10", "--eps-max", "1"], "--eps-max"),
        (["--eps-min", "nan"], "--eps-min"), (["--eps-max", "inf"], "--eps-max"),
        # five log-spaced points between two adjacent floats round to repeats
        (["--eps-min", "1", "--eps-max", "1.0000000000000002", "--points", "5"], "--points"),
    ], ids=["points-0", "points-negative", "eps-min-0", "eps-min-negative", "eps-min-above-max",
            "eps-min-nan", "eps-max-inf", "grid-not-increasing"])
    def test_bad_scan_flags_fail_by_name_before_the_run_directory(self, tmp_path, capsys,
                                                                  flags, name):
        out = tmp_path / "out"
        code = main(["fibering", "--config", str(CONFIGS / "decay.json"), "--out", str(out),
                     *flags])
        err = capsys.readouterr().err
        assert code == 1 and "config error" in err and name in err
        assert not out.exists()

    def test_zero_pair_fails_before_the_run_directory(self, tmp_path, capsys):
        path = make_config(tmp_path, amplitude=0.0)
        assert main(["fibering", "--config", str(path)]) == 2
        assert "nonzero pair" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run-seed3").exists()


class TestWellDepthCommand:
    def test_samples_csv_and_summary(self, tmp_path, capsys):
        path = make_config(tmp_path, directions=25)
        assert main(["well-depth", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] > 0
        csv_lines = (tmp_path / "out" / "run-seed3" / "well_samples.csv").read_text().splitlines()
        assert csv_lines[0] == "label,eps_star,phi_at_star"
        assert len(csv_lines) >= 25


class TestValidateCommand:
    def test_scope_filter(self, capsys):
        assert main(["validate", "--scope", "kirchhoff"]) == 0
        out = capsys.readouterr().out
        assert "kirchhoff-scaling" in out and "kirchhoff-hypotheses" in out
        assert "operator-kernels" not in out

    def test_unknown_scope(self, capsys):
        assert main(["validate", "--scope", "zzz-no-such-suite"]) == 1

    def test_two_well_suites_share_one_estimate(self, capsys, monkeypatch):
        # the second suite reads the first one's estimate from the memo
        walks = []
        real = variational._direction_chunks
        monkeypatch.setattr(variational, "_direction_chunks",
                            lambda *a: walks.append(a) or real(*a))
        assert main(["validate", "--scope", "well-depth-positive"]) == 0
        assert main(["validate", "--scope", "constant-pair-nehari"]) == 0
        assert len(walks) == 1

    def test_printed_variant_negative_control(self, capsys):
        # the derivative-identity suite must detect the printed variant's failure
        assert main(["validate", "--scope", "fibering", "--psi-variant", "printed"]) == 3
        out = capsys.readouterr()
        assert "fibering-map" in out.out
        assert "fibering" in out.err

    def test_consistent_variant_passes(self, capsys):
        assert main(["validate", "--scope", "fibering"]) == 0

    def test_constant_pair_suite(self, capsys):
        assert main(["validate", "--scope", "constant-pair"]) == 0
        out = capsys.readouterr().out
        assert "[pass] constant-pair-nehari: 4 checks" in out
        assert "note: sampled d / constant-pair phi = " in out

    @pytest.mark.parametrize("kernel, nan", [
        ("gagliardo_sum", lambda u, p, s: math.nan),
        ("apply_operator",
         lambda u, p, s: GridField(u.domain, np.full(u.domain.node_count, math.nan))),
    ], ids=["gagliardo_sum", "apply_operator"])
    def test_nan_kernel_fails_the_operator_suite(self, capsys, monkeypatch, kernel, nan):
        # every check is written as its pass condition, which a NaN fails
        monkeypatch.setattr(fracops, kernel, nan)
        assert main(["validate", "--scope", "operator-kernels"]) == 3
        assert "[FAIL] operator-kernels: 42 checks" in capsys.readouterr().out

    def test_nan_fails_a_check(self):
        res = SuiteResult("probe")
        res.check(float("nan") <= 1.0, "nan passed")
        res.check(0.5 <= 1.0, lambda: pytest.fail("message built for a passing check"))
        assert res.checks == 2 and res.failures == ["nan passed"] and not res.passed


def test_console_entry_point(tmp_path):
    path = make_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fracwell.cli", "classify", "--config", str(path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "GlobalDecay"


# SHA-256 of the artifacts of ``fracwell simulate`` (trace.csv, summary.json,
# outcome.json, fibering.csv) and ``fracwell well-depth`` (well_samples.csv) on
# each example config, recorded before the trace became a set of columns and
# the energy report the fibering ray at eps = 1, and, for fibering.csv and
# well_samples.csv, before the scan and eps* became methods of the ray
# (numpy 2.4.6, Python 3.11, x86-64 Linux).  They pin the exact bytes: another
# numpy or libm may round differently and change them.
GOLDEN_SHA256 = {
    "decay": (
        "2dcdfc00be4aa2720e3510df67af95d41058c9f6ff647e4764712f17ba163e0a",
        "ebe13e005bb9e3bbd652218c85a9bbd7f214d83128ece3296fda1930a0d33a7d",
        "a863db3cbd1f1f8571823caac27ec52853463c3c296b40f7cf8621bf4bc6e313",
        "2881e2324aff43e3e616b5d316ee17e707df25773e3cef2af88cf4ea8f1a0d91"),
    "blowup": (
        "cbe2a461594acd390100f3ef0c0fe79c31589d146b4d188ce2758a612385cca8",
        "070ae7ae953b6e31c8b51688015290444b55bebc35db788c8aefb4cb5e7bc715",
        "769f9558d36c8ae13df9a70a1f3f2e9b39c87e7e8c158f950b34ad8b9b31a965",
        "e1b8b721cae889c5026393e595b7ed9ea4168467b332e2b3deb2e802d26a6412"),
    "kirchhoff_decay": (
        "0141a0f091cd3aeadbdf423a582d7ae0637d00439f1eb703f6d0bd69b6f98635",
        "0c17321a6b2a2b252d11c8dc880d8f6e9fc2db9054ac58114df5b096f967ffbf",
        "2add94607c4f0ab2ca5be958f8091a79ac325fb19914e1b6b8571565c9a787d9",
        "cb84c897d35f43a1ee7fd6a1cef74bc04cccf015c2cf1c0b80ead428e5fbb860"),
}
GOLDEN_WELL_SAMPLES_SHA256 = {
    "decay": "64eb0b6c3eb44e07f319533e27a42388d4f0d8480d0b46ea8d5e9a73010cda66",
    "blowup": "64eb0b6c3eb44e07f319533e27a42388d4f0d8480d0b46ea8d5e9a73010cda66",
    "kirchhoff_decay": "b8ed51c1c08eae5ba6cef5fc3f34359ec5dbb72bd62ef2108a079e0a02e35466",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_simulate_artifacts_match_golden_hashes(tmp_path, capsys, name):
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    expected_exit = 10 if name == "blowup" else 0
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == expected_exit
    run_dir = tmp_path / "run-seed1"
    digests = tuple(hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
                    for f in ("trace.csv", "summary.json", "outcome.json", "fibering.csv"))
    assert digests == GOLDEN_SHA256[name]


def test_one_row_simulate_matches_golden_hashes(tmp_path, capsys):
    # SHA-256 of trace.csv, summary.json and outcome.json for configs/blowup.json
    # with both amplitudes 12: one row with a finite phi0, recorded before the
    # residual became a trace column (numpy 2.4.6, Python 3.11, x86-64 Linux)
    raw = json.loads((CONFIGS / "blowup.json").read_text())
    for name in ("initial_u", "initial_v"):
        raw[name]["amplitude"] = 12
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 10
    run_dir = tmp_path / "out" / "run-seed1"
    assert tuple(hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
                 for f in ("trace.csv", "summary.json", "outcome.json")) == (
        "e070fe4d7362835500e595ea1c72dd666355e4b82bdce594c3e13f51ee77ced9",
        "537aa1d106042f783521cbc487deed3934aa7965ba2f3fedb849b8d06c6fb153",
        "a2aae03a0e7cda5189b7065f4149a7a81e8a2b0fffeaceeb33c80a73b9609366")


@pytest.mark.parametrize("name", sorted(GOLDEN_WELL_SAMPLES_SHA256))
def test_well_samples_match_golden_hashes(tmp_path, capsys, name):
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    assert main(["well-depth", "--config", str(config), "--out", str(tmp_path)]) == 0
    data = (tmp_path / "run-seed1" / "well_samples.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_WELL_SAMPLES_SHA256[name]


# SHA-256 of the stdout of ``fracwell validate`` under each psi variant, with
# its exit code, recorded before the energy report and the scan and eps*
# wrappers were folded into the fibering ray (numpy 2.4.6, Python 3.11,
# x86-64 Linux; another numpy or libm may round differently).  The printed
# variant exits 3 by design: the fibering-map suite is its negative control.
GOLDEN_VALIDATE_SHA256 = {
    "consistent": ("2c196b146dec0a01d73386d8e898e86319715a726790c2b76722d80b5ff30c8d", 0),
    "printed": ("d2907b5dba71e973a587684e63107657b00eb4888528e1fd5905b34871a47e53", 3),
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_VALIDATE_SHA256))
def test_validate_stdout_matches_golden_hash(capsys, variant):
    digest, code = GOLDEN_VALIDATE_SHA256[variant]
    assert main(["validate", "--psi-variant", variant]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
