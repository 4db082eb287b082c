import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from fracwell import fracops, variational
from fracwell.cli import main
from fracwell.config import ConfigError, ExperimentConfig


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

    def test_unknown_kirchhoff_kind(self, tmp_path):
        path = make_config(tmp_path, kirchhoff_p={"kind": "mystery"})
        with pytest.raises(ConfigError, match="unknown Kirchhoff kind"):
            ExperimentConfig.load(path).build_kirchhoff()


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

    def test_missing_config_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["classify", "--config", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_inadmissible_params_exit_code(self, tmp_path, capsys):
        path = make_config(tmp_path, params={"N": 1, "s": 0.5, "p": 3.0, "q": 3.5,
                                             "sigma": 3.0, "beta": 0.0})
        assert main(["classify", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # operations-mode params build fine but the well-depth sampler needs
        # the admissible window: a runtime failure, not a config error
        path = make_config(tmp_path, params={"N": 1, "s": 0.5, "p": 2.0, "q": 2.0,
                                             "sigma": 4.0, "beta": 0.0,
                                             "mode": "operations"})
        assert main(["classify", "--config", str(path)]) == 2
        assert "runtime failure" in capsys.readouterr().err


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

    def test_rerun_overwrites_deterministically(self, tmp_path, capsys):
        path = make_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        first = (tmp_path / "out" / "run-seed3" / "trace.csv").read_text()
        assert main(["simulate", "--config", str(path)]) == 0
        second = (tmp_path / "out" / "run-seed3" / "trace.csv").read_text()
        assert first == second


@pytest.mark.parametrize("name", ["decay.json", "kirchhoff_decay.json"])
def test_pair_pass_worker_leaves_artifacts_byte_identical(tmp_path, monkeypatch, capsys,
                                                          name):
    # v's dense passes on the worker thread at every M, then never
    config = Path(__file__).resolve().parents[1] / "configs" / name
    files = {}
    for label, threshold in (("threaded", 0), ("serial", math.inf)):
        monkeypatch.setattr(fracops, "_THREADED_MIN_NODES", threshold)
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / label)]) == 0
        run_dir = tmp_path / label / "run-seed1"
        files[label] = {f: (run_dir / f).read_bytes() for f in (
            "trace.csv", "summary.json", "outcome.json", "fibering.csv")}
    assert fracops._worker is not None
    assert files["threaded"] == files["serial"]


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
        real = variational._ray_sums
        monkeypatch.setattr(variational, "_ray_sums",
                            lambda *a: built.append(a) or real(*a))
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

    def test_printed_variant_negative_control(self, capsys):
        # the derivative-identity suite must detect the printed variant's failure
        assert main(["validate", "--scope", "fibering", "--psi-variant", "printed"]) == 3
        out = capsys.readouterr()
        assert "fibering-map" in out.out
        assert "fibering" in out.err

    def test_consistent_variant_passes(self, capsys):
        assert main(["validate", "--scope", "fibering"]) == 0


def test_console_entry_point(tmp_path):
    path = make_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fracwell.cli", "classify", "--config", str(path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "GlobalDecay"
