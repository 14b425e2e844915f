import ast
import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import phasestab
from phasestab.cli import _gain_digest, main, render_report, run_pipeline, run_sweep
from phasestab.config import (
    ConfigError,
    SimConfig,
    apply_override,
    load_config,
    save_config,
)
from phasestab.io import read_json, read_trajectory_csv

import oracles

# _gain_digest of the default config; a change invalidates every cached gain.npz
DEFAULT_GAIN_DIGEST = "fd21aef38b30999e90e6a01f407114e80c15ae9dab090a61f7043740b69be3c7"


def fast_config(outdir, **overrides):
    cfg = SimConfig()
    cfg.basis.M = 16
    cfg.sim.t_end = 1.0
    cfg.sim.dt = 1e-3
    cfg.sim.record_every = 5
    cfg.output_dir = str(outdir)
    for dotted, value in overrides.items():
        apply_override(cfg, dotted, str(value))
    return cfg.validate()


class TestConfig:
    def test_defaults_valid(self):
        cfg = load_config()
        assert cfg.basis.M == 64
        assert cfg.sim.closed_loop

    def test_round_trip(self, tmp_path):
        cfg = fast_config(tmp_path / "x")
        path = tmp_path / "config.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_override_types(self):
        cfg = SimConfig()
        apply_override(cfg, "sim.rho", "0.005")
        apply_override(cfg, "basis.M", "32")
        apply_override(cfg, "sim.closed_loop", "false")
        assert cfg.sim.rho == 0.005
        assert cfg.basis.M == 32
        assert cfg.sim.closed_loop is False

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            apply_override(SimConfig(), "sim.nonexistent", "1")

    def test_unknown_section_in_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "bogus": {}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_omega_outside_domain_rejected(self):
        cfg = SimConfig()
        cfg.actuator.b = 1.5
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_non_power_of_two_M_rejected(self):
        cfg = SimConfig()
        cfg.basis.M = 48
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"schema_version": 9}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_saved_default_loads_with_unchanged_gain_digest(self, tmp_path):
        # save_config still writes riccati.method = "newton", and such a file
        # keeps its gain digest, so a cached gain made from it stays valid
        path = tmp_path / "config.json"
        save_config(SimConfig(), path)
        assert json.loads(path.read_text())["riccati"]["method"] == "newton"
        assert _gain_digest(load_config(path)) == DEFAULT_GAIN_DIGEST


class TestPipeline:
    def test_full_pipeline_outputs(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        summary = run_pipeline(cfg)
        assert summary["fitted_rate"] is not None
        assert summary["fitted_rate"] > 0
        out = Path(cfg.output_dir)
        for name in (
            "config.json",
            "stationary.json",
            "stationary_phi.csv",
            "stationary_phi_modes.csv",
            "spectrum.json",
            "controllability.json",
            "control_samples.csv",
            "synth.json",
            "gain.npz",
            "trajectory.csv",
            "simulate.json",
            "summary.json",
        ):
            assert (out / name).exists(), name

    def test_summary_self_contained(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        run_pipeline(cfg)
        summary = read_json(Path(cfg.output_dir) / "summary.json")
        for section in ("stationary", "spectrum", "controllability", "synth", "simulate"):
            assert section in summary
        assert summary["synth"]["margin"] > 0
        assert summary["controllability"]["steering_error"] < 1e-8

    def test_gain_reused_on_second_run(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        run_pipeline(cfg)
        gain_path = Path(cfg.output_dir) / "gain.npz"
        stamp = gain_path.stat().st_mtime_ns
        run_pipeline(cfg)
        assert gain_path.stat().st_mtime_ns == stamp

    def test_gain_reused_when_only_sim_changes(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        first = run_pipeline(cfg)
        gain_path = Path(cfg.output_dir) / "gain.npz"
        stamp = gain_path.stat().st_mtime_ns
        for dotted, value in (("sim.rho", "0.02"), ("sim.t_end", "0.5"), ("seed", "7")):
            apply_override(cfg, dotted, value)
        second = run_pipeline(cfg)
        assert gain_path.stat().st_mtime_ns == stamp
        assert second["synth"] == first["synth"]

    def test_gain_resynthesized_when_actuator_changes(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        stale = run_pipeline(cfg)
        apply_override(cfg, "actuator.a", "0.05")
        apply_override(cfg, "actuator.b", "0.95")
        rerun = run_pipeline(cfg)
        fresh = run_pipeline(
            fast_config(tmp_path / "fresh", **{"actuator.a": 0.05, "actuator.b": 0.95})
        )
        assert fresh["synth"]["margin"] != pytest.approx(stale["synth"]["margin"], rel=1e-3)
        assert rerun["synth"] == fresh["synth"]
        assert rerun["simulate"]["margin"] == fresh["simulate"]["margin"]
        K_rerun = np.load(Path(cfg.output_dir) / "gain.npz")["K"]
        K_fresh = np.load(tmp_path / "fresh" / "gain.npz")["K"]
        assert np.array_equal(K_rerun, K_fresh)

    def test_oracles_stay_off_the_pipeline_path(self):
        # the independent oracles live in tests/oracles.py: no package module
        # defines them, and no source file imports that module
        names = {
            "rk4_propagate",
            "propagate_linear_with_control",
            "remainder_G_expanded",
            "solve_care_dense",
            "_care_integrate",
        }
        assert names <= set(vars(oracles))
        for info in pkgutil.iter_modules(phasestab.__path__):
            module = importlib.import_module(f"phasestab.{info.name}")
            assert names.isdisjoint(vars(module)), module.__name__
        src = Path(phasestab.__file__).parents[1]
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [alias.name for alias in node.names]
                else:
                    continue
                for name in modules:
                    assert "oracles" not in name.split("."), f"{path} imports {name}"

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        files = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".json"))
        before = {p.name: p.read_bytes() for p in files}
        run_pipeline(cfg)
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob, name

    def test_open_loop_has_no_amplitude_columns(self, tmp_path):
        cfg = fast_config(tmp_path / "run", **{"sim.closed_loop": "false"})
        run_pipeline(cfg)
        data = read_trajectory_csv(Path(cfg.output_dir) / "trajectory.csv")
        assert "w_1" not in data


class TestMainEntry:
    def test_simulate_exit_zero(self, tmp_path):
        code = main(
            [
                "simulate",
                "--set", "basis.M=16",
                "--set", "sim.t_end=1.0",
                "--set", "sim.record_every=5",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "damage",
        ["garbage", "truncated", "emptied", "plain_npy", "member_missing", "synth_json_deleted"],
    )
    def test_damaged_gain_cache_exit_zero(self, tmp_path, damage):
        # an unreadable gain.npz is a cache miss like a stale one, and a
        # reused gain rewrites synth.json instead of reading it back
        run = tmp_path / "run"
        argv = ["simulate", "--set", "basis.M=16", "--set", "sim.record_every=5",
                "--set", "sim.t_end=1.0", "--output-dir", str(run)]
        assert main(argv) == 0
        gain = run / "gain.npz"
        synth, K = (run / "synth.json").read_bytes(), np.load(gain)["K"]
        if damage == "garbage":
            gain.write_bytes(b"not a gain archive\n" * 8)  # np.load: ValueError
        elif damage == "truncated":
            gain.write_bytes(gain.read_bytes()[: gain.stat().st_size // 2])  # BadZipFile
        elif damage == "emptied":
            gain.write_bytes(b"")  # EOFError
        elif damage == "plain_npy":
            with open(gain, "wb") as fh:
                np.save(fh, K)  # np.load returns an ndarray, not an archive
        elif damage == "member_missing":
            # the digest matches, but a member load_gain reads is absent (a
            # file written by older code): KeyError
            with np.load(gain) as data:
                kept = {name: data[name] for name in data.files if name != "R"}
            np.savez(gain, **kept)
        else:
            (run / "synth.json").unlink()
        assert main(argv) == 0
        assert (run / "synth.json").read_bytes() == synth
        assert np.array_equal(np.load(gain)["K"], K)

    def test_validation_error_exit_two(self, tmp_path):
        code = main(
            [
                "stationary",
                "--set", "actuator.b=1.5",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("source", ["config", "set"])
    def test_integrated_riccati_route_exit_two(self, tmp_path, capsys, source):
        if source == "config":
            path = tmp_path / "integrate.json"
            path.write_text(
                json.dumps({"schema_version": 1, "riccati": {"method": "integrate"}})
            )
            args = ["--config", str(path)]
        else:
            args = ["--set", "riccati.method=integrate"]
        code = main(["simulate", *args, "--output-dir", str(tmp_path / "run")])
        assert code == 2
        assert "tests/oracles.py" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, tmp_path):
        # absurd steering horizon makes the Gramian numerically singular
        code = main(
            [
                "controllability",
                "--set", "basis.M=16",
                "--set", "actuator.T0=400",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_step_beyond_block_bound_exit_three(self, tmp_path, capsys, scheme):
        # past the bound some I + dt A_k turns singular (imex2 solves with
        # theta = dt on its first step); the run must fail with exit 3 and
        # name the largest admissible dt
        code = main(
            [
                "simulate",
                "--set", f"sim.scheme={scheme}",
                "--set", "sim.dt=16",
                "--set", "sim.t_end=32",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 3
        assert f"keep dt below 1.549e+01 for {scheme}" in capsys.readouterr().err

    def test_non_finite_run_exit_three(self, tmp_path):
        # rho = 10 overflows the closed loop to NaN; the run must fail loudly
        with np.errstate(all="ignore"):
            code = main(
                [
                    "simulate",
                    "--set", "sim.rho=10",
                    "--set", "sim.t_end=2",
                    "--set", "sim.record_every=50",
                    "--output-dir", str(tmp_path / "run"),
                ]
            )
        assert code == 3

    def test_stage_subcommands(self, tmp_path):
        for name, artifact in (
            ("stationary", "stationary.json"),
            ("spectrum", "spectrum.json"),
            ("synth", "synth.json"),
        ):
            out = tmp_path / name
            code = main(
                [
                    name,
                    "--set", "basis.M=16",
                    "--output-dir", str(out),
                ]
            )
            assert code == 0
            assert (out / artifact).exists()


class TestReport:
    def test_closed_loop_report_has_rate(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        run_pipeline(cfg)
        table = render_report(Path(cfg.output_dir))
        assert "fitted_rate" in table
        assert "absent" not in table.split("fitted_rate")[1].splitlines()[0]
        assert (Path(cfg.output_dir) / "decay.dat").exists()
        assert (Path(cfg.output_dir) / "spectrum.dat").exists()

    def test_report_without_synth_marks_absent(self, tmp_path):
        from phasestab.cli import build_materials, stage_stationary, stage_spectrum

        cfg = fast_config(tmp_path / "run")
        out = Path(cfg.output_dir)
        out.mkdir(parents=True)
        m = build_materials(cfg)
        stage_stationary(m, out)
        stage_spectrum(m, out)
        table = render_report(out)
        riccati_row = [l for l in table.splitlines() if l.startswith("riccati_residual")]
        assert riccati_row and "absent" in riccati_row[0]

    def test_decay_dat_holds_trajectory_columns_as_plain_numbers(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        render_report(out)
        decay = np.loadtxt(out / "decay.dat")
        data = read_trajectory_csv(out / "trajectory.csv")
        expected = np.column_stack(
            [data[name] for name in ("t", "xi_norm", "h_norm", "physical_norm")]
        )
        assert decay.shape == expected.shape
        assert np.array_equal(decay, expected)

    def test_decay_data_monotone_after_transient(self, tmp_path):
        cfg = fast_config(tmp_path / "run", **{"sim.t_end": "8.0"})
        run_pipeline(cfg)
        data = read_trajectory_csv(Path(cfg.output_dir) / "trajectory.csv")
        mask = data["t"] >= 4.0
        xi = data["xi_norm"][mask]
        assert np.all(np.diff(xi) <= 1e-9 * xi[:-1])


class TestSweep:
    def test_sweep_over_rho(self, tmp_path):
        cfg = fast_config(tmp_path / "sweep")
        index = run_sweep(cfg, "sim.rho", ["0.01", "0.005"])
        assert len(index["runs"]) == 2
        assert (Path(cfg.output_dir) / "sweep.json").exists()
        for entry in index["runs"]:
            assert Path(entry["output_dir"]).exists()
            assert entry["fitted_rate"] is None or entry["fitted_rate"] > 0
