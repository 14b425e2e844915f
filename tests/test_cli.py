import ast
import dataclasses
import gc
import importlib
import json
import math
import pkgutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phasestab
from phasestab import cli, lqr
from phasestab.actuator import kalman_certificate, null_control
from phasestab.cli import (
    _gain_digest,
    build_materials,
    load_gain,
    main,
    render_report,
    run_pipeline,
    run_sweep,
    stage_simulate,
    stage_stationary,
    stage_synth,
)
from phasestab.config import (
    MAX_MODES,
    ConfigError,
    SimConfig,
    apply_override,
    load_config,
    save_config,
    step_count,
)
from phasestab.io import (
    read_json,
    read_trajectory_csv,
    write_columns_dat,
    write_json,
    write_table,
)
from phasestab.lqr import RiccatiSolution
from phasestab.sim import _decay_norm

import oracles
from phasebench import workloads

# _gain_digest of the default config at lqr.SOLVER_VERSION 2; a change
# invalidates every cached gain.npz
DEFAULT_GAIN_DIGEST = "9ebd1ebb5d131fe1efe2bb994973e1a4f633712d5bcf510af1471b0952504b6b"


def _stage_controllability_with_samples(m, outdir):
    """The controllability stage as it was while it also wrote the plan's samples."""
    rng = np.random.default_rng(m.cfg.seed)
    xi0 = rng.standard_normal(m.act.N)
    xi0 /= np.linalg.norm(xi0)
    plan = null_control(m.act, xi0, T0=m.cfg.actuator.T0)
    summary = {
        "N": m.act.N,
        "det_D": plan.certificate.det,
        "lambda_min_D": plan.certificate.lambda_min,
        "gramian_cond": plan.gramian_cond,
        "T0": plan.T0,
        "steering_error": plan.steering_error,
        "control_energy": plan.energy,
    }
    header = "t," + ",".join(f"w_{j + 1}" for j in range(m.act.N))
    write_table(outdir / "control_samples.csv", header, [plan.t_nodes, *plan.W_samples.T])
    write_json(outdir / "controllability.json", summary)
    return summary


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

    @pytest.mark.parametrize("changed", [False, True])
    def test_saved_bytes_are_the_sorted_indented_dump(self, tmp_path, changed):
        cfg = SimConfig()
        if changed:  # every field away from its default; a third gives a long repr
            bump = {
                bool: lambda v: not v,
                int: lambda v: v + 1,
                float: lambda v: v / 3.0,
                str: lambda v: v + "_x",
            }
            sections = [v for v in vars(cfg).values() if dataclasses.is_dataclass(v)]
            for holder in (cfg, *sections):
                for f in dataclasses.fields(holder):
                    value = getattr(holder, f.name)
                    if not dataclasses.is_dataclass(value):
                        setattr(holder, f.name, bump[type(value)](value))
            assert dataclasses.asdict(cfg) != dataclasses.asdict(SimConfig())
        save_config(cfg, tmp_path / "config.json")
        expected = json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "config.json").read_text() == expected

    def test_int_and_float_of_one_value_are_one_config(self, tmp_path):
        # an int in a float field is stored as a float, so the two dicts save
        # alike and share a gain digest: a rerun reuses the other's gain
        as_int = load_config(data={"params": {"l0": 1}})
        as_float = load_config(data={"params": {"l0": 1.0}})
        assert type(as_int.params.l0) is float
        assert _gain_digest(as_int) == _gain_digest(as_float)
        save_config(as_int, tmp_path / "int.json")
        save_config(as_float, tmp_path / "float.json")
        assert (tmp_path / "int.json").read_bytes() == (tmp_path / "float.json").read_bytes()
        # and a float override of that field parses as a float
        assert apply_override(as_int, "params.l0", "1.5").params.l0 == 1.5

    def test_int_too_large_for_a_float_field_rejected(self):
        with pytest.raises(ConfigError, match="params.nu is an int too large for a float"):
            load_config(data={"params": {"nu": 10**400}})

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

    @pytest.mark.parametrize("M", [48, 97])
    def test_any_M_from_four_runs(self, tmp_path, M):
        # every transform is the cached cosine matrix and the dealiasing grid
        # has P = 2M points, so M need not be a power of two
        cfg = SimConfig()
        cfg.basis.M = M
        cfg.validate()
        run = tmp_path / "run"
        assert main(["simulate", "--set", f"basis.M={M}", "--output-dir", str(run)]) == 0
        summary = read_json(run / "summary.json")
        assert summary["fitted_rate"] >= 0.9 * summary["synth"]["margin"]
        assert main(["simulate", "--set", "basis.M=3", "--output-dir", str(run)]) == 2

    @pytest.mark.parametrize("M", [MAX_MODES + 1, 10**19], ids=["bound+1", "1e19"])
    def test_M_beyond_the_bound_rejected(self, M):
        # validate alone: a run at such an M would allocate its arrays first
        cfg = SimConfig()
        cfg.basis.M = MAX_MODES
        cfg.validate()
        cfg.basis.M = M
        with pytest.raises(ConfigError, match=rf"basis.M must be in \[4, {MAX_MODES}\]"):
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
        # the open-loop plan's sample table is not written: only its scalars
        # go to controllability.json
        assert sorted(path.name for path in out.iterdir()) == sorted(
            (
                "config.json",
                "stationary.json",
                "stationary_phi.csv",
                "stationary_phi_modes.csv",
                "spectrum.json",
                "controllability.json",
                "synth.json",
                "gain.npz",
                "trajectory.csv",
                "simulate.json",
                "summary.json",
            )
        )
        assert not (out / "control_samples.csv").exists()

    def test_controllability_command_writes_the_plans_scalars_only(self, tmp_path):
        out = tmp_path / "run"
        code = main(["controllability", "--set", "basis.M=16", "--output-dir", str(out)])
        assert code == 0
        assert [path.name for path in out.iterdir()] == ["controllability.json"]
        record = read_json(out / "controllability.json")
        m = build_materials(fast_config(out))
        xi0 = np.random.default_rng(m.cfg.seed).standard_normal(m.act.N)
        plan = null_control(m.act, xi0 / np.linalg.norm(xi0), T0=m.cfg.actuator.T0)
        assert record["steering_error"] == plan.steering_error
        assert record["gramian_cond"] == plan.gramian_cond
        assert record["control_energy"] == plan.energy
        cert = kalman_certificate(m.act)
        assert record["n_omega"] == cert.n_omega == 8
        assert record["lambda_max_D"] == cert.lambda_max
        assert record["lambda_min_D"] == cert.lambda_min

    @pytest.mark.parametrize("workload", ["default", "thin_interface"])
    def test_run_directory_is_the_sample_route_without_its_table(
        self, tmp_path, monkeypatch, workload
    ):
        # simulate then report, once with the stage that wrote the sample
        # table; every other file keeps its bytes, and the JSON files differ
        # only in output_dir and the two Kalman figures the stage now adds
        runs = {}
        for route in ("samples", "current"):
            if route == "samples":
                monkeypatch.setattr(cli, "stage_controllability", _stage_controllability_with_samples)
            else:
                monkeypatch.undo()
            cfg = workloads.config_for(workload, 0)
            cfg.output_dir = str(tmp_path / route)
            run_pipeline(cfg)
            render_report(Path(cfg.output_dir))
            runs[route] = Path(cfg.output_dir)
        current, samples = runs["current"], runs["samples"]
        names = sorted(path.name for path in current.iterdir())
        assert (samples / "control_samples.csv").exists()
        assert names == sorted(p.name for p in samples.iterdir() if p.name != "control_samples.csv")
        cert = kalman_certificate(build_materials(cfg).act)
        for name in names:
            if name not in ("config.json", "summary.json", "controllability.json"):
                assert (current / name).read_bytes() == (samples / name).read_bytes(), name
                continue
            now, then = read_json(current / name), read_json(samples / name)
            for data in (now, then):
                data.pop("output_dir", None)
            if name == "config.json":
                assert now == then
                continue
            record = now if name == "controllability.json" else now["controllability"]
            assert record.pop("n_omega") == cert.n_omega
            assert record.pop("lambda_max_D") == cert.lambda_max
            assert now == then, name

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
        K_rerun = np.load(Path(cfg.output_dir) / "gain.npz")["K_gain"]
        K_fresh = np.load(tmp_path / "fresh" / "gain.npz")["K_gain"]
        assert np.array_equal(K_rerun, K_fresh)

    def test_gain_resynthesized_when_solver_version_changes(self, tmp_path, monkeypatch):
        # a solver that gives another R for the same config makes every
        # cached gain stale, though no config section changed
        cfg = fast_config(tmp_path / "run")
        run_pipeline(cfg)
        gain_path = Path(cfg.output_dir) / "gain.npz"
        m = build_materials(cfg)
        assert load_gain(gain_path, m) is not None
        monkeypatch.setattr(lqr, "SOLVER_VERSION", lqr.SOLVER_VERSION + 1)
        assert load_gain(gain_path, m) is None
        # the rerun synthesizes afresh and stores the gain under the new key
        run_pipeline(cfg)
        assert load_gain(gain_path, m) is not None

    def test_gain_file_round_trip(self, tmp_path):
        # gain.npz holds each RiccatiSolution field under its own name, and
        # load_gain gives back the very solution stage_synth wrote
        out = tmp_path / "run"
        out.mkdir()
        m = build_materials(fast_config(out))
        sol, _ = stage_synth(m, out)
        with np.load(out / "gain.npz") as data:
            names = set(data.files)
        fields = dataclasses.fields(RiccatiSolution)
        assert names == {f.name for f in fields} | {"config_digest"}
        loaded = load_gain(out / "gain.npz", m)
        for f in fields:
            fresh, read = getattr(sol, f.name), getattr(loaded, f.name)
            if isinstance(fresh, np.ndarray):
                assert isinstance(read, np.ndarray) and np.array_equal(read, fresh), f.name
            else:
                assert type(read) is type(fresh) and read == fresh, f.name
        assert all(type(v) is float for v in loaded.residual_history)

    def test_gain_file_holds_compact_R(self, tmp_path):
        # at M = 256 gain.npz holds R as the unstable cross and the mode
        # blocks, 51 KiB (2062 KiB with the dense R)
        m = build_materials(workloads.config_for("thin_interface", 0))
        stage_synth(m, tmp_path)
        assert (tmp_path / "gain.npz").stat().st_size < 64 * 1024

    def test_dense_R_gain_file_resynthesized(self, tmp_path):
        # a gain.npz in the format older code wrote, with the dense R_matrix
        # and a matching digest, lacks R's compact members: it is a cache
        # miss, and the rerun writes the compact file
        cfg = fast_config(tmp_path / "run")
        run_pipeline(cfg)
        gain_path = Path(cfg.output_dir) / "gain.npz"
        m = build_materials(cfg)
        sol = load_gain(gain_path, m)
        old = {"R_matrix": sol.R_matrix}
        old.update(
            (f.name, getattr(sol, f.name))
            for f in dataclasses.fields(RiccatiSolution)
            if not f.name.startswith("R_")
        )
        np.savez(gain_path, config_digest=_gain_digest(cfg), **old)
        assert load_gain(gain_path, m) is None
        run_pipeline(cfg)
        with np.load(gain_path) as data:
            assert "R_matrix" not in data.files
            assert {"R_rows", "R_cross", "R_blocks"} <= set(data.files)

    def test_pipeline_never_assembles_dense_R(self, tmp_path, monkeypatch):
        # a default run and a rerun that reuses its gain apply R only in its
        # compact form: RiccatiSolution.R_matrix is for tests and users
        def assembled(sol):
            raise AssertionError("the pipeline assembled the dense R")

        monkeypatch.setattr(RiccatiSolution, "R_matrix", property(assembled))
        cfg = SimConfig()
        cfg.output_dir = str(tmp_path / "run")
        cfg.validate()
        run_pipeline(cfg)
        gain = (tmp_path / "run" / "gain.npz").read_bytes()
        run_pipeline(cfg)
        assert (tmp_path / "run" / "gain.npz").read_bytes() == gain

    def test_oracles_stay_off_the_pipeline_path(self):
        # the independent oracles live in tests/oracles.py: no package module
        # defines them, and no source file imports that module
        names = {
            "eigenvectors",
            "apply_B",
            "basis_function",
            "cosine_matrix",
            "to_physical",
            "from_physical",
            "physical_norm",
            "plan_control",
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

    def test_simulate_summary_matches_trajectory_rows(self, tmp_path):
        # simulate.json's norms are the first and last trajectory rows, bit for
        # bit, and the final decay norm is that of the final state
        cfg = fast_config(tmp_path / "run")
        out = Path(cfg.output_dir)
        out.mkdir(parents=True)
        m = build_materials(cfg)
        sol, _ = stage_synth(m, out)
        record, _ = stage_simulate(m, sol, out)
        sim = read_json(out / "simulate.json")
        data = read_trajectory_csv(out / "trajectory.csv")
        assert sim["initial_xi_norm"] == data["xi_norm"][0]
        assert sim["final_xi_norm"] == data["xi_norm"][-1]
        assert sim["final_h_norm"] == data["h_norm"][-1]
        assert sim["final_xi_norm"] == _decay_norm(m.basis, record.final_x)

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

    def test_record_every_beyond_int64_records_both_ends(self, tmp_path):
        # a record_every past the step count records t = 0 and t_end alone,
        # also one that no int64 holds
        runs = {}
        for every in (10**18, 10**19):
            run = runs[every] = tmp_path / str(every)
            argv = ["simulate", "--set", "basis.M=16", "--set", "sim.t_end=1",
                    "--set", f"sim.record_every={every}", "--output-dir", str(run)]
            assert main(argv) == 0
        data = read_trajectory_csv(runs[10**19] / "trajectory.csv")
        assert data["t"].tolist() == [0.0, 1.0]
        for name in ("trajectory.csv", "simulate.json"):
            assert (runs[10**19] / name).read_bytes() == (runs[10**18] / name).read_bytes()

    @pytest.mark.parametrize(
        "damage",
        [
            "garbage",
            "truncated",
            "emptied",
            "plain_npy",
            "member_missing",
            "old_member_names",
            "synth_json_deleted",
        ],
    )
    def test_damaged_gain_cache_exit_zero(self, tmp_path, damage):
        # an unreadable gain.npz is a cache miss like a stale one, and a
        # reused gain rewrites synth.json instead of reading it back
        run = tmp_path / "run"
        argv = ["simulate", "--set", "basis.M=16", "--set", "sim.record_every=5",
                "--set", "sim.t_end=1.0", "--output-dir", str(run)]
        assert main(argv) == 0
        gain = run / "gain.npz"
        synth, K = (run / "synth.json").read_bytes(), np.load(gain)["K_gain"]
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
                kept = {name: data[name] for name in data.files if name != "R_cross"}
            np.savez(gain, **kept)
        elif damage == "old_member_names":
            # the member names older code wrote, with a matching digest: a
            # field's member is missing, so the gain is synthesized again
            plant = build_materials(load_config(run / "config.json")).plant
            old = {"R_matrix": "R", "K_gain": "K"}
            with np.load(gain) as data:
                kept = {old.get(name, name): data[name] for name in data.files}
            del kept["residual_history"]
            np.savez(gain, Q_diag=plant.state_weight_diagonal(), **kept)
        else:
            (run / "synth.json").unlink()
        assert main(argv) == 0
        assert (run / "synth.json").read_bytes() == synth
        assert np.array_equal(np.load(gain)["K_gain"], K)

    def test_validation_error_exit_two(self, tmp_path):
        code = main(
            [
                "stationary",
                "--set", "actuator.b=1.5",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "override", ["sim.t_end=nan", "sim.t_end=inf", "riccati.tol=nan", "params=3"]
    )
    def test_unusable_override_exit_two(self, tmp_path, override):
        # a NaN passes every "x <= 0" test, an infinite t_end overflows the
        # step count, and a string in place of a section breaks its readers
        code = main(["simulate", "--set", override, "--output-dir", str(tmp_path / "run")])
        assert code == 2

    @pytest.mark.parametrize(
        "command, data",
        [
            ("stationary", {"params": 3}),
            ("stationary", {"basis": {"M": 64.0}}),
            ("stationary", {"sim": {"record_every": True}}),
            ("stationary", {"sim": {"t_end": "x"}}),
            ("stationary", {"sim": {"closed_loop": 1}}),
            ("simulate", {"seed": "abc"}),
        ],
    )
    def test_mistyped_config_file_exit_two(self, tmp_path, capsys, command, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 1, **data}))
        code = main([command, "--config", str(path), "--output-dir", str(tmp_path / "run")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_non_utf8_config_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"seed": "\xff\xfe"}')
        code = main(["simulate", "--config", str(path), "--output-dir", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config file {path} is not valid JSON")

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "nonexistent.json"
        code = main(["simulate", "--config", str(path), "--output-dir", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(path) in err

    @pytest.mark.parametrize(
        "command",
        [["spectrum"], ["simulate"], ["sweep", "--param", "sim.rho", "--values", "0.01"]],
        ids=["spectrum", "simulate", "sweep"],
    )
    @pytest.mark.parametrize("where", ["file", "below_file"])
    def test_unusable_output_dir_exit_two(self, tmp_path, capsys, command, where):
        # an existing file, or a path whose parent is a file, cannot be a directory
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker if where == "file" else blocker / "run"
        code = main([*command, "--set", "basis.M=16", "--output-dir", str(out)])
        assert code == 2
        assert "cannot use output directory" in capsys.readouterr().err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("name", ["gain.npz", "config.json", "trajectory.csv"])
    def test_artifact_path_that_is_a_directory_exit_two(self, tmp_path, capsys, name):
        # gain.npz is read before it is written; the others are only written
        run = tmp_path / "run"
        (run / name).mkdir(parents=True)
        code = main(["simulate", "--set", "basis.M=16", "--set", "sim.t_end=1.0",
                     "--output-dir", str(run)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(run / name) in captured.err

    def test_int_in_float_field_loads(self):
        cfg = load_config(data={"params": {"nu": 1}, "sim": {"t_end": 5}})
        assert cfg.params.nu == 1 and cfg.sim.t_end == 5

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

    def test_too_few_nodes_in_omega_named_as_the_likely_cause(self, tmp_path, capsys):
        # at M = 16 only 2 grid nodes lie inside (0.45, 0.55), against N = 5
        # unstable modes at nu = 0.01: D has rank at most 4, so the Kalman
        # check fails, and the message says why and what to raise
        code = main(
            [
                "simulate",
                "--set", "basis.M=16",
                "--set", "params.nu=0.01",
                "--set", "actuator.a=0.45",
                "--set", "actuator.b=0.55",
                "--set", "sim.t_end=1",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: coupling matrix is numerically singular (")
        assert "only 2 grid nodes lie inside omega for 5 unstable modes" in err
        assert "a larger basis.M" in err

    def test_blowup_prints_the_guards_message_alone(self, tmp_path, capfd):
        # rho = 3 overflows the explicit remainder at dt = 5e-3; the block
        # guard reports it, and NumPy's overflow warnings stay off stderr
        code = main(
            [
                "simulate",
                "--set", "basis.M=16",
                "--set", "sim.rho=3",
                "--set", "sim.t_end=1",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 3
        out, err = capfd.readouterr()
        assert "decay norm" in err
        assert "RuntimeWarning" not in out + err
        assert err.count("\n") == 1

    def test_non_finite_stationary_residual_exit_three(self, tmp_path, capfd):
        # a start of 1e200 overflows the first Euler-Lagrange evaluation to a
        # NaN residual, which must not pass as converged into the synthesis
        code = main(
            [
                "simulate",
                "--set", "stationary.mode=minimize",
                "--set", "stationary.init_value=1e200",
                "--set", "basis.M=16",
                "--set", "sim.t_end=1",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 3
        out, err = capfd.readouterr()
        assert err.startswith("numerical failure: stationary solve: ")
        assert "residual nan" in err
        assert "RuntimeWarning" not in out + err
        assert err.count("\n") == 1

    def test_overflowing_initial_state_exit_three(self, tmp_path, capfd):
        # the decay norm of rho = 1e300 data overflows before the first step
        code = main(
            [
                "simulate",
                "--set", "basis.M=16",
                "--set", "sim.rho=1e300",
                "--set", "sim.t_end=1",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 3
        out, err = capfd.readouterr()
        assert err == "numerical failure: initial decay norm inf is not finite\n"
        assert "RuntimeWarning" not in out

    def test_singular_coupling_exit_three(self, tmp_path, capsys):
        # no node of the M = 64 grid lies in (0.495, 0.505), so B = 0 and the
        # Kalman check refuses the null control before any Gramian is formed
        code = main(
            [
                "controllability",
                "--set", "actuator.a=0.495",
                "--set", "actuator.b=0.505",
                "--output-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 3
        assert "coupling matrix is numerically singular" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--set", "sim.rho"], "--set expects FIELD=VALUE, got 'sim.rho'"),
            (["--set", "basis.L=0"], "basis.L must be positive"),
            (["--set", "params.l0=-1"], "params.l0 must be positive"),
            (["--set", "stationary.mode=flow"], "stationary.mode must be 'constant' or"),
            (["--set", "stationary.which=2"], "stationary.which must be -1, 0 or +1"),
            (["--set", "stationary.tol=0"], "stationary.tol must be positive, got 0.0"),
            (["--set", "actuator.T0=0"], "actuator.T0 must be positive"),
            (["--set", "riccati.tol=0"], "riccati.tol must be positive, got 0.0"),
            (["--set", "sim.dt=0"], "sim.dt must be positive, got 0.0"),
            (["--set", "sim.scheme=rk4"], "sim.scheme must be 'imex1' or 'imex2'"),
            (["--set", "sim.record_every=0"], "sim.record_every must be >= 1"),
            (["--config", "not_json"], "is not valid JSON"),
            (["--set", "foo.bar=1"], "unknown config section 'foo.bar'"),
            (["--set", "sim.dt=abc"], "cannot parse 'abc' for 'sim.dt'"),
            # more recorded rows than NumPy can size, or an infinite count
            (["--set", "sim.dt=1e-300"], "sim.t_end / sim.dt / sim.record_every asks"),
            (["--set", "sim.t_end=1e300"], "sim.t_end / sim.dt / sim.record_every asks"),
            (
                ["--set", "sim.dt=1e-300", "--set", "sim.t_end=1e300"],
                "sim.t_end / sim.dt / sim.record_every asks for inf",
            ),
            (["--set", "seed=-1"], "seed must be >= 0, got -1"),
            # a run of round(t_end / dt) steps would end at 0 or at 2 dt
            (
                ["--set", "sim.t_end=0.001"],
                "sim.t_end = 0.001 is not a positive whole number of sim.dt = 0.005 steps",
            ),
            (
                ["--set", "sim.t_end=0.0124"],
                "sim.t_end = 0.0124 is not a positive whole number of sim.dt = 0.005 steps",
            ),
            # each positive field is checked, and named, on its own
            (["--set", "stationary.max_iters=0"], "stationary.max_iters must be positive, got 0"),
            (["--set", "riccati.max_iters=0"], "riccati.max_iters must be positive, got 0"),
            (["--set", "sim.t_end=0"], "sim.t_end must be positive, got 0.0"),
        ],
    )
    def test_configuration_error_exit_two(self, tmp_path, capsys, args, message):
        if args[0] == "--config":
            path = tmp_path / "config.json"
            path.write_text("{schema_version: 1")
            args = ["--config", str(path)]
        code = main(["simulate", *args, "--output-dir", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    @pytest.mark.parametrize("workload", ["default", "thin_interface", "rho_ensemble"])
    def test_workload_configs_are_whole_numbers_of_steps(self, workload):
        cfg = workloads.config_for(workload, 0)
        assert cfg.validate() is cfg
        assert step_count(cfg.sim.t_end, cfg.sim.dt) * cfg.sim.dt == pytest.approx(cfg.sim.t_end)

    def test_infinite_gramian_exits_three_with_its_own_message(self, tmp_path, capfd):
        # the Gramian of a horizon of 1e300 overflows; it is checked before
        # LAPACK's condition number, which would print its own complaint
        code = main(
            ["simulate", "--set", "basis.M=16", "--set", "actuator.T0=1e300",
             "--output-dir", str(tmp_path / "run")]
        )
        assert code == 3
        out, err = capfd.readouterr()
        assert "DLASCL" not in out + err
        assert err == "numerical failure: steering Gramian is not finite at T0 = 1.000e+300\n"

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


class TestJsonWriter:
    @staticmethod
    def recursive(value):
        """The element-by-element conversion that ``write_json``'s ``tolist`` default shortcuts."""
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        if isinstance(value, np.ndarray):
            return [TestJsonWriter.recursive(v) for v in value.tolist()]
        if isinstance(value, dict):
            return {k: TestJsonWriter.recursive(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [TestJsonWriter.recursive(v) for v in value]
        return value

    def test_arrays_give_the_bytes_of_the_recursive_route(self, tmp_path):
        rng = np.random.default_rng(3)
        payload = {
            "eigenvalues": rng.standard_normal(512) * 10.0 ** rng.integers(-200, 200, 512),
            "modes": rng.standard_normal((8, 256)),
            "counts": np.arange(-5, 5, dtype=np.int64),
            "small_ints": np.arange(4, dtype=np.int32),
            "flags": np.array([True, False]),
            "empty": np.zeros((0, 3)),
            "specials": np.array([0.0, -0.0, 1e-320, 1.0 / 3.0]),
            "mixed": np.array([np.float64(0.5), 2], dtype=object),
            "nested": [np.float64(1.5), (np.int64(2), np.ones((2, 2)))],
        }
        write_json(tmp_path / "fast.json", payload)
        expected = json.dumps(self.recursive(payload), indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "fast.json").read_text() == expected

    def test_numpy_bool_written_as_true(self, tmp_path):
        # a held certificate is a NumPy comparison
        held = np.float64(1.0) < 2.0
        assert type(held) is np.bool_
        write_json(tmp_path / "held.json", {"held": held, "rows": [held, np.bool_(False)]})
        text = (tmp_path / "held.json").read_text()
        assert text == '{\n  "held": true,\n  "rows": [\n    true,\n    false\n  ]\n}\n'


class TestTableWriter:
    # every repr form a float column can hold, and 17-digit values
    SPECIALS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e-05, 1e16,
                0.1 + 0.2, 1.0 / 3.0, -2.718281828459045, 123456789.12345678]

    @classmethod
    def columns(cls, n_rows):
        rng = np.random.default_rng(n_rows)
        floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
        specials = np.resize(cls.SPECIALS, n_rows)
        return [np.arange(n_rows) - 7, floats, specials, specials[::-1].copy()]

    @pytest.mark.parametrize("sep", [",", " "], ids=["comma", "space"])
    @pytest.mark.parametrize("n_rows", [0, 1, 511, 512, 513, 1025])
    def test_chunks_give_the_bytes_of_the_per_row_route(self, tmp_path, n_rows, sep):
        columns = self.columns(n_rows)
        write_table(tmp_path / "table", "h", columns, sep=sep)
        rows = zip(*(c.tolist() for c in columns))
        expected = "h\n" + "".join(sep.join(map(repr, row)) + "\n" for row in rows)
        assert (tmp_path / "table").read_text() == expected

    @pytest.mark.parametrize(
        "names",
        [("t", "xi_norm", "h_norm"), ("h_norm",), ("w_1", "t")],
        ids=["decay", "one", "last-first"],
    )
    def test_columns_dat_over_three_chunks_matches_numeric_route(self, tmp_path, names):
        # 1200 rows are three chunks; parsing the CSV and writing the floats
        # back gives the bytes of the text copy
        csv = tmp_path / "trajectory.csv"
        _, *floats = self.columns(1200)
        t = np.arange(1200) * 5e-3
        write_table(csv, "t,xi_norm,h_norm,mean_y,w_1", [t, *floats, np.ones(1200)])
        write_columns_dat(csv, tmp_path / "decay.dat", names)
        data = read_trajectory_csv(csv)
        numeric = tmp_path / "numeric.dat"
        write_table(numeric, "# " + " ".join(names), [data[n] for n in names], sep=" ")
        assert (tmp_path / "decay.dat").read_bytes() == numeric.read_bytes()
        assert len((tmp_path / "decay.dat").read_text().splitlines()) == 1201

    def test_columns_dat_keeps_no_row_lists_for_the_collector(self, tmp_path):
        # each line's split list dies with its line: a chunk that kept its
        # 512 row lists would pass gc's first threshold (700) and collect
        csv = tmp_path / "trajectory.csv"
        write_table(csv, "t,xi_norm,h_norm", self.columns(4001)[1:])
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            write_columns_dat(csv, tmp_path / "decay.dat", ("t", "xi_norm", "h_norm"))
        finally:
            gc.callbacks.remove(count)
        assert collections == [], gc.get_threshold()


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

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_report_on_no_run_dir_exit_two(self, tmp_path, capsys, kind):
        target = tmp_path / "run"
        if kind == "file":
            target.write_text("")
        assert main(["report", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(target) in captured.err

    @pytest.mark.parametrize(
        "content", ['{"F_bar": 1.0, "eigenval', "", "\xff", "[1, 2]"],
        ids=["truncated", "empty", "not-utf8", "not-an-object"],
    )
    def test_damaged_json_summary_exit_two(self, tmp_path, capsys, content):
        run = tmp_path / "run"
        run.mkdir()
        (run / "spectrum.json").write_bytes(content.encode("latin-1"))
        assert main(["report", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(run / "spectrum.json") in captured.err

    @pytest.mark.parametrize(
        "name, content",
        [
            ("spectrum.json", '{"F_bar": 1.0}'),
            ("stationary.json", '{"residual": 1e-12}'),
            ("controllability.json", "{}"),
            ("simulate.json", '{"fitted_rate": 0.1, "fit_r2": 1.0}'),
        ],
    )
    def test_summary_missing_key_exit_two(self, tmp_path, capsys, name, content):
        run = tmp_path / "run"
        run.mkdir()
        (run / name).write_text(content)
        assert main(["report", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(run / name) in captured.err
        assert "lacks" in captured.err

    @pytest.mark.parametrize(
        "content",
        [
            '{"N_unstable": 2.5, "eigenvalues": [-1.0], "gap": 1.0, "F_l": 0.1}',
            '{"N_unstable": 2, "eigenvalues": [], "gap": 1.0, "F_l": 0.1}',
            '{"N_unstable": 2, "eigenvalues": [-1.0], "gap": "wide", "F_l": 0.1}',
            '{"N_unstable": 2, "eigenvalues": -1.0, "gap": 1.0, "F_l": 0.1}',
        ],
        ids=["float-count", "no-eigenvalues", "string-gap", "scalar-eigenvalues"],
    )
    def test_summary_mistyped_value_exit_two(self, tmp_path, capsys, content):
        run = tmp_path / "run"
        run.mkdir()
        (run / "spectrum.json").write_text(content)
        assert main(["report", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(run / "spectrum.json") in captured.err

    @pytest.mark.parametrize(
        "bad", ["null", '"abc"', '"1.5"', "true", "[1.0]"],
        ids=["null", "text", "numeric-text", "bool", "list"],
    )
    def test_non_number_eigenvalue_leaves_spectrum_dat(self, tmp_path, capsys, bad):
        # a later entry that is not a JSON number fails the report before
        # spectrum.dat is written, so the earlier file stays as it was
        run = tmp_path / "run"
        run.mkdir()
        spectrum = '{"N_unstable": 2, "eigenvalues": [-1.0, -0.5, %s, 1, 2.5], "gap": 1.0, "F_l": 0.1}'
        (run / "spectrum.json").write_text(spectrum % "0.5")
        assert main(["report", str(run)]) == 0
        written = (run / "spectrum.dat").read_bytes()
        assert written == b"# i lambda_i\n0 -1.0\n1 -0.5\n2 0.5\n3 1.0\n4 2.5\n"
        (run / "spectrum.json").write_text(spectrum % bad)
        capsys.readouterr()
        assert main(["report", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(run / "spectrum.json") in captured.err
        assert (run / "spectrum.dat").read_bytes() == written

    def test_summary_that_is_a_directory_exit_two(self, tmp_path, capsys):
        run = tmp_path / "run"
        (run / "spectrum.json").mkdir(parents=True)
        assert main(["report", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(run / "spectrum.json") in captured.err

    @pytest.mark.parametrize(
        "content", ["", "t,xi_norm\n0.0,1.0\n", None], ids=["empty", "no-h_norm", "directory"]
    )
    def test_damaged_trajectory_exit_two(self, tmp_path, capsys, content):
        run = tmp_path / "run"
        path = run / "trajectory.csv"
        if content is None:
            path.mkdir(parents=True)
        else:
            run.mkdir()
            path.write_text(content)
        assert main(["report", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err

    @pytest.mark.parametrize("reported", [False, True], ids=["fresh", "reported"])
    @pytest.mark.parametrize("damage", ["non-numeric", "short"])
    def test_damaged_trajectory_row_leaves_decay_dat(self, tmp_path, capsys, damage, reported):
        # a bad field or a cut row fails the copy, in the first chunk of rows
        # or a later one; decay.dat is replaced only by a whole copy, and the
        # temporary file is removed
        cfg = fast_config(tmp_path / "run", **{"sim.t_end": "6.0"})  # 1201 rows
        run_pipeline(cfg)
        run = Path(cfg.output_dir)
        if reported:
            assert main(["report", str(run)]) == 0
        decay = (run / "decay.dat").read_bytes() if reported else None
        path = run / "trajectory.csv"
        intact = path.read_text().splitlines(keepends=True)
        assert len(intact) == 1202
        for row in (6, 1100):
            lines = list(intact)
            t, _, *rest = lines[row].split(",")
            lines[row] = ",".join([t, "abc", *rest]) if damage == "non-numeric" else t + "\n"
            path.write_text("".join(lines))
            capsys.readouterr()
            assert main(["report", str(run)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert str(path) in captured.err
            left = [p.name for p in run.iterdir() if p.name.startswith("decay")]
            assert left == (["decay.dat"] if reported else [])
            if reported:
                assert (run / "decay.dat").read_bytes() == decay

    def test_trajectory_with_physical_norm_column_renders(self, tmp_path):
        # trajectory.csv files written before the column was dropped still report
        run = tmp_path / "run"
        run.mkdir()
        (run / "trajectory.csv").write_text(
            "t,xi_norm,h_norm,physical_norm,mean_y,mean_z,w_1\n"
            "0.0,0.01,0.008,0.01,-0.006,0.003,0.5\n"
            "0.005,0.0099,0.0079,0.0099,-0.006,0.003,0.4\n"
        )
        assert main(["report", str(run)]) == 0
        assert (run / "decay.dat").read_text() == (
            "# t xi_norm h_norm\n0.0 0.01 0.008\n0.005 0.0099 0.0079\n"
        )

    def test_decay_dat_holds_trajectory_columns_as_plain_numbers(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        render_report(out)
        decay = np.loadtxt(out / "decay.dat")
        data = read_trajectory_csv(out / "trajectory.csv")
        expected = np.column_stack(
            [data[name] for name in ("t", "xi_norm", "h_norm")]
        )
        assert decay.shape == expected.shape
        assert np.array_equal(decay, expected)

    def test_decay_dat_bytes_match_numeric_route(self, tmp_path):
        # decay.dat copies the CSV fields as text; parsing them and writing
        # the floats back must give the same bytes
        cfg = fast_config(tmp_path / "run")
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        render_report(out)
        data = read_trajectory_csv(out / "trajectory.csv")
        columns = ("t", "xi_norm", "h_norm")
        numeric = tmp_path / "numeric.dat"
        write_table(numeric, "# " + " ".join(columns), [data[name] for name in columns], sep=" ")
        assert (out / "decay.dat").read_bytes() == numeric.read_bytes()

    def test_decay_data_monotone_after_transient(self, tmp_path):
        cfg = fast_config(tmp_path / "run", **{"sim.t_end": "8.0"})
        run_pipeline(cfg)
        data = read_trajectory_csv(Path(cfg.output_dir) / "trajectory.csv")
        mask = data["t"] >= 4.0
        xi = data["xi_norm"][mask]
        assert np.all(np.diff(xi) <= 1e-9 * xi[:-1])


class TestStationaryStage:
    @pytest.mark.parametrize("workload", ["default", "thin_interface", "rho_ensemble"])
    def test_g_max_zero_on_constant_states(self, tmp_path, workload):
        m = build_materials(workloads.config_for(workload, 0))
        stage_stationary(m, tmp_path)
        assert read_json(tmp_path / "stationary.json")["g_max"] == 0.0

    def test_g_max_of_a_kinked_state(self, tmp_path):
        # the nu = 0.05 minimizer from 0 + 0.6 cos(pi x / L): its g is not
        # zero, so the plant's margin is not the true loop's
        cfg = SimConfig()
        for dotted, value in (
            ("params.nu", "0.05"),
            ("stationary.mode", "minimize"),
            ("stationary.init_value", "0"),
            ("stationary.init_cos", "0.6"),
        ):
            apply_override(cfg, dotted, value)
        stage_stationary(build_materials(cfg.validate()), tmp_path)
        assert read_json(tmp_path / "stationary.json")["g_max"] == pytest.approx(
            1.0523154, abs=1e-6
        )
        rows = dict(line.split(maxsplit=1) for line in render_report(tmp_path).splitlines())
        assert rows["g_max"] == "1.05232"


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _simulate_overrides(draw):
    """--set items for one simulate run drawn from a bounded box of configs."""
    L = draw(st.floats(0.5, 3.0))
    a = draw(st.floats(0.02, 0.6))
    width = draw(st.floats(0.05, 0.35))
    values = {
        "basis.M": draw(st.integers(4, 16)),
        "basis.L": L,
        "actuator.a": a * L,
        "actuator.b": (a + width) * L,
        "params.nu": draw(_log_uniform(3e-3, 0.5)),
        "params.l0": draw(_log_uniform(0.1, 10.0)),
        "params.gamma0": draw(_log_uniform(0.1, 10.0)),
        "actuator.T0": draw(_log_uniform(0.1, 10.0)),
        "sim.dt": draw(st.sampled_from([1e-3, 5e-3, 2e-2, 0.1])),
        "sim.t_end": draw(st.sampled_from([0.05, 0.2, 0.5])),
        "sim.rho": draw(_log_uniform(1e-4, 1e2)),
        "sim.record_every": draw(st.sampled_from([1, 3, 10])),
        "sim.closed_loop": draw(st.booleans()),
        "sim.scheme": draw(st.sampled_from(["imex1", "imex2"])),
        "stationary.mode": draw(st.sampled_from(["constant", "minimize"])),
    }
    return [f"{name}={value}" for name, value in values.items()]


def _numbers(value):
    """Every number in a JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)):
        yield value


class TestExitCodeContract:
    @settings(max_examples=60, deadline=None)
    @given(overrides=_simulate_overrides())
    @example(overrides=["sim.dt=1e-300"])
    @example(overrides=["sim.t_end=1e300"])
    @example(overrides=["sim.dt=1e-300", "sim.t_end=1e300"])
    @example(overrides=["basis.M=16", "sim.t_end=1", f"sim.record_every={10**19}"])
    @example(overrides=["seed=-1"])
    @example(overrides=[f"basis.M={10**19}"])
    def test_simulate_exits_zero_two_or_three(self, overrides):
        # a run either succeeds with finite numbers or fails with exit 2 or 3;
        # the console process prints warnings, so they are not errors here
        args = [arg for item in overrides for arg in ("--set", item)]
        with (
            tempfile.TemporaryDirectory() as run,
            warnings.catch_warnings(),
            np.errstate(all="ignore"),
        ):
            warnings.simplefilter("ignore")
            code = main(["simulate", *args, "--output-dir", run])
            assert code in (0, 2, 3)
            if code == 0:
                summary = read_json(Path(run) / "summary.json")
                assert all(math.isfinite(number) for number in _numbers(summary))


class TestSweep:
    def test_sweep_over_rho(self, tmp_path):
        cfg = fast_config(tmp_path / "sweep")
        index = run_sweep(cfg, "sim.rho", ["0.01", "0.005"])
        assert len(index["runs"]) == 2
        assert (Path(cfg.output_dir) / "sweep.json").exists()
        for entry in index["runs"]:
            assert Path(entry["output_dir"]).exists()
            assert entry["fitted_rate"] is None or entry["fitted_rate"] > 0
