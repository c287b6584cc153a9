"""Serialization, presets, configuration, and the CLI runner."""

import json
import math

import numpy as np
import pytest

from driftfluid import epsilon, limit, presets
from driftfluid.cli import RunConfig, main, run, validate
from driftfluid.errors import ConfigError
from driftfluid.specio import read_spec, write_csv, write_spec
from driftfluid.spectral import Grid, analytic_norm, inverse, l2_norm, perp_average

from conftest import random_band_field


class TestSpecFormat:
    def test_round_trip(self, rng, tmp_path):
        g = Grid.torus3d(4, 4, 8)
        rho = random_band_field(g, 1, rng, mean=1.0)
        v = random_band_field(g, 1, rng)
        path = tmp_path / "state.spec"
        write_spec(path, {"rho": rho, "v": v}, time=1.25, eps=0.04)
        fields, header = read_spec(path)
        assert header["time"] == 1.25
        assert header["eps"] == 0.04
        assert fields["rho"].grid == g
        assert np.array_equal(fields["rho"].coeffs, rho.coeffs)
        assert np.array_equal(fields["v"].coeffs, v.coeffs)

    def test_header_is_json_line(self, rng, tmp_path):
        g = Grid.line(8)
        path = tmp_path / "f.spec"
        write_spec(path, {"f": random_band_field(g, 2, rng)})
        first = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(first)
        assert header["fields"][0]["dims"] == [8]
        assert header["fields"][0]["axes"] == ["par"]

    def test_rejects_par_axis_not_last(self, rng, tmp_path):
        """Real fields halve the last axis, which must be par: a file
        whose axes put par elsewhere is refused when its grid is built."""
        g = Grid.shear2d(4, 8)
        path = tmp_path / "swapped.spec"
        write_spec(path, {"f": random_band_field(g, 1, rng)})
        head, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["fields"][0]["dims"] = [8, 4]
        header["fields"][0]["axes"] = ["par", "perp1"]
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ConfigError, match="par axis must be last"):
            read_spec(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_bytes(b"\x00\x01\x02 not json\n")
        with pytest.raises(ConfigError):
            read_spec(path)


class TestCsv:
    def test_rfc4180_line_endings_and_roundtrip_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["t", "value"], [{"t": 0.1, "value": 1.0 / 3.0}])
        raw = path.read_bytes()
        assert b"\r\n" in raw
        lines = raw.decode().split("\r\n")
        assert lines[0] == "t,value"
        assert float(lines[1].split(",")[1]) == 1.0 / 3.0


class TestPresets:
    def test_equilibrium(self):
        g = Grid.torus3d(4, 4, 8)
        rho, v = presets.build("equilibrium", g)
        assert np.allclose(inverse(rho), 1.0)
        assert np.max(np.abs(v.coeffs)) == 0.0

    def test_single_mode_admissible_scaling(self):
        g = Grid.torus3d(4, 4, 16)
        for eps in (1e-1, 1e-3):
            rho, _ = presets.build("single_mode", g, eps=eps, amplitude=0.2)
            line = perp_average(rho)
            c = np.array(line.coeffs, copy=True)
            c[0] -= 1.0
            from driftfluid.spectral import SpectralField
            norm = analytic_norm(SpectralField(line.grid, c), 1.0)
            assert norm <= 0.21 * math.sqrt(eps)

    def test_two_stream_embedding_preset(self):
        g = Grid.shear2d(4, 16)
        rho, v = presets.build("two_stream", g, rbar1=0.5, a=1.0)
        vals = inverse(v)
        assert np.allclose(vals[0], 1.0, atol=1e-10)
        assert np.allclose(vals[2], -1.0, atol=1e-10)

    def test_random_band_seeded_reproducible(self):
        g = Grid.torus3d(4, 4, 8)
        r1, v1 = presets.build("random_band", g, eps=0.1, kmax=2, seed=7)
        r2, v2 = presets.build("random_band", g, eps=0.1, kmax=2, seed=7)
        assert np.array_equal(r1.coeffs, r2.coeffs)
        assert np.array_equal(v1.coeffs, v2.coeffs)

    @pytest.mark.parametrize("amplitude", [1e-3, 1e-1])
    def test_random_band_velocity_norm(self, amplitude):
        g = Grid.torus3d(4, 4, 16)
        _, v = presets.build("random_band", g, eps=0.01, amplitude=amplitude)
        assert l2_norm(v) == pytest.approx(0.5 * amplitude, rel=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            presets.build("vortex_sheet", Grid.line(8))


class TestRunConfig:
    def test_defaults_filled(self):
        cfg = RunConfig.from_dict({"experiment": "eps_run"})
        assert cfg.eps == [1e-2]
        assert cfg.dt["samples_per_period"] == 120

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="unknown config key epsilon"):
            RunConfig.from_dict({"experiment": "eps_run", "epsilon": [0.1]})
        with pytest.raises(ConfigError, match="dt.step_size"):
            RunConfig.from_dict({"experiment": "eps_run",
                                 "dt": {"step_size": 0.1}})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            RunConfig.from_dict({"experiment": "warp_drive"})

    @pytest.mark.parametrize("experiment, key", [
        ("eps_sweep", "horizn"), ("eps_sweep", "eps_list"),
        ("contraction", "params"), ("growth", "seed"),
        ("dichotomy", "eps_list"), ("eps_run", "horizon")])
    def test_unknown_experiment_param_rejected_with_path(self, experiment, key):
        """experiment_params may set only the keyword arguments of the
        experiment that its runner does not supply itself."""
        with pytest.raises(ConfigError,
                           match=f"unknown config key experiment_params.{key}$"):
            RunConfig.from_dict({"experiment": experiment,
                                 "experiment_params": {key: 1.0}})

    def test_known_experiment_params_accepted(self):
        for experiment, params in (
                ("eps_sweep", {"horizon": 1.0, "compare_time": 0.75,
                               "average_range": [0.2, 1.0],
                               "samples_per_period": 40}),
                ("contraction", {"eps": 0.25, "n_keep": 10}),
                ("growth", {"background": [0.5, 1.0, -1.0], "k_max": 5}),
                ("dichotomy", {"horizon": 0.1, "n_points": 16})):
            cfg = RunConfig.from_dict({"experiment": experiment,
                                       "experiment_params": params})
            assert cfg.experiment_params == params


class TestValidate:
    def test_admissible_preset_passes(self):
        cfg = RunConfig.from_dict({
            "experiment": "eps_run", "eps": [1e-2],
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.05}}})
        report = validate(cfg)
        assert report["ok"] and not report["findings"]

    def test_charge_imbalance_flagged(self):
        cfg = RunConfig.from_dict({
            "experiment": "eps_run", "eps": [1e-6], "adm_const": 0.5,
            "initial_data": {"preset": "random_band",
                             "params": {"kmax": 2, "amplitude": 0.2,
                                        "admissible": False}}})
        report = validate(cfg)
        assert not report["ok"]
        assert any("admissibility" in f or "exceeds" in f
                   for f in report["findings"])

    def test_dt_override_policy_warning(self):
        cfg = RunConfig.from_dict({
            "experiment": "eps_run", "eps": [1e-4],
            "dt": {"dt": 0.05},
            "initial_data": {"preset": "equilibrium", "params": {}}})
        report = validate(cfg)
        assert any("resolution bound" in f for f in report["findings"])


class TestRunner:
    def test_eps_run_outputs_and_manifest(self, tmp_path):
        cfg = RunConfig.from_dict({
            "experiment": "eps_run", "eps": [1e-2], "horizon": 0.2,
            "snapshot_every": 8,
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.05}}})
        manifest = run(cfg, tmp_path, reference_mode=True)
        assert manifest.ok()
        listed = {f["path"] for f in manifest.files}
        assert "run/timeseries.csv" in listed
        assert any(p.endswith(".spec") for p in listed)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["passed"]
        # manifest completeness: every emitted file is listed
        emitted = {str(p.relative_to(tmp_path))
                   for p in tmp_path.rglob("*") if p.is_file()}
        emitted.discard("manifest.json")
        assert emitted == set(listed)

    def test_reference_mode_byte_identical(self, tmp_path):
        cfg_raw = {
            "experiment": "eps_run", "eps": [2.5e-2], "horizon": 0.2,
            "seed": 11,
            "initial_data": {"preset": "random_band",
                             "params": {"kmax": 1, "amplitude": 0.01}}}
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(RunConfig.from_dict(cfg_raw), out1, reference_mode=True)
        run(RunConfig.from_dict(cfg_raw), out2, reference_mode=True)
        csv1 = (out1 / "run" / "timeseries.csv").read_bytes()
        csv2 = (out2 / "run" / "timeseries.csv").read_bytes()
        assert csv1 == csv2

    def test_dichotomy_experiment_run(self, tmp_path):
        cfg = RunConfig.from_dict({
            "experiment": "dichotomy", "eps": [1e-1, 1e-2],
            "experiment_params": {"horizon": 0.1}})
        manifest = run(cfg, tmp_path)
        report = json.loads((tmp_path / "dichotomy.json").read_text())
        assert manifest.checks["stable_branch_decreasing"]
        assert "stable" in report and "unstable" in report
        head = (tmp_path / "stable_timeseries.csv").read_bytes().split(b"\r\n")[0]
        assert head == b"t,energy,relative_entropy,mass_0,mass_1"

    def test_dichotomy_timeseries_match_report(self, tmp_path):
        """The per-branch CSVs are the runs behind dichotomy.json, with
        every experiment parameter honoured."""
        cfg = RunConfig.from_dict({
            "experiment": "dichotomy", "eps": [1e-1, 1e-2],
            "experiment_params": {"horizon": 0.1, "mean_velocity": 0.3,
                                  "structure": 0.1, "offset": 0.05,
                                  "ripple": 0.2, "n_points": 16}})
        run(cfg, tmp_path, reference_mode=True)
        report = json.loads((tmp_path / "dichotomy.json").read_text())
        assert "trajectories" not in report
        for branch in ("stable", "unstable"):
            rows = (tmp_path / f"{branch}_timeseries.csv").read_text().splitlines()
            header = rows[0].split(",")
            last = dict(zip(header, rows[-1].split(",")))
            assert float(last["relative_entropy"]) == report[branch]["0.1"]["H_final"]
            assert float(last["t"]) == report[branch]["0.1"]["t_final"]

    def test_eps_sweep_workers_match_single_worker(self, tmp_path):
        raw = {"experiment": "eps_sweep", "grid": [4, 4, 16],
               "eps": [1e-1, 2.5e-2], "horizon": 0.5,
               "dt": {"samples_per_period": 40},
               "experiment_params": {"compare_time": 0.25,
                                     "average_range": [0.1, 0.5]},
               "initial_data": {"preset": "single_mode",
                                "params": {"amplitude": 0.05}}}
        manifests = {}
        for workers in (1, 2):
            run(RunConfig.from_dict(raw), tmp_path / str(workers), workers=workers)
            manifests[workers] = json.loads(
                (tmp_path / str(workers) / "manifest.json").read_text())
        assert manifests[1]["files"] == manifests[2]["files"]
        assert manifests[1]["checks"] == manifests[2]["checks"]
        for member in ("eps_0.1", "eps_0.025"):
            one = (tmp_path / "1" / member / "timeseries.csv").read_bytes()
            two = (tmp_path / "2" / member / "timeseries.csv").read_bytes()
            assert one == two

    def test_eps_sweep_companion_tables(self, tmp_path, monkeypatch):
        """The companion tables come from the sweep's own runs: one eps
        run per member and per sweep eps, one limit run per sweep eps."""
        calls = {"epsilon": 0, "limit": 0}
        for name, module in (("epsilon", epsilon), ("limit", limit)):
            def counting(*args, _run=module.run, _name=name, **kwargs):
                calls[_name] += 1
                return _run(*args, **kwargs)
            monkeypatch.setattr(module, "run", counting)
        cfg = RunConfig.from_dict({
            "experiment": "eps_sweep", "eps": [1e-1, 2.5e-2], "horizon": 2.5,
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.05}}})
        manifest = run(cfg, tmp_path, reference_mode=True)
        assert manifest.ok()
        assert calls == {"epsilon": 4, "limit": 2}
        listed = {f["path"] for f in manifest.files}
        assert {"convergence.csv", "limit_timeseries.csv",
                "correctors.csv"} <= listed
        head = (tmp_path / "correctors.csv").read_bytes().split(b"\r\n")[0]
        assert head == b"t,k_par,re_eplus,im_eplus,residual"
        head = (tmp_path / "limit_timeseries.csv").read_bytes().split(b"\r\n")[0]
        assert head == b"t,mass,constraint_residual"

    def test_eps_sweep_companions_follow_sweep_parameters(self, tmp_path):
        """limit_timeseries.csv samples the sweep's own time grid: its
        horizon and samples per period, not the config's."""
        cfg = RunConfig.from_dict({
            "experiment": "eps_sweep", "eps": [2.5e-2], "horizon": 2.5,
            "experiment_params": {"horizon": 1.0, "compare_time": 0.75,
                                  "average_range": [0.2, 1.0],
                                  "samples_per_period": 40},
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.05}}})
        run(cfg, tmp_path, reference_mode=True)
        rows = (tmp_path / "limit_timeseries.csv").read_text().splitlines()[1:]
        t = np.array([float(r.split(",")[0]) for r in rows])
        dt = epsilon.dt_policy(2.5e-2, samples_per_period=40)
        n = math.ceil(1.0 / dt)
        assert t == pytest.approx(dt * np.arange(n + 1), rel=1e-12, abs=1e-15)

    def test_contraction_experiment_run(self, tmp_path):
        """The contraction experiment at its default 4x4x8 grid."""
        cfg = RunConfig.from_dict({"experiment": "contraction", "eps": [0.25]})
        run(cfg, tmp_path, reference_mode=True)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["passed"]
        assert {f["path"] for f in data["files"]} == {"contraction.csv",
                                                      "contraction.json"}
        study = json.loads((tmp_path / "contraction.json").read_text())
        assert study["eta"] == 2.859375

    def test_growth_experiment_run(self, tmp_path):
        cfg = RunConfig.from_dict({
            "experiment": "growth", "horizon": 2.0,
            "experiment_params": {"k_max": 2}})
        manifest = run(cfg, tmp_path)
        assert manifest.checks["growth_matches_linear_theory"]
        raw = (tmp_path / "growth.csv").read_text()
        assert raw.splitlines()[0] == "k,re_sigma_lin,im_sigma_lin,sigma_meas,r_squared"


class TestCliEntryPoint:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in presets.PRESETS:
            assert name in out

    def test_validate_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "eps_run", "eps": [1e-2],
            "initial_data": {"preset": "equilibrium", "params": {}}}))
        assert main(["validate", "--config", str(cfg_path)]) == 0

    def test_bad_config_error_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "eps_run",
                                        "grid": [4, 4, 16], "typo": 1}))
        assert main(["validate", "--config", str(cfg_path)]) == 2
        assert "typo" in capsys.readouterr().err

    def test_misspelt_experiment_param_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "eps_sweep",
                                        "experiment_params": {"horizn": 1.0}}))
        assert main(["validate", "--config", str(cfg_path)]) == 2
        assert "experiment_params.horizn" in capsys.readouterr().err

    def test_run_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "eps_run", "eps": [1e-2], "horizon": 0.1,
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.02}}}))
        rc = main(["run", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out"), "--reference-mode"])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.json").exists()
