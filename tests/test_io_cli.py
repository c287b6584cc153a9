"""Serialization, presets, configuration, and the CLI runner."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import driftfluid
from driftfluid import (ck, cli, epsilon, experiments, limit, presets,
                        quadrature, toymodel, twostream)
from driftfluid.cli import RunConfig, main, run, validate
from driftfluid.errors import ConfigError
from driftfluid.specio import read_spec, write_csv, write_spec
from driftfluid.spectral import (Grid, SpectralField, analytic_norm, inverse, l2_norm,
                                 perp_average)

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

    def test_payload_is_interleaved_little_endian_pairs(self, rng, tmp_path):
        """Each field's payload is its coefficients' (re, im) float64 pairs,
        little-endian, in C order, signed zeros and subnormals included:
        byte for byte an explicit interleaving of .real and .imag."""
        g = Grid.shear2d(4, 8)
        coeffs = [rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                  for _ in range(2)]
        coeffs[0][0, :4] = [-0.0, 5e-324 - 0.0j, complex(-0.0, -0.0), -2.5e-310j]
        fields = {"a": SpectralField(g, coeffs[0], real=False),
                  "b": SpectralField(g, coeffs[1], real=False)}
        path = tmp_path / "pairs.spec"
        write_spec(path, fields)
        expected = b""
        for c in coeffs:
            flat = np.empty(2 * c.size, dtype="<f8")
            flat[0::2], flat[1::2] = c.real.ravel(), c.imag.ravel()
            expected += flat.tobytes()
        assert path.read_bytes().split(b"\n", 1)[1] == expected

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
        with pytest.raises(ConfigError, match="unknown config key dt.cfl$"):
            RunConfig.from_dict({"experiment": "eps_run", "dt": {"cfl": 1e-9}})

    @pytest.mark.parametrize("key, raw", [
        ("dt.dt", {"dt": {"dt": -0.1}}), ("dt.dt", {"dt": {"dt": 0.0}}),
        ("dt.samples_per_period", {"dt": {"samples_per_period": -120}}),
        ("dt.samples_per_period", {"dt": {"samples_per_period": 0}}),
        ("snapshot_every", {"snapshot_every": -1})],
        ids=["negative-dt", "zero-dt", "negative-samples", "zero-samples",
             "negative-snapshot-spacing"])
    def test_step_settings_that_run_nothing_are_refused(self, key, raw):
        """A non-positive dt or samples per period would take zero steps
        and write a passing one-row run; a negative snapshot spacing
        snapshots nothing."""
        with pytest.raises(ConfigError, match=f"^{key} "):
            RunConfig.from_dict({"experiment": "eps_run", **raw})

    def test_every_value_type_the_rule_allows_is_accepted(self):
        """Integers where numbers go, a fractional samples per period and
        the two null numbers; a null adm_const skips the admissibility
        check."""
        cfg = RunConfig.from_dict({
            "experiment": "eps_run", "grid": [4, 4, 16], "eps": [1, 0.5],
            "horizon": 2, "dt": {"samples_per_period": 40.5, "dt": None},
            "norms": {"delta0": 2, "delta": 1.1, "eta": 1, "beta": 0.5},
            "initial_data": {"preset": "random_band", "params": {"kmax": 1}},
            "experiment_params": {}, "adm_const": None, "seed": 3,
            "snapshot_every": 0})
        assert cfg.dt["samples_per_period"] == 40.5 and cfg.adm_const is None
        assert RunConfig.from_dict({"experiment": "eps_run",
                                    "dt": {"dt": 1}}).policy_dt(0.01) == 1.0

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            RunConfig.from_dict({"experiment": "warp_drive"})

    @pytest.mark.parametrize("experiment, key", [
        ("eps_sweep", "horizn"), ("eps_sweep", "eps_list"),
        ("eps_sweep", "extra_runs"), ("contraction", "params"),
        ("growth", "seed"), ("dichotomy", "eps_list"), ("eps_run", "horizon")])
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

    def test_runtime_core_is_numpy_only(self):
        """Importing the CLI and validating a config loads no test-only
        dependency: scipy and hypothesis stay out of the runtime core."""
        script = (
            "import json, sys\n"
            "from driftfluid import cli\n"
            "cli.validate(cli.RunConfig.from_dict({'experiment': 'eps_run', "
            "'eps': [1e-2], 'initial_data': {'preset': 'single_mode', "
            "'params': {'amplitude': 0.05}}}))\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'hypothesis'))))\n")
        src = str(Path(driftfluid.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert json.loads(out.stdout) == []


def assert_manifest_lists_exactly_its_files(root: Path) -> dict:
    """The manifest.json under `root` lists every file the run wrote there
    once, with its size, and nothing else; returns the manifest."""
    data = json.loads((root / "manifest.json").read_text())
    emitted = {str(p.relative_to(root)): p.stat().st_size
               for p in root.rglob("*") if p.is_file()}
    del emitted["manifest.json"]
    assert len(data["files"]) == len(emitted)
    assert {f["path"]: f["bytes"] for f in data["files"]} == emitted
    return data


class TestRunner:
    def test_eps_run_outputs_and_manifest(self, tmp_path):
        cfg = RunConfig.from_dict({
            "experiment": "eps_run", "eps": [1e-2], "horizon": 0.2,
            "snapshot_every": 8,
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.05}}})
        manifest = run(cfg, tmp_path)
        assert manifest.ok()
        listed = {f["path"] for f in manifest.files}
        assert "run/timeseries.csv" in listed
        assert any(p.endswith(".spec") for p in listed)
        assert assert_manifest_lists_exactly_its_files(tmp_path)["passed"]

    def test_reference_mode_byte_identical(self, tmp_path):
        # `reference_mode=True` is the call the benchmark worker makes;
        # `run` accepts and ignores it, since every run is reproducible
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
        assert_manifest_lists_exactly_its_files(tmp_path)
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
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "dichotomy.json").read_text())
        assert "trajectories" not in report
        for branch in ("stable", "unstable"):
            rows = (tmp_path / f"{branch}_timeseries.csv").read_text().splitlines()
            header = rows[0].split(",")
            last = dict(zip(header, rows[-1].split(",")))
            assert float(last["relative_entropy"]) == report[branch]["0.1"]["H_final"]
            assert float(last["t"]) == report[branch]["0.1"]["t_final"]

    def test_eps_sweep_members_match_lone_eps_runs(self, tmp_path):
        """Each eps time series of a sweep, stepped in the sweep's
        ensemble, is byte for byte the time series of an eps_run of that
        eps alone."""
        raw = {"experiment": "eps_sweep", "grid": [4, 4, 16],
               "eps": [1e-1, 2.5e-2], "horizon": 0.5,
               "dt": {"samples_per_period": 40},
               "experiment_params": {"compare_time": 0.25,
                                     "average_range": [0.1, 0.5]},
               "initial_data": {"preset": "single_mode",
                                "params": {"amplitude": 0.05}},
               "snapshot_every": 10}
        run(RunConfig.from_dict(raw), tmp_path / "sweep")
        listed = {f["path"] for f in
                  assert_manifest_lists_exactly_its_files(tmp_path / "sweep")["files"]}
        for eps in raw["eps"]:
            lone = tmp_path / f"lone_{eps:g}"
            run(RunConfig.from_dict({**raw, "experiment": "eps_run", "eps": [eps],
                                     "experiment_params": {}}), lone)
            member = tmp_path / "sweep" / f"eps_{eps:g}"
            names = sorted(p.name for p in (lone / "run").iterdir())
            assert sum(name.endswith(".spec") for name in names) >= 2
            assert sorted(p.name for p in member.iterdir()) == names
            for name in names:
                assert f"eps_{eps:g}/{name}" in listed
                assert (member / name).read_bytes() == (lone / "run" / name).read_bytes()

    def test_eps_sweep_companion_tables(self, tmp_path, monkeypatch):
        """The companion tables come from the sweep's own runs: one eps
        run per member and per sweep eps, stepped as one ensemble, and one
        limit run per sweep eps, stepped as another."""
        systems = {epsilon.steps: "epsilon", limit.steps: "limit"}
        stepped = {"epsilon": [], "limit": []}   # runs per evolve call

        def counting(steps, runs, *args, **kwargs):
            stepped[systems[steps]].append(len(runs))
            return quadrature.evolve(steps, runs, *args, **kwargs)
        for module in (cli, experiments, epsilon, limit):
            monkeypatch.setattr(module, "evolve", counting)
        cfg = RunConfig.from_dict({
            "experiment": "eps_sweep", "eps": [1e-1, 2.5e-2], "horizon": 2.5,
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.05}}})
        manifest = run(cfg, tmp_path)
        assert manifest.ok()
        assert stepped == {"epsilon": [4], "limit": [2]}
        assert_manifest_lists_exactly_its_files(tmp_path)
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
        run(cfg, tmp_path)
        rows = (tmp_path / "limit_timeseries.csv").read_text().splitlines()[1:]
        t = np.array([float(r.split(",")[0]) for r in rows])
        dt = epsilon.dt_policy(2.5e-2, samples_per_period=40)
        n = math.ceil(1.0 / dt)
        assert t == pytest.approx(dt * np.arange(n + 1), rel=1e-12, abs=1e-15)

    def test_snapshots_add_less_than_one_state_to_peak_memory(self, tmp_path):
        """An eps run writes each snapshot as it is sampled and holds none:
        at 16x16x32 over 12 steps, snapshots at every sample raise the
        traced peak of `run` by less than the coefficients of one state
        (rho and v, 256 KiB). A run that kept its snapshot states until it
        ended would add about 12 of them."""
        raw = {"experiment": "eps_run", "grid": [16, 16, 32], "eps": [1e-2],
               "horizon": 0.06, "initial_data": {"preset": "single_mode",
                                                 "params": {"amplitude": 0.05}}}
        run(RunConfig.from_dict(raw), tmp_path / "warm")
        peaks = {}
        for every in (0, 1):
            cfg = RunConfig.from_dict({**raw, "snapshot_every": every})
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run(cfg, tmp_path / f"every_{every}")
                peaks[every] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        spec = sorted((tmp_path / "every_1" / "run").glob("*.spec"))
        assert len(spec) == 13
        assert peaks[1] - peaks[0] < 2 * 16 * 16 * 32 * 16

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="a caller's arguments stay on its stack before 3.11")
    def test_initial_state_is_released_once_stepped(self, tmp_path, monkeypatch):
        """Nothing holds an eps run's initial state after its first step:
        not the run loop, not its snapshot hook, not the finish step. Seen
        through a wrapped epsilon.steps: the state of its first call is
        collected by its third."""
        steps, first, alive = epsilon.steps, [], []

        def watching(states, dts):
            if first:
                alive.append(first[0]() is not None)
            else:
                first.append(weakref.ref(states[0]))
            return steps(states, dts)
        monkeypatch.setattr(epsilon, "steps", watching)
        run(RunConfig.from_dict({
            "experiment": "eps_run", "eps": [1e-2], "horizon": 0.03,
            "snapshot_every": 1, "initial_data": {
                "preset": "single_mode", "params": {"amplitude": 0.05}}}), tmp_path)
        assert len(alive) >= 3 and not any(alive[1:])

    def test_contraction_experiment_run(self, tmp_path):
        """The contraction experiment at its default 4x4x8 grid."""
        cfg = RunConfig.from_dict({"experiment": "contraction", "eps": [0.25]})
        run(cfg, tmp_path)
        data = assert_manifest_lists_exactly_its_files(tmp_path)
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
        assert_manifest_lists_exactly_its_files(tmp_path)
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

    def test_negative_dt_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "eps_run",
                                        "dt": {"dt": -0.1}}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "dt.dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, raw", [
        ("eps", {"eps": "0.1"}), ("eps", {"eps": 0.1}), ("dt", {"dt": 5}),
        ("horizon", {"horizon": "2"}), ("grid", {"grid": [4, 4, "16"]}),
        ("snapshot_every", {"snapshot_every": 2.5}), ("eps", {"eps": [True]}),
        ("experiment_params", {"experiment_params": []})],
        ids=["eps-string", "eps-number", "dt-number", "horizon-string",
             "grid-string-entry", "snapshot-spacing-float", "eps-bool-entry",
             "experiment-params-list"])
    def test_mistyped_value_is_a_config_error(self, tmp_path, capsys, key, raw):
        """A value of the wrong type is refused by name before anything
        runs, not met later as a TypeError or run with."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "eps_run", "horizon": 0.1,
                                        **raw}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw, problem", [
        ({"experiment": "eps_run", "horizon": 0.1,
          "initial_data": {"preset": "vortex"}}, "unknown preset 'vortex'"),
        ({"experiment": "eps_run", "horizon": 0.1, "grid": [4, 4, 4, 16]},
         "grid must have 1-3 entries"),
        ({"experiment": "eps_run", "horizon": 0.1, "grid": [4, 0, 16]},
         "mode count 0"),
        ({"experiment": "growth", "experiment_params": {"k_max": 0}},
         "k_max must be at least 1"),
        ({"experiment": "growth", "experiment_params": {"k_max": -2}},
         "k_max must be at least 1")],
        ids=["unknown-preset", "four-grid-entries", "zero-mode-count",
             "growth-no-modes", "growth-negative-k-max"])
    def test_config_error_met_while_running_is_a_config_error(
            self, tmp_path, capsys, raw, problem):
        """A config that passes the schema but fails once the run builds
        its grid, initial data or modes is reported like any other config
        error, and leaves no output behind."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and problem in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["eps_run", "eps_sweep"])
    def test_inadmissible_data_met_while_running_is_a_config_error(
            self, tmp_path, capsys, experiment):
        """Initial data that breaks the admissibility bound, which
        `validate` reports as a finding, ends `run` like a config error:
        exit status 2, the message on stderr, and no output left behind."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": experiment, "grid": [4, 4, 16], "eps": [0.01],
            "adm_const": 0.001,
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.5}}}))
        assert main(["validate", "--config", str(cfg_path)]) == 1
        assert "admissibility failure" in capsys.readouterr().out
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "exceeds C sqrt(eps)" in err
        assert not (tmp_path / "out").exists()

    def test_blow_up_writes_a_failing_manifest(self, tmp_path, capsys):
        """An eps run that blows up ends the experiment with a manifest
        that records the blow-up and fails, and a nonzero exit status
        instead of a traceback."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "eps_run", "eps": [1e-2], "horizon": 0.1,
            "dt": {"dt": 1e200},
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.02}}}))
        with np.errstate(all="ignore"):
            rc = main(["run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        data = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert data["passed"] is False
        assert data["blow_up"] == {"system": "eps", "time": 0.0}
        assert "blow-up: eps" in capsys.readouterr().out

    def test_blow_up_keeps_and_lists_the_snapshots_written_before_it(
            self, tmp_path, capsys):
        """Snapshots are written as they are sampled: an eps run that blows
        up at its second step leaves those of t = 0 and of its first step,
        and the time series of those two samples, and the manifest lists
        exactly them, next to the blow-up."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "eps_run", "eps": [0.01], "horizon": 4e20,
            "dt": {"dt": 1e20}, "snapshot_every": 1,
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.02}}}))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        data = assert_manifest_lists_exactly_its_files(out)
        assert data["blow_up"] == {"system": "eps", "time": 1e20}
        assert [f["path"] for f in data["files"]] == [
            "run/state_000000.spec", "run/state_000001.spec", "run/timeseries.csv"]
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) \
            == ["manifest.json", "run/state_000000.spec", "run/state_000001.spec",
                "run/timeseries.csv"]
        rows = (out / "run" / "timeseries.csv").read_text().splitlines()
        assert [float(row.split(",")[0]) for row in rows[1:]] == [0.0, 1e20]
        assert "blow-up: eps" in capsys.readouterr().out

    def test_a_blown_sweep_member_keeps_its_record_and_the_sweep_tables(
            self, tmp_path, capsys):
        """In an eps sweep, the configured dt reaches only the per-eps runs:
        one that blows up at its second step keeps its two snapshots and
        the time series of those two samples, the sweep's own runs go on,
        and their tables are written and listed next to the blow-up."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "eps_sweep", "grid": [4, 4, 8], "eps": [0.1],
            "horizon": 4e20, "dt": {"dt": 1e20}, "snapshot_every": 1,
            "experiment_params": {"horizon": 0.5, "compare_time": 0.25,
                                  "average_range": [0.1, 0.5]},
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.02}}}))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        data = assert_manifest_lists_exactly_its_files(out)
        assert data["blow_up"] == {"system": "eps", "time": 1e20}
        assert [f["path"] for f in data["files"]] == [
            "convergence.csv", "convergence.gp", "correctors.csv",
            "eps_0.1/state_000000.spec", "eps_0.1/state_000001.spec",
            "eps_0.1/timeseries.csv", "limit_timeseries.csv"]
        rows = (out / "eps_0.1" / "timeseries.csv").read_text().splitlines()
        assert [float(row.split(",")[0]) for row in rows[1:]] == [0.0, 1e20]
        assert "blow-up: eps" in capsys.readouterr().out

    def test_run_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "eps_run", "eps": [1e-2], "horizon": 0.1,
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": 0.02}}}))
        rc = main(["run", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.json").exists()


def _forbid_stepping(monkeypatch):
    """Make every time loop and every CK iterate raise, so that a command
    that steps anything fails the test with that error."""
    def stepped(*args, **kwargs):
        raise AssertionError("stepped")
    for module in (cli, experiments, epsilon, limit, toymodel, twostream):
        monkeypatch.setattr(module, "evolve", stepped)
    monkeypatch.setattr(ck, "iterate", stepped)


def _with_params(experiment, **params):
    return {"experiment": experiment, "experiment_params": params}


# (config, refused): configs that `validate` and `run` once answered
# differently, or one of them with a traceback, and the configs `run`
# refuses once it builds their grid, initial data or modes
ADMISSION = [
    pytest.param({"experiment": "eps_run", "initial_data": {"preset": "vortex"}},
                 True, id="unknown-preset"),
    pytest.param({"experiment": "eps_run", "grid": [4, 4, 4, 16]}, True,
                 id="four-grid-entries"),
    pytest.param({"experiment": "eps_run", "grid": [4, 0, 16]}, True,
                 id="zero-mode-count"),
    pytest.param(_with_params("growth", k_max=-2), True,
                 id="growth-negative-k-max"),
    *(pytest.param({"experiment": experiment, "eps": [0.01], "adm_const": 0.001,
                    "initial_data": {"preset": "single_mode",
                                     "params": {"amplitude": 0.5}}}, True,
                   id=f"{experiment}-inadmissible")
      for experiment in ("eps_run", "eps_sweep")),
    pytest.param(_with_params("growth", k_max=0), True, id="growth-k-max-0"),
    pytest.param(_with_params("growth", background=[1.5, 1, -1]), True,
                 id="growth-background-outside"),
    pytest.param(_with_params("growth", kind="gaussian"), True, id="growth-kind"),
    pytest.param(_with_params("dichotomy", n_points=5), True,
                 id="dichotomy-odd-points"),
    pytest.param(_with_params("dichotomy", structure=2.0), True,
                 id="dichotomy-negative-density"),
    pytest.param(_with_params("contraction", amplitude=5.0), True,
                 id="contraction-negative-density"),
    pytest.param(_with_params("contraction", delta1=2.0), True,
                 id="contraction-delta1"),
    pytest.param({"experiment": "contraction", "norms": {"beta": 2.0}}, True,
                 id="contraction-beta"),
    pytest.param({"experiment": "eps_run", "norms": {"delta0": 0.5}}, True,
                 id="eps-run-delta0"),
    pytest.param(_with_params("eps_sweep", amplitude=3.0), True,
                 id="eps-sweep-negative-density"),
    pytest.param(_with_params("growth", k_max="x"), True, id="growth-k-max-string"),
    pytest.param(_with_params("growth", param="a"), True, id="growth-param-string"),
    pytest.param(_with_params("growth", background=[0.5, 1.0]), True,
                 id="growth-background-short"),
    pytest.param(_with_params("eps_sweep", horizon="1"), True,
                 id="eps-sweep-horizon-string"),
    pytest.param(_with_params("eps_sweep", average_range=[0.1]), True,
                 id="eps-sweep-average-range-short"),
    pytest.param(_with_params("eps_sweep", samples_per_period=0), True,
                 id="eps-sweep-no-samples"),
    pytest.param({**_with_params("eps_sweep", horizon=-1.0), "horizon": 0.5}, True,
                 id="eps-sweep-negative-horizon"),
    pytest.param({**_with_params("eps_sweep", compare_time=-1.0), "horizon": 0.5},
                 True, id="eps-sweep-negative-compare-time"),
    pytest.param(_with_params("dichotomy", streaming="big"), True,
                 id="dichotomy-streaming-string"),
    pytest.param(_with_params("dichotomy", horizon=0.0), True,
                 id="dichotomy-zero-horizon"),
    pytest.param(_with_params("contraction", grid=[4, 4, 8]), True,
                 id="contraction-grid-param"),
    pytest.param({"experiment": "eps_run",
                  "initial_data": {"preset": "single_mode",
                                   "params": {"amplitud": 0.05}}}, True,
                 id="eps-run-preset-param-misspelt"),
    pytest.param({"experiment": "eps_run",
                  "initial_data": {"preset": "single_mode",
                                   "params": {"amplitude": "big"}}}, True,
                 id="eps-run-preset-param-string"),
    pytest.param({"experiment": "contraction", "grid": [4, 4, 0]}, False,
                 id="contraction-unread-grid"),
    pytest.param({"experiment": "eps_sweep", "eps": [0.1, 0.1], "horizon": 0.5},
                 True, id="eps-sweep-repeated-eps"),
    pytest.param({"experiment": "dichotomy", "eps": [0.1, 0.1]}, True,
                 id="dichotomy-repeated-eps"),
    pytest.param({**_with_params("eps_sweep", average_range=[3.0, 4.0]),
                  "horizon": 0.5}, True, id="eps-sweep-average-range-unsampled"),
    pytest.param(_with_params("growth", param=0.0), True,
                 id="growth-zero-mode-1-weight"),
]


class TestAdmission:
    @pytest.mark.parametrize("raw, refused", ADMISSION)
    def test_validate_refuses_exactly_what_run_refuses_before_stepping(
            self, tmp_path, capsys, monkeypatch, raw, refused):
        """`validate` is `run` stopped before its first step. It refuses a
        config, as a finding (exit 1) or a config error (exit 2), exactly
        when `run` exits 2 before stepping anything, with the same error,
        no traceback and no output directory."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        with monkeypatch.context() as patch:
            _forbid_stepping(patch)
            rc = main(["validate", "--config", str(cfg_path)])
            said = capsys.readouterr()
            if refused:
                assert main(["run", "--config", str(cfg_path),
                             "--out", str(out_dir)]) == 2
        if not refused:
            assert rc == 0 and said.out == "ok\n"
            assert main(["run", "--config", str(cfg_path),
                         "--out", str(out_dir)]) == 0
            return
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.removeprefix("config error: ").strip() in said.out + said.err
        if rc == 1:
            assert said.out.endswith("invalid\n")
        else:
            assert rc == 2 and said.err.startswith("config error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("workload", ["eps_sweep_small", "ck_contraction",
                                          "eps_run_large", "reductions_1d"])
    def test_validate_steps_nothing(self, tmp_path, monkeypatch, workload):
        """`validate` passes every benchmark workload config (seeds 0-2)
        with every time loop and CK iterate made to raise, and writes
        nothing."""
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        _forbid_stepping(monkeypatch)
        monkeypatch.chdir(tmp_path)
        for seed in range(3):
            for raw in workloads.configs(workload, seed):
                assert validate(RunConfig.from_dict(raw)) == {"ok": True,
                                                              "findings": []}
        assert list(tmp_path.iterdir()) == []
