"""Mutation gate: faults planted by hand in the transport kernel, in the
band layout and its matrix transforms, in the invariants the tests guard, in the contraction probes, in the stacked
layouts of the correctors and the two-phase step, in the toy model's
quasineutral limit, in the ensemble step and run loop, in the config
checks and in the experiment runners (snapshot streaming among them),
each of which its named tests must catch.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones

The script copies `src`, `tests` and `pyproject.toml` to a temporary
directory. For each mutant it replaces the exact old text of one file by
the new text, runs only the mutant's tests in one pytest subprocess, and
restores the file. It exits nonzero when a mutant survives (its tests
pass), when its old text is not found exactly once (so a refactor of the
code under a mutant has to re-state the mutant instead of losing it), or
when pytest does not run its tests. pytest collects only test_*.py
files, so the test suite never runs this script.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PROPS = "tests/test_properties.py::"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the transport kernel
    Mutant("product-scaled", "src/driftfluid/epsilon.py",
           "out = dealiased_coeffs(grid, prods, True)",
           "out = dealiased_coeffs(grid, prods * 1.01, True)",
           (PROPS + "test_stacked_kernel_is_bitwise_per_transform",)),
    Mutant("no-conjugation-in-full-coeffs", "src/driftfluid/spectral.py",
           "    np.conjugate(out, out=out, where=conj)\n", "",
           (PROPS + "test_half_completion_is_bitwise_on_hermitian_arrays",)),
    Mutant("complex-products-not-dealiased", "src/driftfluid/spectral.py",
           "    coeffs *= grid.full.dealias_mask\n", "",
           ("tests/test_spectral.py::TestProduct::test_complex_product_dealiased",)),
    Mutant("wrong-half-kpar-symbol", "src/driftfluid/spectral.py",
           "cut(f.kperp_sq), cut(f.kpar_sq))", "cut(f.kperp_sq), 4 * cut(f.kpar_sq))",
           (PROPS + "test_half_field_coeffs_match_full_reference",)),
    Mutant("one-point-blocks", "src/driftfluid/spectral.py",
           "FFT_BLOCK_POINTS = 2**14", "FFT_BLOCK_POINTS = 1",
           (PROPS + "test_eps_step_transforms_once_each_way_per_stage",
            PROPS + "test_limit_step_transforms_per_stage")),
    Mutant("value-dropped-one-product-early", "src/driftfluid/epsilon.py",
           "keep = {f for p in table[g + k:]", "keep = {f for p in table[g + k + 1:]",
           (PROPS + "test_kernel_blocks_are_bitwise_per_transform",)),
    # the band layout
    Mutant("band-one-mode-wider", "src/driftfluid/spectral.py",
           "keep = np.flatnonzero(np.abs(k) < n / 3.0)",
           "keep = np.flatnonzero(np.abs(k) <= n / 3.0)",
           (PROPS + "test_band_holds_exactly_the_dealiased_modes",
            PROPS + "test_band_transforms_are_bytewise_irfftn_and_masked_rfftn")),
    Mutant("band-completion-not-conjugated", "src/driftfluid/spectral.py",
           "        return position[source], conj\n",
           "        return position[source], conj & False\n",
           (PROPS + "test_band_completion_is_bytewise_the_half_completion",)),
    Mutant("band-guard-disabled", "src/driftfluid/spectral.py",
           "if field.real and field.coeffs[~field.grid.dealias_mask].any():",
           "if False:",
           ("tests/test_quadrature.py::TestBandGuard::"
            "test_step_and_evolve_refuse_a_mode_outside_the_band",)),
    Mutant("ck-data-off-band-accepted", "src/driftfluid/ck.py",
           '    check_band_limited(rho0, "rho0")\n    check_band_limited(v0, "v0")\n', "",
           ("tests/test_ck.py::TestInitialize::test_a_mode_outside_the_band_is_refused",)),
    # the band matrices
    Mutant("one-row-product-unpadded", "src/driftfluid/spectral.py",
           "        if len(part) == 1:\n"
           "            out[start:] = (np.concatenate([part, np.zeros_like(part)]) @ matrix)[:1]\n"
           "        else:\n"
           "            np.matmul(",
           "        if True:\n            np.matmul(",
           (PROPS + "test_matrix_transforms_are_bitwise_per_row",)),
    Mutant("inverse-weight-one-off-the-k-par-zero-plane", "src/driftfluid/spectral.py",
           "np.where(modes[-1].ravel() > 0, 2.0, 1.0)",
           "np.where(modes[-1].ravel() > 0, 1.0, 1.0)",
           (PROPS + "test_matrix_transforms_match_pocketfft",)),
    Mutant("half-values-ignore-the-matrices", "src/driftfluid/spectral.py",
           "    if real and grid.band_matrices is not None:\n"
           "        return _by_blocks(grid, coeffs, lambda rows: _half_inverse_block(grid, rows))\n",
           "",
           ("tests/test_quadrature.py::TestEnsemble::"
            "test_a_step_is_the_same_with_values_cached_or_not",
            "tests/test_toymodel.py::TestTendencies::"
            "test_steps_match_field_reference[8]")),
    Mutant("matrix-budget-flipped", "src/driftfluid/spectral.py",
           "* self.size > MATRIX_BYTES:", "* self.size < MATRIX_BYTES:",
           (PROPS + "test_only_grids_whose_matrices_fit_build_them",)),
    # the invariants
    Mutant("mass-not-pinned", "src/driftfluid/epsilon.py",
           "    rho[(...,) + (0,) * grid.ndim] = 1.0\n", "",
           ("tests/test_eps_solver.py::TestStep::test_step_resets_a_drifted_mean",)),
    Mutant("limit-kperp-zero-not-projected", "src/driftfluid/limit.py",
           "    drho[grid._par_line] = 0.0\n", "",
           ("tests/test_limit.py::TestTendencies::"
            "test_perp_average_tendency_vanishes_identically",)),
    Mutant("check-finite-disabled", "src/driftfluid/quadrature.py",
           "[np.isfinite(a).reshape(len(states), -1).all(axis=1) for a in y]",
           "[np.ones(len(states), dtype=bool)]",
           ("tests/test_quadrature.py::TestBlowUp::test_step_raises_with_last_state",)),
    Mutant("eps-state-not-checked-real", "src/driftfluid/epsilon.py",
           "    check_real(v)\n", "",
           ("tests/test_quadrature.py::TestEntryGuards::"
            "test_non_hermitian_velocity_is_refused[epsilon]",)),
    Mutant("max-ratio-ignores-non-finite", "src/driftfluid/ck.py",
           "    if any(not math.isfinite(r.total) for r in rows):\n"
           "        return math.inf\n", "",
           ("tests/test_ck.py::TestMaxRatio::test_non_finite_total_is_infeasible",)),
    Mutant("probe-exits-at-target-ratio", "src/driftfluid/ck.py",
           "math.isfinite(row.ratio) and row.ratio > target",
           "math.isfinite(row.ratio) and row.ratio >= target",
           ("tests/test_ck.py::TestLazyVerdict::"
            "test_verdict_is_max_ratio_and_stops_at_first_failing_row",)),
    Mutant("probe-reads-past-non-finite-total", "src/driftfluid/ck.py",
           "            if not math.isfinite(row.total) or (\n"
           "                    math.isfinite(row.ratio) and row.ratio > target):\n",
           "            if math.isfinite(row.ratio) and row.ratio > target:\n",
           ("tests/test_ck.py::TestLazyVerdict::"
            "test_verdict_is_max_ratio_and_stops_at_first_failing_row",)),
    Mutant("ck-gap-t-times-eta", "src/driftfluid/spectral.py",
           "- times[:, None] / params.eta", "- times[:, None] * params.eta",
           (PROPS + "test_shrinking_norm_non_decreasing_in_eta",)),
    Mutant("constant-offset-on-drho", "src/driftfluid/epsilon.py",
           "    result = [a.reshape(",
           "    tend[0][(...,) + (0,) * grid.ndim] += 1e-12\n"
           "    result = [a.reshape(",
           (PROPS + "test_drift_advection_conserves_mass",)),
    Mutant("non-conservative-rho-tendency", "src/driftfluid/epsilon.py",
           "table = [(2, 0, 1, None), (2, 1, 0, par)]",
           "table = [(2, 0, 1, None), (0, 1, 0, None)]",   # -rho d_par v
           (PROPS + "test_drift_advection_conserves_mass",)),
    Mutant("inverse-trusts-irfftn-values", "src/driftfluid/spectral.py",
           "    if field.real:\n        check_real(field, tol)\n", "",
           ("tests/test_spectral.py::TestTransforms::"
            "test_inverse_rejects_a_defect_at_negative_kpar_only",
            "tests/test_spectral.py::TestTransforms::"
            "test_inverse_rejects_broken_symmetry")),
    # the stacked layouts of the correctors and of the two-phase step
    Mutant("corrector-rows-swapped", "src/driftfluid/oscillations.py",
           "Eplus=out[:, 0], Eminus=out[:, 1]", "Eplus=out[:, 1], Eminus=out[:, 0]",
           ("tests/test_oscillations.py::TestAdvection::"
            "test_distinct_correctors_translate_each_to_its_own_solution",)),
    Mutant("corrector-half-stage-uses-samples", "src/driftfluid/oscillations.py",
           "0.5: collocation_values(grid, midpoints(ubar_coeffs), False),",
           "0.5: at_samples[:-1],",
           ("tests/test_oscillations.py::TestAdvection::"
            "test_time_dependent_current_translates",)),
    Mutant("two-phase-closure-summed-over-members", "src/driftfluid/twostream.py",
           "pressure_gradient_coeffs(grid, flux).sum(axis=-2)",
           "pressure_gradient_coeffs(grid, flux).sum(axis=0)",
           ("tests/test_quadrature.py::TestEnsemble::"
            "test_two_phase_members_match_their_solo_runs",)),
    # the quasineutral limit of the toy model
    Mutant("toy-field-eps-applied-twice", "src/driftfluid/toymodel.py",
           "V_coeffs(grid, _total(rho), eps)",
           "V_coeffs(grid, _total(rho), np.square(eps))",
           ("tests/test_twostream.py::TestQuasineutralLimit::"
            "test_toy_model_converges_to_the_two_phase_system",)),
    # the ensemble step and loop
    Mutant("values-handed-when-uncached", "src/driftfluid/quadrature.py",
           'if all("_values" in vars(f) for f in firsts) else None',
           "if True else None",
           (PROPS + "test_reduction_and_ck_transform_counts",)),
    Mutant("cached-values-at-every-stage", "src/driftfluid/quadrature.py",
           "tendency(y, values if c == 0.0 else None)", "tendency(y, values)",
           ("tests/test_eps_solver.py::TestStep::test_single_mode_linear_oscillation",
            "tests/test_toymodel.py::TestTendencies::"
            "test_steps_match_field_reference[8]",
            "tests/test_quadrature.py::TestEnsemble::"
            "test_a_step_is_the_same_with_values_cached_or_not")),
    Mutant("ensemble-shares-first-dt", "src/driftfluid/quadrature.py",
           "[m.dt for m in live]", "[live[0].dt for m in live]",
           ("tests/test_quadrature.py::TestEnsemble::"
            "test_eps_members_match_their_solo_runs",
            "tests/test_quadrature.py::TestEnsemble::"
            "test_toy_members_match_their_solo_runs")),
    Mutant("member-retired-one-step-late", "src/driftfluid/quadrature.py",
           "self.taken < self.n_steps", "self.taken <= self.n_steps",
           ("tests/test_quadrature.py::TestEnsemble::"
            "test_one_stacked_step_per_iteration_until_each_run_is_done",
            "tests/test_quadrature.py::TestEvolve::"
            "test_samples_at_zero_and_after_every_step")),
    Mutant("member-pins-run", "src/driftfluid/quadrature.py",
           "        self.dt, self.n_steps, self.probes = run.dt, run.n_steps, run.probes\n",
           "        self.run = run\n"
           "        self.dt, self.n_steps, self.probes = run.dt, run.n_steps, run.probes\n",
           ("tests/test_io_cli.py::TestRunner::"
            "test_initial_state_is_released_once_stepped",)),
    # the config checks
    Mutant("non-positive-dt-accepted", "src/driftfluid/cli.py",
           'if dt["dt"] is not None and dt["dt"] <= 0:', "if False:",
           ("tests/test_io_cli.py::TestRunConfig::"
            "test_step_settings_that_run_nothing_are_refused",
            "tests/test_io_cli.py::TestCliEntryPoint::"
            "test_negative_dt_is_a_config_error")),
    Mutant("config-type-unchecked", "src/driftfluid/cli.py",
           "    if isinstance(default, list):\n",
           "    return\n    if isinstance(default, list):\n",
           ("tests/test_io_cli.py::TestCliEntryPoint::"
            "test_mistyped_value_is_a_config_error",)),
    Mutant("param-type-unchecked", "src/driftfluid/cli.py",
           "        if not ok:\n"
           "            raise ConfigError(f\"{path}{key} must be {kind}, got {val!r}\")\n",
           "",
           ("tests/test_io_cli.py::TestAdmission::"
            "test_validate_refuses_exactly_what_run_refuses_before_stepping",)),
    Mutant("validate-skips-prepare", "src/driftfluid/cli.py",
           "        _EXPERIMENTS[cfg.experiment].prepare(cfg)\n"
           "    except AdmissibilityError",
           "        pass\n    except AdmissibilityError",
           ("tests/test_io_cli.py::TestAdmission::"
            "test_validate_refuses_exactly_what_run_refuses_before_stepping",)),
    Mutant("eps-below-floor-accepted", "src/driftfluid/poisson.py",
           "    if not eps >= MIN_EPS:\n", "    if not eps > 0:\n",
           ("tests/test_quadrature.py::TestEntryGuards::"
            "test_eps_below_the_floor_is_refused",)),
    # the experiment runners
    Mutant("runner-drops-a-file", "src/driftfluid/cli.py",
           "files += [csv_path, lim_csv, corr_csv, gp]",
           "files += [csv_path, corr_csv, gp]",
           ("tests/test_io_cli.py::TestRunner::"
            "test_eps_sweep_members_match_lone_eps_runs",)),
    Mutant("blown-eps-run-not-partial", "src/driftfluid/cli.py",
           "                      partial=True)[0]", "                      )[0]",
           ("tests/test_io_cli.py::TestCliEntryPoint::"
            "test_blow_up_keeps_and_lists_the_snapshots_written_before_it",)),
    Mutant("snapshot-path-not-listed", "src/driftfluid/cli.py",
           'files = getattr(exc, "files", [])', "files = []",
           ("tests/test_io_cli.py::TestCliEntryPoint::"
            "test_blow_up_keeps_and_lists_the_snapshots_written_before_it",)),
    Mutant("growth-without-modes-accepted", "src/driftfluid/twostream.py",
           "    if k_max < 1:\n", "    if False:\n",
           ("tests/test_io_cli.py::TestCliEntryPoint::"
            "test_config_error_met_while_running_is_a_config_error",)),
)


def outcome(mutant: Mutant, tree: Path) -> str:
    """'killed', 'SURVIVED', or why the mutant could not be tried."""
    path = tree / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"OLD TEXT FOUND {found} TIMES"
    path.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                               "-p", "no:cacheprovider", *mutant.tests],
                              cwd=tree, env=env, capture_output=True, text=True)
    finally:
        path.write_text(text)
    # pytest exits 1 when a test failed; 2-5 mean it did not run the tests
    return {0: "SURVIVED", 1: "killed"}.get(proc.returncode,
                                           f"PYTEST EXIT {proc.returncode}")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        for mutant in MUTANTS:
            if names and mutant.name not in names:
                continue
            start = time.perf_counter()
            result = outcome(mutant, tree)
            failures += result != "killed"
            print(f"{result:>10}  {mutant.name}  ({time.perf_counter() - start:.1f} s)",
                  flush=True)
    print(f"{failures} mutant(s) not killed" if failures else "every mutant killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
