"""Iterative (Cauchy-Kovalevskaya style) solution construction:
initialization, fixed-point property, contraction rates, eta bisection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from driftfluid import ck
from driftfluid.ck import (
    Iterate,
    bisect_eta,
    contraction_report,
    initialize,
    iterate,
    iterate_difference,
    max_ratio,
    run_scheme,
    time_grid,
)
from driftfluid.epsilon import dt_policy, make_eps_state, parallel_field, run as eps_run
from driftfluid.errors import ConfigError
from driftfluid.poisson import solve_fields
from driftfluid.quadrature import cumulative_integral
from driftfluid.spectral import (
    Grid,
    NormParams,
    SpectralField,
    constant,
    derivative,
    forward,
    product,
    zeros,
)

PARAMS = NormParams(delta0=1.5, delta=1.1, eta=1.0, beta=0.5)


def small_state(grid, eps, amplitude=1e-2):
    mesh = grid.meshgrid()
    x1 = mesh[grid.axis_index("perp1")]
    xp = mesh[grid.par_axis]
    rho = forward(grid, 1.0 + amplitude * math.sqrt(eps) * np.cos(2 * np.pi * xp)
                  + 0.5 * amplitude * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * xp))
    v = forward(grid, 0.5 * amplitude * np.sin(2 * np.pi * xp))
    return make_eps_state(rho, v, eps)


class TestInitialize:
    def test_equilibrium_converges_in_one_step(self):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        rho0, v0 = constant(g, 1.0), zeros(g)
        times = time_grid(PARAMS, 1.1, dt_policy(eps))
        it0 = initialize(rho0, v0, eps, times)
        it1 = iterate(it0, rho0, v0)
        d = iterate_difference(it1, it0, PARAMS)
        assert max(d.values()) < 1e-14

    def test_zeroth_iterate_field_integral(self):
        """rho^0 is frozen, so G^0(t) = t * E_par(0)."""
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        times = time_grid(PARAMS, 1.1, dt_policy(eps))
        it0 = initialize(st.rho, st.v, eps, times)
        _, forces = solve_fields(st.rho, eps)
        expected = times[:, None] * forces.Epar.coeffs[None, :]
        assert np.max(np.abs(it0.G - expected)) < 1e-13
        # w^0(t) = v(0) - G^0(t) embeds the running integral
        assert np.max(np.abs(it0.w[0].coeffs - st.v.coeffs)) < 1e-15

    def test_fields_satisfy_poisson_per_sample(self, rng):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.3
        st = small_state(g, eps, amplitude=0.05)
        times = time_grid(PARAMS, 1.1, dt_policy(eps))
        it1 = iterate(initialize(st.rho, st.v, eps, times), st.rho, st.v)
        for j in (0, len(times) // 2, len(times) - 1):
            _, forces = solve_fields(it1.rho[j], eps)
            assert np.max(np.abs(forces.Epar.coeffs - it1.Epar[j])) < 1e-11


def per_sample_iterate(prev, rho0, v0):
    """Reference recursion step, one sample at a time through the field
    API; returns the coefficient arrays (rho, w, G, Epar)."""
    grid = prev.grid
    par = grid.par_axis
    dt = float(prev.times[1] - prev.times[0])
    drho, dw = [], []
    for j in range(len(prev.times)):
        rho_j, v_j = prev.rho[j], prev.v(j)
        _, forces = solve_fields(rho_j, prev.eps)
        dr = -derivative(product(v_j, rho_j), par)
        dv = -product(v_j, derivative(v_j, par)) - forces.eps_dpar_phi
        for comp, label in ((forces.Eperp1, "perp1"), (forces.Eperp2, "perp2")):
            if label in grid.axes:
                dr = dr - derivative(product(comp, rho_j), label)
                dv = dv - derivative(product(comp, v_j), label)
        drho.append(dr.coeffs)
        dw.append(dv.coeffs)
    rho = rho0.coeffs[None] + cumulative_integral(np.stack(drho), dt)
    w = v0.coeffs[None] + cumulative_integral(np.stack(dw), dt)
    epar = np.stack([solve_fields(SpectralField(grid, r), prev.eps)[1].Epar.coeffs
                     for r in rho])
    return rho, w, cumulative_integral(epar, dt), epar


class TestIterate:
    @pytest.mark.parametrize("grid", [Grid.torus3d(4, 4, 8), Grid.shear2d(8, 16)],
                             ids=["torus3d", "shear2d"])
    def test_batched_matches_per_sample(self, grid):
        """The whole-time-axis recursion agrees with the sample-by-sample
        one, also on a grid without a perp2 axis."""
        eps = 0.25
        mesh = grid.meshgrid()
        phase = 2 * np.pi * sum(mesh)          # k = 1 along every axis
        st = make_eps_state(
            forward(grid, 1.0 + 0.05 * np.cos(phase)
                    + 0.03 * np.sin(2 * np.pi * mesh[0])),
            forward(grid, 0.05 * np.sin(phase)), eps)
        times = time_grid(PARAMS, 1.1, dt_policy(eps))
        prev = iterate(initialize(st.rho, st.v, eps, times), st.rho, st.v)
        batched = iterate(prev, st.rho, st.v)
        got = (np.stack([f.coeffs for f in batched.rho]),
               np.stack([f.coeffs for f in batched.w]), batched.G, batched.Epar)
        for a, b in zip(got, per_sample_iterate(prev, st.rho, st.v)):
            assert np.max(np.abs(a - b)) <= 1e-15

    def test_rk4_solution_is_fixed_point(self):
        """Inject the RK4 trajectory as an iterate: one recursion maps it
        to itself within the time-quadrature error."""
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps, amplitude=0.02)
        times = time_grid(PARAMS, 1.1, dt_policy(eps))
        dt = float(times[1] - times[0])
        traj = eps_run(st, dt, len(times) - 1,
                       {"state": lambda s: s, "Epar": parallel_field})
        injected = Iterate(
            n=5, eps=eps, times=times,
            rho=[s.rho for s in traj["state"]],
            w=[s.w for s in traj["state"]],
            G=np.stack([s.G.coeffs for s in traj["state"]]),
            Epar=traj["Epar"])
        mapped = iterate(injected, st.rho, st.v)
        d = iterate_difference(mapped, injected, PARAMS)
        # quadrature and RK4 errors, both O(dt^4) at tiny amplitude
        assert max(d.values()) < 5e-9

    def test_geometric_decay_of_differences(self):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        p = replace(PARAMS, eta=0.5)
        its = run_scheme(st.rho, st.v, eps, p, 1.1, dt_policy(eps), n_max=8,
                         tol=0.0)
        rows = contraction_report(its, p)
        ratios = [r.ratio for r in rows if math.isfinite(r.ratio)]
        assert all(r < 1.0 for r in ratios)
        assert ratios[-1] < 0.5


def geometric_iterates(factors):
    """Iterates X* + f_n D for a fixed direction D, one per factor f_n."""
    g = Grid.torus3d(4, 4, 8)
    eps = 0.25
    st = small_state(g, eps)
    times = time_grid(PARAMS, 1.1, dt_policy(eps))
    base = initialize(st.rho, st.v, eps, times)
    return [Iterate(n=n, eps=eps, times=times,
                    rho=[r + fac * st.rho for r in base.rho],
                    w=[w + fac * st.v for w in base.w],
                    G=base.G + fac * np.ones_like(base.G),
                    Epar=base.Epar + fac * np.ones_like(base.Epar))
            for n, fac in enumerate(factors)]


class TestContractionReport:
    def test_identical_iterates_zero_difference(self):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        times = time_grid(PARAMS, 1.1, dt_policy(eps))
        it0 = initialize(st.rho, st.v, eps, times)
        rows = contraction_report([it0, it0, it0], PARAMS)
        assert rows[0].total == 0.0
        assert rows[1].total == 0.0

    def test_synthetic_recursion_with_known_factor(self, rng):
        """Iterates X* + q^n D for a fixed direction D: every consecutive
        ratio equals q exactly."""
        q = 0.37
        its = geometric_iterates([q ** n for n in range(5)])
        rows = contraction_report(its, PARAMS)
        for row in rows[1:]:
            assert row.ratio == pytest.approx(q, abs=1e-10)

    def test_needs_three_iterates(self):
        g = Grid.torus3d(4, 4, 8)
        st = small_state(g, 0.25)
        times = time_grid(PARAMS, 1.1, dt_policy(0.25))
        it0 = initialize(st.rho, st.v, 0.25, times)
        with pytest.raises(ConfigError):
            contraction_report([it0, it0], PARAMS)


class TestRecordedDifferences:
    def test_each_difference_computed_once(self, monkeypatch):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        direct = ck.iterate_difference
        calls = []

        def counted(a, b, params):
            calls.append(params)
            return direct(a, b, params)

        monkeypatch.setattr(ck, "iterate_difference", counted)
        its = run_scheme(st.rho, st.v, eps, PARAMS, 1.1, dt_policy(eps),
                         n_max=4, tol=0.0)
        rows = contraction_report(its, PARAMS)
        assert len(calls) == 4
        assert [r.total for r in rows] == [
            max(direct(a, b, PARAMS).values()) for a, b in zip(its[1:], its[:-1])]
        # other norm parameters are a different difference
        contraction_report(its, replace(PARAMS, beta=0.25))
        assert len(calls) == 8

    def test_dropped_iterates_are_freed(self):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        its = run_scheme(st.rho, st.v, eps, PARAMS, 1.1, dt_policy(eps),
                         n_max=5, tol=0.0, keep_all=False)
        assert [it.n for it in its] == [3, 4, 5]
        assert its[0].diff[0]() is None          # iterate 2 was dropped
        assert its[1].diff[0]() is its[0]


class TestMaxRatio:
    def test_non_finite_total_is_infeasible(self):
        """Differences with ratios 0.4, 0.4, then a non-finite one: the
        divergent last iteration must not be dropped from the certificate."""
        its = geometric_iterates([0.4 ** n for n in range(4)])
        last = its[-1]
        epar = last.Epar.copy()
        epar[1, 1] = np.inf
        its.append(replace(last, n=last.n + 1, Epar=epar))
        rows = contraction_report(its, PARAMS)
        assert [r.ratio for r in rows[1:3]] == pytest.approx([0.4, 0.4], abs=1e-10)
        assert math.isinf(rows[-1].total)
        assert max_ratio(its, PARAMS, first=2) == math.inf
        # outside [first, last] the diverged row certifies nothing either way
        assert max_ratio(its, PARAMS, first=2, last=3) == pytest.approx(0.4, abs=1e-10)

    def test_exact_zero_totals_stay_feasible(self):
        """A converged tail (zero differences, 0/0 ratios) keeps the
        certificate of the contracting rows before it."""
        its = geometric_iterates([1.0, 0.4, 0.16, 0.16, 0.16])
        rows = contraction_report(its, PARAMS)
        assert rows[-1].total == 0.0 and rows[-2].total == 0.0
        assert max_ratio(its, PARAMS, first=2) == pytest.approx(0.4, abs=1e-10)


class TestEtaSelection:
    def test_smaller_eta_contracts_harder(self):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps, amplitude=0.05)
        ratios = []
        for eta in (1.0, 0.5):
            p = replace(PARAMS, eta=eta)
            its = run_scheme(st.rho, st.v, eps, p, 1.1, dt_policy(eps),
                             n_max=6, tol=0.0)
            ratios.append(max_ratio(its, p, first=2, last=5))
        assert ratios[1] < ratios[0]

    def test_bisection_certificate(self):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        eta = bisect_eta(st.rho, st.v, eps, PARAMS, 1.1, dt_policy(eps),
                         n_bisect=6)
        p = replace(PARAMS, eta=eta)
        its = run_scheme(st.rho, st.v, eps, p, 1.1, dt_policy(eps), n_max=7,
                         tol=0.0)
        assert max_ratio(its, p, first=2, last=6) <= 0.5
