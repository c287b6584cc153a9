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
from driftfluid.errors import ConfigError, InvariantError
from driftfluid.experiments import contraction_study
from driftfluid.poisson import solve_fields
from driftfluid.quadrature import cumulative_integral
from driftfluid.spectral import (
    Grid,
    NormParams,
    SpectralField,
    constant,
    derivative,
    forward,
    from_modes,
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

    @pytest.mark.parametrize("field", ["rho", "v"])
    def test_a_mode_outside_the_band_is_refused(self, field):
        """An iterate is computed on the band (|k_i| < n_i/3), so data with
        a mode off it, one |k_par| = 3 pair at 4x4x8, would lose that mode
        from iterate 1 on without a word: initialize refuses it, and with
        it run_scheme and every bisect_eta probe."""
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        data = {"rho": st.rho, "v": st.v}
        data[field] = data[field] + from_modes(g, {(0, 0, 3): 1e-3})
        times = time_grid(PARAMS, 1.1, dt_policy(eps))
        with pytest.raises(InvariantError, match="band"):
            initialize(data["rho"], data["v"], eps, times)
        with pytest.raises(InvariantError, match="band"):
            run_scheme(data["rho"], data["v"], eps, PARAMS, 1.1, dt_policy(eps), n_max=3)

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
        assert np.max(np.abs(it0.w[0] - st.v.coeffs)) < 1e-15

    def test_fields_satisfy_poisson_per_sample(self, rng):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.3
        st = small_state(g, eps, amplitude=0.05)
        times = time_grid(PARAMS, 1.1, dt_policy(eps))
        it1 = iterate(initialize(st.rho, st.v, eps, times), st.rho, st.v)
        for j in (0, len(times) // 2, len(times) - 1):
            _, forces = solve_fields(SpectralField(g, it1.rho[j]), eps)
            assert np.max(np.abs(forces.Epar.coeffs - it1.Epar[j])) < 1e-11


def per_sample_iterate(prev, rho0, v0):
    """Reference recursion step, one sample at a time through the field
    API; returns the coefficient arrays (rho, w, G, Epar)."""
    grid = prev.grid
    par = grid.par_axis
    dt = float(prev.times[1] - prev.times[0])
    drho, dw = [], []
    for j in range(len(prev.times)):
        rho_j = SpectralField(grid, prev.rho[j])
        v_j = SpectralField(grid, prev.v[j])
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
        got = (batched.rho, batched.w, batched.G, batched.Epar)
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
            n=5, eps=eps, grid=g, times=times,
            rho=np.stack([s.rho.coeffs for s in traj["state"]]),
            w=np.stack([s.w.coeffs for s in traj["state"]]),
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
        _, distances = run_scheme(st.rho, st.v, eps, p, 1.1, dt_policy(eps),
                                  n_max=8, tol=0.0)
        rows = contraction_report(distances)
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
    return [Iterate(n=n, eps=eps, grid=g, times=times,
                    rho=base.rho + fac * st.rho.coeffs,
                    w=base.w + fac * st.v.coeffs,
                    G=base.G + fac * np.ones_like(base.G),
                    Epar=base.Epar + fac * np.ones_like(base.Epar))
            for n, fac in enumerate(factors)]


def consecutive_distances(iterates, params=PARAMS):
    """iterate_difference of every iterate to the one before it."""
    return [iterate_difference(a, b, params)
            for a, b in zip(iterates[1:], iterates[:-1])]


class TestContractionReport:
    def test_identical_iterates_zero_difference(self):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        times = time_grid(PARAMS, 1.1, dt_policy(eps))
        it0 = initialize(st.rho, st.v, eps, times)
        rows = contraction_report(consecutive_distances([it0, it0, it0]))
        assert rows[0].total == 0.0
        assert rows[1].total == 0.0

    def test_synthetic_recursion_with_known_factor(self, rng):
        """Iterates X* + q^n D for a fixed direction D: every consecutive
        ratio equals q exactly."""
        q = 0.37
        its = geometric_iterates([q ** n for n in range(5)])
        rows = contraction_report(consecutive_distances(its))
        for row in rows[1:]:
            assert row.ratio == pytest.approx(q, abs=1e-10)

    def test_needs_three_iterates(self):
        g = Grid.torus3d(4, 4, 8)
        st = small_state(g, 0.25)
        times = time_grid(PARAMS, 1.1, dt_policy(0.25))
        it0 = initialize(st.rho, st.v, 0.25, times)
        with pytest.raises(ConfigError):
            contraction_report(consecutive_distances([it0, it0]))


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
        its, distances = run_scheme(st.rho, st.v, eps, PARAMS, 1.1,
                                    dt_policy(eps), n_max=4, tol=0.0)
        rows = contraction_report(distances)
        assert len(calls) == 4
        # distances[n - 1] is the difference of iterates n and n - 1, bitwise
        recomputed = [direct(a, b, PARAMS) for a, b in zip(its[1:], its[:-1])]
        assert distances == recomputed
        assert [r.total for r in rows] == [max(d.values()) for d in recomputed]


class TestMaxRatio:
    def test_non_finite_total_is_infeasible(self):
        """Differences with ratios 0.4, 0.4, then a non-finite one: the
        divergent last iteration must not be dropped from the certificate."""
        its = geometric_iterates([0.4 ** n for n in range(4)])
        last = its[-1]
        epar = last.Epar.copy()
        epar[1, 1] = np.inf
        its.append(replace(last, n=last.n + 1, Epar=epar))
        distances = consecutive_distances(its)
        rows = contraction_report(distances)
        assert [r.ratio for r in rows[1:3]] == pytest.approx([0.4, 0.4], abs=1e-10)
        assert math.isinf(rows[-1].total)
        assert max_ratio(distances, first=2) == math.inf
        # outside [first, last] the diverged row certifies nothing either way
        assert max_ratio(distances, first=2, last=3) == pytest.approx(0.4, abs=1e-10)

    def test_exact_zero_totals_stay_feasible(self):
        """A converged tail (zero differences, 0/0 ratios) keeps the
        certificate of the contracting rows before it."""
        distances = consecutive_distances(
            geometric_iterates([1.0, 0.4, 0.16, 0.16, 0.16]))
        rows = contraction_report(distances)
        assert rows[-1].total == 0.0 and rows[-2].total == 0.0
        assert max_ratio(distances, first=2) == pytest.approx(0.4, abs=1e-10)


def infinite_at(its, k):
    """`its` with iterate k carrying one infinite E_par coefficient, so
    rows k and k + 1 of their distances have infinite totals."""
    epar = its[k].Epar.copy()
    epar[1, 1] = np.inf
    return its[:k] + [replace(its[k], Epar=epar)] + its[k + 1:]


def lazy_verdict(distances, target, last):
    """ck._contracts on a one-pass stream of `distances`, and how many
    rows it read."""
    stream = iter(distances)
    verdict = ck._contracts(stream, target, last)
    return verdict, len(distances) - len(list(stream))


class TestLazyVerdict:
    """A probe reads rows 1 ... last of the distances one at a time and
    stops at the first failing row from 2 on; its verdict is always that
    of max_ratio over every row, first=2, last=last."""

    @pytest.mark.parametrize("factors, infinite, target, last, read", [
        # ratios 0.5 to rounding, target their exact maximum
        ([0.5 ** n for n in range(7)], None, None, 6, 6),
        # ratios 0.4, then 0.75 at row 3
        ([0.0, 1.0, 1.4, 1.7, 1.8, 1.85, 1.87], None, 0.5, 6, 3),
        # non-finite totals at rows 3 and 4, inside [2, 6]
        ([0.4 ** n for n in range(7)], 3, 0.5, 6, 3),
        # non-finite total at row 6, past last = 5
        ([0.4 ** n for n in range(7)], 6, 0.5, 5, 5),
        # non-finite total at row 1, before first = 2
        ([0.4 ** n for n in range(7)], 0, 0.5, 6, 6),
        # zero totals from row 3 on: 0 then 0/0 ratios
        ([1.0, 0.4, 0.16, 0.16, 0.16, 0.16, 0.16], None, 0.5, 6, 6),
        # a zero total at row 4, so an infinite ratio at row 5
        ([0.0, 1.0, 1.4, 1.56, 1.56, 1.6, 1.61], None, 0.5, 6, 6)],
        ids=["ratio-at-target", "fails-at-row-3", "non-finite-inside",
             "non-finite-after-last", "non-finite-before-first",
             "zero-total-tail", "inf-ratio-after-zero-total"])
    def test_verdict_is_max_ratio_and_stops_at_first_failing_row(
            self, factors, infinite, target, last, read):
        its = geometric_iterates(factors)
        if infinite is not None:
            its = infinite_at(its, infinite)
        distances = consecutive_distances(its)
        if target is None:
            target = max_ratio(distances, first=2, last=last)
        full = max_ratio(distances, first=2, last=last) <= target
        assert lazy_verdict(distances, target, last) == (full, read)

    def test_infeasible_probe_stops_at_row_2(self, monkeypatch):
        """At eta = 4 the second difference already fails the halving
        rate: the probe computes two iterates; at eta = 2 it computes the
        six its rows 1 ... 6 need."""
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        direct, calls = ck.iterate, []

        def counted(prev, rho0, v0):
            calls.append(prev.n)
            return direct(prev, rho0, v0)

        monkeypatch.setattr(ck, "iterate", counted)
        for eta, verdict, made in ((4.0, False, 2), (2.0, True, 6)):
            calls.clear()
            p = replace(PARAMS, eta=eta)
            first = initialize(st.rho, st.v, eps, time_grid(p, 1.1, dt_policy(eps)))
            stream = (d for _, d in ck._scheme(first, st.rho, st.v, p))
            assert ck._contracts(stream, 0.5, 6) is verdict
            assert len(calls) == made

    def test_contraction_study_counts(self, monkeypatch):
        """The study's probes and final run compute 66 iterates (103 when
        every probe computed seven), with one run_scheme call."""
        counts = {"iterate": 0, "run_scheme": 0}
        for name in counts:
            direct = getattr(ck, name)

            def counted(*args, _direct=direct, _name=name, **kwargs):
                counts[_name] += 1
                return _direct(*args, **kwargs)

            monkeypatch.setattr(ck, name, counted)
        study = contraction_study()
        assert counts == {"iterate": 66, "run_scheme": 1}
        assert study.eta == 2.859375


class TestEtaSelection:
    def test_smaller_eta_contracts_harder(self):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps, amplitude=0.05)
        ratios = []
        for eta in (1.0, 0.5):
            p = replace(PARAMS, eta=eta)
            _, distances = run_scheme(st.rho, st.v, eps, p, 1.1,
                                      dt_policy(eps), n_max=6, tol=0.0)
            ratios.append(max_ratio(distances, first=2, last=5))
        assert ratios[1] < ratios[0]

    def test_bisection_certificate(self):
        g = Grid.torus3d(4, 4, 8)
        eps = 0.25
        st = small_state(g, eps)
        eta = bisect_eta(st.rho, st.v, eps, PARAMS, 1.1, dt_policy(eps),
                         n_bisect=6)
        p = replace(PARAMS, eta=eta)
        _, distances = run_scheme(st.rho, st.v, eps, p, 1.1, dt_policy(eps),
                                  n_max=7, tol=0.0)
        assert max_ratio(distances, first=2, last=6) <= 0.5
