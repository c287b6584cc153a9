"""Quadrature utilities: cumulative integrals, midpoints, the
oscillatory kernel convolutions, and the shared RK4 step with its
non-finite check."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from driftfluid import epsilon, limit, toymodel, twostream
from driftfluid.cli import RunConfig
from driftfluid.errors import BlowUpError, ConfigError, InvariantError
from driftfluid.quadrature import (
    Run,
    cumulative_integral,
    evolve,
    interval_integrals,
    midpoints,
    oscillatory_convolutions,
    rk4_step,
    states_at,
)
from driftfluid.spectral import Grid, SpectralField, constant, forward


class TestCumulativeIntegral:
    def test_exact_on_cubics(self):
        t = np.linspace(0.0, 2.0, 17)
        y = 1.0 - 2.0 * t + 0.5 * t**2 + 0.25 * t**3
        exact = t - t**2 + t**3 / 6 + t**4 / 16
        ci = cumulative_integral(y, t[1] - t[0])
        assert np.max(np.abs(ci - exact)) < 1e-13

    def test_four_samples_exact_on_cubics(self):
        """Four samples are the smallest series: its middle interval is an
        interior one and must be integrated too."""
        t = np.linspace(0.0, 1.5, 4)
        y = 1.0 + t + t**2 + t**3
        exact = t + t**2 / 2 + t**3 / 3 + t**4 / 4
        ci = cumulative_integral(y, t[1] - t[0])
        assert np.max(np.abs(ci - exact)) < 1e-13

    def test_fourth_order_convergence(self):
        errs = []
        for n in (32, 64):
            t = np.linspace(0.0, 2.0, n + 1)
            y = np.cos(3.0 * t)
            ci = cumulative_integral(y, t[1] - t[0])
            errs.append(np.max(np.abs(ci - np.sin(3.0 * t) / 3.0)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.35)

    def test_vectorised_axes(self, rng):
        t = np.linspace(0.0, 1.0, 21)
        y = np.stack([np.sin(2 * t), np.cos(2 * t)], axis=1)
        ci = cumulative_integral(y, t[1] - t[0])
        assert ci.shape == y.shape
        assert np.max(np.abs(ci[:, 0] - (1 - np.cos(2 * t)) / 2)) < 1e-6

    def test_interval_sums_match(self):
        t = np.linspace(0.0, 1.0, 9)
        y = np.exp(t)
        parts = interval_integrals(y, t[1] - t[0])
        total = cumulative_integral(y, t[1] - t[0])[-1]
        assert np.sum(parts) == pytest.approx(total, rel=1e-15)


class TestMidpoints:
    def test_exact_on_cubics(self):
        t = np.linspace(0.0, 1.0, 9)
        y = 2.0 + t - t**2 + 3.0 * t**3
        mids = midpoints(y)
        tm = 0.5 * (t[:-1] + t[1:])
        assert np.max(np.abs(mids - (2.0 + tm - tm**2 + 3.0 * tm**3))) < 1e-13

    def test_four_samples_exact_on_cubics(self):
        t = np.linspace(0.0, 1.5, 4)
        y = 2.0 + t - t**2 + 3.0 * t**3
        tm = 0.5 * (t[:-1] + t[1:])
        assert np.max(np.abs(midpoints(y) - (2.0 + tm - tm**2 + 3.0 * tm**3))) < 1e-13


class TestOscillatoryConvolutions:
    def test_constant_source_closed_form(self):
        t = np.linspace(0.0, 2.0, 81)
        omega = 25.0
        S, C = oscillatory_convolutions(np.ones((81, 1)), t[1] - t[0], omega)
        assert np.max(np.abs(S[:, 0] - (1 - np.cos(omega * t)) / omega)) < 1e-13
        assert np.max(np.abs(C[:, 0] - np.sin(omega * t) / omega)) < 1e-13

    def test_smooth_source_vs_quadrature(self):
        t = np.linspace(0.0, 1.5, 121)
        omega = 30.0
        g = np.cos(1.3 * t) + 0.4 * np.sin(2.7 * t)
        S, C = oscillatory_convolutions(g[:, None], t[1] - t[0], omega)
        for i in (40, 80, 120):
            ref_s = quad(lambda s: np.sin(omega * (t[i] - s))
                         * (np.cos(1.3 * s) + 0.4 * np.sin(2.7 * s)),
                         0, t[i], limit=600)[0]
            assert S[i, 0] == pytest.approx(ref_s, abs=5e-9)

    def test_small_theta_series_branch(self):
        # omega dt below the series switch threshold
        t = np.linspace(0.0, 1.0, 2001)
        omega = 20.0   # theta = 0.01
        g = np.cos(2.0 * t)
        S, _ = oscillatory_convolutions(g[:, None], t[1] - t[0], omega)
        ref = quad(lambda s: np.sin(omega * (1.0 - s)) * np.cos(2.0 * s),
                   0, 1.0, limit=800)[0]
        assert S[-1, 0] == pytest.approx(ref, abs=1e-10)

    def test_trapezoid_rule_agrees_at_low_frequency(self):
        t = np.linspace(0.0, 1.0, 401)
        omega = 2.0
        g = np.sin(t)
        Sf, _ = oscillatory_convolutions(g[:, None], t[1] - t[0], omega, rule="filon")
        St, _ = oscillatory_convolutions(g[:, None], t[1] - t[0], omega,
                                         rule="trapezoid")
        assert np.max(np.abs(Sf - St)) < 1e-5


class TestRK4Step:
    def test_exact_for_cubic_in_time_forcing(self):
        """dy/dt = 3 t^2, through the stage fraction c: Simpson's rule on
        the stages integrates it exactly."""
        t0, dt = 0.5, 0.25
        (y,) = rk4_step(lambda s, c: (np.full(2, 3.0 * (t0 + c * dt) ** 2),),
                        (np.full(2, t0**3),), dt)
        assert np.allclose(y, (t0 + dt) ** 3, rtol=1e-15, atol=0.0)

    def test_fields_and_arrays_give_the_same_step(self):
        g = Grid.line(8)
        x = g.meshgrid()[0]
        f0 = forward(g, 1.0 + 0.1 * np.cos(2 * np.pi * x))
        (a,) = rk4_step(lambda s, c: (-0.5 * s[0],), (f0,), 0.1)
        (b,) = rk4_step(lambda s, c: (-0.5 * s[0],), (f0.coeffs,), 0.1)
        assert np.array_equal(a.coeffs, b)


def _torus_data():
    g = Grid.torus3d(4, 4, 8)
    x1, x2, xp = g.meshgrid()
    rho = forward(g, 1.0 + 0.2 * np.cos(2 * np.pi * xp)
                  + 0.1 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * xp))
    v = forward(g, np.sin(2 * np.pi * xp) + 0.5 * np.cos(2 * np.pi * x2))
    return rho, v


def _blow_up_cases():
    rho, v = _torus_data()
    return {
        "epsilon": (epsilon.make_eps_state(rho, v, 0.01), epsilon.step,
                    epsilon.EpsState),
        "limit": (limit.project_initial(rho, v), limit.step, limit.LimitState),
        "twostream": (twostream.seeded_state(Grid.line(16), (0.5, 1.0, -1.0),
                                             "analytic", 0.5, 4, 1e-2),
                      twostream.step, twostream.TwoPhaseState),
        "toymodel": (toymodel.dichotomy_data(Grid.line(16), 0.01, 0.5),
                     toymodel.step, toymodel.MultiPhaseState),
    }


class TestBlowUp:
    @pytest.mark.parametrize("system", ["epsilon", "limit", "twostream", "toymodel"])
    def test_step_raises_with_last_state(self, system):
        state, step, state_type = _blow_up_cases()[system]
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as info:
                step(state, 1e200)
        assert isinstance(info.value.last_state, state_type)
        assert info.value.last_state is state
        assert info.value.last_time == state.t

    def test_eps_step_checks_the_field_integral(self):
        rho, v = _torus_data()
        state = epsilon.make_eps_state(rho, v, 0.01)
        bad = epsilon.EpsState(t=state.t, eps=state.eps, rho=state.rho,
                               v=state.v, G=constant(state.grid.par_grid, np.inf))
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError):
                epsilon.step(bad, 1e-3)


def _skewed(field):
    """`field` plus one unpaired k_par = 1 coefficient: data no real
    function has."""
    c = np.array(field.coeffs, copy=True)
    c[(0,) * (field.grid.ndim - 1) + (1,)] += 0.1
    return SpectralField(field.grid, c)


def _entry_cases():
    """Each system's initial-data constructor as a function of a velocity
    filter applied to one of its velocities."""
    rho, v = _torus_data()
    line = Grid.line(16)
    x = line.coordinates(0)
    bump = 0.1 * np.cos(2 * np.pi * x)
    u = forward(line, np.sin(2 * np.pi * x))
    return {
        "epsilon": lambda f: epsilon.make_eps_state(rho, f(v), 0.01),
        "limit": lambda f: limit.project_initial(rho, f(v)),
        "twostream": lambda f: twostream.make_two_phase(
            forward(line, 0.5 + bump), u, f(-u)),
        "toymodel": lambda f: toymodel.make_multi_phase(
            [forward(line, 1.0 + bump), forward(line, 1.0 - bump)],
            [u, f(-u)], 0.1),
    }


class TestEntryGuards:
    @pytest.mark.parametrize("system", ["epsilon", "limit", "twostream", "toymodel"])
    def test_non_hermitian_velocity_is_refused(self, system):
        """A step reads only the k_par >= 0 half of a real field, so an
        anti-Hermitian part would be dropped silently: the constructors
        refuse it."""
        make = _entry_cases()[system]
        make(lambda f: f)
        with pytest.raises(InvariantError):
            make(_skewed)

    @pytest.mark.parametrize("entry", ["epsilon", "toymodel", "config"])
    def test_eps_below_the_floor_is_refused(self, entry):
        """The parallel potential is of order 1/eps and overflows below
        eps = 1e-300, so every entry point that takes eps refuses it."""
        rho, v = _torus_data()
        line = Grid.line(16)
        bump = forward(line, 0.1 * np.cos(2 * np.pi * line.coordinates(0)))
        one = constant(line, 1.0)
        make = {
            "epsilon": lambda eps: epsilon.make_eps_state(rho, v, eps),
            "toymodel": lambda eps: toymodel.make_multi_phase(
                [one + bump, one - bump], [bump, -bump], eps),
            "config": lambda eps: RunConfig.from_dict(
                {"experiment": "eps_run", "eps": [eps]}),
        }[entry]
        make(1e-300)
        for eps in (1e-310, 5e-324, 0.0, -0.1):
            with pytest.raises(ConfigError, match="eps"):
                make(eps)


class TestBandGuard:
    """A step keeps only the modes the 2/3 rule keeps, so a state with a
    mode outside that band is refused where it enters stepping, instead
    of losing the mode silently."""

    def test_step_and_evolve_refuse_a_mode_outside_the_band(self):
        state = epsilon.make_eps_state(*_torus_data(), 0.01)
        c = np.array(state.v.coeffs, copy=True)
        c[0, 0, 3] = c[0, 0, -3] = 1e-3           # |k_par| = 3 >= 8/3
        bad = dataclasses.replace(state, v=SpectralField(state.grid, c))
        with pytest.raises(InvariantError, match="band"):
            epsilon.step(bad, 1e-3)
        with pytest.raises(InvariantError, match="band"):
            evolve(epsilon.steps, [Run(bad, 1e-3, 2, {"mass": epsilon.mass})])


class _Doubling:
    """Minimal state for the run loop: a time and one number that doubles
    every step."""

    def __init__(self, t, y):
        self.t, self.y = t, y


def _double(states, dts):
    return [_Doubling(st.t + dt, 2.0 * st.y) for st, dt in zip(states, dts)]


class TestEvolve:
    def test_samples_at_zero_and_after_every_step(self):
        traj = evolve(_double, [Run(_Doubling(0.0, 1.0), 0.5, 4,
                                    {"y": lambda s: s.y,
                                     "pair": lambda s: np.array([s.y, -s.y])})])[0]
        assert np.array_equal(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.array_equal(traj["y"], [1.0, 2.0, 4.0, 8.0, 16.0])
        assert traj["pair"].shape == (5, 2)
        assert traj.final_state.y == 16.0 and traj.final_state.t == 2.0
        assert traj.complete and traj.dt == 0.5

    def test_non_numeric_values_stay_a_list(self):
        traj = evolve(_double, [Run(_Doubling(0.0, 1.0), 0.5, 2,
                                    {"state": lambda s: s})])[0]
        assert isinstance(traj["state"], list)
        assert traj["state"][-1] is traj.final_state

    def test_states_at_keeps_only_the_chosen_samples(self):
        traj = evolve(_double, [Run(_Doubling(0.0, 1.0), 0.5, 4,
                                    {"state": states_at([0, 3])})])[0]
        assert [s is None for s in traj["state"]] == [False, True, True, False, True]
        assert traj["state"][0].y == 1.0 and traj["state"][3].y == 8.0

    def test_stop_when_truncates_after_the_sample(self):
        traj = evolve(_double, [Run(_Doubling(0.0, 1.0), 0.5, 10, {"y": lambda s: s.y},
                                    stop_when=lambda s: s.y > 5.0)])[0]
        assert np.array_equal(traj["y"], [1.0, 2.0, 4.0, 8.0])
        assert traj.final_state.y == 8.0 and traj.complete

    def test_eps_run_final_state_is_the_last_step(self):
        rho, v = _torus_data()
        state = epsilon.make_eps_state(rho, v, 0.01)
        traj = epsilon.run(state, 1e-3, 3, {"mass": epsilon.mass})
        cur = state
        for _ in range(3):
            cur = epsilon.step(cur, 1e-3)
        assert np.array_equal(traj.final_state.rho.coeffs, cur.rho.coeffs)
        assert np.array_equal(traj.final_state.v.coeffs, cur.v.coeffs)
        assert np.array_equal(traj.final_state.G.coeffs, cur.G.coeffs)
        assert len(traj["mass"]) == 4

    @pytest.mark.parametrize("system", ["epsilon", "limit"])
    def test_blow_up_raises_from_the_run(self, system):
        state, _, state_type = _blow_up_cases()[system]
        module = {"epsilon": epsilon, "limit": limit}[system]
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as info:
                module.run(state, 1e200, 3, {"mass": epsilon.mass})
        assert info.value.last_state is state
        assert isinstance(info.value.last_state, state_type)

    @pytest.mark.parametrize("system", ["twostream", "toymodel"])
    def test_blow_up_returns_the_partial_record(self, system):
        state, _, _ = _blow_up_cases()[system]
        module = {"twostream": twostream, "toymodel": toymodel}[system]
        ok = module.run(state, 1e-4, 2, {"t": lambda s: s.t})
        with np.errstate(all="ignore"):
            cut = module.run(ok.final_state, 1e200, 3, {"t": lambda s: s.t})
        assert ok.complete and len(ok.times) == 3
        assert not cut.complete
        assert cut.final_state is ok.final_state
        assert np.array_equal(cut.times, [ok.final_state.t])


def _coeff_bytes(state) -> list:
    """The time and the coefficient bytes of every field of a state."""
    out = [state.t]
    for f in dataclasses.fields(state):
        value = getattr(state, f.name)
        for field in value if isinstance(value, tuple) else (value,):
            if isinstance(field, SpectralField):
                out.append(field.coeffs.tobytes())
    return out


def _assert_alone(got, alone):
    """A member's record equals its one-member run's, byte for byte."""
    assert got.times.tobytes() == alone.times.tobytes()
    assert got.series.keys() == alone.series.keys()
    for name in alone.series:
        assert np.asarray(got[name]).tobytes() == np.asarray(alone[name]).tobytes()
    assert got.complete == alone.complete and got.dt == alone.dt
    assert _coeff_bytes(got.final_state) == _coeff_bytes(alone.final_state)


def _eps_runs():
    """Eps members with their own data, eps, dt and step count."""
    rho, v = _torus_data()
    probes = {"mass": epsilon.mass, "energy": epsilon.energy,
              "Epar": epsilon.parallel_field, "min_rho": epsilon.EpsState.min_rho}
    return [Run(epsilon.make_eps_state(rho, v, 0.01), 1e-3, 3, probes),
            Run(epsilon.make_eps_state(rho, 0.5 * v, 0.04), 2e-3, 5, probes),
            Run(epsilon.make_eps_state(rho, -v, 0.1), 5e-4, 2, probes)]


def _toy_runs():
    """Toy-model members on both branches with their own eps and dt."""
    line = Grid.line(16)
    probes = {"energy": toymodel.energy,
              "entropy": lambda st: toymodel.relative_entropy(st, 0.1)}
    return [Run(toymodel.dichotomy_data(line, 0.1, 0.0), 1e-3, 4, probes),
            Run(toymodel.dichotomy_data(line, 0.01, 0.5), 2e-3, 3, probes),
            Run(toymodel.dichotomy_data(line, 0.001, 0.5), 5e-4, 5, probes)]


def _two_phase_runs():
    """Two-phase members with their own data, dt and step count."""
    line = Grid.line(16)
    backgrounds = [(0.5, 1.0, -1.0), (0.4, 0.5, -0.3), (0.6, 0.2, 0.2)]
    return [Run(twostream.seeded_state(line, bg, "analytic", 0.5, 4, 1e-3, seed),
                dt, n_steps, {"rho1": lambda st: st.rho1.coeffs,
                              "pert": lambda st, bg=bg: twostream.perturbation_norm(st, bg)})
            for seed, (bg, dt, n_steps) in enumerate(zip(
                backgrounds, (1e-3, 2e-3, 5e-4), (4, 3, 5)))]


class TestEnsemble:
    """evolve steps a list of runs together; each member's record is the
    one its run gets alone."""

    def test_eps_members_match_their_solo_runs(self):
        runs = _eps_runs()
        for run, got in zip(runs, evolve(epsilon.steps, runs)):
            _assert_alone(got, epsilon.run(run.state, run.dt, run.n_steps,
                                           run.probes))

    def test_limit_members_match_their_solo_runs(self):
        rho, v = _torus_data()
        probes = {"mass": epsilon.mass, "ubar": epsilon.mean_current}
        runs = [Run(limit.project_initial(rho, v), 1e-3, 3, probes),
                Run(limit.project_initial(rho, 0.5 * v), 2.5e-3, 4, probes)]
        for run, got in zip(runs, evolve(limit.steps, runs)):
            _assert_alone(got, limit.run(run.state, run.dt, run.n_steps,
                                         run.probes))

    def test_toy_members_match_their_solo_runs(self):
        runs = _toy_runs()
        for run, got in zip(runs, evolve(toymodel.steps, runs, partial=True)):
            _assert_alone(got, toymodel.run(run.state, run.dt, run.n_steps,
                                            run.probes))

    @pytest.mark.parametrize("system", ["epsilon", "toymodel"])
    def test_a_step_is_the_same_with_values_cached_or_not(self, system):
        """The first stage takes the members' values only when every member
        has them cached, and those are the bytes its own stacked inverse
        would make: a step of members with all, some or none of their
        values cached is the same step, byte for byte."""
        module, runs = {"epsilon": (epsilon, _eps_runs),
                        "toymodel": (toymodel, _toy_runs)}[system]

        def stepped(cache):
            states = [run.state for run in runs()]
            for st in states[:cache]:
                for entry in dataclasses.fields(st):
                    value = getattr(st, entry.name)
                    for field in value if isinstance(value, tuple) else (value,):
                        if isinstance(field, SpectralField):
                            field._values
            return [_coeff_bytes(st) for st in module.steps(states, [1e-3] * 3)]
        assert stepped(3) == stepped(1) == stepped(0)

    def test_two_phase_members_match_their_solo_runs(self):
        runs = _two_phase_runs()
        for run, got in zip(runs, evolve(twostream.steps, runs, partial=True)):
            _assert_alone(got, twostream.run(run.state, run.dt, run.n_steps,
                                             run.probes))

    def test_a_blown_toy_member_retires_alone(self):
        runs = _toy_runs()
        blown = Run(runs[1].state, 1e200, 3, runs[1].probes)
        with np.errstate(all="ignore"):
            got = evolve(toymodel.steps, [runs[0], blown, runs[2]], partial=True)
        assert not got[1].complete
        assert got[1].final_state is blown.state
        assert np.array_equal(got[1].times, [0.0])
        for run, traj in zip((runs[0], runs[2]), (got[0], got[2])):
            assert traj.complete
            _assert_alone(traj, toymodel.run(run.state, run.dt, run.n_steps,
                                             run.probes))

    def test_a_blown_eps_member_raises_its_own_error(self):
        runs = _eps_runs()
        blown = Run(runs[1].state, 1e200, 3, runs[1].probes)
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as alone:
                epsilon.run(blown.state, blown.dt, blown.n_steps, blown.probes)
            with pytest.raises(BlowUpError) as info:
                evolve(epsilon.steps, [runs[0], blown, runs[2]])
        assert info.value.system == alone.value.system == "eps"
        assert info.value.last_time == alone.value.last_time
        assert _coeff_bytes(info.value.last_state) == \
            _coeff_bytes(alone.value.last_state)

    def test_stop_when_retires_only_its_own_member(self):
        runs = [Run(_Doubling(0.0, 1.0), 0.5, 10, {"y": lambda s: s.y},
                    stop_when=lambda s: s.y > 5.0),
                Run(_Doubling(0.0, 3.0), 0.25, 6, {"y": lambda s: s.y}),
                Run(_Doubling(1.0, 1.0), 1.0, 4, {"y": lambda s: s.y},
                    stop_when=lambda s: s.y > 100.0)]
        got = evolve(_double, runs)
        assert np.array_equal(got[0]["y"], [1.0, 2.0, 4.0, 8.0])
        assert np.array_equal(got[1].times, 0.25 * np.arange(7))
        assert np.array_equal(got[2]["y"], [1.0, 2.0, 4.0, 8.0, 16.0])
        for run, traj in zip(runs, got):
            alone = evolve(_double, [run])[0]
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj["y"], alone["y"])

    def test_one_stacked_step_per_iteration_until_each_run_is_done(self):
        sizes = []

        def counted(states, dts):
            sizes.append(len(states))
            return _double(states, dts)
        runs = [Run(_Doubling(0.0, 1.0), 0.5, 2, {}),
                Run(_Doubling(0.0, 1.0), 0.25, 4, {})]
        got = evolve(counted, runs)
        assert sizes == [2, 2, 1, 1]
        assert [traj.final_state.t for traj in got] == [1.0, 1.0]
