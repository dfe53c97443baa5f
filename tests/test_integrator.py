import math

import numpy as np
import pytest
import scipy.linalg
from support import (
    DenseStiffReference,
    ManufacturedFull,
    ManufacturedLimit,
    array_divergence,
    array_leray_project,
    count_fft_calls,
    observed_order,
)

from nsmlimit.errors import BlowUpError, ConfigError, VacuumError
from nsmlimit.initdata import WellPreparedSpec, make_limit_data, make_well_prepared
from nsmlimit.integrator import (
    StepControl,
    StiffLinearOperator,
    _check_step,
    build_stiff_operator,
    evolve,
    step_full,
    step_limit,
)
from nsmlimit.model import (
    FullState, LimitState, Params, PressureLaw, _full_rate, _split, _stack, _stacked, _state_view,
)
from nsmlimit.spectral import (
    Grid,
    ScalarField,
    VectorField,
    array_irfft,
    array_rfft,
    grid_integral,
    random_smooth_vector,
    sobolev_norm,
    sup_norm,
)


class TestStepControl:
    @pytest.mark.parametrize("bad", [
        dict(dt=0.0, t_end=1.0), dict(dt=0.1, t_end=-1.0),
        dict(dt=0.1, t_end=1.0, cfl=0.0), dict(dt=0.1, t_end=1.0, mode="leapfrog"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            StepControl(**bad)


def _random_fields(grid, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(3,) + grid.shape) for _ in range(4)]


class TestStiffOperator:
    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 8)],
                             ids=["1d64", "2d16", "3d8"])
    @pytest.mark.parametrize("kappa", [0.4, 0.05, 1e-3])
    @pytest.mark.parametrize("epsilon", [0.1, 1e-6])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_matches_dense_reference(self, grid, kappa, epsilon, lam):
        # closed form against dense complex expm of the (M, 9, 9) blocks
        p = Params(kappa=kappa, epsilon=epsilon, lam=lam)
        op = build_stiff_operator(grid, p, n_mean=1.07, dt=0.01)
        ref = DenseStiffReference(grid, p, n_mean=1.07, dt=0.01)
        fields = _random_fields(grid, 11)
        x = array_rfft(grid, np.stack(fields))
        prop, rate = ref.apply_half(*fields), ref.linear_rate(*fields)
        for got, want in [(array_irfft(grid, op.apply_half(x)), prop),
                          (array_irfft(grid, op.linear_rate(x)), rate),
                          ([array_irfft(grid, op.apply_half_u(x[0]))], prop[:1]),
                          ([array_irfft(grid, op.linear_rate_u(x[0]))], rate[:1])]:
            got, want = np.stack(got), np.stack(want)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_zero_mode_is_coupling_block_exponential(self, grid64):
        # k = 0: curl and viscous terms vanish; constant fields must follow
        # the matrix exponential of the bare current-field coupling
        p = Params(kappa=0.3)
        dt = 0.01
        op = build_stiff_operator(grid64, p, n_mean=1.0, dt=dt)
        a = (1.0 + p.epsilon) / (p.tau * p.epsilon)
        gen = np.zeros((9, 9))
        gen[0:3, 3:6] = a * np.eye(3)
        gen[3:6, 0:3] = -np.eye(3)
        expected = scipy.linalg.expm(gen * (dt / 2))
        z0 = np.random.default_rng(0).normal(size=9)
        ones = np.ones((3,) + grid64.shape)
        J0, E0, B0 = (z0[s:s + 3, None, None, None] * ones for s in (0, 3, 6))
        u, J, E, B = array_irfft(grid64, op.apply_half(array_rfft(grid64, np.stack([ones, J0, E0, B0]))))
        got = np.concatenate([J, E, B])
        assert np.abs(got - (expected @ z0)[:, None, None, None]).max() < 1e-12
        assert np.abs(u - 1.0).max() < 1e-12

    def test_maxwell_rotation_preserves_norm(self, grid64):
        # kappa = 1, single mode k = (1,0,0): the (E, B) pair rotates
        # (collision coupling switched off via huge tau)
        p = Params(kappa=1.0, tau=1e14)
        op = build_stiff_operator(grid64, p, n_mean=1.0, dt=0.37)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        a, b = np.random.default_rng(0).normal(size=(2, 4))
        wave = [a[i] * np.cos(x) + b[i] * np.sin(x) for i in range(4)]
        E0, B0 = np.stack([0 * x, wave[0], wave[1]]), np.stack([0 * x, wave[2], wave[3]])
        z = np.zeros_like(E0)
        _, _, E, B = array_irfft(grid64, op.apply_half(array_rfft(grid64, np.stack([z, z, E0, B0]))))
        norm0 = np.sqrt((E0**2).sum() + (B0**2).sum())
        assert abs(np.sqrt((E**2).sum() + (B**2).sum()) - norm0) < 1e-13 * norm0

    @pytest.mark.parametrize("kappa, tol", [(0.1, 1e-12), (1e-4, 1e-10), (1e-7, 1e-7)])
    def test_pure_maxwell_energy_drift(self, grid64, kappa, tol):
        # fluid at rest, coupling off: ten half-steps at omega*dt up to ~1e8
        # keep |E|^2 + |B|^2
        p = Params(kappa=kappa, tau=1e14)
        op = build_stiff_operator(grid64, p, n_mean=1.0, dt=0.37)
        E = array_leray_project(grid64, random_smooth_vector(grid64, 5, 0.8, zero_mean=True).values)
        B = array_leray_project(grid64, random_smooth_vector(grid64, 6, 0.8, zero_mean=True).values)
        u = J = np.zeros_like(E)
        em0 = (E**2).sum() + (B**2).sum()
        for _ in range(10):
            u, J, E, B = array_irfft(grid64, op.apply_half(array_rfft(grid64, np.stack([u, J, E, B]))))
        assert abs((E**2).sum() + (B**2).sum() - em0) / em0 < tol

    def test_small_dt_is_identity(self, grid64):
        p = Params(kappa=0.5)
        op = build_stiff_operator(grid64, p, n_mean=1.0, dt=1e-9)
        fields = [v / np.abs(v).max() for v in _random_fields(grid64, 3)]
        hat = array_rfft(grid64, np.stack(fields))
        dev = max(np.abs(y - x).max() for x, y in zip(fields, array_irfft(grid64, op.apply_half(hat))))
        # deviation is O(dt |L|), dominated by the viscous mu k^2 block
        lmax = max(np.abs(r).max() for r in array_irfft(grid64, op.linear_rate(hat)))
        assert dev < 1e-9 * (lmax + 1.0)

    def test_invalid_dt(self, grid64):
        with pytest.raises(ConfigError):
            build_stiff_operator(grid64, Params(kappa=0.5), 1.0, dt=0.0)


def _uniform(grid):
    one = ScalarField(grid, np.ones(grid.shape))
    z = VectorField.zeros(grid)
    return FullState(one, z, z, z, z)


class TestStepFull:
    def test_equilibrium_fixed_point_any_dt(self, grid64):
        p = Params(kappa=0.2)
        x = _stacked(_uniform(grid64))
        for dt in (1e-4, 0.05, 0.5):
            out = _state_view(grid64, step_full(grid64, x, p, StepControl(dt=dt, t_end=dt)))
            assert np.abs(out.n.values - 1.0).max() < 1e-14
            assert sup_norm(out.u) < 1e-14
            assert sup_norm(out.E) < 1e-14

    def test_pure_maxwell_energy_conserved(self, grid64):
        # fluid at rest, collision coupling off: E/B rotate per mode and
        # |E|^2 + |B|^2 must be conserved
        p = Params(kappa=1.0, tau=1e14)
        E0 = VectorField(grid64, array_leray_project(
            grid64, random_smooth_vector(grid64, 5, 0.8, zero_mean=True).values))
        B0 = VectorField(grid64, array_leray_project(
            grid64, random_smooth_vector(grid64, 6, 0.8, zero_mean=True).values))
        state = FullState(
            ScalarField(grid64, np.ones(grid64.shape)),
            VectorField.zeros(grid64), VectorField.zeros(grid64), E0, B0,
        )
        sc = StepControl(dt=1e-3, t_end=0.1)
        op = build_stiff_operator(grid64, p, 1.0, sc.dt)
        em0 = sobolev_norm(E0, 0.0) ** 2 + sobolev_norm(B0, 0.0) ** 2
        x = _stacked(state)
        for i in range(100):
            x = step_full(grid64, x, p, sc, op=op, t=i * sc.dt)
        state = _state_view(grid64, x)
        em1 = sobolev_norm(state.E, 0.0) ** 2 + sobolev_norm(state.B, 0.0) ** 2
        assert abs(em1 - em0) / em0 < 1e-8

    def test_zero_operator_reduces_to_heun(self, grid64):
        # with L = 0 the Strang composition collapses to plain SSP-RK2
        p = Params(kappa=0.2)
        sc = StepControl(dt=2e-4, t_end=2e-4)
        limit = make_limit_data(grid64, seed=3, amplitude=0.08)
        spec = WellPreparedSpec.from_seed(limit, seed=3, c0=1.0, kappa=p.kappa)
        state = make_well_prepared(spec)
        out = _state_view(grid64, step_full(grid64, _stacked(state), p, sc,
                                            op=StiffLinearOperator.zero(grid64, sc.dt)))

        grid = grid64
        J = p.kappa * state.jt.values
        s0 = (state.n.values, state.u.values, J, state.E.values, state.B.values)
        k1 = _split(array_irfft(grid, _full_rate(grid, p, array_rfft(grid, _stack(*s0)))))
        s1 = tuple(x + sc.dt * k for x, k in zip(s0, k1))
        k2 = _split(array_irfft(grid, _full_rate(grid, p, array_rfft(grid, _stack(*s1)))))
        heun = tuple(x + 0.5 * sc.dt * (a + b) for x, a, b in zip(s0, k1, k2))
        assert np.abs(out.n.values - heun[0]).max() < 1e-15
        assert np.abs(out.u.values - heun[1]).max() < 1e-15
        assert np.abs(p.kappa * out.jt.values - heun[2]).max() < 1e-15
        assert np.abs(out.E.values - array_leray_project(grid, heun[3])).max() < 1e-15
        assert np.abs(out.B.values - array_leray_project(grid, heun[4])).max() < 1e-15

    def test_manufactured_order(self, grid64):
        mms = ManufacturedFull(grid64, Params(kappa=1.0))
        errors = [mms.error_after(dt, t_end=3.2e-2) for dt in (4e-3, 2e-3, 1e-3)]
        p_obs = observed_order(errors)
        assert 1.8 <= p_obs <= 2.2

    def test_constraint_preservation(self, grid64):
        p = Params(kappa=0.1)
        limit = make_limit_data(grid64, seed=7, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa)
        state = make_well_prepared(spec)
        sc = StepControl(dt=2e-4, t_end=0.01)
        op = build_stiff_operator(grid64, p, state.n.mean, sc.dt)
        x = _stacked(state)
        for i in range(50):
            x = step_full(grid64, x, p, sc, op=op, t=i * sc.dt)
            state = _state_view(grid64, x)
            tol = 1e-10 * (1.0 + sup_norm(state.E) + sup_norm(state.B))
            assert np.abs(array_divergence(grid64, state.E.values)).max() <= tol
            assert np.abs(array_divergence(grid64, state.B.values)).max() <= tol

    def test_mass_conserved(self, grid64):
        p = Params(kappa=0.1)
        limit = make_limit_data(grid64, seed=7, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa)
        state = make_well_prepared(spec)
        mass0 = grid_integral(grid64, state.n.values)
        sc = StepControl(dt=2e-4, t_end=0.02)
        op = build_stiff_operator(grid64, p, state.n.mean, sc.dt)
        x = _stacked(state)
        for i in range(100):
            x = step_full(grid64, x, p, sc, op=op, t=i * sc.dt)
        assert abs(grid_integral(grid64, x[0]) - mass0) / mass0 < 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_detection(self, grid64):
        p = Params(kappa=0.2)
        s = _uniform(grid64)
        bad_u = np.zeros((3,) + grid64.shape)
        bad_u[0, 0] = np.inf
        bad = FullState(s.n, VectorField(grid64, bad_u), s.jt, s.E, s.B)
        with pytest.raises(BlowUpError, match="blow-up detected at t="):
            step_full(grid64, _stacked(bad), p, StepControl(dt=1e-3, t_end=1e-3))

    @pytest.mark.parametrize("name", ["n", "u", "J", "E", "B"])
    def test_blowup_names_first_nonfinite_field(self, grid64, name):
        order = ["n", "u", "J", "E", "B"]
        fields = {f: np.ones((3,) + grid64.shape) for f in order}
        for later in order[order.index(name):]:
            fields[later][1, 3] = np.nan
        with pytest.raises(BlowUpError, match=rf"at t=0\.25: non-finite {name}$") as exc:
            _check_step(0.25, **fields)
        assert exc.value.time == 0.25

    def test_vacuum_reports_min_density_and_time(self, grid64):
        # linear pressure keeps the rates finite at negative density
        p = Params(kappa=0.2, pressure=PressureLaw(gamma=1.0))
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        state = LimitState(ScalarField(grid64, 1.0 + 1.5 * np.sin(x)), VectorField.zeros(grid64))
        with pytest.raises(VacuumError, match=r"at t=0\.001: min n = -0\.49"):
            step_limit(grid64, _stacked(state), p, StepControl(dt=1e-3, t_end=1e-3))

    def test_asymptotic_robustness_quick(self, grid64):
        # identical grid/dt across three decades of kappa; the full-horizon
        # variant runs in the acceptance suite
        sc = StepControl(dt=2e-4, t_end=0.01)
        for kap in (1.0, 0.1, 0.01):
            p = Params(kappa=kap)
            limit = make_limit_data(grid64, seed=7, amplitude=0.1)
            spec = WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=kap)
            state = make_well_prepared(spec)
            final, log = evolve(state, p, sc)
            assert log.status == "completed"
            assert np.isfinite(final.n.values).all()


@pytest.mark.parametrize("grid", [Grid(3, 8), Grid(1, 64)], ids=["3d8", "1d64"])
def test_transform_calls_per_step(grid, monkeypatch):
    # one transform each way at the step boundary plus four per rate
    # evaluation: 10 calls for either stepper, for one state or a batch of 4
    p = Params(kappa=0.1)
    limit = make_limit_data(grid, seed=7, amplitude=0.1)
    full = make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa))
    sc = StepControl(dt=2e-4, t_end=2e-4)
    batch_p = tuple(Params(kappa=k) for k in (0.4, 0.2, 0.1, 0.05))
    calls = count_fft_calls(monkeypatch)
    for stepper, state in ((step_full, full), (step_limit, limit)):
        x = _stacked(state)
        for xs, params, means in ((x, p, state.n.mean),
                                  (np.stack([x] * 4), batch_p, (state.n.mean,) * 4)):
            op = build_stiff_operator(grid, params, means, sc.dt)
            calls.clear()
            stepper(grid, xs, params, sc, op=op)
            assert 0 < len(calls) <= 12, (stepper.__name__, calls)


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
def test_batch_matches_single_steps(grid):
    # a batch is one stack with kappa as a column; every member must come
    # out bit for bit as when stepped alone, operator tables included
    kappas = (0.4, 0.05, 1e-3)
    ps = tuple(Params(kappa=k) for k in kappas)
    limit = make_limit_data(grid, seed=7, amplitude=0.1)
    fulls = tuple(make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=k))
                  for k in kappas)
    limits = tuple(make_limit_data(grid, seed=s, amplitude=0.1) for s in (3, 4, 5))
    sc = StepControl(dt=2e-4, t_end=1.0)
    for stepper, states in ((step_full, fulls), (step_limit, limits)):
        op = build_stiff_operator(grid, ps, tuple(s.n.mean for s in states), sc.dt)
        ops = [build_stiff_operator(grid, p, s.n.mean, sc.dt) for p, s in zip(ps, states)]
        for k, single in enumerate(ops):
            assert np.array_equal(op.gen[k], single.gen)
            assert np.array_equal(op.prop_half[k], single.prop_half)
        alone = [_stacked(s) for s in states]
        batch = np.stack(alone)
        for i in range(3):
            batch = stepper(grid, batch, ps, sc, op=op, t=i * sc.dt)
            alone = [stepper(grid, x, p, sc, op=o, t=i * sc.dt) for x, p, o in zip(alone, ps, ops)]
        assert batch.shape == (len(states),) + alone[0].shape
        for b, a in zip(batch, alone):
            assert np.array_equal(b, a)


class TestBatchFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_names_member(self, grid64):
        ps = tuple(Params(kappa=k) for k in (0.4, 0.2, 0.1))
        s = _uniform(grid64)
        bad_u = np.zeros((3,) + grid64.shape)
        bad_u[0, 0] = np.inf
        bad = FullState(s.n, VectorField(grid64, bad_u), s.jt, s.E, s.B)
        sc = StepControl(dt=1e-3, t_end=1e-3)
        with pytest.raises(BlowUpError) as alone:
            step_full(grid64, _stacked(bad), ps[1], sc)
        with pytest.raises(BlowUpError) as batch:
            step_full(grid64, np.stack([_stacked(x) for x in (s, bad, s)]), ps, sc)
        assert batch.value.member == 1
        assert str(batch.value) == str(alone.value)

    def test_vacuum_names_member_and_min_density(self, grid64):
        # linear pressure keeps the rates finite at negative density
        ps = tuple(Params(kappa=k, pressure=PressureLaw(gamma=1.0)) for k in (0.4, 0.2))
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        good = LimitState(ScalarField(grid64, 1.0 + 0.1 * np.sin(x)), VectorField.zeros(grid64))
        bad = LimitState(ScalarField(grid64, 1.0 + 1.5 * np.sin(x)), VectorField.zeros(grid64))
        sc = StepControl(dt=1e-3, t_end=1e-3)
        with pytest.raises(VacuumError, match=r"^vacuum state at t=0\.001: min n = -0\.49") as exc:
            step_limit(grid64, np.stack([_stacked(good), _stacked(bad)]), ps, sc)
        assert exc.value.member == 1

    def test_params_must_differ_only_in_kappa(self, grid64):
        s = _uniform(grid64)
        ps = (Params(kappa=0.4), Params(kappa=0.2, mu=0.2))
        with pytest.raises(ConfigError, match="differ only in kappa"):
            step_full(grid64, np.stack([_stacked(s)] * 2), ps, StepControl(dt=1e-3, t_end=1e-3))


class TestStepLimit:
    def test_equilibrium(self, grid64):
        p = Params(kappa=0.2)
        s = LimitState(ScalarField(grid64, np.ones(grid64.shape)),
                       VectorField.zeros(grid64))
        out = _state_view(grid64, step_limit(grid64, _stacked(s), p, StepControl(dt=0.1, t_end=0.1)))
        assert np.abs(out.n.values - 1.0).max() < 1e-14
        assert sup_norm(out.u) < 1e-14

    def test_manufactured_order(self, grid64):
        mms = ManufacturedLimit(grid64, Params(kappa=0.5))
        errors = [mms.error_after(dt, t_end=3.2e-2) for dt in (4e-3, 2e-3, 1e-3)]
        p_obs = observed_order(errors)
        assert 1.8 <= p_obs <= 2.2

    def test_acoustic_dispersion(self):
        # linearizing about (1, 0) gives d_tt n = (eta P'(1)/tau) lap n, so a
        # k = 1 standing wave oscillates at omega = sqrt(eta P'(1)/tau);
        # track the k = 1 coefficient and locate the spectral peak
        grid = Grid(1, 16)
        p = Params(kappa=0.5, mu=1e-14, lam=0.0)
        x = grid.coordinate(0) * np.ones(grid.shape)
        state = LimitState(
            ScalarField(grid, 1.0 + 1e-4 * np.sin(x)), VectorField.zeros(grid)
        )
        dt, t_end = 2e-3, 40.0
        n_steps = round(t_end / dt)
        sc = StepControl(dt=dt, t_end=t_end)
        op = build_stiff_operator(grid, p, 1.0, dt)
        series = np.empty(n_steps)
        x = _stacked(state)
        for i in range(n_steps):
            x = step_limit(grid, x, p, sc, op=op, t=i * dt)
            series[i] = x[0, 4, 0, 0] - 1.0  # n at x = pi/2: sin mode peak
        window = np.hanning(n_steps)
        spec = np.abs(np.fft.rfft(series * window))
        freqs = np.fft.rfftfreq(n_steps, d=dt) * 2 * math.pi
        peak = spec[1:-1].argmax() + 1
        # parabolic interpolation of the log magnitude around the peak
        la, lb, lc = np.log(spec[peak - 1 : peak + 2])
        shift = 0.5 * (la - lc) / (la - 2 * lb + lc)
        omega = freqs[peak] + shift * (freqs[1] - freqs[0])
        law = p.pressure
        omega_ref = math.sqrt(
            law.dpressure(1.0) * p.eta * (1.0 + p.epsilon) ** 2 / p.tau
        ) / (1.0 + p.epsilon)
        assert abs(omega - omega_ref) / omega_ref < 0.02

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_vacuum_detection(self, grid64):
        p = Params(kappa=0.2, tau=1e14, mu=1e-14)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        # steep compression at large dt drives the density negative
        state = LimitState(
            ScalarField(grid64, 1.0 + 0.5 * np.sin(x)),
            VectorField(grid64, np.stack([
                5.0 * np.sin(x), np.zeros(grid64.shape), np.zeros(grid64.shape)])),
        )
        x = _stacked(state)
        with pytest.raises((VacuumError, BlowUpError)):
            for i in range(200):
                x = step_limit(grid64, x, p, StepControl(dt=0.05, t_end=10.0), t=i * 0.05)


class TestEvolve:
    def test_t_end_zero_returns_initial(self, grid64):
        p = Params(kappa=0.2)
        s = _uniform(grid64)
        final, log = evolve(s, p, StepControl(dt=1e-3, t_end=0.0))
        assert final is s
        assert log.n_steps == 0
        assert log.status == "completed"

    def test_determinism_bit_identical(self, grid64):
        p = Params(kappa=0.1)
        limit = make_limit_data(grid64, seed=9, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(limit, seed=9, c0=1.0, kappa=p.kappa)
        sc = StepControl(dt=5e-4, t_end=0.01)
        outs = []
        for _ in range(2):
            state = make_well_prepared(spec)
            final, _ = evolve(state, p, sc)
            outs.append(final)
        assert np.array_equal(outs[0].n.values, outs[1].n.values)
        assert np.array_equal(outs[0].u.values, outs[1].u.values)
        assert np.array_equal(outs[0].E.values, outs[1].E.values)

    def test_observer_stride_and_times(self, grid64):
        p = Params(kappa=0.2)
        s = _uniform(grid64)
        seen = []
        evolve(s, p, StepControl(dt=1e-3, t_end=1e-2),
               observer=lambda i, t, st: seen.append((i, t)), stride=5)
        assert [i for i, _ in seen] == [0, 5, 10]

    def test_dt_mismatch_rejected(self, grid64):
        p = Params(kappa=0.2)
        with pytest.raises(ConfigError, match="integer multiple"):
            evolve(_uniform(grid64), p, StepControl(dt=3e-4, t_end=1e-3))

    def test_richardson_self_convergence(self, grid64):
        # evolve with dt and dt/2: final states differ at O(dt^2)
        p = Params(kappa=0.2)
        limit = make_limit_data(grid64, seed=4, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(limit, seed=4, c0=1.0, kappa=p.kappa)
        finals = []
        for dt in (2e-3, 1e-3, 5e-4):
            state = make_well_prepared(spec)
            final, log = evolve(state, p, StepControl(dt=dt, t_end=0.02))
            assert log.status == "completed"
            finals.append(final)
        d1 = sup_norm(finals[0].u - finals[1].u) + sup_norm(finals[0].E - finals[1].E)
        d2 = sup_norm(finals[1].u - finals[2].u) + sup_norm(finals[1].E - finals[2].E)
        assert 2.5 < d1 / d2 < 6.0

    def test_adaptive_mode_runs(self, grid64):
        p = Params(kappa=0.2)
        limit = make_limit_data(grid64, seed=4, amplitude=0.1)
        sc = StepControl(dt=1e-3, t_end=5e-3, mode="adaptive")
        final, log = evolve(limit, p, sc)
        assert log.status == "completed"
        assert log.n_steps >= 5

    def test_adaptive_step_respects_sound_speed(self, grid64):
        # at rest, so only the sound speed c = sqrt(eta P'(1)/tau) ~ 12.9
        # can hold dt below the requested 0.01
        p = Params(kappa=0.2, pressure=PressureLaw(amplitude=100.0))
        c = math.sqrt(p.eta * p.pressure.dpressure(1.0) / p.tau)
        cap = 0.5 * grid64.spacing / c
        state = LimitState(ScalarField(grid64, np.ones(grid64.shape)), VectorField.zeros(grid64))
        times = []
        final, log = evolve(state, p, StepControl(dt=1e-2, t_end=0.05, mode="adaptive"),
                            observer=lambda i, t, st: times.append(t))
        assert log.status == "completed"
        assert log.n_steps == math.ceil(0.05 / cap)
        assert max(np.diff(times)) <= cap * (1.0 + 1e-12)


class TestThreeAxisSmoke:
    def test_full_step_on_3d_grid(self):
        # all three axes active at desk scale: one step must preserve the
        # constraints and the equilibrium structure
        grid = Grid(3, 8)
        p = Params(kappa=0.3)
        limit = make_limit_data(grid, seed=2, amplitude=0.05, max_wavenumber=2)
        spec = WellPreparedSpec.from_seed(limit, seed=2, c0=0.5, kappa=p.kappa,
                                          max_wavenumber=2)
        state = make_well_prepared(spec)
        sc = StepControl(dt=1e-3, t_end=2e-3)
        final, log = evolve(state, p, sc)
        assert log.status == "completed"
        tol = 1e-10 * (1.0 + sup_norm(final.E) + sup_norm(final.B))
        assert np.abs(array_divergence(grid, final.E.values)).max() <= tol
        assert np.abs(array_divergence(grid, final.B.values)).max() <= tol
