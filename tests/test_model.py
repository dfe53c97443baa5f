import math

import numpy as np
import pytest
from scipy.integrate import quad
import support
from support import array_dealias, array_leray_project, per_term_full_rate, per_term_limit_rate, translate

from nsmlimit.errors import ConstraintDriftError, VacuumError
from nsmlimit.integrator import StepControl, step_limit
from nsmlimit.model import (
    FullState,
    LimitState,
    Params,
    PressureLaw,
    TwoFluidState,
    _full_rate,
    _limit_rate,
    _reformed_rate,
    _split,
    _stack,
    _stacked,
    _two_fluid_rate,
    enthalpy_h,
    pressure,
    random_two_fluid_state,
    reformulation_check,
    rhs_full,
    rhs_limit,
    rhs_twofluid,
)
from nsmlimit.spectral import (
    Grid,
    ScalarField,
    VectorField,
    array_irfft,
    array_rfft,
    grid_integral,
    random_smooth_vector,
    sup_norm,
)


def uniform_state(grid, n0=1.0):
    one = ScalarField(grid, np.full(grid.shape, n0))
    z = VectorField.zeros(grid)
    return FullState(one, z, z, z, z)


class TestPressureLaw:
    def test_enthalpy_at_one_is_zero(self):
        for gamma in (1.0, 1.4, 5.0 / 3.0, 2.0):
            law = PressureLaw(amplitude=2.3, gamma=gamma)
            assert enthalpy_h(1.0, law) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_two_closed_form(self):
        # P = rho^2: h(rho) = int_1^rho 2s/s ds = 2(rho - 1)
        law = PressureLaw(amplitude=1.0, gamma=2.0)
        assert enthalpy_h(2.0, law) == pytest.approx(2.0, rel=1e-14)
        assert enthalpy_h(0.5, law) == pytest.approx(-1.0, rel=1e-14)

    def test_gamma_53_matches_quadrature(self):
        law = PressureLaw()
        for rho in (0.4, 0.9, 1.7, 3.0):
            ref, _ = quad(lambda s: law.dpressure(s) / s, 1.0, rho,
                          epsabs=1e-12, epsrel=1e-12)
            assert enthalpy_h(rho, law) == pytest.approx(ref, abs=1e-10)

    def test_log_law(self):
        law = PressureLaw(amplitude=3.0, gamma=1.0)
        assert enthalpy_h(2.0, law) == pytest.approx(3.0 * math.log(2.0), rel=1e-14)

    def test_monotone(self):
        law = PressureLaw()
        rhos = np.linspace(0.2, 3.0, 50)
        h = law.enthalpy(rhos)
        assert (np.diff(h) > 0).all()
        assert (law.dpressure(rhos) > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            PressureLaw(amplitude=0.0)
        with pytest.raises(ValueError):
            PressureLaw(gamma=0.5)

    def test_vacuum_errors(self, grid64):
        law = PressureLaw()
        with pytest.raises(VacuumError):
            enthalpy_h(0.0, law)
        with pytest.raises(VacuumError):
            pressure(ScalarField(grid64, np.full(grid64.shape, -1.0)), law)


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(kappa=0.0), dict(kappa=1.5), dict(epsilon=0.0), dict(mu=0.0),
        dict(mu=0.1, lam=-0.1), dict(tau=0.0), dict(eta=-1.0),
    ])
    def test_invariants(self, bad):
        with pytest.raises(ValueError):
            Params(**bad)

    def test_viscosity_pair_constraint(self):
        # 2 mu + 3 lam > 0 admits slightly negative lam
        Params(mu=0.3, lam=-0.1)
        with pytest.raises(ValueError):
            Params(mu=0.3, lam=-0.2)


class TestRhsFull:
    def test_uniform_equilibrium_is_fixed_point(self, grid64):
        p = Params(kappa=0.3)
        r = rhs_full(uniform_state(grid64, 1.7), p)
        for fld in (r.dn, r.du, r.dJ, r.dE, r.dB):
            assert np.abs(fld.values).max() == 0.0

    def test_maxwell_curl_hand_case(self, grid64):
        # B = (0, 0, sin x), everything else at equilibrium:
        # dE = curl(B)/kappa = (0, -cos x, 0)/kappa, dB = 0
        p = Params(kappa=0.25)
        sinx = ScalarField.from_function(grid64, lambda x, y, z: np.sin(x))
        zero = ScalarField.zeros(grid64)
        B = VectorField.from_components(zero, zero, sinx)
        s = FullState(
            ScalarField(grid64, np.ones(grid64.shape)),
            VectorField.zeros(grid64), VectorField.zeros(grid64),
            VectorField.zeros(grid64), B,
        )
        r = rhs_full(s, p)
        cosx = np.cos(grid64.coordinate(0)) * np.ones(grid64.shape)
        assert np.abs(r.dE.values[1] + cosx / p.kappa).max() < 1e-12
        assert np.abs(r.dE.values[0]).max() < 1e-13
        assert np.abs(r.dE.values[2]).max() < 1e-13
        assert np.abs(r.dB.values).max() == 0.0
        for fld in (r.dn, r.du, r.dJ):
            assert np.abs(fld.values).max() < 1e-13

    def test_pressure_gradient_symbolic_oracle(self, grid64):
        # n = 1 + 0.1 sin x at rest: du = -((1+eps) eta / tau) grad P(n) / n,
        # evaluated pointwise from the closed-form derivative
        p = Params(kappa=0.3)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n = 1.0 + 0.1 * np.sin(x)
        z = VectorField.zeros(grid64)
        s = FullState(ScalarField(grid64, n), z, z, z, z)
        r = rhs_full(s, p)
        law = p.pressure
        expected = (
            -((1.0 + p.epsilon) * p.eta / p.tau)
            * law.dpressure(n) * 0.1 * np.cos(x) / n
        )
        # the rate is dealiased; compare against the dealiased oracle
        expected = array_dealias(grid64, expected)
        assert np.abs(r.du.values[0] - expected).max() < 1e-12
        assert np.abs(r.du.values[1:]).max() < 1e-13
        assert np.abs(r.dn.values).max() < 1e-15

    def test_continuity_rate_has_zero_mean(self, grid64):
        p = Params(kappa=0.2)
        s = _generic_full_state(grid64, p)
        r = rhs_full(s, p)
        assert abs(r.dn.values.mean()) < 1e-14 * max(1.0, sup_norm(s.u))

    def test_frame_consistency_no_em(self, grid64):
        # E = B = 0: Maxwell rates reduce to the projected current source
        # and dB = 0 exactly
        p = Params(kappa=0.2)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n = 1.0 + 0.05 * np.sin(x)
        u = 0.05 * random_smooth_vector(grid64, 3, 0.5, max_wavenumber=4).values
        jt = 0.05 * random_smooth_vector(grid64, 4, 0.5, max_wavenumber=4).values
        z = VectorField.zeros(grid64)
        s = FullState(ScalarField(grid64, n), VectorField(grid64, u),
                      VectorField(grid64, jt), z, z)
        r = rhs_full(s, p)
        assert np.abs(r.dB.values).max() == 0.0
        J = p.kappa * jt
        src = -array_leray_project(grid64, array_dealias(grid64, n * J))
        assert np.abs(r.dE.values - src).max() < 1e-14

    def test_vacuum_raises(self, grid64):
        p = Params(kappa=0.2)
        s = uniform_state(grid64)
        bad = FullState(
            ScalarField(grid64, np.full(grid64.shape, -0.1)),
            s.u, s.jt, s.E, s.B,
        )
        with pytest.raises(VacuumError, match="vacuum"):
            rhs_full(bad, p)

    def test_constraint_drift_raises(self, grid64):
        p = Params(kappa=0.2)
        sinx = ScalarField.from_function(grid64, lambda x, y, z: np.sin(x))
        zero = ScalarField.zeros(grid64)
        E_bad = VectorField.from_components(sinx, zero, zero)  # div E = cos x
        s = uniform_state(grid64)
        bad = FullState(s.n, s.u, s.jt, E_bad, s.B)
        with pytest.raises(ConstraintDriftError, match="constraint drift"):
            rhs_full(bad, p)


def _generic_full_state(grid, p, seed=5, amp=0.05):
    x = grid.coordinate(0) * np.ones(grid.shape)
    n = 1.0 + amp * np.sin(x)
    u = amp * random_smooth_vector(grid, seed, 0.5, max_wavenumber=4, zero_mean=True).values
    jt = amp * random_smooth_vector(grid, seed + 1, 0.5, max_wavenumber=4, zero_mean=True).values
    E = amp * array_leray_project(grid, random_smooth_vector(grid, seed + 2, 0.5, max_wavenumber=4, zero_mean=True).values)
    B = amp * array_leray_project(grid, random_smooth_vector(grid, seed + 3, 0.5, max_wavenumber=4, zero_mean=True).values)
    return FullState(
        ScalarField(grid, n), VectorField(grid, u), VectorField(grid, jt),
        VectorField(grid, E), VectorField(grid, B),
    )


class TestRhsLimit:
    def test_equilibrium(self, grid64):
        p = Params(kappa=0.2)
        s = LimitState(ScalarField(grid64, np.ones(grid64.shape)),
                       VectorField.zeros(grid64))
        r = rhs_limit(s, p)
        assert np.abs(r.dn.values).max() == 0.0
        assert np.abs(r.du.values).max() == 0.0

    def test_pressure_gradient_oracle(self, grid64):
        p = Params(kappa=0.2)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n = 1.0 + 0.1 * np.sin(x)
        s = LimitState(ScalarField(grid64, n), VectorField.zeros(grid64))
        r = rhs_limit(s, p)
        law = p.pressure
        expected = array_dealias(
            grid64,
            -((1.0 + p.epsilon) * p.eta / p.tau)
            * law.dpressure(n) * 0.1 * np.cos(x) / n,
        )
        assert np.abs(r.du.values[0] - expected).max() < 1e-12

    def test_manufactured_one_step_residual(self, grid64):
        # forced so that a prescribed (n, u)(x, t) solves the system exactly;
        # the defect at fixed t_end must shrink like a second-order method
        from support import ManufacturedLimit

        p = Params(kappa=0.5)
        mms = ManufacturedLimit(grid64, p)
        errors = [mms.error_after(dt, t_end=1.6e-2) for dt in (2e-3, 1e-3)]
        assert errors[0] < 1e-6
        assert errors[0] / errors[1] > 3.5

    def test_galilean_transport(self, grid64):
        # pressure and viscosity effectively off: constant u transports n at
        # speed u/(1+eps); compare one step to the shifted interpolant
        p = Params(kappa=0.2, mu=1e-14, lam=0.0, tau=1e14)
        c = 0.7
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n = ScalarField(grid64, 1.0 + 0.1 * np.sin(x))
        u = VectorField(grid64, np.stack([
            np.full(grid64.shape, c), np.zeros(grid64.shape), np.zeros(grid64.shape),
        ]))
        errs = []
        for dt in (2e-3, 1e-3):
            stepped = step_limit(grid64, _stacked(LimitState(n, u)), p, StepControl(dt=dt, t_end=dt))
            shifted = translate(n, (c * dt / (1.0 + p.epsilon), 0.0, 0.0))
            errs.append(np.abs(stepped[0] - shifted.values).max())
        assert errs[0] < 1e-7
        assert errs[0] / errs[1] > 3.5


class TestBatchedRates:
    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 8)],
                             ids=["1d64", "2d16", "3d8"])
    @pytest.mark.parametrize("kappa", [0.4, 1e-3])
    @pytest.mark.parametrize("epsilon", [0.1, 1e-6])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_matches_per_term_reference(self, grid, kappa, epsilon, lam):
        # one batched transform and one merged mask against the per-term
        # dealiased rates; relative, since the rates reach ~1e6 at eps = 1e-6.
        # The half-spectrum certificate forms against their full-spectrum
        # references likewise.
        p = Params(kappa=kappa, epsilon=epsilon, lam=lam)
        rng = np.random.default_rng(17)
        n = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=grid.shape)
        u, J, E, B = (rng.normal(size=(3,) + grid.shape) for _ in range(4))

        def stepping(rate):
            return lambda *x: _split(array_irfft(grid, rate(grid, p, array_rfft(grid, _stack(*x)))))

        def certificate(rate):
            return lambda *x: rate(grid, p, *x, kappa**2, kappa**4)

        cases = [
            (stepping(_full_rate), (n, u, J, E, B), lambda *x: per_term_full_rate(grid, p, *x)),
            (stepping(_limit_rate), (n, u), lambda *x: per_term_limit_rate(grid, p, *x)),
            (certificate(_two_fluid_rate), (n, u, J, E, B), certificate(support._two_fluid_rate)),
            (certificate(_reformed_rate), (n, u, J, E, B), certificate(support._reformed_rate)),
        ]
        for rate, fields, reference in cases:
            got = rate(*fields)
            want = reference(*fields)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


class TestRhsTwoFluid:
    def test_uniform_rest_state(self, grid64):
        p = Params(kappa=0.3)
        one = ScalarField(grid64, np.ones(grid64.shape))
        z = VectorField.zeros(grid64)
        s = TwoFluidState(one, z, z, z, z)
        r = rhs_twofluid(s, p)
        for fld in (r.dn, r.dnu_e, r.dnu_i, r.dE, r.dB):
            assert np.abs(fld.values).max() == 0.0

    def test_friction_vanishes_for_equal_velocities(self, grid64):
        # with u_e = u_i the friction terms cancel identically, so the rates
        # cannot depend on the collision strength
        p = Params(kappa=0.3)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n = ScalarField(grid64, 1.0 + 0.1 * np.sin(x))
        u = VectorField(grid64, 0.1 * random_smooth_vector(
            grid64, 2, 0.5, max_wavenumber=4).values)
        E = VectorField(grid64, array_leray_project(
            grid64, random_smooth_vector(grid64, 3, 0.5, max_wavenumber=4).values)) * 0.1
        B = VectorField(grid64, array_leray_project(
            grid64, random_smooth_vector(grid64, 4, 0.5, max_wavenumber=4).values)) * 0.1
        s = TwoFluidState(n, u, u, E, B)
        r1 = rhs_twofluid(s, p)
        r2 = rhs_twofluid(s, Params(kappa=0.3, kappa_ei=123.0, k_rate=45.0))
        assert np.abs(r1.dnu_e.values - r2.dnu_e.values).max() < 1e-14
        assert np.abs(r1.dnu_i.values - r2.dnu_i.values).max() < 1e-14


class TestReformulation:
    def test_zero_velocity_uniform_state(self, grid64):
        p = Params(kappa=0.3)
        one = ScalarField(grid64, np.ones(grid64.shape))
        z = VectorField.zeros(grid64)
        rep = reformulation_check(TwoFluidState(one, z, z, z, z), p)
        assert rep.max_residual == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_band_limited_states_roundoff(self, grid64, seed):
        p = Params(kappa=0.2)
        s = random_two_fluid_state(grid64, p, seed=seed)
        rep = reformulation_check(s, p)
        assert rep.max_residual < 1e-10
        assert max(rep.recast.values()) < 1e-12
        assert max(rep.scaling.values()) < 1e-12

    def test_scaling_check_tracks_kappa(self, grid64):
        for kap in (0.5, 0.1):
            p = Params(kappa=kap)
            s = random_two_fluid_state(grid64, p, seed=3)
            rep = reformulation_check(s, p)
            assert max(rep.scaling.values()) < 1e-12

    def test_mass_mean_preserved(self, grid64):
        p = Params(kappa=0.2)
        s = random_two_fluid_state(grid64, p, seed=9)
        r = rhs_twofluid(s, p)
        assert abs(grid_integral(grid64, r.dn.values)) < 1e-13
