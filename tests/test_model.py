import math

import numpy as np
import pytest
from scipy.integrate import quad
import support
from support import (
    array_dealias,
    array_leray_project,
    box_projection,
    componentwise_cross,
    member_product_rows,
    per_term_full_rate,
    per_term_limit_rate,
    plain_rate,
    row_by_row_fluid_products,
    row_by_row_full_products,
    step_once,
    translate,
)

from nsmlimit.errors import VacuumError
from nsmlimit.model import (
    FullState,
    LimitState,
    Params,
    PressureLaw,
    TwoFluidState,
    _cross,
    _join,
    _layout,
    _products,
    _rate_coefficients,
    _reformed_rate,
    _split,
    _stack,
    _stacked,
    _two_fluid_rate,
    random_two_fluid_state,
    reformulation_check,
)
from nsmlimit.spectral import (
    Grid,
    ScalarField,
    VectorField,
    array_rfft,
    box_irfft,
    box_rfft,
    grid_integral,
    random_smooth_vector,
    sup_norm,
)


def uniform_state(grid, n0=1.0):
    one = ScalarField(grid, np.full(grid.shape, n0))
    z = VectorField.zeros(grid)
    return FullState(one, z, z, z, z)


def full_rate(s: FullState, p: Params, guard=None):
    """(dn, du, dJ, dE, dB) of ``_full_rate`` on the grid, dJ = d(kappa j~)/dt."""
    grid = s.grid
    x = _stack(s.n.values, s.u.values, p.kappa * s.jt.values, s.E.values, s.B.values)
    return _split(box_irfft(grid, plain_rate(grid, p, box_rfft(grid, x), guard=guard)))


def limit_rate(s: LimitState, p: Params):
    """(dn, du) of ``_full_rate`` on the grid for a lone limit state."""
    return _split(box_irfft(s.grid, plain_rate(s.grid, p, box_rfft(s.grid, _stacked(s)))))


def two_fluid_rate(s: TwoFluidState, p: Params):
    """(dn, d(n u_e), d(n u_i), dE, dB) of ``_two_fluid_rate`` under the
    scaling assumptions alpha = kappa^2, beta = alpha^2."""
    fields = (f.values for f in vars(s).values())
    return _two_fluid_rate(s.grid, p, *fields, p.kappa**2, p.kappa**4)


class TestPressureLaw:
    def test_enthalpy_at_one_is_zero(self):
        for gamma in (1.0, 1.4, 5.0 / 3.0, 2.0):
            law = PressureLaw(amplitude=2.3, gamma=gamma)
            assert law.enthalpy(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_two_closed_form(self):
        # P = rho^2: h(rho) = int_1^rho 2s/s ds = 2(rho - 1)
        law = PressureLaw(amplitude=1.0, gamma=2.0)
        assert law.enthalpy(2.0) == pytest.approx(2.0, rel=1e-14)
        assert law.enthalpy(0.5) == pytest.approx(-1.0, rel=1e-14)

    def test_gamma_53_matches_quadrature(self):
        law = PressureLaw()
        for rho in (0.4, 0.9, 1.7, 3.0):
            ref, _ = quad(lambda s: law.dpressure(s) / s, 1.0, rho,
                          epsabs=1e-12, epsrel=1e-12)
            assert law.enthalpy(rho) == pytest.approx(ref, abs=1e-10)

    def test_log_law(self):
        law = PressureLaw(amplitude=3.0, gamma=1.0)
        assert law.enthalpy(2.0) == pytest.approx(3.0 * math.log(2.0), rel=1e-14)

    def test_relative_enthalpy_continuous_at_gamma_one(self):
        # gamma = 1 + 1e-9 against the log branch differs by O(1e-9)
        # relative; expm1(gamma log1p(x)) - gamma x, over gamma - 1, would be
        # off by 0.27 at x = 1e-6
        N = 1.7 * np.array([-1.0 + 1e-9, -0.5, -1e-2, 1e-6, 3.0])
        near = PressureLaw(amplitude=2.3, gamma=1.0 + 1e-9).relative_enthalpy(N, 1.7)
        log = PressureLaw(amplitude=2.3, gamma=1.0).relative_enthalpy(N, 1.7)
        assert near == pytest.approx(log, rel=1e-8)

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


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(kappa=0.0), dict(kappa=1.5), dict(epsilon=0.0), dict(mu=0.0),
        dict(mu=0.1, lam=-0.1), dict(tau=0.0), dict(eta=-1.0),
    ])
    def test_invariants(self, bad):
        with pytest.raises(ValueError):
            Params(**bad)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["mu", "lam", "tau", "eta", "kappa_ei", "k_rate"])
    def test_non_finite_rejected(self, key, value):
        # built in code, not parsed: mu = inf used to run to a blow-up at
        # t = 0.0002, tau = inf to a completed run
        with pytest.raises(ValueError, match=rf"^{key} must be finite, got {value!r}$"):
            Params(**{key: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("key, name", [("amplitude", "pressure amplitude"), ("gamma", "adiabatic exponent")])
    def test_non_finite_pressure_law_rejected(self, key, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value!r}$"):
            PressureLaw(**{key: value})

    def test_viscosity_pair_constraint(self):
        # 2 mu + 3 lam > 0 admits slightly negative lam
        Params(mu=0.3, lam=-0.1)
        with pytest.raises(ValueError):
            Params(mu=0.3, lam=-0.2)


class TestRhsFull:
    def test_uniform_equilibrium_is_fixed_point(self, grid64):
        p = Params(kappa=0.3)
        for rate in full_rate(uniform_state(grid64, 1.7), p):
            assert np.abs(rate).max() == 0.0

    def test_maxwell_curl_hand_case(self, grid64):
        # B = (0, 0, sin x), everything else at equilibrium:
        # dE = curl(B)/kappa = (0, -cos x, 0)/kappa, dB = 0
        p = Params(kappa=0.25)
        B = VectorField.zeros(grid64)
        B.values[2] = np.sin(grid64.coordinate(0))
        s = FullState(
            ScalarField(grid64, np.ones(grid64.shape)),
            VectorField.zeros(grid64), VectorField.zeros(grid64),
            VectorField.zeros(grid64), B,
        )
        dn, du, dJ, dE, dB = full_rate(s, p)
        cosx = np.cos(grid64.coordinate(0)) * np.ones(grid64.shape)
        assert np.abs(dE[1] + cosx / p.kappa).max() < 1e-12
        assert np.abs(dE[0]).max() < 1e-13
        assert np.abs(dE[2]).max() < 1e-13
        assert np.abs(dB).max() == 0.0
        for rate in (dn, du, dJ):
            assert np.abs(rate).max() < 1e-13

    def test_pressure_gradient_symbolic_oracle(self, grid64):
        # n = 1 + 0.1 sin x at rest: du = -((1+eps) eta / tau) grad P(n) / n,
        # evaluated pointwise from the closed-form derivative
        p = Params(kappa=0.3)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n = 1.0 + 0.1 * np.sin(x)
        z = VectorField.zeros(grid64)
        s = FullState(ScalarField(grid64, n), z, z, z, z)
        dn, du = full_rate(s, p)[:2]
        law = p.pressure
        expected = (
            -((1.0 + p.epsilon) * p.eta / p.tau)
            * law.dpressure(n) * 0.1 * np.cos(x) / n
        )
        # the rate is dealiased; compare against the dealiased oracle
        expected = array_dealias(grid64, expected)
        assert np.abs(du[0] - expected).max() < 1e-12
        assert np.abs(du[1:]).max() < 1e-13
        assert np.abs(dn).max() < 1e-15

    def test_continuity_rate_has_zero_mean(self, grid64):
        p = Params(kappa=0.2)
        s = _generic_full_state(grid64, p)
        dn = full_rate(s, p)[0]
        assert abs(dn.mean()) < 1e-14 * max(1.0, sup_norm(s.u))

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
        dE, dB = full_rate(s, p)[3:]
        assert np.abs(dB).max() == 0.0
        J = p.kappa * jt
        src = -array_leray_project(grid64, array_dealias(grid64, n * J))
        assert np.abs(dE - src).max() < 1e-14

    def test_vacuum_raises(self, grid64):
        # a guarded rate stops before the pressure law sees the density
        p = Params(kappa=0.2)
        s = uniform_state(grid64)
        bad = FullState(
            ScalarField(grid64, np.full(grid64.shape, -0.1)),
            s.u, s.jt, s.E, s.B,
        )
        with pytest.raises(VacuumError, match="vacuum state in the stage: min n = -0.1"):
            full_rate(bad, p, guard=("in the stage",))


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
        dn, du = limit_rate(s, p)
        assert np.abs(dn).max() == 0.0
        assert np.abs(du).max() == 0.0

    def test_pressure_gradient_oracle(self, grid64):
        p = Params(kappa=0.2)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n = 1.0 + 0.1 * np.sin(x)
        s = LimitState(ScalarField(grid64, n), VectorField.zeros(grid64))
        du = limit_rate(s, p)[1]
        law = p.pressure
        expected = array_dealias(
            grid64,
            -((1.0 + p.epsilon) * p.eta / p.tau)
            * law.dpressure(n) * 0.1 * np.cos(x) / n,
        )
        assert np.abs(du[0] - expected).max() < 1e-12

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
            stepped = step_once(grid64, _stacked(LimitState(n, u)), p, dt)
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
        # one batched transform on the 2/3-rule box against the per-term
        # dealiased rates of the fields' box projection; relative, since the
        # rates reach ~1e6 at eps = 1e-6.  The half-spectrum certificate
        # forms against their full-spectrum references likewise, on the
        # fields themselves.
        p = Params(kappa=kappa, epsilon=epsilon, lam=lam)
        rng = np.random.default_rng(17)
        n = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=grid.shape)
        u, J, E, B = (rng.normal(size=(3,) + grid.shape) for _ in range(4))
        boxed = [box_projection(grid, f) for f in (n, u, J, E, B)]

        def stepping(rate):
            return lambda *x: _split(box_irfft(grid, rate(grid, p, box_rfft(grid, _stack(*x)))))

        def certificate(rate):
            return lambda *x: rate(grid, p, *x, kappa**2, kappa**4)

        cases = [
            (stepping(plain_rate), boxed, lambda *x: per_term_full_rate(grid, p, *x)),
            (stepping(plain_rate), boxed[:2], lambda *x: per_term_limit_rate(grid, p, *x)),
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
        for rate in two_fluid_rate(s, p):
            assert np.abs(rate).max() == 0.0

    def test_friction_vanishes_for_equal_velocities(self, grid64):
        # with u_e = u_i the friction terms cancel identically, so the rates
        # cannot depend on the collision strength
        p = Params(kappa=0.3)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n = ScalarField(grid64, 1.0 + 0.1 * np.sin(x))
        u = VectorField(grid64, 0.1 * random_smooth_vector(
            grid64, 2, 0.5, max_wavenumber=4).values)
        E = VectorField(grid64, 0.1 * array_leray_project(
            grid64, random_smooth_vector(grid64, 3, 0.5, max_wavenumber=4).values))
        B = VectorField(grid64, 0.1 * array_leray_project(
            grid64, random_smooth_vector(grid64, 4, 0.5, max_wavenumber=4).values))
        s = TwoFluidState(n, u, u, E, B)
        r1 = two_fluid_rate(s, p)
        r2 = two_fluid_rate(s, Params(kappa=0.3, kappa_ei=123.0, k_rate=45.0))
        assert np.abs(r1[1] - r2[1]).max() < 1e-14  # d(n u_e)
        assert np.abs(r1[2] - r2[2]).max() < 1e-14  # d(n u_i)


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
        dn = two_fluid_rate(s, p)[0]
        assert abs(grid_integral(grid64, dn)) < 1e-13


class TestGroupedProducts:
    # the grid products and cross product against the row-by-row forms they
    # replaced
    @staticmethod
    def _inputs(grid, members):
        rng = np.random.default_rng(9)
        lead = (members,) if members else ()
        n = 1.0 + 0.1 * rng.normal(size=lead + (1,) + grid.shape)
        u, J, E, B = (rng.normal(size=lead + (3,) + grid.shape) for _ in range(4))
        if members is None:
            return Params(kappa=0.1, lam=0.05), 0.1, n, u, J, E, B
        kappas = (0.4, 0.1, 0.02)
        kap = np.array(kappas).reshape(-1, 1, 1, 1, 1)
        return Params(kappa=kappas[0], lam=0.05), kap, n, u, J, E, B

    @staticmethod
    def _products(grid, p, kap, x):
        """``_products`` of a member set's grid stack x."""
        lay = _layout(len(x))
        coef = _rate_coefficients(grid, p, np.ravel(kap))
        return _products(p, coef, lay, x, x[lay.n_uJ], lay.shapes(x.shape[1:]))

    @staticmethod
    def _limit_fields(grid):
        rng = np.random.default_rng(10)
        return 1.0 + 0.1 * rng.normal(size=(1,) + grid.shape), rng.normal(size=(3,) + grid.shape)

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    @pytest.mark.parametrize("members", [None, 3], ids=["single", "batch3"])
    def test_full_products_bit_for_bit(self, grid, members):
        # one state, or three with the limit ahead of them: each member's rows
        p, kap, n, u, J, E, B = self._inputs(grid, members)
        want = row_by_row_full_products(p, kap, n, u, J, E, B)
        if members is None:
            assert np.array_equal(self._products(grid, p, kap, _stack(n, u, J, E, B)), want)
            return
        stacks = [_stack(*self._limit_fields(grid))] + [_stack(*f) for f in zip(n, u, J, E, B)]
        got = self._products(grid, p, kap, _join(stacks))
        lay = _layout(4 + 13 * members)
        for k in range(members):
            assert np.array_equal(got[member_product_rows(lay, k + 1)], want[k])

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    @pytest.mark.parametrize("members", [None, 3], ids=["single", "batch3"])
    def test_fluid_products_bit_for_bit(self, grid, members):
        # the limit system's products: n u and F, alone or ahead of three
        # members with a current
        p, kap, n, u, J, E, B = self._inputs(grid, members)
        n0, u0 = self._limit_fields(grid)
        want = row_by_row_fluid_products(p, n0, u0)
        if members is None:
            assert np.array_equal(self._products(grid, p, kap, _stack(n0, u0)), want)
            return
        x = _join([_stack(n0, u0)] + [_stack(*f) for f in zip(n, u, J, E, B)])
        got = self._products(grid, p, kap, x)
        assert np.array_equal(got[member_product_rows(_layout(len(x)), 0)], want)

    @pytest.mark.parametrize("members", [None, 3], ids=["single", "batch3"])
    def test_cross_bit_for_bit(self, members):
        grid = Grid(3, 8)
        _, _, _, u, J, *_ = self._inputs(grid, members)
        assert np.array_equal(_cross(u, J), componentwise_cross(u, J))
        k = grid.half_unit_wavenumbers  # broadcast against a stack of fields, as apply_half does
        x = array_rfft(grid, np.stack([u, J], axis=-5))
        assert np.array_equal(_cross(k, x), componentwise_cross(k, x))
