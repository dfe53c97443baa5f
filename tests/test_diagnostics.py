import math

import numpy as np
import pytest
from scipy.integrate import quad
import support
from support import (
    _partial,
    array_leray_project,
    count_fft_calls,
    grid_space_audit_terms,
    grid_space_ledger,
    paired_trajectory,
)

from nsmlimit.errors import GridMismatchError, SnapshotSpacingError, VacuumError
from nsmlimit.diagnostics import (
    LEDGER_COLUMNS,
    _audit_terms,
    bound_monitor,
    energy_identity_audit,
    enthalpy_functional,
    error_state,
    gamma_norm,
    make_energy_ledger,
    weighted_high_norm,
    ErrorState,
)
from nsmlimit.initdata import (
    WellPreparedSpec,
    hypothesis_certificate,
    make_limit_data,
    make_well_prepared,
)
from nsmlimit.model import FullState, LimitState, Params, PressureLaw
from nsmlimit.spectral import (
    Grid,
    ScalarField,
    VectorField,
    derive_seed,
    grid_integral,
    random_smooth_field,
    random_smooth_vector,
    sobolev_norm,
)


def flat_limit(grid):
    return LimitState(
        ScalarField(grid, np.ones(grid.shape)), VectorField.zeros(grid)
    )


def smooth_pair(grid, seed=3):
    """Unrelated smooth full and limit states: O(1) errors, densities in
    [0.7, 1.3], solenoidal E and B."""
    def density(tag):
        f = random_smooth_field(grid, derive_seed(seed, tag), 0.5, zero_mean=True).values
        return ScalarField(grid, 1.0 + 0.3 * f / np.abs(f).max())

    def vector(tag):
        return random_smooth_vector(grid, derive_seed(seed, tag), 0.5)

    limit = LimitState(density(0), vector(1))
    def solenoidal(tag):
        return VectorField(grid, array_leray_project(grid, vector(tag).values))

    full = FullState(density(2), vector(3), vector(4), solenoidal(5), solenoidal(6))
    return full, limit


def zero_error(grid, N=None):
    z = VectorField.zeros(grid)
    if N is None:
        N = ScalarField.zeros(grid)
    return ErrorState(N, z, z, z, z)


class TestErrorState:
    def test_zero_perturbation_gives_zero_error(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(base, seed=7, c0=0.0, kappa=0.2)
        full = make_well_prepared(spec)
        e = error_state(full, base, 0.2)
        for fld in (e.N, e.U, e.J, e.E, e.B):
            assert np.abs(fld.values).max() == 0.0

    def test_linear_in_kappa(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        norms = []
        for kappa in (0.2, 0.1):
            full = make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, kappa))
            e = error_state(full, base, kappa)
            norms.append(math.sqrt(gamma_norm(e, 4.0)))
        assert abs(norms[0] - 2 * norms[1]) < 1e-11

    def test_grid_mismatch(self, grid64):
        base32 = make_limit_data(Grid(1, 32), seed=7, amplitude=0.1)
        base64 = make_limit_data(grid64, seed=7, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base64, 7, 1.0, 0.2))
        with pytest.raises(GridMismatchError):
            error_state(full, base32, 0.2)


class TestGamma:
    def test_zero(self, grid64):
        assert gamma_norm(zero_error(grid64), 4.0) == 0.0

    def test_quadratic_scaling(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, 0.2))
        e = error_state(full, base, 0.2)
        g1 = gamma_norm(e, 4.0)
        scaled = ErrorState(3.0 * e.N, 3.0 * e.U, 3.0 * e.J, 3.0 * e.E, 3.0 * e.B)
        assert gamma_norm(scaled, 4.0) == pytest.approx(9.0 * g1, rel=1e-12)

    def test_single_sin_mode_h1(self, grid64):
        # N = sin x, others zero, l = 1: Gamma = ||N||_1^2 = 2 pi
        N = ScalarField.from_function(grid64, lambda x, y, z: np.sin(x))
        e = zero_error(grid64, N=N)
        assert gamma_norm(e, 1.0) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_additivity_against_independent_norms(self, grid64):
        base = make_limit_data(grid64, seed=5, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base, 5, 1.0, 0.3))
        e = error_state(full, base, 0.3)
        parts = sum(
            support.sobolev_norm(f, 4.0) ** 2 for f in (e.N, e.U, e.J, e.E, e.B)
        )
        assert gamma_norm(e, 4.0) == pytest.approx(parts, rel=1e-14)


class TestEnthalpyFunctional:
    def test_zero_error_is_zero(self, grid64):
        law = PressureLaw()
        assert enthalpy_functional(zero_error(grid64), flat_limit(grid64), law) == 0.0

    def test_gamma_two_closed_form(self, grid64):
        # n0 = 1, gamma = 2, A = 1: h(rho) = 2(rho-1), so the inner integral
        # is N^2 and the functional is ||N||_L2^2
        law = PressureLaw(amplitude=1.0, gamma=2.0)
        N = ScalarField.from_function(grid64, lambda x, y, z: 0.1 * np.sin(x))
        e = zero_error(grid64, N=N)
        val = enthalpy_functional(e, flat_limit(grid64), law)
        assert val == pytest.approx(sobolev_norm(N, 0.0) ** 2, rel=1e-12)

    def test_general_gamma_against_quadrature(self, grid64):
        law = PressureLaw()  # gamma = 5/3
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        Nv = 0.2 * np.sin(x) + 0.05 * np.cos(2 * x)
        n0v = 1.0 + 0.1 * np.cos(x)
        e = zero_error(grid64, N=ScalarField(grid64, Nv))
        limit = LimitState(ScalarField(grid64, n0v), VectorField.zeros(grid64))
        got = enthalpy_functional(e, limit, law)
        # brute-force quadrature per grid point, then torus integral
        per_point = np.array([
            quad(lambda s: law.enthalpy(s + b) - law.enthalpy(b), 0.0, a,
                 epsabs=1e-13, epsrel=1e-13)[0]
            for a, b in zip(Nv.ravel(), n0v.ravel())
        ]).reshape(grid64.shape)
        ref = grid_integral(grid64, per_point)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_positive_for_mixed_sign_error(self, grid64):
        law = PressureLaw()
        N = ScalarField.from_function(grid64, lambda x, y, z: 0.3 * np.sin(3 * x))
        val = enthalpy_functional(zero_error(grid64, N=N), flat_limit(grid64), law)
        assert val > 0.0

    def test_vacuum_in_integral_range(self, grid64):
        law = PressureLaw()
        N = ScalarField(grid64, np.full(grid64.shape, -1.5))
        with pytest.raises(VacuumError, match="inner integral"):
            enthalpy_functional(zero_error(grid64, N=N), flat_limit(grid64), law)


class TestWeightedHighNorm:
    def test_redundant_path(self, grid64):
        # independent evaluation with full-spectrum derivatives and explicit
        # quadrature of the weight
        law = PressureLaw()
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        N = ScalarField(grid64, 0.1 * np.sin(x) + 0.02 * np.cos(3 * x))
        n0 = ScalarField(grid64, 1.0 + 0.05 * np.cos(2 * x))
        e = zero_error(grid64, N=N)
        limit = LimitState(n0, VectorField.zeros(grid64))
        got = weighted_high_norm(e, limit, law, 4)
        rho = N.values + n0.values
        weight = law.denthalpy(rho) / rho
        ref = 0.0
        for order in range(1, 5):
            d = _partial(grid64, N.values, (order,))
            ref += grid_integral(grid64, weight * d**2)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_positive(self, grid64):
        law = PressureLaw()
        N = ScalarField.from_function(grid64, lambda x, y, z: 0.2 * np.sin(x))
        val = weighted_high_norm(zero_error(grid64, N=N), flat_limit(grid64), law, 4)
        assert val > 0.0

    def test_zero_for_constant_error(self, grid64):
        law = PressureLaw()
        N = ScalarField(grid64, np.full(grid64.shape, 0.1))
        val = weighted_high_norm(zero_error(grid64, N=N), flat_limit(grid64), law, 4)
        assert val == pytest.approx(0.0, abs=1e-25)


class TestEnergyLedger:
    def test_initial_row(self, grid64):
        p = Params(kappa=0.2)
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, 0.2))
        mass0 = grid_integral(grid64, full.n.values)
        row = make_energy_ledger(0.0, full, base, p, 4.0, mass0)
        assert row.mass_err == 0.0
        assert row.gamma == pytest.approx((0.999 * 0.2) ** 2, rel=1e-9)
        assert row.divE < 1e-12 and row.divB < 1e-12
        assert row.enthalpy_fn >= 0.0 and row.weighted_high >= 0.0
        assert len(row.as_tuple()) == len(LEDGER_COLUMNS)


    def test_vacuum_names_time_and_min_density(self, grid64):
        p = Params(kappa=0.2)
        limit = flat_limit(grid64)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        z = VectorField.zeros(grid64)
        full = FullState(ScalarField(grid64, 0.5 + np.cos(x)), z, z, z, z)
        with pytest.raises(VacuumError, match=r"min n = -0\.5\) at t=0\.5$"):
            make_energy_ledger(0.5, full, limit, p, 4.0, 1.0)


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 8)],
                         ids=["1d64", "2d16", "3d8"])
@pytest.mark.parametrize("kappa", [0.4, 1e-3])
@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_matches_grid_space_reference(grid, kappa, lam):
    # half-spectrum Parseval sums and batched transforms against one complex
    # round trip per norm, derivative and divergence
    p = Params(kappa=kappa, lam=lam)
    full, limit = smooth_pair(grid)
    mass0 = 0.9 * grid_integral(grid, full.n.values)
    got = make_energy_ledger(0.25, full, limit, p, 4.0, mass0)
    want = grid_space_ledger(0.25, full, limit, p, 4.0, mass0)
    for col in LEDGER_COLUMNS:
        g, w = getattr(got, col), getattr(want, col)
        tol = 1e-14 if col in ("divE", "divB") else 1e-12 * max(1.0, abs(w))
        assert abs(g - w) <= tol, (col, g, w)
    got = _audit_terms(full, limit, p)
    want = grid_space_audit_terms(full, limit, p)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert abs(got[key] - w) <= 1e-12 * max(1.0, abs(w)), (key, got[key], w)


@pytest.mark.parametrize("grid", [Grid(3, 8), Grid(1, 64)], ids=["3d8", "1d64"])
def test_transform_calls_per_row_and_snapshot(grid, monkeypatch):
    # one forward transform of a stacked array and one inverse of another
    p = Params(kappa=0.1)
    limit = make_limit_data(grid, seed=7, amplitude=0.1)
    full = make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa))
    calls = count_fft_calls(monkeypatch)
    for fn, args in ((make_energy_ledger, (0.0, full, limit, p, 4.0, 1.0)),
                     (_audit_terms, (full, limit, p)),
                     (hypothesis_certificate, (full, limit, p.kappa, 1.0, 4.0))):
        calls.clear()
        fn(*args)
        assert 0 < len(calls) <= 2, (fn.__name__, calls)


class TestEnergyAudit:
    def test_stationary_equilibrium_residual_zero(self, grid64):
        p = Params(kappa=0.2)
        flat = flat_limit(grid64)
        z = VectorField.zeros(grid64)
        full = FullState(flat.n, z, z, z, z)
        snaps = [(i * 0.01, full, flat) for i in range(3)]
        rep = energy_identity_audit(snaps, p)
        assert rep.max_residual == 0.0

    def test_residual_shrinks_under_dt_halving(self, grid64):
        residuals = []
        for dt in (4e-3, 2e-3):
            snaps, p = paired_trajectory(grid64, kappa=0.05, dt=dt, n_steps=8)
            residuals.append(energy_identity_audit(snaps, p).max_residual)
        assert residuals[0] / residuals[1] >= 3.5

    def test_fault_injection_raises_residual(self, grid64):
        snaps, p = paired_trajectory(grid64, kappa=0.05, dt=4e-3, n_steps=8)
        base = energy_identity_audit(snaps, p).max_residual
        injected = energy_identity_audit(snaps, p, drop_term=1).max_residual
        assert injected >= 10.0 * base

    def test_nonuniform_spacing_rejected(self, grid64):
        snaps, p = paired_trajectory(grid64, kappa=0.1, dt=2e-3, n_steps=4)
        bad = [snaps[0], snaps[1], snaps[3]]
        with pytest.raises(SnapshotSpacingError, match="nonuniform"):
            energy_identity_audit(bad, p)

    def test_too_few_snapshots(self, grid64):
        snaps, p = paired_trajectory(grid64, kappa=0.1, dt=2e-3, n_steps=1)
        with pytest.raises(ValueError):
            energy_identity_audit(snaps, p)

    def test_vacuum_names_snapshot_time(self, grid64):
        p = Params(kappa=0.2)
        flat = flat_limit(grid64)
        z = VectorField.zeros(grid64)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        bad = FullState(ScalarField(grid64, 0.5 + np.cos(x)), z, z, z, z)
        good = FullState(flat.n, z, z, z, z)
        snaps = [(0.0, good, flat), (0.01, good, flat), (0.02, bad, flat)]
        with pytest.raises(VacuumError, match=r"min n = -0\.5\) at t=0\.02$"):
            energy_identity_audit(snaps, p)

    def test_bad_drop_term(self, grid64):
        snaps, p = paired_trajectory(grid64, kappa=0.1, dt=2e-3, n_steps=2)
        with pytest.raises(ValueError):
            energy_identity_audit(snaps, p, drop_term=7)


class TestBoundMonitor:
    def test_synthetic_exponential_exact(self):
        ts = np.linspace(0.0, 1.0, 21)
        kappa = 0.2
        gammas = kappa**2 * np.exp(ts)
        rep = bound_monitor(ts, gammas, 1.0, kappa)
        assert rep.c_envelope == pytest.approx(1.0, abs=1e-6)
        assert rep.growth_rate == pytest.approx(1.0, abs=1e-6)
        assert rep.sup_ratio == pytest.approx(math.e, rel=1e-12)

    def test_zero_record_trivial_pass(self):
        rep = bound_monitor([0.0, 0.1], [0.0, 0.0], 1.0, 0.1)
        assert rep.trivial
        assert rep.sup_ratio == 0.0

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="empty record"):
            bound_monitor([], [], 1.0, 0.1)
