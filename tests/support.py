"""Shared helpers for order tests and paired trajectories."""

from itertools import product as _iproduct

import numpy as np
import scipy.fft
import scipy.linalg

from nsmlimit.diagnostics import EnergyLedger, ErrorState, enthalpy_functional, error_state
from nsmlimit.errors import VacuumError
from nsmlimit.harness import InitialSpec, RunConfig, run_single
from nsmlimit.integrator import StepControl, evolve
from nsmlimit.model import (
    FullState,
    LimitState,
    Params,
    PressureLaw,
    _cross,
    _div_nl,
    _div_outer,
    _full_rate,
    _grad_nl,
    _limit_rate,
    _split,
    _stack,
    _visc,
)
from nsmlimit.spectral import (
    Grid,
    ScalarField,
    VectorField,
    array_curl,
    array_dealias,
    array_divergence,
    array_gradient,
    array_irfft,
    array_laplacian,
    array_leray_project,
    array_rfft,
    grid_integral,
    sobolev_norm,
    sup_norm,
)


def l2_state_error(arrs_a, arrs_b):
    return float(
        np.sqrt(sum(((a - b) ** 2).sum() for a, b in zip(arrs_a, arrs_b)))
    )


class ManufacturedFull:
    """Time-periodic exact solution of the forced scaled system.

    All fields are band-limited with analytic time derivatives; div E and
    div B vanish because the first components are x-independent on a
    1-active-axis grid.  The forcing is the defect of the exact solution
    under the discrete right-hand side, so the time integrator is the
    only error source.
    """

    def __init__(self, grid: Grid, p: Params, amp=0.05):
        self.grid = grid
        self.p = p
        self.amp = amp
        self.x = grid.coordinate(0) * np.ones(grid.shape)

    def state_arrays(self, t):
        a, x = self.amp, self.x
        shape = self.grid.shape
        n = 1.0 + a * np.sin(x) * np.cos(2.0 * t)
        u = np.stack([
            a * np.cos(x) * np.sin(t),
            a * np.sin(x) * np.cos(t),
            a * np.cos(x) * np.cos(3.0 * t),
        ])
        J = np.stack([
            a * np.sin(x) * np.sin(2.0 * t),
            a * np.cos(x) * np.cos(t),
            a * np.sin(x) * np.sin(t),
        ])
        E = np.stack([
            np.zeros(shape),
            a * np.cos(x) * np.cos(2.0 * t),
            a * np.sin(x) * np.sin(t),
        ])
        B = np.stack([
            np.zeros(shape),
            a * np.sin(x) * np.sin(t),
            a * np.cos(x) * np.cos(t),
        ])
        return n, u, J, E, B

    def rate_arrays(self, t):
        a, x = self.amp, self.x
        shape = self.grid.shape
        dn = -2.0 * a * np.sin(x) * np.sin(2.0 * t)
        du = np.stack([
            a * np.cos(x) * np.cos(t),
            -a * np.sin(x) * np.sin(t),
            -3.0 * a * np.cos(x) * np.sin(3.0 * t),
        ])
        dJ = np.stack([
            2.0 * a * np.sin(x) * np.cos(2.0 * t),
            -a * np.cos(x) * np.sin(t),
            a * np.sin(x) * np.cos(t),
        ])
        dE = np.stack([
            np.zeros(shape),
            -2.0 * a * np.cos(x) * np.sin(2.0 * t),
            a * np.sin(x) * np.cos(t),
        ])
        dB = np.stack([
            np.zeros(shape),
            a * np.sin(x) * np.cos(t),
            -a * np.cos(x) * np.sin(t),
        ])
        return dn, du, dJ, dE, dB

    def state(self, t) -> FullState:
        n, u, J, E, B = self.state_arrays(t)
        g = self.grid
        return FullState(
            ScalarField(g, n), VectorField(g, u),
            VectorField(g, J / self.p.kappa), VectorField(g, E), VectorField(g, B),
        )

    def forcing(self, t):
        exact = self.state_arrays(t)
        g = self.grid
        rate = _split(array_irfft(g, _full_rate(g, self.p, array_rfft(g, _stack(*exact)))))
        target = self.rate_arrays(t)
        return tuple(want - have for want, have in zip(target, rate))

    def error_after(self, dt, t_end) -> float:
        state, log = evolve(self.state(0.0), self.p, StepControl(dt=dt, t_end=t_end),
                            forcing=self.forcing)
        assert log.status == "completed", log.message
        n, u, J, E, B = self.state_arrays(t_end)
        got = (
            state.n.values, state.u.values, self.p.kappa * state.jt.values,
            state.E.values, state.B.values,
        )
        return l2_state_error(got, (n, u, J, E, B))


class ManufacturedLimit:
    """Forced exact solution of the limit system (same construction)."""

    def __init__(self, grid: Grid, p: Params, amp=0.05):
        self.grid = grid
        self.p = p
        self.amp = amp
        self.x = grid.coordinate(0) * np.ones(grid.shape)

    def state_arrays(self, t):
        a, x = self.amp, self.x
        n = 1.0 + a * np.sin(x) * np.cos(2.0 * t)
        u = np.stack([
            a * np.cos(x) * np.sin(t),
            a * np.sin(x) * np.cos(t),
            a * np.cos(x) * np.cos(3.0 * t),
        ])
        return n, u

    def rate_arrays(self, t):
        a, x = self.amp, self.x
        dn = -2.0 * a * np.sin(x) * np.sin(2.0 * t)
        du = np.stack([
            a * np.cos(x) * np.cos(t),
            -a * np.sin(x) * np.sin(t),
            -3.0 * a * np.cos(x) * np.sin(3.0 * t),
        ])
        return dn, du

    def state(self, t) -> LimitState:
        n, u = self.state_arrays(t)
        return LimitState(ScalarField(self.grid, n), VectorField(self.grid, u))

    def forcing(self, t):
        g = self.grid
        x = array_rfft(g, _stack(*self.state_arrays(t)))
        rate = _split(array_irfft(g, _limit_rate(g, self.p, x)))
        target = self.rate_arrays(t)
        return tuple(want - have for want, have in zip(target, rate))

    def error_after(self, dt, t_end) -> float:
        state, log = evolve(self.state(0.0), self.p, StepControl(dt=dt, t_end=t_end),
                            forcing=self.forcing)
        assert log.status == "completed", log.message
        n, u = self.state_arrays(t_end)
        return l2_state_error((state.n.values, state.u.values), (n, u))


_FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                     "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def count_fft_calls(monkeypatch) -> list:
    """Wrap every numpy.fft and scipy.fft transform entry point; the returned
    list collects the name of each call (clear it before the counted code)."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (np.fft, scipy.fft):
        for name in _FFT_ENTRY_POINTS:
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


def observed_order(errors: list[float]) -> float:
    """Mean Richardson exponent from errors at dt, dt/2, dt/4, ..."""
    rates = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    return float(np.mean(rates))


def paired_trajectory(grid, kappa, dt, n_steps, seed=7, amplitude=0.1, c0=1.0,
                      stride=1):
    """Evolve full and limit side by side (run_single), returning stride snapshots."""
    cfg = RunConfig(grid=grid, params=Params(kappa=kappa), step=StepControl(dt=dt, t_end=n_steps * dt),
                    initial=InitialSpec(seed=seed, base_amplitude=amplitude, c0=c0),
                    kappa_list=(kappa,), snapshot_stride=stride)
    rec = run_single(cfg)
    if rec.status != "completed":
        raise RuntimeError(rec.message)
    return rec.snapshots, cfg.params


class DenseStiffReference:
    """The stiff operator assembled as dense (M, 9, 9) complex per-mode blocks
    on the full spectrum and exponentiated with scipy's expm: a slow but
    direct reference for the closed-form StiffLinearOperator."""

    def __init__(self, grid: Grid, p: Params, n_mean: float, dt: float):
        self.grid = grid
        kx, ky, kz = (np.broadcast_to(k, grid.shape).ravel() for k in grid.wavenumbers)
        kvec = np.stack([kx, ky, kz], axis=1)  # (M, 3), Nyquist-zeroed derivative k
        m = kvec.shape[0]
        k2 = (kvec**2).sum(axis=1)
        k2_full = np.broadcast_to(grid.k_squared, grid.shape).ravel()
        eye = np.eye(3)

        kk = np.einsum("mi,mj->mij", kvec, kvec)
        visc = -(p.mu * k2_full[:, None, None] * eye + (p.mu + p.lam) * kk) / n_mean

        cross = np.zeros((m, 3, 3))
        cross[:, 0, 1] = -kvec[:, 2]
        cross[:, 0, 2] = kvec[:, 1]
        cross[:, 1, 0] = kvec[:, 2]
        cross[:, 1, 2] = -kvec[:, 0]
        cross[:, 2, 0] = -kvec[:, 1]
        cross[:, 2, 1] = kvec[:, 0]

        k2_safe = np.where(k2 == 0.0, 1.0, k2)
        leray = eye - kk / k2_safe[:, None, None]
        leray[k2 == 0.0] = eye

        a_coef = (1.0 + p.epsilon) / (p.tau * p.epsilon) * n_mean
        gen = np.zeros((m, 9, 9), dtype=complex)
        gen[:, 0:3, 0:3] = visc
        gen[:, 0:3, 3:6] = a_coef * eye
        gen[:, 3:6, 0:3] = -n_mean * leray
        gen[:, 3:6, 6:9] = 1j * cross / p.kappa
        gen[:, 6:9, 3:6] = -1j * cross / p.kappa
        self.gen_u = visc.astype(complex)
        self.gen_jeb = gen
        self.prop_u_half = scipy.linalg.expm(self.gen_u * (0.5 * dt))
        self.prop_jeb_half = scipy.linalg.expm(gen * (0.5 * dt))

    def _hats(self, arrs):
        h = np.fft.fftn(arrs, axes=self.grid.fft_axes)
        return h.reshape(h.shape[0], -1).T

    def _phys(self, hats):
        h = hats.T.reshape((3,) + self.grid.shape)
        return np.fft.ifftn(h, axes=self.grid.fft_axes).real

    def _apply(self, blk_u, blk_jeb, u, J, E, B):
        zu = np.einsum("mij,mj->mi", blk_u, self._hats(u))
        z = np.concatenate([self._hats(J), self._hats(E), self._hats(B)], axis=1)
        z = np.einsum("mij,mj->mi", blk_jeb, z)
        return (self._phys(zu),) + tuple(self._phys(z[:, s:s + 3]) for s in (0, 3, 6))

    def apply_half(self, u, J, E, B):
        return self._apply(self.prop_u_half, self.prop_jeb_half, u, J, E, B)

    def linear_rate(self, u, J, E, B):
        return self._apply(self.gen_u, self.gen_jeb, u, J, E, B)


# The stepping rates evaluated term by term: physical arrays in and out, each
# nonlinear term masked on its own, a few FFT round trips per term.  A slow
# but direct reference for the batched half-spectrum model._full_rate and
# model._limit_rate.


def per_term_fluid_rate(grid: Grid, p: Params, n: np.ndarray, u: np.ndarray):
    """Continuity rate and conservative momentum rate shared by both systems.

    dn      = -1/(1+eps) div(n u)
    d(nu)   = -1/(1+eps) div(n u x u) + mu lap u + (mu+lam) grad div u
              - (1+eps) eta/tau grad P(n)
    """
    inv = 1.0 / (1.0 + p.epsilon)
    dn = -inv * _div_nl(grid, n * u)
    mom = -inv * _div_outer(grid, n, u, u)
    mom = mom + _visc(grid, u, p.mu, p.mu + p.lam)
    mom = mom - ((1.0 + p.epsilon) * p.eta / p.tau) * _grad_nl(
        grid, p.pressure.pressure(n)
    )
    return dn, mom


def per_term_full_rate(grid: Grid, p: Params, n, u, J, E, B):
    """Primitive rates of the scaled system in the variables (n, u, J, E, B).

    The momentum equations are converted from conservative form via
    d_t u = (d_t(nu) - u d_t n)/n, and likewise for J = kappa j~.  The
    current source of the E equation is solenoidally projected.
    """
    eps = p.epsilon
    inv = 1.0 / (1.0 + eps)
    a_coef = (1.0 + eps) / (p.tau * eps)
    D = lambda arr: array_dealias(grid, arr)

    dn, mom = per_term_fluid_rate(grid, p, n, u)
    div_nJJ = _div_outer(grid, n, J, J)
    nJxB = D(n * _cross(J, B))
    mom = mom - inv * eps * div_nJJ
    mom = mom + (p.kappa / p.tau) * nJxB
    du = D((mom - u * dn) / n)

    cur = -((eps - 1.0) * inv) * div_nJJ
    cur = cur - inv * (_div_outer(grid, n, u, J) + _div_outer(grid, n, J, u))
    cur = cur + _visc(grid, J, p.mu, p.mu + p.lam)
    cur = cur + a_coef * D(n * E)
    cur = cur + (p.kappa / (p.tau * eps)) * D(n * _cross(u, B))
    cur = cur + ((eps - 1.0) / (p.tau * eps)) * p.kappa * nJxB
    cur = cur - a_coef * p.kappa_ei * p.k_rate * p.kappa**2 * D(n * n * J)
    dJ = D((cur - J * dn) / n)

    dE = array_curl(grid, B) / p.kappa - array_leray_project(grid, D(n * J))
    dB = -array_curl(grid, E) / p.kappa
    return dn, du, dJ, dE, dB


def per_term_limit_rate(grid: Grid, p: Params, n, u):
    dn, mom = per_term_fluid_rate(grid, p, n, u)
    du = array_dealias(grid, (mom - u * dn) / n)
    return dn, du


# The energy ledger and the audit terms evaluated in grid space: one complex
# FFT round trip per norm, derivative and divergence, integrals by the
# trapezoid rule.  A slow but direct reference for the half-spectrum kernels
# of nsmlimit.diagnostics.


def _interior_multi_indices(dims: int, l: int):
    for alpha in _iproduct(range(l + 1), repeat=dims):
        if 1 <= sum(alpha) <= l:
            yield alpha


def grid_space_weighted_high_norm(
    e: ErrorState, limit: LimitState, law: PressureLaw, l: int
) -> float:
    """sum_{1<=|a|<=l} integral h'(N+n0)/(N+n0) |d^a N|^2 dx."""
    grid = e.grid
    rho = e.N.values + limit.n.values
    if rho.min() <= 0.0:
        raise VacuumError("vacuum state: total density nonpositive")
    weight = law.denthalpy(rho) / rho
    hat = np.fft.fftn(e.N.values, axes=grid.fft_axes)
    total = 0.0
    for alpha in _interior_multi_indices(grid.dims_active, int(l)):
        mult = np.ones(grid.shape, dtype=complex)
        for ax, order in enumerate(alpha):
            if order:
                mult = mult * (1j * grid.wavenumbers[ax]) ** order
        d = np.fft.ifftn(mult * hat, axes=grid.fft_axes).real
        total += grid_integral(grid, weight * d * d)
    return total


def grid_space_dissipation_rates(e: ErrorState, p: Params) -> tuple[float, float]:
    """Instantaneous viscous dissipation of U and of J = kappa j~:
    mu |grad .|^2 + (mu+lam) |div .|^2."""
    grid = e.grid

    def rate(v: VectorField) -> float:
        grad_sq = sum(
            grid_integral(grid, array_gradient(grid, v.values[i]) ** 2)
            for i in range(3)
        )
        div_sq = grid_integral(grid, array_divergence(grid, v.values) ** 2)
        return p.mu * grad_sq + (p.mu + p.lam) * div_sq

    return rate(e.U), rate(e.J)


def grid_space_ledger(
    t: float,
    full: FullState,
    limit: LimitState,
    p: Params,
    l: float,
    mass0: float,
) -> EnergyLedger:
    grid = full.grid
    e = error_state(full, limit, p.kappa)
    norms = [
        sobolev_norm(e.N, l),
        sobolev_norm(e.U, l),
        sobolev_norm(e.J, l),
        sobolev_norm(e.E, l),
        sobolev_norm(e.B, l),
    ]
    diss_u, diss_j = grid_space_dissipation_rates(e, p)
    div_scale = 1.0 + sup_norm(full.E) + sup_norm(full.B)
    div_e = float(np.abs(array_divergence(grid, full.E.values)).max()) / div_scale
    div_b = float(np.abs(array_divergence(grid, full.B.values)).max()) / div_scale
    mass = grid_integral(grid, full.n.values)
    return EnergyLedger(
        t=t,
        gamma=sum(x * x for x in norms),
        norm_N=norms[0],
        norm_U=norms[1],
        norm_J=norms[2],
        norm_E=norms[3],
        norm_B=norms[4],
        enthalpy_fn=enthalpy_functional(e, limit, p.pressure),
        weighted_high=grid_space_weighted_high_norm(e, limit, p.pressure, int(l)),
        diss_U=diss_u,
        diss_J=diss_j,
        divE=div_e,
        divB=div_b,
        mass_err=abs(mass - mass0) / abs(mass0),
    )


def _grad_div(grid: Grid, v: np.ndarray) -> np.ndarray:
    V = np.fft.fftn(v, axes=grid.fft_axes)
    div_hat = sum(1j * grid.wavenumbers[ax] * V[ax] for ax in range(3))
    return np.stack([
        np.fft.ifftn(1j * grid.wavenumbers[ax] * div_hat, axes=grid.fft_axes).real
        for ax in range(3)
    ])


def grid_space_audit_terms(full: FullState, limit: LimitState, p: Params) -> dict:
    grid = full.grid
    eps = p.epsilon
    law = p.pressure
    n_tot = full.n.values          # N + n0
    n0 = limit.n.values
    U = (full.u - limit.u).values
    u0 = limit.u.values
    u_full = full.u.values
    jt = full.jt.values
    B = full.B.values

    h_diff = law.enthalpy(n_tot) - law.enthalpy(n0)
    div_nU = array_divergence(grid, n_tot * U)
    t1 = ((1.0 + eps) * p.eta / p.tau) * grid_integral(grid, h_diff * div_nU)

    # d_t(N+n0) from the combined continuity equation
    dt_n = -array_divergence(grid, n_tot * u_full) / (1.0 + eps)
    t2 = 0.5 * grid_integral(grid, dt_n * (U * U).sum(axis=0))

    grad_U = np.stack([array_gradient(grid, U[i]) for i in range(3)])  # (i, j, ...)
    adv = np.einsum("j...,ij...->i...", u_full, grad_U)
    grad_u0 = np.stack([array_gradient(grid, u0[i]) for i in range(3)])
    adv = adv + np.einsum("j...,ij...->i...", U, grad_u0)
    t3 = -grid_integral(grid, (adv * n_tot * U).sum(axis=0)) / (1.0 + eps)

    grad_jt = np.stack([array_gradient(grid, jt[i]) for i in range(3)])
    jdotj = np.einsum("j...,ij...->i...", jt, grad_jt)
    t4 = (
        -(eps / (1.0 + eps))
        * p.kappa**2
        * grid_integral(grid, (jdotj * n_tot * U).sum(axis=0))
    )

    lorentz = _cross(jt, B)
    t5 = (p.kappa**2 / p.tau) * grid_integral(grid, (lorentz * n_tot * U).sum(axis=0))

    visc0 = p.mu * array_laplacian(grid, u0) + (p.mu + p.lam) * _grad_div(grid, u0)
    t6 = grid_integral(
        grid, ((1.0 / n_tot - 1.0 / n0) * visc0 * n_tot * U).sum(axis=0)
    )

    diss = p.mu * sum(
        grid_integral(grid, array_gradient(grid, U[i]) ** 2) for i in range(3)
    ) + (p.mu + p.lam) * grid_integral(grid, array_divergence(grid, U) ** 2)

    energy = 0.5 * grid_integral(grid, n_tot * (U * U).sum(axis=0))
    return {
        "energy": energy, "dissipation": diss,
        "T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5, "T6": t6,
    }
