"""Shared helpers for order tests and paired trajectories."""

import numpy as np
import scipy.linalg

from nsmlimit.harness import InitialSpec, RunConfig, run_single
from nsmlimit.integrator import StepControl, evolve
from nsmlimit.model import FullState, LimitState, Params, _full_rate, _limit_rate
from nsmlimit.spectral import Grid, ScalarField, VectorField


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
        rate = _full_rate(self.grid, self.p, *exact)
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
        rate = _limit_rate(self.grid, self.p, *self.state_arrays(t))
        target = self.rate_arrays(t)
        return tuple(want - have for want, have in zip(target, rate))

    def error_after(self, dt, t_end) -> float:
        state, log = evolve(self.state(0.0), self.p, StepControl(dt=dt, t_end=t_end),
                            forcing=self.forcing)
        assert log.status == "completed", log.message
        n, u = self.state_arrays(t_end)
        return l2_state_error((state.n.values, state.u.values), (n, u))


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
