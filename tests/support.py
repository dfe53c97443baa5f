"""Shared helpers for order tests and paired trajectories, and slow but
direct reference kernels for the tests to compare the solver against."""

import math
from itertools import product as _iproduct
from typing import NamedTuple, Sequence

import numpy as np
import scipy.fft
import scipy.linalg

from nsmlimit import harness
from nsmlimit.diagnostics import EnergyLedger
from nsmlimit.errors import VacuumError
from nsmlimit.harness import InitialSpec, RunConfig, run_single
from nsmlimit.integrator import _TERMS, HalfStack, StepControl, build_stiff_operator, evolve, step_full
from nsmlimit.model import (
    FullState,
    LimitState,
    Params,
    PressureLaw,
    _cross,
    _full_rate,
    _layout,
    _rate_coefficients,
    _stack,
)
from nsmlimit.spectral import (
    _TWO_PI,
    Field,
    Grid,
    ScalarField,
    VectorField,
    _hash_unit,
    _multi_indices,
    box_irfft,
    box_rfft,
    grid_integral,
    sup_norm,
)


# The complex full-spectrum layout: fftn/ifftn of the grid values, one
# round trip per operator.  Slow but direct references for the half-spectrum
# kernels of nsmlimit (the sampler, the norms, the Moser ratios and the
# certificate forms) and for the per-term and grid-space references below.


def _fft(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.fft.fftn(values, axes=grid.fft_axes)


def _ifft(grid: Grid, hat: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(hat, axes=grid.fft_axes).real


def array_gradient(grid: Grid, a: np.ndarray) -> np.ndarray:
    A = _fft(grid, a)
    return np.stack([_ifft(grid, 1j * grid.wavenumbers[ax] * A) for ax in range(3)])


def array_divergence(grid: Grid, v: np.ndarray) -> np.ndarray:
    V = _fft(grid, v)
    out = 1j * grid.wavenumbers[0] * V[0]
    for ax in (1, 2):
        out = out + 1j * grid.wavenumbers[ax] * V[ax]
    return _ifft(grid, out)


def array_curl(grid: Grid, v: np.ndarray) -> np.ndarray:
    V = _fft(grid, v)
    kx, ky, kz = grid.wavenumbers
    cx = 1j * (ky * V[2] - kz * V[1])
    cy = 1j * (kz * V[0] - kx * V[2])
    cz = 1j * (kx * V[1] - ky * V[0])
    return np.stack([_ifft(grid, cx), _ifft(grid, cy), _ifft(grid, cz)])


def array_laplacian(grid: Grid, a: np.ndarray) -> np.ndarray:
    return _ifft(grid, -grid.k_squared * _fft(grid, a))


def array_dealias(grid: Grid, a: np.ndarray) -> np.ndarray:
    return _ifft(grid, grid.dealias_mask * _fft(grid, a))


def array_leray_project(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Remove the gradient part per mode: v_hat - k (k.v_hat)/|k|^2.

    Built from the derivative wavenumbers (Nyquist zeroed) so it is an
    exact orthogonal projector consistent with array_divergence."""
    V = _fft(grid, v)
    kx, ky, kz = grid.wavenumbers
    k2 = (kx**2 + ky**2 + kz**2) * np.ones(grid.shape)
    k2_safe = np.where(k2 == 0.0, 1.0, k2)
    k_dot_v = sum(grid.wavenumbers[ax] * V[ax] for ax in range(3))
    coeff = np.where(k2 == 0.0, 0.0, k_dot_v / k2_safe)
    return np.stack(
        [_ifft(grid, V[ax] - grid.wavenumbers[ax] * coeff) for ax in range(3)]
    )


def translate(f: Field, shifts: Sequence[float]) -> Field:
    """Evaluate the trigonometric interpolant at x - shift (exact for band-limited f)."""
    phase = np.exp(
        -1j * sum(f.grid.wavenumbers[ax] * shifts[ax] for ax in range(3))
    )
    return type(f)(f.grid, _ifft(f.grid, phase * _fft(f.grid, f.values)))


def _weighted_coeff_sum(f: Field, weight: np.ndarray) -> float:
    c2 = np.abs(_fft(f.grid, f.values) / f.grid.npoints) ** 2
    if c2.ndim == 4:
        c2 = c2.sum(axis=0)
    return float((weight * c2).sum() * f.grid.volume)


def sobolev_norm(f: Field, l: float = 4.0) -> float:
    """H^l norm, ``sqrt(V sum_k (1+|k|^2)^l |c_k|^2)``; l=0 is the L^2 norm."""
    if l < 0:
        raise ValueError("Sobolev exponent must be nonnegative")
    return math.sqrt(_weighted_coeff_sum(f, (1.0 + f.grid.k_squared) ** float(l)))


def sobolev_seminorm(f: Field, s: float) -> float:
    """Homogeneous seminorm |f|_{H^s} = sqrt(V sum |k|^{2s} |c_k|^2)."""
    if s == 0:
        return sobolev_norm(f, 0.0)
    return math.sqrt(_weighted_coeff_sum(f, f.grid.k_squared ** s))


def random_smooth_field(
    grid: Grid,
    seed: int,
    decay_rate: float,
    *,
    max_wavenumber: float | None = None,
    zero_mean: bool = False,
) -> ScalarField:
    """Real random field with |c_k| = exp(-decay_rate |k|), random phases.

    Deterministic in ``seed`` and independent of the grid resolution (the
    same seed names the same function on a finer grid, up to the appended
    exponentially small tail).  ``max_wavenumber`` band-limits the sample;
    ``zero_mean`` removes the k = 0 mode.
    """
    if decay_rate <= 0:
        raise ValueError("decay_rate must be positive")
    mi = grid.mode_indices
    half = grid.points_per_dim // 2
    # conjugate-partner index, componentwise -k with Nyquist fixed points
    ci = tuple(np.where(m == -half, m, -m) for m in mi)
    self_conj = (mi[0] == ci[0]) & (mi[1] == ci[1]) & (mi[2] == ci[2])
    is_canon = (mi[0] > ci[0]) | (
        (mi[0] == ci[0])
        & ((mi[1] > ci[1]) | ((mi[1] == ci[1]) & (mi[2] >= ci[2])))
    )
    canon = tuple(np.where(is_canon, m, c) for m, c in zip(mi, ci))
    u = _hash_unit(seed, *canon)

    k_abs = np.sqrt(grid.k_squared)
    mag = np.exp(-decay_rate * k_abs)
    if max_wavenumber is not None:
        mag = np.where(k_abs <= max_wavenumber * (1.0 + 1e-12), mag, 0.0)
    phase = np.where(is_canon, 1.0, -1.0) * _TWO_PI * u
    coeff = mag * np.exp(1j * phase)
    # self-conjugate modes (k = 0 and Nyquist combinations) must stay real
    coeff = np.where(self_conj, mag * np.cos(_TWO_PI * u), coeff)
    if zero_mean:
        coeff[0, 0, 0] = 0.0
    values = np.fft.ifftn(coeff * grid.npoints, axes=grid.fft_axes).real
    return ScalarField(grid, values)


def smooth_hat_reference(
    grid: Grid,
    seed: int,
    decay_rate: float,
    *,
    max_wavenumber: float | None = None,
    zero_mean: bool = False,
) -> np.ndarray:
    """``spectral._smooth_hat`` drawn on every half-spectrum mode and masked
    to ``max_wavenumber`` afterwards: the reference that its band-limited
    sampling must reproduce bit for bit."""
    mi = tuple(m[grid.half_cut] for m in grid.mode_indices)
    half = grid.points_per_dim // 2
    ci = tuple(np.where(m == -half, m, -m) for m in mi)
    self_conj = (mi[0] == ci[0]) & (mi[1] == ci[1]) & (mi[2] == ci[2])
    is_canon = (mi[0] > ci[0]) | (
        (mi[0] == ci[0])
        & ((mi[1] > ci[1]) | ((mi[1] == ci[1]) & (mi[2] >= ci[2])))
    )
    canon = tuple(np.where(is_canon, m, c) for m, c in zip(mi, ci))
    u = _hash_unit(seed, *canon)

    k_abs = np.sqrt(grid.k_squared[grid.half_cut])
    mag = np.exp(-decay_rate * k_abs)
    if max_wavenumber is not None:
        mag = np.where(k_abs <= max_wavenumber * (1.0 + 1e-12), mag, 0.0)
    phase = np.where(is_canon, 1.0, -1.0) * _TWO_PI * u
    coeff = mag * np.exp(1j * phase)
    coeff = np.where(self_conj, mag * np.cos(_TWO_PI * u), coeff)
    if zero_mean:
        coeff[0, 0, 0] = 0.0
    return coeff * grid.npoints


def _partial(grid: Grid, values: np.ndarray, alpha: Sequence[int]) -> np.ndarray:
    mult = np.ones(grid.shape, dtype=complex)
    for ax, order in enumerate(alpha):
        if order:
            mult = mult * (1j * grid.wavenumbers[ax]) ** order
    return _ifft(grid, mult * _fft(grid, values))


def _l2(grid: Grid, values: np.ndarray) -> float:
    return math.sqrt(grid_integral(grid, values**2))


def moser_ratios(f: ScalarField, g: ScalarField, s: int) -> tuple[float, float]:
    """Max product-rule and commutator ratios over multi-indices |alpha| <= s."""
    assert f.grid == g.grid
    grid = f.grid
    fg = f.values * g.values
    sup_f = sup_norm(f)
    sup_g = sup_norm(g)
    sup_df = float(
        np.sqrt((array_gradient(grid, f.values) ** 2).sum(axis=0)).max()
    )
    den1 = sup_f * sobolev_seminorm(g, s) + sup_g * sobolev_seminorm(f, s)
    den2 = sup_df * sobolev_seminorm(g, s - 1) + sup_g * sobolev_seminorm(f, s)
    r1 = 0.0
    r2 = 0.0
    for alpha in _multi_indices(grid.dims_active, s):
        d_fg = _partial(grid, fg, alpha)
        r1 = max(r1, _l2(grid, d_fg) / den1)
        if sum(alpha) >= 1:
            comm = d_fg - f.values * _partial(grid, g.values, alpha)
            r2 = max(r2, _l2(grid, comm) / den2)
    return r1, r2


# Fused helpers for the certificate forms: each takes physical arrays,
# applies the derivative and the 2/3 mask in a single transform round trip,
# and returns physical arrays.


def _div_outer(grid: Grid, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dealiased divergence of the tensor w * (a x b): out_i = sum_j d_j(w a_i b_j)."""
    tensor = w * a[:, None] * b[None, :]  # (3, 3, *shape)
    that = np.fft.fftn(tensor, axes=grid.fft_axes)
    out = sum(1j * grid.wavenumbers[j] * that[:, j] for j in range(3))
    return np.fft.ifftn(grid.dealias_mask * out, axes=grid.fft_axes).real


def _div_nl(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Dealiased divergence of a (nonlinear-product) vector field."""
    vhat = np.fft.fftn(v, axes=grid.fft_axes)
    out = sum(1j * grid.wavenumbers[j] * vhat[j] for j in range(3))
    return np.fft.ifftn(grid.dealias_mask * out, axes=grid.fft_axes).real


def _grad_nl(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Dealiased gradient of a (nonlinear) scalar field."""
    ahat = grid.dealias_mask * np.fft.fftn(a, axes=grid.fft_axes)
    return np.stack(
        [
            np.fft.ifftn(1j * grid.wavenumbers[ax] * ahat, axes=grid.fft_axes).real
            for ax in range(3)
        ]
    )


def _visc(grid: Grid, v: np.ndarray, mu: float, mu_lam: float) -> np.ndarray:
    """mu lap v + (mu+lam) grad div v in one transform round trip."""
    vhat = np.fft.fftn(v, axes=grid.fft_axes)
    div_hat = sum(1j * grid.wavenumbers[j] * vhat[j] for j in range(3))
    out = [
        -mu * grid.k_squared * vhat[i]
        + mu_lam * 1j * grid.wavenumbers[i] * div_hat
        for i in range(3)
    ]
    return np.fft.ifftn(np.stack(out), axes=grid.fft_axes).real


def _two_fluid_rate(grid: Grid, p: Params, n, u_e, u_i, E, B, alpha, beta):
    """Conservative rates of the original two-fluid form.

    The electron/ion pressures are P_e = eps*P and P_i = P; alpha is the
    squared reciprocal light speed and beta the induced-field strength.
    """
    eps = p.epsilon
    D = lambda arr: array_dealias(grid, arr)
    visc = lambda v: _visc(grid, v, p.mu, p.mu + p.lam)
    grad_p = _grad_nl(grid, p.pressure.pressure(n))
    fric = p.kappa_ei * beta / p.kappa**2 * p.k_rate

    dn = -_div_nl(grid, n * u_i)
    dnu_e = (
        -_div_outer(grid, n, u_e, u_e)
        + visc(u_e)
        + (
            -p.eta * eps * grad_p
            - (D(n * E) + D(n * _cross(u_e, B))) / p.kappa
            - fric * D(n * n * (u_e - u_i))
        )
        / (p.tau * eps)
    )
    dnu_i = (
        -_div_outer(grid, n, u_i, u_i)
        + visc(u_i)
        + (
            -p.eta * grad_p
            + (D(n * E) + D(n * _cross(u_i, B))) / p.kappa
            - fric * D(n * n * (u_i - u_e))
        )
        / p.tau
    )
    current = D(n * (u_i - u_e)) / p.kappa  # j = n(u_i - u_e)/kappa
    dE = (array_curl(grid, B) - beta * current) / alpha
    dB = -array_curl(grid, E)
    return dn, dnu_e, dnu_i, dE, dB


def _reformed_rate(grid: Grid, p: Params, n, u, jt, E, B, alpha, beta):
    """Conservative rates of the substituted system in (n, u, j~, E, B).

    Returns (dn, d(nu), kappa d(n j~), dE, dB); the Maxwell pair keeps the
    unscaled fields, so alpha and beta appear explicitly.
    """
    eps = p.epsilon
    inv = 1.0 / (1.0 + eps)
    kap = p.kappa
    D = lambda arr: array_dealias(grid, arr)
    visc = lambda v: _visc(grid, v, p.mu, p.mu + p.lam)

    dn = -inv * _div_nl(grid, n * u)
    dnu = (
        -inv * (_div_outer(grid, n, u, u) + eps * kap**2 * _div_outer(grid, n, jt, jt))
        + visc(u)
        - ((1.0 + eps) * p.eta / p.tau) * _grad_nl(grid, p.pressure.pressure(n))
        + D(n * _cross(jt, B)) / p.tau
    )
    dnj = (
        -((eps - 1.0) * inv) * kap**2 * _div_outer(grid, n, jt, jt)
        - kap * inv * (_div_outer(grid, n, u, jt) + _div_outer(grid, n, jt, u))
        + kap * visc(jt)
        + ((1.0 + eps) / (p.tau * eps * kap)) * D(n * E)
        + D(n * _cross(u, B)) / (p.tau * eps * kap)
        + ((eps - 1.0) / (p.tau * eps)) * D(n * _cross(jt, B))
        - ((1.0 + eps) / (p.tau * eps * kap)) * p.kappa_ei * p.k_rate * beta * D(n * n * jt)
    )
    dE = (array_curl(grid, B) - beta * D(n * jt)) / alpha
    dB = -array_curl(grid, E)
    return dn, dnu, dnj, dE, dB


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
        g = self.grid
        rate = box_irfft(g, plain_rate(g, self.p, box_rfft(g, _stack(*self.state_arrays(t)))))
        return _stack(*self.rate_arrays(t)) - rate

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
        rate = box_irfft(g, plain_rate(g, self.p, box_rfft(g, _stack(*self.state_arrays(t)))))
        return _stack(*self.rate_arrays(t)) - rate

    def error_after(self, dt, t_end) -> float:
        state, log = evolve(self.state(0.0), self.p, StepControl(dt=dt, t_end=t_end),
                            forcing=self.forcing)
        assert log.status == "completed", log.message
        n, u = self.state_arrays(t_end)
        return l2_state_error((state.n.values, state.u.values), (n, u))


_FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                     "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def count_fft_calls(monkeypatch, rows: list | None = None) -> list:
    """Wrap every numpy.fft and scipy.fft transform entry point; the returned
    list collects the name of each call (clear it before the counted code).
    A ``rows`` list given collects the number of rows each call transforms:
    the input's size over that of the transformed axes."""
    calls = []

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            calls.append(fn.__name__)
            if rows is not None:
                axes = kwargs.get("axes", (kwargs.get("axis", -1),))
                rows.append(a.size // math.prod(a.shape[i] for i in axes))
            return fn(a, *args, **kwargs)
        return wrapper

    for module in (np.fft, scipy.fft):
        for name in _FFT_ENTRY_POINTS:
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


def plain_rate(grid: Grid, p: Params, x: np.ndarray, guard=None) -> np.ndarray:
    """``model._full_rate`` of one state's (or the limit's) stack x on the
    2/3-rule box with the coefficients of Params p alone: the rates
    themselves, not the remainder of an operator."""
    return _full_rate(x, _rate_coefficients(grid, p, (p.kappa,)), guard)


def box_projection(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Grid values with their coefficients outside the 2/3-rule box removed."""
    return box_irfft(grid, box_rfft(grid, values))


def stack_operator(grid: Grid, x: np.ndarray, p: Params, dt: float, kappas=None):
    """The operator of the member set x, at the mean density of each member:
    ``kappas`` holds the kappa of each member with a current, by default
    ``p.kappa`` for each."""
    lay = _layout(len(x))
    means = [float(n.mean()) for n in x[lay.n]]
    limit_mean = means.pop(0) if lay.limit else None
    kappas = (p.kappa,) * lay.currents if kappas is None else kappas
    return build_stiff_operator(grid, p, dt, kappas, means, limit_mean)


def step_once(grid: Grid, x: np.ndarray, p: Params, dt: float, t: float = 0.0, kappas=None) -> np.ndarray:
    """One ``step_full`` of the member set x with its ``stack_operator``."""
    return step_full(x, stack_operator(grid, x, p, dt, kappas), t=t)


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


def inject_faults(monkeypatch, *faults) -> list:
    """Swap ``harness.step_full``, which a run looks up at every step, for a
    step that first adds faults to the member set it is given.

    A fault ``(kappa, steps, add)`` adds ``add(grid, n)``, (4, *shape) on the
    grid, to the (n, u) rows of the member at ``kappa`` before the step from
    t = steps dt; n is that member's density on the grid.  The fault is
    keyed on the member's kappa, read from the operator, and on the time,
    not on the member's place in the set: a batch member and its standalone
    run get the same fault, and a step redone after another member left
    gets it again.  A carried HalfStack gets the fault as the state it
    stands for, on the 2/3-rule box and through the opening half-step.  A
    grid stack in a holder (``integrator.march``) gets the fault in the
    holder, which the step then enters; a HalfStack in a holder is that
    entered set, given back for a redo, and already holds its faults.
    Returns a list that gets the ``record`` flag of each faulted step."""
    flags, step = [], harness.step_full

    def faulty(x, op, *args, t=0.0, **kwargs):
        kappas = list(op.coef.kap.ravel())
        held = isinstance(x, list)
        if held and isinstance(x[0], HalfStack):
            return step(x, op, *args, t=t, **kwargs)
        stack = x[0] if held else x
        for kappa, steps, add in faults:
            if t == steps * op.dt and kappa in kappas:
                stack = _add_to_member(stack, op, op.layout.limit + kappas.index(kappa), add)
                flags.append(kwargs["record"])
        if held:
            x[0] = stack
        else:
            x = stack
        del stack
        return step(x, op, *args, t=t, **kwargs)

    monkeypatch.setattr(harness, "step_full", faulty)
    return flags


def _add_to_member(x, op, member: int, add):
    """The member set x, a grid stack or a HalfStack, with ``add`` of
    ``inject_faults`` added to the (n, u) rows of one member."""
    lay, carried = op.layout, isinstance(x, HalfStack)
    n = x.n if carried else x[lay.n]
    delta = np.zeros((len(x.half) if carried else len(x),) + n.shape[1:])
    delta[lay.member_rows(member)[:4]] = add(op.grid, n[member])
    if not carried:
        return x + delta
    hat = box_rfft(op.grid, delta)
    stiff = hat[lay.stiff].reshape(lay.shapes(hat.shape[1:]).stiff)
    stiff[:] = op.apply_half(stiff)
    return HalfStack(x.half + hat, n + delta[lay.n])


class StiffEntries(NamedTuple):
    """The per-mode entries of a member's stiff generator L
    (``StiffLinearOperator``), each a float or an array over |k|^2: u's and
    J's transverse and longitudinal viscous rates ``v_tra`` and ``v_lon``,
    the J-E coupling ``j_e``, the E-J coupling ``e_j`` (of the Leray
    projector), the Maxwell frequency ``omega`` = |k|/kappa and the friction
    ``friction``, which J's diagonal loses beside the viscous rates."""

    v_tra: np.ndarray
    v_lon: np.ndarray
    j_e: float
    e_j: float
    omega: np.ndarray
    friction: float


def stiff_entries(p: Params, kappa: float, n_mean: float, k2) -> StiffEntries:
    """The entries of the stiff generator of the member at ``kappa`` and mean
    density ``n_mean`` per |k|^2 of ``k2``: the one statement of them on the
    test side, which the dense references assemble."""
    v_tra = -p.mu * k2 / n_mean
    v_lon = v_tra - (p.mu + p.lam) * k2 / n_mean
    a = (1.0 + p.epsilon) / (p.tau * p.epsilon)
    friction = a * p.kappa_ei * p.k_rate * (kappa * kappa) * n_mean
    return StiffEntries(v_tra, v_lon, a, -n_mean, np.sqrt(k2) / kappa, friction)


class DenseStiffReference:
    """The stiff operator assembled as dense (M, 9, 9) complex per-mode blocks
    on the 2/3-rule box from k k^T and the cross-product matrix of k, with
    the entries of ``stiff_entries``, and exponentiated with scipy's expm: a
    slow but direct reference for the closed-form StiffLinearOperator, which
    splits the blocks into helical parts instead.  It maps grid values to
    grid values, through the box: the content of the fields outside it is
    dropped."""

    def __init__(self, grid: Grid, p: Params, n_mean: float, dt: float):
        self.grid = grid
        kvec = grid.box.k.reshape(3, -1).T  # (M, 3)
        m = kvec.shape[0]
        k2 = (kvec**2).sum(axis=1)
        eye = np.eye(3)
        e = stiff_entries(p, p.kappa, n_mean, k2)

        k2_safe = np.where(k2 == 0.0, 1.0, k2)
        khat = kvec / np.sqrt(k2_safe)[:, None]
        kk = np.einsum("mi,mj->mij", khat, khat)  # zero at k = 0
        visc = e.v_tra[:, None, None] * eye + (e.v_lon - e.v_tra)[:, None, None] * kk

        cross = np.zeros((m, 3, 3))
        cross[:, 0, 1] = -khat[:, 2]
        cross[:, 0, 2] = khat[:, 1]
        cross[:, 1, 0] = khat[:, 2]
        cross[:, 1, 2] = -khat[:, 0]
        cross[:, 2, 0] = -khat[:, 1]
        cross[:, 2, 1] = khat[:, 0]
        rot = e.omega[:, None, None] * cross

        gen = np.zeros((m, 9, 9), dtype=complex)
        gen[:, 0:3, 0:3] = visc - e.friction * eye
        gen[:, 0:3, 3:6] = e.j_e * eye
        gen[:, 3:6, 0:3] = e.e_j * (eye - kk)
        gen[:, 3:6, 6:9] = 1j * rot
        gen[:, 6:9, 3:6] = -1j * rot
        self.gen_u = visc.astype(complex)
        self.gen_jeb = gen
        self.prop_u_half = scipy.linalg.expm(self.gen_u * (0.5 * dt))
        self.prop_jeb_half = scipy.linalg.expm(gen * (0.5 * dt))

    def _hats(self, arrs):
        h = box_rfft(self.grid, arrs)
        return h.reshape(h.shape[0], -1).T

    def _phys(self, hats):
        return box_irfft(self.grid, hats.T.reshape((3,) + self.grid.box.k2.shape))

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
# but direct reference for the batched model._full_rate, whose
# limit-system rows are those of per_term_limit_rate.


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


# The stepping kernels one term and one row at a time, with every
# floating-point operation of the grouped kernels of nsmlimit in the same
# order: bit-for-bit references for StiffLinearOperator.apply_half, the
# grid products of the rates and model._cross.


def componentwise_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over axis -4, one component at a time."""
    a0, a1, a2 = (a[..., i, :, :, :] for i in range(3))
    b0, b1, b2 = (b[..., i, :, :, :] for i in range(3))
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-4)


# (part, out field, in field) of the half-step propagator, in the order each
# field's terms are summed: "x" multiplies the field, "s" adds
# khat (khat . field) and "rot" is -i khat x field, over (u, J, E, B)
_HALF_STEP_TERMS = (
    ("x", 0, 0), ("s", 0, 0),
    ("x", 1, 1), ("x", 1, 2), ("x", 2, 1), ("x", 2, 2), ("x", 3, 3),
    ("s", 1, 1), ("s", 1, 2), ("s", 2, 1), ("s", 2, 2), ("s", 3, 3),
    ("rot", 1, 3), ("rot", 2, 3), ("rot", 3, 1), ("rot", 3, 2),
)


def member_prop_rows(layout, member: int) -> list:
    """The ``prop_half`` rows of one member of a member set, per _TERMS
    entry: u's terms hold a row for every member, the other terms one for
    every member with a current (None for the limit)."""
    m, k, current = layout.members, layout.currents, member - layout.limit
    rows, start = [], 0
    for _, i, _ in _TERMS:
        rows.append(start + member if i == 0 else start + current if current >= 0 else None)
        start += m if i == 0 else k
    return rows


def member_stiff_rows(layout, member: int) -> list:
    """The rows of one member's (u, J, E, B), or its u for the limit, in the
    stiff rows (M + 3K, 3, *half) of a member set."""
    m, k, current = layout.members, layout.currents, member - layout.limit
    return [member] + ([m + current, m + k + current, m + 2 * k + current] if current >= 0 else [])


def term_by_term_half_step(op, x: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """``op.apply_half(x)`` one member and one term at a time, each field's
    terms summed from zero in _HALF_STEP_TERMS order; the rows of
    ``table``, by default ``op.prop_half`` (``op.prop_full`` for
    ``op.apply_full``), are looked up by the operator's own term order
    (``integrator._TERMS``)."""
    table = op.prop_half if table is None else table
    kh = op.khat
    result = np.empty_like(x)
    for member in range(op.layout.members):
        stiff, prop_rows = member_stiff_rows(op.layout, member), member_prop_rows(op.layout, member)
        y = x[stiff]
        s = (kh * y).sum(axis=-4, keepdims=True)
        rot = componentwise_cross(kh, y)
        rot *= -1j
        out, lon = np.zeros_like(y), np.zeros_like(s)
        parts = {"x": y, "s": s, "rot": rot}
        for term in _HALF_STEP_TERMS:
            part, i, j = term
            if max(i, j) >= len(stiff):
                continue
            coef = table[prop_rows[_TERMS.index(term)], None, :, :, :]
            acc = lon if part == "s" else out
            acc[i] += coef * parts[part][j]
        out += kh * lon
        result[stiff] = out
    return result


# row i of one state's products (model._products) is row _FULL_ROWS[i] of those
# below: n u, F and C with symmetric entries (00, 01, 02, 11, 12, 22), the
# two sources, then n J
_FULL_ROWS = [0, 1, 2, 21, 22, 23, 3, 6, 8, 4, 5, 7, 9, 12, 14, 10, 11, 13, 15, 16, 17, 18, 19, 20]
_SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _row_by_row_flux(p: Params, n, nu, u):
    rows = [nu[..., i, :, :, :] * (u[..., j, :, :, :] / (1.0 + p.epsilon)) for i, j in _SYM_PAIRS]
    pressure = ((1.0 + p.epsilon) * p.eta / p.tau) * p.pressure.pressure(n[..., 0, :, :, :])
    for d in (0, 3, 5):
        rows[d] += pressure
    return rows


def member_product_rows(layout, member: int) -> list:
    """The rows of one member of a member set in its products
    (``model._products``), in the order of one state's: n u, n J, F, C and
    the two sources, or n u and F for the limit."""
    m, k, current = layout.members, layout.currents, member - layout.limit

    def rows(start, width, index):
        return list(range(start + width * index, start + width * (index + 1)))

    if current < 0:
        return rows(0, 3, member) + rows(3 * (m + k), 6, member)
    return (rows(0, 3, member) + rows(3 * m, 3, current) + rows(3 * (m + k), 6, member)
            + rows(9 * m + 3 * k, 6, current) + rows(9 * (m + k), 3, current)
            + rows(9 * (m + k) + 3 * k, 3, current))


def row_by_row_fluid_products(p: Params, n, u) -> np.ndarray:
    """The limit system's products (``model._products``): n u, then the
    fluid flux F's entries in the diagonal-first order (00, 11, 22, 01, 02,
    12)."""
    nu = n * u
    flux = _row_by_row_flux(p, n, nu, u)
    return np.stack([nu[..., i, :, :, :] for i in range(3)] + [flux[d] for d in (0, 3, 5, 1, 2, 4)], axis=-4)


def row_by_row_full_products(p: Params, kap, n, u, J, E, B) -> np.ndarray:
    """One state's products (``model._products``), one row at a time;
    ``kap`` a float or a member column."""
    eps = p.epsilon
    inv = 1.0 / (1.0 + eps)
    a_coef = (1.0 + eps) / (p.tau * eps)
    nu, nJ = n * u, n * J
    flux = _row_by_row_flux(p, n, nu, u)
    cur = []
    for d, (i, j) in enumerate(_SYM_PAIRS):
        nJJ = nJ[..., i, :, :, :] * J[..., j, :, :, :]
        flux[d] += (inv * eps) * nJJ
        c = nu[..., i, :, :, :] * J[..., j, :, :, :]
        c += nJ[..., i, :, :, :] * u[..., j, :, :, :]
        c += (eps - 1.0) * nJJ
        c *= inv
        cur.append(c)
    nJxB = componentwise_cross(nJ, B)
    src = np.multiply(a_coef * n, E)
    src += (kap / (p.tau * eps)) * componentwise_cross(nu, B)
    src += ((eps - 1.0) * kap / (p.tau * eps)) * nJxB
    src -= (a_coef * p.kappa_ei * p.k_rate * (kap * kap)) * n * nJ
    vectors = (nu, (kap / p.tau) * nJxB, src, nJ)
    rows = [v[..., i, :, :, :] for v in vectors[:1] for i in range(3)] + flux + cur
    rows += [v[..., i, :, :, :] for v in vectors[1:] for i in range(3)]
    return np.stack(rows, axis=-4)[..., _FULL_ROWS, :, :, :]


# The energy ledger and the audit terms evaluated in grid space: one complex
# FFT round trip per norm, derivative and divergence, integrals by the
# trapezoid rule.  A slow but direct reference for the half-spectrum kernels
# of nsmlimit.diagnostics.


def _interior_multi_indices(dims: int, l: int):
    for alpha in _iproduct(range(l + 1), repeat=dims):
        if 1 <= sum(alpha) <= l:
            yield alpha


def grid_space_weighted_high_norm(
    grid: Grid, N: np.ndarray, n0: np.ndarray, law: PressureLaw, l: int
) -> float:
    """sum_{1<=|a|<=l} integral h'(N+n0)/(N+n0) |d^a N|^2 dx."""
    rho = N + n0
    if rho.min() <= 0.0:
        raise VacuumError("vacuum state: total density nonpositive")
    weight = law.denthalpy(rho) / rho
    hat = np.fft.fftn(N, axes=grid.fft_axes)
    total = 0.0
    for alpha in _interior_multi_indices(grid.dims_active, int(l)):
        mult = np.ones(grid.shape, dtype=complex)
        for ax, order in enumerate(alpha):
            if order:
                mult = mult * (1j * grid.wavenumbers[ax]) ** order
        d = np.fft.ifftn(mult * hat, axes=grid.fft_axes).real
        total += grid_integral(grid, weight * d * d)
    return total


def grid_space_dissipation(grid: Grid, p: Params, v: np.ndarray) -> float:
    """Instantaneous viscous dissipation mu |grad v|^2 + (mu+lam) |div v|^2."""
    grad_sq = sum(grid_integral(grid, array_gradient(grid, v[i]) ** 2) for i in range(3))
    div_sq = grid_integral(grid, array_divergence(grid, v) ** 2)
    return p.mu * grad_sq + (p.mu + p.lam) * div_sq


def grid_space_enthalpy_functional(
    grid: Grid, N: np.ndarray, n0: np.ndarray, law: PressureLaw, nodes: int = 64
) -> float:
    """integral_x integral_0^N [h(s+n0) - h(n0)] ds dx, the inner integral
    by one fixed Gauss-Legendre rule of ``nodes`` points."""
    xi, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * N[..., None] * (xi + 1.0)
    vals = law.enthalpy(s + n0[..., None]) - law.enthalpy(n0)[..., None]
    return grid_integral(grid, 0.5 * N * (vals @ w))


def grid_space_ledger(
    t: float,
    full: FullState,
    limit: LimitState,
    p: Params,
    l: float,
    mass0: float,
) -> EnergyLedger:
    grid = full.grid
    assert grid == limit.grid
    n0 = limit.n.values
    N = full.n.values - n0
    U = full.u.values - limit.u.values
    J = p.kappa * full.jt.values
    norms = [
        sobolev_norm(ScalarField(grid, N), l),
        sobolev_norm(VectorField(grid, U), l),
        sobolev_norm(VectorField(grid, J), l),
        sobolev_norm(full.E, l),
        sobolev_norm(full.B, l),
    ]
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
        enthalpy_fn=grid_space_enthalpy_functional(grid, N, n0, p.pressure),
        weighted_high=grid_space_weighted_high_norm(grid, N, n0, p.pressure, int(l)),
        diss_U=grid_space_dissipation(grid, p, U),
        diss_J=grid_space_dissipation(grid, p, J),
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
    U = full.u.values - limit.u.values
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

    diss = grid_space_dissipation(grid, p, U)

    energy = 0.5 * grid_integral(grid, n_tot * (U * U).sum(axis=0))
    return {
        "energy": energy, "dissipation": diss,
        "T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5, "T6": t6,
    }
