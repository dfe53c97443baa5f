"""Time integration: exact per-mode stiff propagation + explicit SSP-RK2.

The scaled system has two stiff mechanisms: the 1/kappa Maxwell rotation
and the 1/(tau*eps) current-field coupling.  Both are linear once the
density in the coupling terms is frozen at its spatial mean, so each
Fourier mode carries a constant generator L.  L splits into a longitudinal
and two helical transverse parts whose 3x3 exponentials depend only on the
pair (|k|^2, |k_full|^2): they are tabulated once per distinct pair and
applied on the real-FFT half-spectrum.  A step is the Strang composition

    exp(dt/2 L)  o  SSP-RK2 on (full RHS - L)  o  exp(dt/2 L)

which is second order, unconditionally stable in kappa, and reduces to
plain SSP-RK2 when L = 0.  E and B are Leray-projected after every step.

The limit system reuses the same machinery with only the viscous block.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import BlowUpError, ConfigError, VacuumError
from .model import FullState, LimitState, Params, _full_rate, _limit_rate
from .spectral import Grid, ScalarField, VectorField, array_irfft, array_leray_project, array_rfft

__all__ = [
    "StepControl",
    "StiffLinearOperator",
    "build_stiff_operator",
    "step_full",
    "step_limit",
    "evolve",
    "StepLog",
]


@dataclass(frozen=True)
class StepControl:
    """Step size, horizon and stepping mode.

    In adaptive mode dt is additionally capped by cfl*dx/max(1, max(|u| + c))
    with the sound speed c = sqrt(eta P'(n)/tau); the stiff propagator being
    exact, dt is never constrained by 1/kappa.
    """

    dt: float
    t_end: float
    cfl: float = 0.5
    mode: str = "fixed_dt"

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError("cfl must lie in (0, 1]")
        if self.mode not in ("fixed_dt", "adaptive"):
            raise ConfigError("mode must be 'fixed_dt' or 'adaptive'")


# One coefficient per (part, out field, in field) over the stacked (u, J, E, B):
# part "x" multiplies the field, "s" adds khat (khat . field) and "rot" is
# -i khat x field.  So "x" carries the transverse entries, "s" longitudinal
# minus transverse; the first two rows are u's.
_TERMS = (
    ("x", 0, 0), ("s", 0, 0),
    ("x", 1, 1), ("x", 1, 2), ("x", 2, 1), ("x", 2, 2), ("x", 3, 3),
    ("s", 1, 1), ("s", 1, 2), ("s", 2, 1), ("s", 2, 2), ("s", 3, 3),
    ("rot", 1, 3), ("rot", 2, 3), ("rot", 3, 1), ("rot", 3, 2),
)


def _pack(u_lon, u_tra, lon, hel):
    """Per-pair rows in _TERMS order from u's factors and the (J, E, B) blocks."""
    rows = [u_tra, u_lon - u_tra]
    for part, i, j in _TERMS[2:]:
        entry = hel[:, i - 1, j - 1]
        rows.append(lon[:, i - 1, j - 1] - entry if part == "s" else entry)
    return np.stack(rows)


class StiffLinearOperator:
    """Per-mode stiff generator L and its half-step exponential, in closed form.

    Per Fourier mode the (J, E, B) block is d_t J = V J + a E with
    a = (1+eps)/(tau eps) n_mean, d_t E = (ik x B)/kappa - n_mean P_k J and
    d_t B = -(ik x E)/kappa; V = -(mu |k_full|^2 + (mu+lam) k k^T)/n_mean is
    the viscous multiplier, which u carries alone, and P_k the Leray
    projector.  With khat = k/|k| and omega = |k|/kappa,

        L = Long (x) khat khat^T + Even(M) (x) (I - khat khat^T)
            + Odd(M) (x) (-i khat x),

    Long = [[v_L, a, 0], [0, 0, 0], [0, 0, 0]] and
    M = [[v_T, a, 0], [-n_mean, 0, -omega], [0, omega, 0]], with
    v_T = -mu |k_full|^2/n_mean and v_L = v_T - (mu+lam)|k|^2/n_mean.  M is
    the generator on one helical transverse part (khat x = i); the other
    helicity carries D M D, D = diag(1, 1, -1), so Even/Odd keep the entries
    of M with D_ii D_jj = +1/-1 (Waleffe, Phys. Fluids A 4, 1992).  The same
    identity with exp(h Long) and exp(h M) gives the exact propagator.  The
    k = 0 and pure-Nyquist modes have khat = 0 and omega = 0.

    ``gen`` and ``prop_half`` hold one real coefficient per _TERMS entry and
    half-spectrum mode, tabulated per distinct (|k|^2, |k_full|^2) pair.
    """

    def __init__(self, grid: Grid, dt: float, khat: np.ndarray,
                 gen: np.ndarray, prop_half: np.ndarray):
        self.grid = grid
        self.dt = dt
        self.khat = khat            # (3, *half)
        self.cross = np.zeros((3,) + khat.shape)  # khat x, as a (3, 3, *half) matrix
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            self.cross[a, c], self.cross[a, b] = khat[b], -khat[c]
        self.gen = gen              # (len(_TERMS), *half)
        self.prop_half = prop_half  # (len(_TERMS), *half)

    @classmethod
    def zero(cls, grid: Grid, dt: float) -> "StiffLinearOperator":
        """L = 0: the identity propagator, so steps are plain SSP-RK2."""
        k = grid.half_wavenumbers
        prop = np.zeros((len(_TERMS),) + k.shape[1:])
        prop[[n for n, (part, i, j) in enumerate(_TERMS) if part == "x" and i == j]] = 1.0
        return cls(grid, dt, np.zeros_like(k), np.zeros_like(prop), prop)

    def _apply(self, coef: np.ndarray, u, J, E, B) -> tuple:
        """Per-mode sum over _TERMS on the half-spectrum; one transform each way."""
        g, kh = self.grid, self.khat
        x = array_rfft(g, np.stack([u, J, E, B]))
        parts = {"x": x, "s": (kh * x).sum(axis=1), "rot": (self.cross * x[:, None]).sum(axis=2)}
        parts["rot"] *= -1j
        out, lon = np.zeros_like(x), np.zeros_like(parts["s"])
        for c, (part, i, j) in zip(coef, _TERMS):
            (lon if part == "s" else out)[i] += c * parts[part][j]
        out += kh * lon[:, None]
        return tuple(array_irfft(g, out))

    def _apply_u(self, coef: np.ndarray, u: np.ndarray) -> np.ndarray:
        g, kh = self.grid, self.khat
        x = array_rfft(g, u)
        return array_irfft(g, coef[0] * x + kh * (coef[1] * (kh * x).sum(axis=0)))

    def apply_half(self, u, J, E, B):
        """One half-step exact propagation of (u, J, E, B)."""
        return self._apply(self.prop_half, u, J, E, B)

    def linear_rate(self, u, J, E, B):
        """L applied to (u, J, E, B), for forming the explicit remainder."""
        return self._apply(self.gen, u, J, E, B)

    def apply_half_u(self, u):
        """Half-step viscous propagation of u alone (the limit system)."""
        return self._apply_u(self.prop_half, u)

    def linear_rate_u(self, u):
        """The viscous generator applied to u alone."""
        return self._apply_u(self.gen, u)


def build_stiff_operator(
    grid: Grid, p: Params, n_mean: float, dt: float
) -> StiffLinearOperator:
    """Tabulate the generator and its half-step exponential per distinct
    (|k|^2, |k_full|^2) pair and spread them over the half-spectrum."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    k = grid.half_wavenumbers
    k2 = (k**2).sum(axis=0)
    keys = np.stack([k2.ravel(), grid.k_squared[grid.half_cut].ravel()], axis=1)
    pairs, inverse = np.unique(keys, axis=0, return_inverse=True)
    # as the physical-space viscous operator: full |k|^2 Laplacian,
    # derivative wavenumbers in grad div
    v_tra = -p.mu * pairs[:, 1] / n_mean
    v_lon = v_tra - (p.mu + p.lam) * pairs[:, 0] / n_mean
    omega = np.sqrt(pairs[:, 0]) / p.kappa
    lon = np.zeros((len(pairs), 3, 3))
    lon[:, 0, 0] = v_lon
    lon[:, 0, 1] = (1.0 + p.epsilon) / (p.tau * p.epsilon) * n_mean
    hel = lon.copy()
    hel[:, 0, 0], hel[:, 1, 0], hel[:, 1, 2], hel[:, 2, 1] = v_tra, -n_mean, -omega, omega
    # complex dtype: scipy's real-dtype expm loses ~50x accuracy at omega dt >> 1
    h = 0.5 * dt
    ex = scipy.linalg.expm(np.concatenate([lon, hel]) * (h + 0j)).real
    tables = (_pack(v_lon, v_tra, lon, hel),
              _pack(np.exp(h * v_lon), np.exp(h * v_tra), ex[: len(pairs)], ex[len(pairs):]))
    gen, prop = (table[:, inverse].reshape((len(_TERMS),) + k2.shape) for table in tables)
    return StiffLinearOperator(grid, dt, k / np.sqrt(np.where(k2 == 0.0, 1.0, k2)), gen, prop)


# ---------------------------------------------------------------------------
# steppers


def _check_step(t: float, **fields: np.ndarray) -> None:
    """Name the first non-finite field, else report a vacuum via min n."""
    for name, arr in fields.items():
        if not np.isfinite(arr).all():
            raise BlowUpError(t, f"blow-up detected at t={t:g}: non-finite {name}")
    n_min = fields["n"].min()
    if n_min <= 0.0:
        raise VacuumError(f"vacuum state at t={t:g}: min n = {n_min:.6g}")


def step_full(
    state: FullState,
    p: Params,
    sc: StepControl,
    op: StiffLinearOperator | None = None,
    forcing: Callable | None = None,
    t: float = 0.0,
) -> FullState:
    """One Strang step of the scaled system.

    ``forcing(t)`` may supply extra explicit rates (dn, du, dJ, dE, dB) as
    arrays, e.g. for manufactured-solution tests.
    """
    grid = state.grid
    dt = sc.dt
    if op is None:
        op = build_stiff_operator(grid, p, state.n.mean, dt)

    n = state.n.values
    J = p.kappa * state.jt.values
    u, J, E, B = op.apply_half(state.u.values, J, state.E.values, state.B.values)

    def remainder(vals, tt):
        dn, *rates = _full_rate(grid, p, *vals)
        rates = (dn, *(r - lr for r, lr in zip(rates, op.linear_rate(*vals[1:]))))
        if forcing is not None:
            rates = tuple(r + f for r, f in zip(rates, forcing(tt)))
        return rates

    s0 = (n, u, J, E, B)
    k1 = remainder(s0, t)
    s1 = tuple(x + dt * k for x, k in zip(s0, k1))
    k2 = remainder(s1, t + dt)
    n, u, J, E, B = (
        x + 0.5 * dt * (a + b) for x, a, b in zip(s0, k1, k2)
    )

    u, J, E, B = op.apply_half(u, J, E, B)
    E = array_leray_project(grid, E)
    B = array_leray_project(grid, B)
    _check_step(t + dt, n=n, u=u, J=J, E=E, B=B)
    u = u.copy()  # not a view into the stacked transform output
    return FullState(ScalarField(grid, n), VectorField(grid, u), VectorField(grid, J / p.kappa),
                     VectorField(grid, E), VectorField(grid, B))


def step_limit(
    state: LimitState,
    p: Params,
    sc: StepControl,
    op: StiffLinearOperator | None = None,
    forcing: Callable | None = None,
    t: float = 0.0,
) -> LimitState:
    """One IMEX step of the limit system: exact viscous multiplier around
    an explicit SSP-RK2 stage for advection and pressure."""
    grid = state.grid
    dt = sc.dt
    if op is None:
        op = build_stiff_operator(grid, p, state.n.mean, dt)

    n = state.n.values
    u = op.apply_half_u(state.u.values)

    def remainder(vals, tt):
        dn, du = _limit_rate(grid, p, *vals)
        rates = (dn, du - op.linear_rate_u(vals[1]))
        if forcing is not None:
            rates = tuple(r + f for r, f in zip(rates, forcing(tt)))
        return rates

    s0 = (n, u)
    k1 = remainder(s0, t)
    s1 = tuple(x + dt * k for x, k in zip(s0, k1))
    k2 = remainder(s1, t + dt)
    n, u = (x + 0.5 * dt * (a + b) for x, a, b in zip(s0, k1, k2))

    u = op.apply_half_u(u)
    _check_step(t + dt, n=n, u=u)
    return LimitState(ScalarField(grid, n), VectorField(grid, u))


# ---------------------------------------------------------------------------
# driver


@dataclass
class StepLog:
    """What happened during an evolve call."""

    status: str = "completed"
    message: str = ""
    n_steps: int = 0
    wall_seconds: float = 0.0


def _n_fixed_steps(sc: StepControl) -> int:
    if sc.t_end == 0.0:
        return 0
    n = round(sc.t_end / sc.dt)
    if n < 1 or abs(n * sc.dt - sc.t_end) > 1e-9 * max(sc.dt, sc.t_end):
        raise ConfigError("t_end must be an integer multiple of dt in fixed_dt mode")
    return n


def evolve(
    state: FullState | LimitState,
    p: Params,
    sc: StepControl,
    observer: Callable | None = None,
    stride: int = 1,
    forcing: Callable | None = None,
):
    """March one full or limit state to t_end (the paired full/limit run is
    ``harness.run_single``).

    A fixed_dt run builds the stiff operator once and steps at t = i*dt; an
    adaptive run takes each dt from the CFL and sound-speed cap of
    StepControl and rebuilds the operator for it.  observer(step_index, t,
    state) runs at t = 0 and every ``stride`` steps; ``forcing`` is passed to
    every step.  A blow-up or vacuum ends the march with that status.
    Returns (final_state, StepLog)."""
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    stepper = step_full if isinstance(state, FullState) else step_limit
    fixed = sc.mode == "fixed_dt"
    n_steps = _n_fixed_steps(sc) if fixed else 0
    dx = state.grid.spacing
    log = StepLog()
    start = _time.perf_counter()
    if observer is not None:
        observer(0, 0.0, state)

    t, step, op = 0.0, sc, None
    try:
        while (log.n_steps < n_steps) if fixed else (t < sc.t_end - 1e-12 * sc.t_end):
            if not fixed:
                n_, u_ = state.n.values, state.u.values
                c = np.sqrt((u_**2).sum(axis=0)) + np.sqrt(p.eta * p.pressure.dpressure(n_) / p.tau)
                step = replace(sc, dt=min(sc.dt, sc.cfl * dx / max(1.0, c.max()), sc.t_end - t))
                op = None
            if op is None:
                op = build_stiff_operator(state.grid, p, state.n.mean, step.dt)
            state = stepper(state, p, step, op=op, forcing=forcing, t=t)
            log.n_steps += 1
            t = log.n_steps * sc.dt if fixed else t + step.dt
            if observer is not None and log.n_steps % stride == 0:
                observer(log.n_steps, t, state)
    except (BlowUpError, VacuumError) as exc:
        log.status = "blowup" if isinstance(exc, BlowUpError) else "vacuum"
        log.message = str(exc)
    log.wall_seconds = _time.perf_counter() - start
    return state, log
