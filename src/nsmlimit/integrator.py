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

The steppers take and return one stacked physical array: the rows
(n, u, j~, E, B), (13, *shape), or (n, u), (4, *shape), for the limit
system.  A step scales j~ to J = kappa j~ and transforms once on entry, and
transforms back and divides J by kappa once on exit; the half-steps, the
SSP-RK2 updates, L and the Leray projection are element-wise work on the
half-spectrum in between, and each rate evaluation leaves Fourier space
only to form its pointwise products (``model._full_rate``).  States are
built only where fields are read (``evolve``'s observer and result).

A batch is one more leading axis, (K, 13, *shape), with a tuple of Params
that differ only in kappa: kappa becomes a (K, 1, 1, 1, 1) column and the
operator tables get a leading member axis.  Every operation acts on each
member alone and the transforms give the same bits with or without the
member axis, so a member's result does not depend on the batch it ran in.

The limit system reuses the same machinery with only the viscous block.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import BlowUpError, ConfigError, VacuumError
from .model import (
    FullState,
    LimitState,
    Params,
    _ROWS,
    _cross,
    _full_rate,
    _limit_rate,
    _require_positive,
    _split,
    _stacked,
    _state_view,
)
from .spectral import Grid, array_irfft, array_rfft, half_leray_project

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
    half-spectrum mode, tabulated per distinct (|k|^2, |k_full|^2) pair,
    after a leading member axis for a batch.
    """

    def __init__(self, dt: float, khat: np.ndarray, gen: np.ndarray, prop_half: np.ndarray):
        self.dt = dt
        self.khat = khat            # (3, *half)
        self.gen = gen              # (len(_TERMS), *half)
        self.prop_half = prop_half  # (len(_TERMS), *half)

    @classmethod
    def zero(cls, grid: Grid, dt: float) -> "StiffLinearOperator":
        """L = 0: the identity propagator, so steps are plain SSP-RK2."""
        k = grid.half_wavenumbers
        prop = np.zeros((len(_TERMS),) + k.shape[1:])
        prop[[n for n, (part, i, j) in enumerate(_TERMS) if part == "x" and i == j]] = 1.0
        return cls(dt, np.zeros_like(k), np.zeros_like(prop), prop)

    def _apply(self, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per-mode sum over _TERMS of the stacked half-spectrum (u, J, E, B),
        (..., 4, 3, *half), with ``coef`` (..., len(_TERMS), *half)."""
        kh = self.khat
        s = (kh * x).sum(axis=-4, keepdims=True)
        rot = _cross(kh, x)
        rot *= -1j
        out, lon = np.zeros_like(x), np.zeros_like(s)
        # terms and fields first: coef[n] is (..., 1, *half), parts[j] (..., 3 or 1, *half)
        coef = coef.swapaxes(0, -4)[_ROWS[None]]
        parts = {"x": x.swapaxes(0, -5), "s": s.swapaxes(0, -5), "rot": rot.swapaxes(0, -5)}
        acc = {"x": out.swapaxes(0, -5), "s": lon.swapaxes(0, -5)}
        for c, (part, i, j) in zip(coef, _TERMS):
            acc["s" if part == "s" else "x"][i] += c * parts[part][j]
        out += kh * lon
        return out

    def _apply_u(self, coef: np.ndarray, u: np.ndarray) -> np.ndarray:
        kh = self.khat
        c0, c1 = coef[_ROWS[0, 1]], coef[_ROWS[1, 2]]
        return c0 * u + kh * (c1 * (kh * u).sum(axis=-4, keepdims=True))

    def apply_half(self, x):
        """One half-step exact propagation of the half-spectrum (u, J, E, B),
        stacked as (4, 3, *half), or (K, 4, 3, *half) for a batch."""
        return self._apply(self.prop_half, x)

    def linear_rate(self, x):
        """L applied to the stacked half-spectrum (u, J, E, B)."""
        return self._apply(self.gen, x)

    def apply_half_u(self, u):
        """Half-step viscous propagation of the half-spectrum u alone (the
        limit system)."""
        return self._apply_u(self.prop_half, u)

    def linear_rate_u(self, u):
        """The viscous generator applied to the half-spectrum u alone."""
        return self._apply_u(self.gen, u)


def _shared_params(p):
    """The Params a batch shares, and its kappa: ``p.kappa`` for one Params,
    a (K, 1, 1, 1, 1) column for a tuple of Params that differ only in kappa."""
    if isinstance(p, Params):
        return p, p.kappa
    first = vars(p[0]) | {"kappa": None}
    if any(vars(q) | {"kappa": None} != first for q in p[1:]):
        raise ConfigError("the Params of a batch must differ only in kappa")
    return p[0], np.array([q.kappa for q in p]).reshape(-1, 1, 1, 1, 1)


def build_stiff_operator(grid: Grid, p, n_mean, dt: float) -> StiffLinearOperator:
    """Tabulate the generator and its half-step exponential per distinct
    (|k|^2, |k_full|^2) pair and spread them over the half-spectrum.

    ``p`` and ``n_mean`` are one Params and one mean density, or a tuple of
    each for a batch (Params differing only in kappa); then ``gen`` and
    ``prop_half`` get a leading member axis, and each member is tabulated
    on its own."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    k = grid.half_wavenumbers
    k2 = (k**2).sum(axis=0)
    keys = np.stack([k2.ravel(), grid.k_squared[grid.half_cut].ravel()], axis=1)
    pairs, inverse = np.unique(keys, axis=0, return_inverse=True)
    if isinstance(p, tuple):
        _shared_params(p)
        tables = np.stack([_tables(pairs, q, m, dt) for q, m in zip(p, n_mean)], axis=1)
    else:
        tables = _tables(pairs, p, n_mean, dt)
    gen, prop = (table[..., inverse].reshape(table.shape[:-1] + k2.shape) for table in tables)
    return StiffLinearOperator(dt, grid.half_unit_wavenumbers, gen, prop)


def _tables(pairs: np.ndarray, p: Params, n_mean: float, dt: float) -> np.ndarray:
    """(gen, prop_half) rows in _TERMS order per (|k|^2, |k_full|^2) pair."""
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
    return np.stack([_pack(v_lon, v_tra, lon, hel),
                     _pack(np.exp(h * v_lon), np.exp(h * v_tra), ex[: len(pairs)], ex[len(pairs):])])


# ---------------------------------------------------------------------------
# steppers


def _check_step(t: float, **fields: np.ndarray) -> None:
    """Name the first non-finite field, else report a vacuum via min n.  On
    a batch the error's ``member`` is the first failing one along the axes
    before the grid's of n."""
    members = fields["n"].shape[:-3]
    for name, arr in fields.items():
        if not np.isfinite(arr).all():
            finite = np.isfinite(arr).reshape(members + (-1,)).all(axis=-1)
            raise BlowUpError(t, f"blow-up detected at t={t:g}: non-finite {name}",
                              member=int(np.argmin(finite)))
    _require_positive(fields["n"], f"at t={t:g}")


def _uJEB(x: np.ndarray) -> np.ndarray:
    """(..., 4, 3, *half) view of the (u, J, E, B) rows of a stacked full state."""
    return x[_ROWS[1, None]].reshape(x.shape[:-4] + (4, 3) + x.shape[-3:])


def _predictor_guard(x: np.ndarray, t: float) -> tuple:
    """``guard`` of the SSP-RK2 predictor-stage rate: only members of the
    stack x passed in with a positive density count; a vacuum passed in is
    reported after the step."""
    return f"in the SSP-RK2 predictor stage at t={t:g}", x[_ROWS[0]]


def step_full(
    grid: Grid,
    x: np.ndarray,
    p,
    sc: StepControl,
    op: StiffLinearOperator | None = None,
    forcing: Callable | None = None,
    t: float = 0.0,
) -> np.ndarray:
    """One Strang step of the scaled system; returns the stepped stack.

    ``x`` holds the physical rows (n, u, j~, E, B) of one state, (13,
    *shape), with ``p`` its Params; or of a batch, (K, 13, *shape), with a
    tuple of K Params that differ only in kappa.  Each member's result is
    bit for bit what it gets when stepped alone.  ``op`` must have been
    built for the same form.  ``x`` is not modified.

    The stack is transformed once on entry, with j~ scaled to J = kappa j~,
    and once on exit; in between, the stiff half-steps, the SSP-RK2 stages
    and the Leray projection work on the half-spectrum (n, u, J, E, B).
    ``forcing(t)`` may supply extra explicit rates of (n, u, J, E, B) as
    one stacked physical array, e.g. for manufactured-solution tests; a
    batch gets the same forcing per member.

    A density that turns non-positive in the SSP-RK2 predictor stage, or is
    not positive after the step, raises VacuumError, and a non-finite field
    after the step BlowUpError; both name the time and carry the index of
    the failing member (0 for a single state).  The first stage is not
    checked: the stiff half-step leaves n alone, so it sees the density
    passed in.  A failure returns nothing for the other members; the caller
    can drop the member from ``x`` and redo the step.
    """
    shared, kap = _shared_params(p)
    dt = sc.dt
    if op is None:
        op = build_stiff_operator(grid, p, x[_ROWS[0]].mean(axis=(-3, -2, -1)), dt)

    h = x.copy()
    h[_ROWS[4, 7]] *= kap
    h = array_rfft(grid, h)
    _uJEB(h)[:] = op.apply_half(_uJEB(h))

    def remainder(y, tt, guard=None):
        rate = _full_rate(grid, shared, y, kap, guard)
        vectors = _uJEB(rate)
        vectors -= op.linear_rate(_uJEB(y))
        if forcing is not None:
            rate += array_rfft(grid, forcing(tt))
        return rate

    k1 = remainder(h, t)
    k2 = remainder(h + dt * k1, t + dt, _predictor_guard(x, t + dt))
    h += 0.5 * dt * (k1 + k2)

    v = op.apply_half(_uJEB(h))
    v[..., 2:, :, :, :, :] = half_leray_project(grid, v[..., 2:, :, :, :, :])
    _uJEB(h)[:] = v
    y = array_irfft(grid, h)
    n, u, J, E, B = _split(y)
    if not (np.isfinite(y).all() and n.min() > 0.0):
        _check_step(t + dt, n=n, u=u, J=J, E=E, B=B)
    J /= kap
    return y


def step_limit(
    grid: Grid,
    x: np.ndarray,
    p,
    sc: StepControl,
    op: StiffLinearOperator | None = None,
    forcing: Callable | None = None,
    t: float = 0.0,
) -> np.ndarray:
    """One IMEX step of the limit system: exact viscous multiplier around
    an explicit SSP-RK2 stage for advection and pressure, on the stacked
    (n, u), (4, *shape) or (K, 4, *shape), as in ``step_full``, with the
    same batch form and the same failure reports."""
    shared = _shared_params(p)[0]
    dt = sc.dt
    if op is None:
        op = build_stiff_operator(grid, p, x[_ROWS[0]].mean(axis=(-3, -2, -1)), dt)

    h = array_rfft(grid, x)
    u = h[_ROWS[1, 4]]
    u[...] = op.apply_half_u(u)

    def remainder(y, tt, guard=None):
        rate = _limit_rate(grid, shared, y, guard)
        du = rate[_ROWS[1, 4]]
        du -= op.linear_rate_u(y[_ROWS[1, 4]])
        if forcing is not None:
            rate += array_rfft(grid, forcing(tt))
        return rate

    k1 = remainder(h, t)
    k2 = remainder(h + dt * k1, t + dt, _predictor_guard(x, t + dt))
    h += 0.5 * dt * (k1 + k2)

    u[...] = op.apply_half_u(u)
    y = array_irfft(grid, h)
    n, u = _split(y)
    if not (np.isfinite(y).all() and n.min() > 0.0):
        _check_step(t + dt, n=n, u=u)
    return y


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

    The state is stacked once; states viewing the stack are built only for
    the observer and the result.  A fixed_dt run builds the stiff operator
    once and steps at t = i*dt; an adaptive run takes each dt from the CFL
    and sound-speed cap of StepControl and rebuilds the operator for it.
    observer(step_index, t, state) runs at t = 0 and every ``stride``
    steps; ``forcing`` is passed to every step.  A blow-up or vacuum ends
    the march with that status.  Returns (final_state, StepLog)."""
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    stepper = step_full if isinstance(state, FullState) else step_limit
    fixed = sc.mode == "fixed_dt"
    n_steps = _n_fixed_steps(sc) if fixed else 0
    grid = state.grid
    x = _stacked(state)
    log = StepLog()
    start = _time.perf_counter()
    if observer is not None:
        observer(0, 0.0, state)

    t, step, op = 0.0, sc, None
    try:
        while (log.n_steps < n_steps) if fixed else (t < sc.t_end - 1e-12 * sc.t_end):
            if not fixed:
                n_, u_ = x[_ROWS[0]], x[_ROWS[1, 4]]
                c = np.sqrt((u_**2).sum(axis=0)) + np.sqrt(p.eta * p.pressure.dpressure(n_) / p.tau)
                step = replace(sc, dt=min(sc.dt, sc.cfl * grid.spacing / max(1.0, c.max()), sc.t_end - t))
                op = None
            if op is None:
                op = build_stiff_operator(grid, p, float(x[_ROWS[0]].mean()), step.dt)
            x = stepper(grid, x, p, step, op=op, forcing=forcing, t=t)
            log.n_steps += 1
            t = log.n_steps * sc.dt if fixed else t + step.dt
            if observer is not None and log.n_steps % stride == 0:
                observer(log.n_steps, t, _state_view(grid, x))
    except (BlowUpError, VacuumError) as exc:
        log.status = "blowup" if isinstance(exc, BlowUpError) else "vacuum"
        log.message = str(exc)
    log.wall_seconds = _time.perf_counter() - start
    return (_state_view(grid, x) if log.n_steps else state), log
