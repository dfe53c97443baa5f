"""Time integration: exact per-mode stiff propagation + explicit SSP-RK2.

The scaled system has two stiff mechanisms: the 1/kappa Maxwell rotation
and the 1/(tau*eps) current-field coupling.  Both are linear once the
density in the coupling terms is frozen at its spatial mean, so each
Fourier mode carries a constant generator L.  L splits into a longitudinal
and two helical transverse parts whose 3x3 exponentials depend only on the
pair (|k|^2, |k_full|^2): they are tabulated once per distinct pair and
applied on the real-FFT half-spectrum.  The longitudinal exponential is
closed form and the helical one a vectorised scaling-and-squaring Pade
approximant (``_expm3``), both element-wise numpy work with no BLAS call.
A step is the Strang composition

    exp(dt/2 L)  o  SSP-RK2 on (full RHS - L)  o  exp(dt/2 L)

which is second order, unconditionally stable in kappa, and reduces to
plain SSP-RK2 when L = 0.  E and B are Leray-projected after every step.
The remainder N - L is formed directly by the rates, so L is never applied
and the 1/kappa curl terms, which N and L share, are never formed.

The steppers take and return one stacked physical array: the rows
(n, u, j~, E, B), (13, *shape), or (n, u), (4, *shape), for the limit
system.  A step scales j~ to J = kappa j~ and transforms once on entry, and
transforms back and divides J by kappa once on exit; the half-steps, the
SSP-RK2 updates and the Leray projection are element-wise work on the
half-spectrum in between, and each rate evaluation leaves Fourier space
only to form its pointwise products (``model._full_rate``).  States are
built only where fields are read (``evolve``'s observer and result).

A batch is one more leading axis, (K, 13, *shape), with a tuple of Params
that differ only in kappa: kappa becomes a (K, 1, 1, 1, 1) column and the
operator tables get a leading member axis.  Every operation acts on each
member alone and the transforms give the same bits with or without the
member axis, so a member's result does not depend on the batch it ran in.

The limit system steps through the same body (``_strang_step``) with u's
viscous block alone (``StiffLinearOperator.viscous``).

The 1-D steps are bound by numpy call overhead, so the propagator applies
its per-mode coefficients in seven grouped multiplies (``_GROUPS``), and the
closing SSP-RK2 update and the projection write in place; each element
keeps the floating-point operations, in the same order, of the
term-by-term form.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import BlowUpError, ConfigError, VacuumError
from .model import (
    FullState,
    LimitState,
    Params,
    _ROWS,
    _cross,
    _fields,
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
    """Fixed step size and horizon; t_end must be a whole number
    ``n_steps`` of steps, checked here, so a config with a bad horizon fails
    when it is parsed.  The stiff propagator being exact, dt is never
    constrained by 1/kappa."""

    dt: float
    t_end: float

    def __post_init__(self):
        for key, value in (("dt", self.dt), ("t_end", self.t_end)):
            if not math.isfinite(value):
                raise ConfigError(f"step.{key} must be finite, got {value!r}")
        if not self.dt > 0:
            raise ConfigError(f"step.dt must be positive, got {self.dt!r}")
        if not self.t_end >= 0:
            raise ConfigError(f"step.t_end must be nonnegative, got {self.t_end!r}")
        n = self.n_steps
        if self.t_end > 0 and (n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * max(self.dt, self.t_end)):
            raise ConfigError(f"step.t_end = {self.t_end!r} must be an integer multiple of step.dt = {self.dt!r}")

    @property
    def n_steps(self) -> int:
        """The number of steps from 0 to t_end."""
        return round(self.t_end / self.dt)


# One coefficient per (part, out field, in field) over the stacked (u, J, E, B):
# part "x" multiplies the field, "s" adds khat (khat . field) and "rot" is
# -i khat x field.  So "x" carries the transverse entries, "s" longitudinal
# minus transverse; the first two are u's, the only ones of the limit
# system's ``viscous`` operator.  The order lets ``apply_half`` apply the
# terms in groups, one multiply each (``_GROUPS``).
_TERMS = (
    ("x", 0, 0), ("s", 0, 0), ("x", 1, 1), ("s", 1, 1),
    ("x", 2, 2), ("s", 2, 2), ("x", 3, 3), ("s", 3, 3),
    ("x", 1, 2), ("x", 2, 1), ("s", 1, 2), ("s", 2, 1),
    ("rot", 1, 3), ("rot", 2, 3), ("rot", 3, 1), ("rot", 3, 2),
)
# The _TERMS rows of each group: the "x" diagonal, on all four fields; the
# J <-> E "x" entries, against the fields (E, J); the same two for "s"; the
# rotations of B into J and E; then of J and of E into B, one at a time.
_GROUPS = (slice(0, 8, 2), slice(8, 10), slice(1, 8, 2), slice(10, 12),
           slice(12, 14), slice(14, 15), slice(15, 16))


# fields of (u, J, E, B): J to B, J and E, E then J (a view), B, and E and B
_JEB, _JE, _EJ = _fields(slice(1, 4)), _fields(slice(1, 3)), _fields(slice(2, 0, -1))
_B, _EB = _fields(slice(3, 4)), _fields(slice(2, 4))
# each field of the rotations (rot J, rot E, rot B)
_ROT_J, _ROT_E, _ROT_B = (_fields(slice(i, i + 1)) for i in range(3))


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
    identity with exp(h Long) and exp(h M) gives the exact propagator
    (``_exp_blocks``).  The k = 0 and pure-Nyquist modes have khat = 0 and
    omega = 0.

    ``prop_half`` holds one real coefficient per _TERMS entry (u's two alone
    for the limit system's ``viscous`` operator) and half-spectrum mode,
    after a leading member axis for a batch, in C order.  _TERMS interleaves
    the "x" and "s" diagonals, so each group ``apply_half`` multiplies at
    once (_GROUPS: the four "x" diagonals, the two J <-> E "x" entries, the
    same for "s", the two rotations of B, and one rotation each of J and of
    E) is a view of ``prop_half``.  L is not tabulated: the rates take
    ``n_mean`` (None for L = 0) and form N(y) - L y directly.
    """

    def __init__(self, dt: float, khat: np.ndarray, prop_half: np.ndarray, n_mean=None):
        self.dt = dt
        self.khat = khat            # (3, *half)
        self.prop_half = prop_half  # (len(_TERMS) or 2, *half)
        # the frozen mean density: a float, or a (K, 1, 1, 1, 1) column for a batch
        self.n_mean = np.reshape(n_mean, (-1, 1, 1, 1, 1)) if np.ndim(n_mean) else n_mean

    @classmethod
    def zero(cls, grid: Grid, dt: float) -> "StiffLinearOperator":
        """L = 0: the identity propagator, so steps are plain SSP-RK2."""
        k = grid.half_wavenumbers
        prop = np.zeros((len(_TERMS),) + k.shape[1:])
        prop[[n for n, (part, i, j) in enumerate(_TERMS) if part == "x" and i == j]] = 1.0
        return cls(dt, np.zeros_like(k), prop)

    @classmethod
    def viscous(cls, grid: Grid, p, n_mean, dt: float) -> "StiffLinearOperator":
        """The limit system's operator: u's two viscous rows alone,
        e^{h v_T} and e^{h v_L} - e^{h v_T} with h = dt/2, per half-spectrum
        mode; ``p`` and ``n_mean`` as for ``build_stiff_operator``."""
        if not dt > 0:
            raise ConfigError("dt must be positive")
        p, m = _shared_params(p)[0], np.reshape(n_mean, np.shape(n_mean) + (1, 1, 1))
        v_tra = -p.mu * grid.half_k_squared / m
        v_lon = v_tra - (p.mu + p.lam) * (grid.half_wavenumbers**2).sum(axis=0) / m
        e_tra = np.exp(0.5 * dt * v_tra)
        prop = np.stack([e_tra, np.exp(0.5 * dt * v_lon) - e_tra], axis=-4)
        return cls(dt, grid.half_unit_wavenumbers, prop, n_mean)

    @cached_property
    def _groups(self) -> tuple:
        """Views of ``prop_half`` per _GROUPS entry, (..., rows, 1, *half)."""
        return tuple(np.expand_dims(self.prop_half[..., g, :, :, :], -4) for g in _GROUPS)

    def apply_half(self, x):
        """One half-step exact propagation of the half-spectrum (u, J, E, B),
        stacked as (4, 3, *half), or (K, 4, 3, *half) for a batch: the
        per-mode sum over _TERMS, one multiply per group of _GROUPS, with
        "rot" formed for J, E and B alone, the only fields it acts on.

        Every product is the one of the term-by-term sum, and each field
        adds its products in that sum's order, except that E's two "x"
        products are added the other way round (a sum of two doubles does
        not depend on their order) and no field starts from a zero (x + 0.0
        is x for every double but -0.0).  So the result has the bits of the
        term-by-term sum, up to the sign of an exact zero."""
        kh = self.khat
        diag, off, s_diag, s_off, rot_b, rot_j, rot_e = self._groups
        s = (kh * x).sum(axis=-4, keepdims=True)
        rot = _cross(kh, x[_JEB])  # rot J, rot E, rot B
        rot *= -1j
        out = diag * x
        out_je, out_b = out[_JE], out[_B]
        out_je += off * x[_EJ]
        lon = s_diag * s
        lon_je = lon[_JE]
        lon_je += s_off * s[_EJ]
        out_je += rot_b * rot[_ROT_B]
        out_b += rot_j * rot[_ROT_J]
        out_b += rot_e * rot[_ROT_E]
        out += kh * lon
        return out

    def apply_half_u(self, u):
        """Half-step viscous propagation of the half-spectrum u alone (the
        limit system)."""
        kh, coef = self.khat, self.prop_half
        c0, c1 = coef[_ROWS[0, 1]], coef[_ROWS[1, 2]]
        return c0 * u + kh * (c1 * (kh * u).sum(axis=-4, keepdims=True))


def _shared_params(p):
    """The Params a batch shares, and its kappa: ``p.kappa`` for one Params,
    a read-only (K, 1, 1, 1, 1) column for a tuple of Params that differ
    only in kappa."""
    if isinstance(p, Params):
        return p, p.kappa
    return _batch_params(p)


@lru_cache(maxsize=16)
def _batch_params(p: tuple):
    """``_shared_params`` of a tuple, checked and built once per tuple: a
    batch steps with the same tuple every step."""
    first = vars(p[0]) | {"kappa": None}
    if any(vars(q) | {"kappa": None} != first for q in p[1:]):
        raise ConfigError("the Params of a batch must differ only in kappa")
    kap = np.array([q.kappa for q in p]).reshape(-1, 1, 1, 1, 1)
    kap.flags.writeable = False
    return p[0], kap


def build_stiff_operator(grid: Grid, p, n_mean, dt: float) -> StiffLinearOperator:
    """Tabulate the half-step exponential per distinct (|k|^2, |k_full|^2)
    pair and spread it over the half-spectrum.  The pairs are told apart by
    one complex key, |k|^2 + i |k_full|^2.

    ``p`` and ``n_mean`` are one Params and one mean density, or a tuple of
    each for a batch (Params differing only in kappa); then ``prop_half``
    gets a leading member axis, and each member is tabulated on its own."""
    if not dt > 0:
        raise ConfigError("dt must be positive")
    k = grid.half_wavenumbers
    k2 = (k**2).sum(axis=0)
    pairs, inverse = np.unique(k2.ravel() + 1j * grid.half_k_squared.ravel(),
                               return_inverse=True)
    pairs = np.stack([pairs.real, pairs.imag], axis=1)
    if isinstance(p, tuple):
        _shared_params(p)
        table = np.stack([_table(pairs, q, m, dt) for q, m in zip(p, n_mean)])
    else:
        table = _table(pairs, p, n_mean, dt)
    # C order: the gather alone leaves the term axis innermost
    prop = np.ascontiguousarray(table[..., inverse]).reshape(table.shape[:-1] + k2.shape)
    return StiffLinearOperator(dt, grid.half_unit_wavenumbers, prop, n_mean)


def _table(pairs: np.ndarray, p: Params, n_mean: float, dt: float) -> np.ndarray:
    """prop_half rows in _TERMS order per (|k|^2, |k_full|^2) pair."""
    h = 0.5 * dt
    ex_lon, ex_hel = _exp_blocks(pairs, p, n_mean, h)
    e_tra = np.exp(h * (-p.mu * pairs[:, 1] / n_mean))
    rows = []
    for part, i, j in _TERMS:
        if i == 0:  # u's two: e^{h v_T} and e^{h v_L} - e^{h v_T}
            rows.append(e_tra if part == "x" else ex_lon[0, 0] - e_tra)
        else:
            entry = ex_hel[i - 1, j - 1]
            rows.append(ex_lon[i - 1, j - 1] - entry if part == "s" else entry)
    return np.stack(rows)


def _exp_blocks(pairs: np.ndarray, p: Params, n_mean: float, h: float):
    """exp(h Long) and exp(h M), each (3, 3, pairs), per (|k|^2, |k_full|^2)
    pair.  Long has zero E and B rows, so its exponential is closed form:
    e^x and a h (e^x - 1)/x in the J row, with x = h v_L and the limit a h
    at x = 0.  M's goes through ``_expm3``."""
    # as the physical-space viscous operator: full |k|^2 Laplacian,
    # derivative wavenumbers in grad div
    v_tra = -p.mu * pairs[:, 1] / n_mean
    v_lon = v_tra - (p.mu + p.lam) * pairs[:, 0] / n_mean
    omega = np.sqrt(pairs[:, 0]) / p.kappa
    a = (1.0 + p.epsilon) / (p.tau * p.epsilon) * n_mean
    x = h * v_lon
    phi = np.ones_like(x)  # (e^x - 1)/x
    phi[x != 0.0] = np.expm1(x[x != 0.0]) / x[x != 0.0]
    ex_lon = np.zeros((3, 3, len(pairs)))
    ex_lon[0, 0], ex_lon[0, 1] = np.exp(x), a * h * phi
    ex_lon[1, 1] = ex_lon[2, 2] = 1.0
    hel = np.zeros((3, 3, len(pairs)))
    hel[0, 0], hel[0, 1], hel[1, 0] = h * v_tra, h * a, -h * n_mean
    hel[1, 2], hel[2, 1] = -h * omega, h * omega
    return ex_lon, _expm3(hel)


# The [13/13] Pade coefficients b_0..b_13 (numerator sum b_j A^j, denominator
# sum b_j (-A)^j) and the 1-norm up to which the approximant is accurate to
# double precision without scaling (Higham, SIAM J. Matrix Anal. Appl. 26,
# 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _mul3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of stacked 3x3 matrices, (3, 3, P), element-wise (no BLAS)."""
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1] + a[:, 2, None] * b[2]


def _expm3(a: np.ndarray) -> np.ndarray:
    """exp of each real 3x3 matrix a[:, :, i] by scaling and squaring with
    the [13/13] Pade approximant, the squaring count chosen per matrix
    from its 1-norm; the Pade quotient is solved by the adjugate."""
    norm = np.abs(a).sum(axis=0).max(axis=0)
    s = np.maximum(0, np.ceil(np.log2(np.maximum(norm, 1e-300) / _THETA13))).astype(int)
    a = a * np.ldexp(1.0, -s)
    eye = np.zeros_like(a)
    eye[0, 0] = eye[1, 1] = eye[2, 2] = 1.0
    a2 = _mul3(a, a)
    a4 = _mul3(a2, a2)
    a6 = _mul3(a2, a4)
    b = _PADE13
    u = _mul3(a, _mul3(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
              + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = _mul3(a6, b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    q, r = v - u, v + u
    # adj(q)[i, j] is the (j, i) cofactor; q^-1 = adj(q) / det(q)
    adj = np.empty_like(q)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[j, i] = q[i1, j1] * q[i2, j2] - q[i1, j2] * q[i2, j1]
    det = q[0, 0] * adj[0, 0] + q[0, 1] * adj[1, 0] + q[0, 2] * adj[2, 0]
    ex = _mul3(adj, r) / det
    for n in range(s.max(initial=0)):
        sel = s > n
        ex[:, :, sel] = _mul3(ex[:, :, sel], ex[:, :, sel])
    return ex


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


def _require_step_dt(op: StiffLinearOperator, sc: StepControl) -> None:
    """ConfigError for an operator built for another dt than the step's: its
    half-steps would not match the SSP-RK2 stage."""
    if op.dt != sc.dt:
        raise ConfigError(f"the operator was built for dt={op.dt!r}, the step has dt={sc.dt!r}")


def _uJEB(x: np.ndarray) -> np.ndarray:
    """(..., 4, 3, *half) view of the (u, J, E, B) rows of a stacked full state."""
    return x[_ROWS[1, None]].reshape(x.shape[:-4] + (4, 3) + x.shape[-3:])


def _strang_step(grid: Grid, x: np.ndarray, h: np.ndarray, dt: float, t: float,
                 rate: Callable, forcing: Callable | None, rows: Callable,
                 half_step: Callable, project: bool = False) -> np.ndarray:
    """The Strang/SSP-RK2 body shared by ``step_full`` and ``step_limit``.

    ``x`` is the physical stack passed to the stepper and ``h`` its
    half-spectrum, with J = kappa j~ for the scaled system; h is stepped in
    place.  ``rate(y, guard)`` is the remainder of the half-spectrum stack
    y, ``rows(h)`` the view of the stiff rows of h and ``half_step`` the
    operator's propagator for them; ``project`` Leray projects the last two
    of those rows (E and B) after the second half-step.  The
    predictor-stage rate is guarded with the density of x: only members
    passed in with a positive density count there, and a vacuum passed in
    is reported after the step.  Returns the stepped physical stack, J
    still kappa j~."""
    rows(h)[:] = half_step(rows(h))

    def remainder(y, tt, guard=None):
        out = rate(y, guard)
        if forcing is not None:
            out += array_rfft(grid, forcing(tt))
        return out

    k1 = remainder(h, t)
    k2 = remainder(h + dt * k1, t + dt, (f"in the SSP-RK2 predictor stage at t={t + dt:g}", x[_ROWS[0]]))
    k1 += k2  # h + dt/2 (k1 + k2), with k1 as its buffer
    h += np.multiply(0.5 * dt, k1, out=k1)

    v = half_step(rows(h))
    if project:
        half_leray_project(grid, v[_EB], out=v[_EB])
    rows(h)[:] = v
    y = array_irfft(grid, h)
    if not (np.isfinite(y).all() and y[_ROWS[0]].min() > 0.0):
        _check_step(t + dt, **dict(zip(("n", "u", "J", "E", "B"), _split(y))))
    return y


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
    built for the same form and for ``sc.dt`` (ConfigError otherwise).
    ``x`` is not modified.

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
    if op is None:
        op = build_stiff_operator(grid, p, x[_ROWS[0]].mean(axis=(-3, -2, -1)), sc.dt)
    _require_step_dt(op, sc)
    h = x.copy()
    h[_ROWS[4, 7]] *= kap
    h = array_rfft(grid, h)
    y = _strang_step(grid, x, h, sc.dt, t,
                     lambda y, guard: _full_rate(grid, shared, y, kap, guard, op.n_mean),
                     forcing, _uJEB, op.apply_half, project=True)
    y[_ROWS[4, 7]] /= kap
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
    if op is None:
        op = StiffLinearOperator.viscous(grid, p, x[_ROWS[0]].mean(axis=(-3, -2, -1)), sc.dt)
    _require_step_dt(op, sc)
    return _strang_step(grid, x, array_rfft(grid, x), sc.dt, t,
                        lambda y, guard: _limit_rate(grid, shared, y, guard, op.n_mean),
                        forcing, lambda h: h[_ROWS[1, 4]], op.apply_half_u)


# ---------------------------------------------------------------------------
# driver


@dataclass
class StepLog:
    """What happened during an evolve call."""

    status: str = "completed"
    message: str = ""
    n_steps: int = 0
    wall_seconds: float = 0.0


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
    the observer and the result.  The stiff operator is built once, at the
    initial mean density, and the march makes ``sc.n_steps`` steps at
    t = i*dt (``StepControl`` has checked that they end at t_end).
    observer(step_index, t, state) runs at t = 0 and every ``stride``
    steps; ``forcing`` is passed to every step.  A blow-up or vacuum ends
    the march with that status.  Returns (final_state, StepLog)."""
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    full = isinstance(state, FullState)
    stepper = step_full if full else step_limit
    n_steps = sc.n_steps
    grid = state.grid
    x = _stacked(state)
    log = StepLog()
    start = _time.perf_counter()
    if observer is not None:
        observer(0, 0.0, state)

    build = build_stiff_operator if full else StiffLinearOperator.viscous
    op = build(grid, p, float(x[_ROWS[0]].mean()), sc.dt)
    try:
        while log.n_steps < n_steps:
            x = stepper(grid, x, p, sc, op=op, forcing=forcing, t=log.n_steps * sc.dt)
            log.n_steps += 1
            if observer is not None and log.n_steps % stride == 0:
                observer(log.n_steps, log.n_steps * sc.dt, _state_view(grid, x))
    except (BlowUpError, VacuumError) as exc:
        log.status = "blowup" if isinstance(exc, BlowUpError) else "vacuum"
        log.message = str(exc)
    log.wall_seconds = _time.perf_counter() - start
    return (_state_view(grid, x) if log.n_steps else state), log
