"""Time integration: exact per-mode stiff propagation + explicit SSP-RK2.

The scaled system has two stiff mechanisms: the 1/kappa Maxwell rotation
and the 1/(tau*eps) current-field coupling.  Both are linear once the
density in the coupling terms is frozen at its spatial mean, so each
Fourier mode carries a constant generator L.  L splits into a longitudinal
and two helical transverse parts whose 3x3 exponentials depend only on
|k|^2: they are tabulated once per distinct |k|^2 and applied on the
2/3-rule box (``spectral``, "Conventions"), the stepper's one spectral
layout.  The longitudinal exponential is closed form and the helical one a
vectorised scaling-and-squaring Pade approximant (``_expm3``), both
element-wise numpy work with no BLAS call.
A step is the Strang composition

    exp(dt/2 L)  o  SSP-RK2 on (full RHS - L)  o  exp(dt/2 L)

which is second order, unconditionally stable in kappa, and reduces to
plain SSP-RK2 when L = 0.  E and B are Leray-projected after every step.
The remainder N - L is formed directly by the rates, so L is never applied
and the 1/kappa curl terms, which N and L share, are never formed.  In a
sequence of such steps the closing half-flow of one step and the opening
half-flow of the next compose into one full flow exp(dt L) (Strang, SIAM
J. Numer. Anal. 5, 1968; Hairer, Lubich & Wanner, *Geometric Numerical
Integration*, 2006), so between two recorded steps the set stays on the
box and gets exp(dt L) once per step; only a recorded step closes with
exp(dt/2 L) and returns to the grid.  The operator tabulates both
exponentials.  ``march`` is the one loop of such steps: ``evolve`` marches
a lone state through it, and ``harness.run_single`` a run's member set.

``step_full`` steps a member set (``model``, "member sets"): the states
stepped together, in field-major rows.  A lone state is its own stack,
(n, u, j~, E, B), (13, *shape), or (n, u), (4, *shape), for the limit
system; a run steps the limit and the scaled system at each kappa as one
set, the limit first.  The set's operator
(``build_stiff_operator``) describes it whole: the grid, dt, the row
layout and the rate coefficients, so a step takes the stack, the operator
and the time alone.  The limit is the scaled system on J = E = B = 0: its
operator is u's viscous block alone, and the rates skip the terms that
vanish there.  A step from the physical stack scales j~ to J = kappa j~ and
transforms once on entry; a recorded step transforms back and divides J by
kappa once on exit.  A step that is not recorded returns a ``HalfStack``,
the set on the box and its densities on the grid (the one small transform
it makes on exit, for its positivity check and the next step's predictor
check), which the next step takes in place of the physical stack.  The
half-steps, the SSP-RK2 updates and the Leray projection are element-wise
work on the box, and each rate evaluation leaves Fourier space only to form
its pointwise products (``model._full_rate``).  A state on the box stays
there: every rate is formed on it, and the propagator acts mode by mode.
So the step stores, propagates and transforms the box modes alone, 28% of
the half-spectrum on 32^3; content of a state above the 2/3 cutoff is
dropped by the step's first transform.  States are built only where fields
are read (``evolve``'s observer and result).

The members of a set share their Params but for kappa, so
``build_stiff_operator`` takes the shared Params and one kappa and one mean
density per member with a current, ``kappas`` and ``means``; the operator
tables and the rate coefficients hold one row or column entry per member,
for a lone state as for many.  Every operation acts on each member alone
and the transforms give the same bits whatever rows they transform
together, so a member's result does not depend on the set it ran in.

The 1-D steps are bound by numpy call overhead, so the propagator applies
its per-mode coefficients in seven grouped multiplies (``_GROUPS``), and the
closing SSP-RK2 update and the projection write in place; each element
keeps the floating-point operations, in the same order, of the
term-by-term form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import BlowUpError, ConfigError, VacuumError
from .model import (
    FullState,
    LimitState,
    Params,
    _Layout,
    _cross,
    _drop,
    _full_rate,
    _layout,
    _rate_coefficients,
    _require_positive,
    _stacked,
    _state_view,
)
from .spectral import Grid, box_irfft, box_rfft, leray_project

__all__ = [
    "StepControl",
    "StiffLinearOperator",
    "build_stiff_operator",
    "step_full",
    "HalfStack",
    "march",
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
        if not math.isfinite(self.t_end / self.dt):
            raise ConfigError(f"step.dt = {self.dt!r} is too small: step.t_end / step.dt "
                              f"overflows for step.t_end = {self.t_end!r}")
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
# minus transverse; the two of u are the limit system's only ones.  The
# terms come in the groups ``apply_half`` multiplies at once (``_GROUPS``):
# the "x" diagonal, on all four fields; the J <-> E "x" entries, against the
# fields (E, J); the same two for "s"; the rotations of B into J and E; then
# of J and of E into B, one at a time.
_TERMS = (
    ("x", 0, 0), ("x", 1, 1), ("x", 2, 2), ("x", 3, 3), ("x", 1, 2), ("x", 2, 1),
    ("s", 0, 0), ("s", 1, 1), ("s", 2, 2), ("s", 3, 3), ("s", 1, 2), ("s", 2, 1),
    ("rot", 1, 3), ("rot", 2, 3), ("rot", 3, 1), ("rot", 3, 2),
)
_GROUPS = ((0, 4), (4, 6), (6, 10), (10, 12), (12, 14), (14, 15), (15, 16))


class StiffLinearOperator:
    """Per-mode stiff generator L of a member set and its half-step and
    full-step exponentials, in closed form.

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
    (``_exp_blocks``).  The k = 0 mode has khat = 0 and omega = 0.  On the
    2/3-rule box no mode is a Nyquist mode, so |k_full| = |k| and L depends
    on |k|^2 alone.  The limit system's L is u's viscous block alone.

    ``prop_half`` holds, term by term in _TERMS order, one row of real box
    coefficients per member the term acts on: u's terms on every member of
    the set (``layout``), the others on the members with a current; so each
    group ``apply_half`` multiplies at once is a view of it.  ``prop_full``
    holds exp(dt L) in the same rows, for ``apply_full``.  L is not tabulated: the rates take the frozen mean
    densities in ``coef`` (``model._rate_coefficients``) and form
    N(y) - L y directly.
    The operator keeps the grid and dt it was built for, so it is all a
    step needs beside the stack (``step_full``).
    """

    def __init__(self, grid: Grid, dt: float, prop_half: np.ndarray, prop_full: np.ndarray,
                 layout: _Layout, coef):
        self.grid = grid
        self.dt = dt
        self.khat = grid.box.khat  # (3, *box)
        self.prop_half = prop_half  # (rows, *box)
        self.prop_full = prop_full  # (rows, *box)
        self.layout = layout
        self.coef = coef

    @cached_property
    def _groups(self) -> tuple:
        """Views of ``prop_half`` and of ``prop_full`` per _GROUPS entry,
        with a member axis for the J <-> E and rotation groups and a
        component axis of 1."""
        m, k = self.layout.members, self.layout.currents
        ends = np.cumsum([m if i == 0 else k for _, i, _ in _TERMS])
        starts = np.concatenate([[0], ends[:-1]])
        tail = (1,) + self.prop_half.shape[1:]
        shapes = ((-1,), (2, k), (-1,), (2, k), (2, k), (k,), (k,))
        return tuple(tuple(table[starts[a]:ends[b - 1]].reshape(shape + tail)
                           for (a, b), shape in zip(_GROUPS, shapes))
                     for table in (self.prop_half, self.prop_full))

    def apply_half(self, x):
        """One half-step exact propagation, exp(dt/2 L), of the box stiff
        rows of a member set, (M + 3K, 3, *box): u of every member, then J,
        E and B of the members with a current; (4, 3, *box) for one state.
        The per-mode sum over _TERMS is one multiply per group of _GROUPS,
        with "rot" formed for J, E and B alone, the only fields it acts on.

        Every product is the one of the term-by-term sum, and each field
        adds its products in that sum's order, except that E's two "x"
        products are added the other way round (a sum of two doubles does
        not depend on their order) and no field starts from a zero (x + 0.0
        is x for every double but -0.0).  So the result has the bits of the
        term-by-term sum, up to the sign of an exact zero."""
        return self._propagate(x, self._groups[0])

    def apply_full(self, x):
        """One full-step exact propagation, exp(dt L), as ``apply_half``
        with the ``prop_full`` coefficients: the closing half-step of one
        Strang step and the opening one of the next in one."""
        return self._propagate(x, self._groups[1])

    def _propagate(self, x, groups):
        kh = self.khat
        diag, off, s_diag, s_off, rot_b, rot_j, rot_e = groups
        m, k = self.layout.members, self.layout.currents
        s = np.add.reduce(kh * x, axis=-4, keepdims=True)
        out = diag * x
        lon = s_diag * s
        if k:
            # (J, E, B) of the members with a current, (3, K, 3, *box)
            jeb_shape = self.layout.shapes(x.shape[2:]).jeb
            jeb = x[m:].reshape(jeb_shape)
            rot = _cross(kh, jeb)  # rot J, rot E, rot B
            rot *= -1j
            out_jeb = out[m:].reshape(jeb_shape)
            out_je, out_b = out_jeb[:2], out_jeb[2]
            out_je += off * jeb[1::-1]
            lon_shape = jeb_shape[:2] + (1,) + jeb_shape[3:]
            lon_je = lon[m:].reshape(lon_shape)[:2]
            lon_je += s_off * s[m:].reshape(lon_shape)[1::-1]
            out_je += rot_b * rot[2]
            out_b += rot_j * rot[0]
            out_b += rot_e * rot[1]
        out += kh * lon
        return out


def build_stiff_operator(grid: Grid, p: Params, dt: float, kappas=(), means=(),
                         limit_mean=None) -> StiffLinearOperator:
    """Tabulate the half-step and the full-step exponential of a member set
    per distinct |k|^2 of the 2/3-rule box, in one pass with the step
    length as an axis of two, and spread both over the box in one gather.

    ``p`` holds the constants the members share; its own kappa is not read.
    ``kappas`` and ``means`` hold one kappa and one mean density per member
    with a current, each tabulated on its own (ValueError if their lengths
    differ).  ``limit_mean``, when given, adds the limit system as the
    set's first member, at that mean density.  The operator also forms the
    set's rate coefficients (``model._rate_coefficients``) and keeps
    ``grid`` and ``dt``: it is what ``step_full`` takes of the set beside
    its stack."""
    if not dt > 0:
        raise ConfigError("dt must be positive")
    members = tuple(zip(kappas, means, strict=True))
    limit = () if limit_mean is None else (limit_mean,)
    k2 = grid.box.k2
    keys, inverse = np.unique(k2.ravel(), return_inverse=True)
    h = np.array([[0.5 * dt], [dt]])  # (steps, 1): the half step and the full step
    limit_rows = [_u_rows(keys, p, m, h) for m in limit]
    tables = [_table(keys, p, kap, m, h) for kap, m in members]
    table = np.stack([row for t, (part, i, _) in enumerate(_TERMS)
                      for row in [u[part] for u in limit_rows if i == 0] + [tb[t] for tb in tables]], axis=1)
    # C order: the gather alone leaves the row axis innermost
    prop = np.ascontiguousarray(table[:, :, inverse]).reshape(table.shape[:2] + k2.shape)
    layout = _layout(4 * len(limit) + 13 * len(members))
    coef = _rate_coefficients(grid, p, kappas, limit + tuple(means), len(limit))
    return StiffLinearOperator(grid, dt, prop[0], prop[1], layout, coef)


def _u_rows(k2: np.ndarray, p: Params, n_mean: float, h: np.ndarray) -> dict:
    """u's two propagator rows per step length h, a (steps, 1) column, and
    distinct |k|^2 k2, by part: e^{h v_T} and e^{h v_L} - e^{h v_T}."""
    v_tra = -p.mu * k2 / n_mean
    v_lon = v_tra - (p.mu + p.lam) * k2 / n_mean
    e_tra = np.exp(h * v_tra)
    return {"x": e_tra, "s": np.exp(h * v_lon) - e_tra}


def _table(k2: np.ndarray, p: Params, kappa: float, n_mean: float, h: np.ndarray) -> np.ndarray:
    """Propagator rows in _TERMS order of the member at ``kappa`` per step
    length h, a (steps, 1) column, and distinct |k|^2 k2, (terms, steps,
    modes)."""
    u = _u_rows(k2, p, n_mean, h)
    ex_lon, ex_hel = _exp_blocks(k2, p, kappa, n_mean, h)
    rows = []
    for part, i, j in _TERMS:
        if i == 0:
            rows.append(u[part])
        else:
            entry = ex_hel[i - 1, j - 1]
            rows.append(ex_lon[i - 1, j - 1] - entry if part == "s" else entry)
    return np.stack(rows)


def _exp_blocks(k2: np.ndarray, p: Params, kappa: float, n_mean: float, h):
    """exp(h Long) and exp(h M) at ``kappa``, each (3, 3, *x.shape), per step
    length h and |k|^2 of k2, with x = h v_L: (3, 3, modes) for a float h,
    (3, 3, steps, modes) for a (steps, 1) column.  Long has zero E and B
    rows, so its exponential is closed form: e^x and a h (e^x - 1)/x in the
    J row, and the limit a h at x = 0.  M's goes through ``_expm3``."""
    v_tra = -p.mu * k2 / n_mean
    v_lon = v_tra - (p.mu + p.lam) * k2 / n_mean
    omega = np.sqrt(k2) / kappa
    a = (1.0 + p.epsilon) / (p.tau * p.epsilon) * n_mean
    x = h * v_lon
    phi = np.ones_like(x)  # (e^x - 1)/x
    phi[x != 0.0] = np.expm1(x[x != 0.0]) / x[x != 0.0]
    ex_lon = np.zeros((3, 3) + x.shape)
    ex_lon[0, 0], ex_lon[0, 1] = np.exp(x), a * h * phi
    ex_lon[1, 1] = ex_lon[2, 2] = 1.0
    hel = np.zeros((3, 3) + x.shape)
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
    """Products of stacked 3x3 matrices, (3, 3, *P), element-wise (no BLAS)."""
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1] + a[:, 2, None] * b[2]


def _expm3(a: np.ndarray) -> np.ndarray:
    """exp of each real 3x3 matrix a[:, :, *i] by scaling and squaring with
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
    several states the error's ``member`` is the first failing one along
    the axes before the grid's of n."""
    members = fields["n"].shape[:-3]
    for name, arr in fields.items():
        if not np.isfinite(arr).all():
            finite = np.isfinite(arr).reshape(members + (-1,)).all(axis=-1)
            raise BlowUpError(t, f"blow-up detected at t={t:g}: non-finite {name}",
                              member=int(np.argmin(finite)))
    _require_positive(fields["n"], f"at t={t:g}", time=t)


def _report_failure(t: float, lay: _Layout, y: np.ndarray) -> None:
    """Raise the failure of a stepped stack y through ``_check_step``, with
    ``member`` its index in the set: the members with a current are checked
    before the limit, as when each system had a step of its own."""
    sh = lay.shapes(y.shape[1:])
    n, u, lim = y[lay.n], y[lay.u].reshape(sh.u), lay.limit
    groups = [(0, dict(n=n[:1], u=u[:1]))] if lim else []
    if lay.currents:
        groups.insert(0, (lim, dict(n=n[lim:], u=u[lim:], J=y[lay.J].reshape(sh.cur),
                                    E=y[lay.E].reshape(sh.cur), B=y[lay.B].reshape(sh.cur))))
    for first, fields in groups:
        try:
            _check_step(t, **fields)
        except (BlowUpError, VacuumError) as exc:
            exc.member += first
            raise


class HalfStack(NamedTuple):
    """A member set between two steps that were not recorded (``step_full``
    with ``record=False``): its stack on the 2/3-rule box, with J = kappa
    j~, which the next step's opening half-step has already propagated, and
    its densities on the grid, (M, *shape), which that step's predictor
    stage takes as the entry densities of its vacuum check."""

    half: np.ndarray
    n: np.ndarray

    def drop(self, member: int) -> "HalfStack":
        """The set without the rows of one member (``model._drop``)."""
        return HalfStack(_drop(self.half, member), np.delete(self.n, member, axis=0))


def step_full(x, op: StiffLinearOperator, t: float = 0.0, forcing: Callable | None = None,
              record: bool = True):
    """One Strang step of a member set from time ``t``.

    ``x`` holds the physical rows of a member set (``model``, "member
    sets"): one state's (n, u, j~, E, B), (13, *shape), the limit system's
    (n, u), (4, *shape), or several states in field-major rows, the limit
    first if it is one of them; or it is the HalfStack of such a set that
    the previous step returned.  The step holds the 2/3-rule box alone, so
    the content of a grid stack above it is dropped by its first
    transform.  ``op`` is the set's operator
    (``build_stiff_operator``): the grid, dt, Params and coefficients of
    the step are its own.  It must have been built for a set of the same
    layout (ConfigError otherwise).  Each member's result is bit for bit
    what it gets when stepped alone.  ``x`` is not modified.

    A grid stack is transformed to the box on entry, with j~ scaled to
    J = kappa j~, and gets its opening half-step exp(dt/2 L); a HalfStack
    has had both.  The SSP-RK2 stages follow on the box (n, u, J, E, B).  A
    step with ``record`` then applies its closing half-step, Leray-projects
    E and B, and transforms once back, dividing J by kappa: it returns the
    stepped grid stack.  A step without ``record`` projects E and B and
    applies exp(dt L) in one, its own closing half-step fused with the
    opening half-step of the next (Strang splitting composes so), and
    returns the HalfStack for the next step; of the stack it brings only
    the densities to the grid, for its checks.  ``forcing(t)`` may supply
    extra explicit rates in the layout of the grid stack, with J for j~,
    e.g. for manufactured-solution tests.

    A density that turns non-positive in the SSP-RK2 predictor stage, or is
    not positive after the step, raises VacuumError, and a non-finite field
    after the step BlowUpError; both name the time, carry it as ``time``
    and carry the index of the failing member in the set as ``member`` (0
    for a single state), the members with a current before the limit.  The
    first stage is not checked: the stiff half-step leaves n alone, so it
    sees the density passed in.  A step without ``record`` that finds a
    non-finite value or a vacuum closes as a recorded step does and
    reports the failure from its grid stack, so it names the same field
    and member.  A failure returns nothing for the other members; the
    caller can drop the member from ``x`` (``model._drop``,
    ``HalfStack.drop``) and redo the step.
    """
    carried = isinstance(x, HalfStack)
    rows = len(x.half) if carried else len(x)
    lay = _layout(rows)
    if op.layout is not lay:
        raise ConfigError(f"the operator was built for a member set of {op.prop_half.shape[0]} "
                          f"coefficient rows, not for the step's {rows} stack rows")
    grid, dt, coef, k = op.grid, op.dt, op.coef, lay.currents
    if carried:
        h, entry = x
    else:
        if k:
            h = x.copy()
            h[lay.J] *= coef.kap_rows
            h = box_rfft(grid, h)
        else:
            h = box_rfft(grid, x)
        stiff = h[lay.stiff].reshape(lay.shapes(h.shape[1:]).stiff)
        stiff[:] = op.apply_half(stiff)
        entry = x[lay.n]

    def remainder(y, tt, guard=None):
        out = _full_rate(y, coef, guard)
        if forcing is not None:
            out += box_rfft(grid, forcing(tt))
        return out

    k1 = remainder(h, t)
    stage = f"in the SSP-RK2 predictor stage at t={t + dt:g}"
    k2 = remainder(h + dt * k1, t + dt, (stage, entry, t + dt))
    k1 += k2  # h + dt/2 (k1 + k2), in k1's buffer: a HalfStack passed in stays as it was
    k1 *= 0.5 * dt
    k1 += h
    h = k1
    stiff = h[lay.stiff].reshape(lay.shapes(h.shape[1:]).stiff)
    if not record:
        n = box_irfft(grid, h[lay.n])
        if n.min() > 0.0 and np.isfinite(h).all():
            if k:
                eb = stiff[lay.members + k:]
                leray_project(op.khat, eb, out=eb)
            stiff[:] = op.apply_full(stiff)
            return HalfStack(h, n)
    v = op.apply_half(stiff)
    if k:
        eb = v[lay.members + k:]
        leray_project(op.khat, eb, out=eb)
    stiff[:] = v
    y = box_irfft(grid, h)
    if not (np.isfinite(y).all() and y[lay.n].min() > 0.0):
        _report_failure(t + dt, lay, y)
    if k:
        y[lay.J] /= coef.kap_rows
    return y


# ---------------------------------------------------------------------------
# driver


def march(x, build: Callable, n_steps: int, dt: float, stride: int, record: Callable,
          leave: Callable, step: Callable = step_full, forcing: Callable | None = None) -> int:
    """March the member set x, a grid stack, through ``n_steps`` steps of
    ``dt`` from t = 0, and return the number of steps made; the one stepping
    loop of the package.

    ``record(i, y)`` gets the grid stack y after i steps, at i = 0, every
    ``stride`` steps and at the last step, the only steps recorded
    (``step_full``): between them the set stays on the 2/3-rule box as the
    HalfStack each step hands the next.  It returns the set to march on
    with: y, y less members that left at the record (``model._drop``), or
    None to stop.  A step that fails with BlowUpError or VacuumError calls
    ``leave(i, exc)``, i the steps made: when it returns true, the failing
    member (``exc.member``) leaves the set and the others redo the step, and
    otherwise the march stops there.  The operator is ``build()``, called
    before the first step and again after every change of the set.  Each
    step is ``step(x, op, t=, forcing=, record=)``: ``step_full``, or a
    callable that looks a stepper up at each call, so that a stepper swapped
    in during the march is the one that runs."""
    x, op, i = record(0, x), None, 0
    while x is not None and i < n_steps:
        if op is None:
            op = build()
        last = (i + 1) % stride == 0 or i + 1 == n_steps
        try:
            y = step(x, op, t=i * dt, forcing=forcing, record=last)
        except (BlowUpError, VacuumError) as exc:
            if not leave(i, exc):
                break
            x = x.drop(exc.member) if isinstance(x, HalfStack) else _drop(x, exc.member)
            op = None
            continue
        i += 1
        x = record(i, y) if last else y
        if x is not y:  # members left at the record
            op = None
    return i


@dataclass
class StepLog:
    """What happened during an evolve call."""

    status: str = "completed"
    message: str = ""
    n_steps: int = 0


def evolve(
    state: FullState | LimitState,
    p: Params,
    sc: StepControl,
    observer: Callable | None = None,
    stride: int = 1,
    forcing: Callable | None = None,
):
    """March one full or limit state to t_end (``march``) with the operator
    built at its initial mean density; ``forcing`` is passed to every step.

    observer(step_index, t, state) runs at t = 0 and every ``stride``
    steps; without one only the last step is recorded.  The states it gets
    view the stack their step returned, so they keep their values.  A
    blow-up or vacuum ends the march with that status.  Returns
    (final_state, StepLog): the final state is the last one recorded, the
    state passed in if none was."""
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    grid, log, shown = state.grid, StepLog(), state
    x = _stacked(state)
    mean = float(x[0].mean())

    def build():
        if isinstance(state, FullState):
            return build_stiff_operator(grid, p, sc.dt, (p.kappa,), (mean,))
        return build_stiff_operator(grid, p, sc.dt, limit_mean=mean)

    def record(i, y):
        nonlocal shown
        if i:
            shown = _state_view(grid, y)
        if observer is not None and i % stride == 0:
            observer(i, i * sc.dt, shown)
        return y

    def leave(i, exc):
        log.status, log.message = exc.status, str(exc)
        return False

    log.n_steps = march(x, build, sc.n_steps, sc.dt, stride if observer is not None else max(sc.n_steps, 1),
                        record, leave, forcing=forcing)
    return shown, log
