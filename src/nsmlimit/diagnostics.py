"""Energy ledger rows, identity audits and the uniform bound monitor.

The error between a full and a limit state is one stacked array
(``_error_stack``): the rows N = n - n0, U = u - u0, J = kappa j~, E, B,
(13, *shape).  Its squared H^l size Gamma = |N|_l^2 + |U|_l^2 + |J|_l^2 +
|E|_l^2 + |B|_l^2 is the quantity the convergence estimate bounds by
O(kappa^2).  A ledger row (``make_energy_ledger``) records it with the
relative-enthalpy functional integral_x integral_0^N [h(s+n0) - h(n0)] ds dx
(the inner integral in closed form, ``PressureLaw.relative_enthalpy``), the
density-weighted high-order norm
sum_{1<=|a|<=l} integral h'(N+n0)/(N+n0) |d^a N|^2 dx and the viscous
dissipation of U and J; the audit checks the zero-order kinetic-energy
balance term by term.

The ledger takes a run's snapshots as stacks, (S, 13, *shape) of the full
states and (S, 4, *shape) of the limit states (``model._stacked``), and
builds each chunk's error stack from them in one new array, leaving them
as they are; the audit takes (t, FullState, LimitState) snapshots.  Both
take all of their snapshots in one call and split them into chunks here,
with one forward transform of a stacked array per chunk.  A chunk
holds at most ``_chunk_size`` snapshots, a fixed budget of 2048 grid
points (32 snapshots on a 64-point line, one on 32^3); one snapshot is a
chunk of one.  Every per-element operation and every reduction is the
one-snapshot one, in the same order, so a row or an audit term does not
depend on the chunk it was computed in.  A row's density checks
(``_check_ledger_densities``, which ``run_single`` also makes when it
records) run once per chunk, and a vacuum names the time of the first
snapshot that has one.

A chunk of ledger rows takes ``array_rfft`` of its (S, 13, *shape) error
stacks; the five H^l norms and the two dissipation rates are sums over
those coefficients by the discrete Parseval identity
(``Grid.half_parseval_weight``: interior modes of the last active axis
count twice, its 0 and n/2 planes once), with the full |k|^2 in the norms
and the Nyquist-zeroed derivative wavenumbers in the dissipation.  The
rows d^a N with 1 <= |a| <= l come from ``spectral._derivative_groups`` a
group of at most 2^18 grid points at a time, with div E and div B leading
the first group, and each group's ``array_irfft`` brings it to the grid
before the next is made: the constraint residuals are read from it, and
sum_a |d^a N|^2, for the pointwise weight, adds it up row by row, which
gives the bits of a sum over all rows at once.  So a ledger call holds a
group, not every row, whose count grows like l^d.  Where every row fits in
one group, as on the 1-D and 2-D grids of the configs and tests and on 8^3
at l = 4, a chunk makes one inverse transform.  A chunk of audit
snapshots transforms (n U, n u, U, u0, j~) once and brings div(n U),
div(n u), the gradients of U, u0 and j~ and the viscous term of u0 back
in one call; its dissipation is again a Parseval sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, SnapshotSpacingError, VacuumError
from .model import FullState, LimitState, Params, _cross, _stack, _stacked, _visc_hat, _visc_multipliers
from .spectral import (
    Grid,
    _derivative_groups,
    _mode_sums,
    _require_same_grid,
    _sobolev_weight,
    array_irfft,
    array_rfft,
    half_divergence,
)

__all__ = [
    "EnergyLedger",
    "make_energy_ledger",
    "energy_identity_audit",
    "AuditReport",
    "bound_monitor",
    "BoundReport",
    "LEDGER_COLUMNS",
]

_SPACE = (-3, -2, -1)  # the grid axes of a field


def _first_vacuum(ts, checks) -> None:
    """Raise the VacuumError of the first snapshot that fails a density check.

    ``checks`` are (what, per-snapshot minimum) pairs in the order a
    snapshot's checks are made, so the error is the one the snapshot alone
    gives; ``ts`` names its time, in the message and as the error's
    ``time``."""
    bad = np.logical_or.reduce([m <= 0.0 for _, m in checks])
    if bad.any():
        s = int(bad.argmax())
        what, n_min = next((what, m[s]) for what, m in checks if m[s] <= 0.0)
        raise VacuumError(f"vacuum state: {what} nonpositive (min n = {n_min:.6g}) at t={ts[s]:g}",
                          time=float(ts[s]))


def _check_ledger_densities(ts, n: np.ndarray, n0: np.ndarray) -> None:
    """The ledger's density checks on chunks (S, *shape) of full and limit
    densities, in the order a row makes them: the total density n, the
    total density (n - n0) + n0 of the pointwise weight, and the range
    n0 + min(n - n0, 0) of the inner enthalpy integral, which is the domain
    of ``PressureLaw.relative_enthalpy``."""
    N = n - n0
    _first_vacuum(ts, [
        ("total density", n.min(axis=_SPACE)),
        ("total density", (N + n0).min(axis=_SPACE)),
        ("density in the inner integral range", (n0 + np.minimum(N, 0.0)).min(axis=_SPACE)),
    ])


def _error_stack(full: FullState, limit: LimitState, kappa: float) -> np.ndarray:
    """The error rows (N, U, J, E, B) = (n - n0, u - u0, kappa j~, E, B) of a
    full state against a limit state on the same grid, (13, *shape)."""
    _require_same_grid(full.grid, limit.grid)
    x = _stacked(full)
    x[:4] -= _stacked(limit)
    x[4:7] *= kappa
    return x


# ---------------------------------------------------------------------------
# chunks of snapshots

_CHUNK_POINTS = 2048


def _chunk_size(grid: Grid) -> int:
    """Snapshots per chunk: a budget of 2048 grid points, at least one."""
    return max(1, _CHUNK_POINTS // grid.npoints)


# A ledger chunk's derivative rows, every d^a N with 1 <= |a| <= l, are a
# count that grows like l^d.  They reach the grid a group at a time, so a
# call holds far fewer of them at once, but the guard prices them all: its
# estimate is an upper bound of the rows a call holds.  256 MiB admits
# l <= 12 on 32^3 (456 rows of one snapshot, 235 MiB) and rejects l = 20
# there (1,772 rows, 914 MiB).
_LEDGER_STACK_BUDGET = 256 * 2**20


def _ledger_stack_bytes(grid: Grid, l: float) -> int:
    """Bytes of a chunk's derivative rows and its div E and div B
    (C(int(l) + d, d) + 1 rows) at 16 B per half-spectrum mode, and of their
    image on the grid, were they all held at once: an upper bound of the
    groups and the rows that ``spectral._derivative_groups`` holds."""
    d, n = grid.dims_active, grid.points_per_dim
    rows = math.comb(int(l) + d, d) + 1
    half_modes = grid.npoints // n * (n // 2 + 1)
    return rows * _chunk_size(grid) * (16 * half_modes + 8 * grid.npoints)


def _chunks(grid: Grid, snapshots: list):
    """Consecutive chunks of (t, full, limit) snapshots, each as (times,
    fulls, limits)."""
    size = _chunk_size(grid)
    for i in range(0, len(snapshots), size):
        yield tuple(zip(*snapshots[i:i + size]))


def _chunk_stack(states) -> np.ndarray:
    """The stacks (``_stacked``) of a chunk of states, (S, rows, *shape), in one copy."""
    x = _stack(*(f.values for state in states for f in vars(state).values()))
    return x.reshape((len(states), -1) + x.shape[1:])


def _integrals(grid: Grid, values: np.ndarray) -> np.ndarray:
    """``grid_integral`` of each field of a chunk of scalar fields (S, *shape)."""
    return values.mean(axis=_SPACE) * grid.volume


# ---------------------------------------------------------------------------
# half-spectrum kernels


_FIELD_STARTS = (0, 1, 4, 7, 10)  # rows of N, U, J, E, B in ``_error_stack``


def _field_norms(grid: Grid, hat: np.ndarray, l: float) -> list:
    """H^l norms of (N, U, J, E, B) from the coefficients of an error stack
    (13, *half), or a list of them per stack of a chunk (S, 13, *half)."""
    sq = _mode_sums(grid, hat, _sobolev_weight(grid, l))
    return np.sqrt(np.add.reduceat(sq, _FIELD_STARTS, axis=-1)).tolist()


def _dissipation(grid: Grid, p: Params, v_hat: np.ndarray) -> np.ndarray:
    """mu |grad v|^2 + (mu+lam) |div v|^2 per snapshot, from the (S, 3, *half)
    coefficients of v."""
    k = grid.half_wavenumbers
    grad_sq = _mode_sums(grid, v_hat, (k * k).sum(axis=0)).sum(axis=-1)
    div_sq = _mode_sums(grid, half_divergence(grid, v_hat), 1.0)
    return p.mu * grad_sq + (p.mu + p.lam) * div_sq


def _sup_norms(v: np.ndarray) -> np.ndarray:
    """``sup_norm`` of each vector field of a chunk (S, 3, *shape)."""
    return np.sqrt((v**2).sum(axis=1)).max(axis=_SPACE)


# ---------------------------------------------------------------------------
# ledger rows

LEDGER_COLUMNS = (
    "t", "gamma", "norm_N", "norm_U", "norm_J", "norm_E", "norm_B",
    "enthalpy_fn", "weighted_high", "diss_U", "diss_J", "divE", "divB",
    "mass_err",
)


@dataclass(frozen=True)
class EnergyLedger:
    """One diagnostics row; field order matches the CSV schema."""

    t: float
    gamma: float
    norm_N: float
    norm_U: float
    norm_J: float
    norm_E: float
    norm_B: float
    enthalpy_fn: float
    weighted_high: float
    diss_U: float
    diss_J: float
    divE: float
    divB: float
    mass_err: float

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, c) for c in LEDGER_COLUMNS)


def make_energy_ledger(grid: Grid, ts, fulls: np.ndarray, limits: np.ndarray, p: Params, l: float,
                       mass0: float) -> list[EnergyLedger]:
    """The EnergyLedger rows of a sequence of times and the stacks of the
    full and limit states at them (``model._stacked``), (S, 13, *shape) and
    (S, 4, *shape), computed a chunk at a time.  The stacks are left as
    they are.

    Stacks whose trailing shape is not the grid's raise GridMismatchError,
    and a nonpositive density raises VacuumError naming the time of the
    first snapshot that has one."""
    if fulls.shape[2:] != grid.shape or limits.shape[2:] != grid.shape:
        raise GridMismatchError("the stacks do not live on the ledger's grid")
    if not len(ts) == len(fulls) == len(limits):
        raise ValueError("need one full and one limit stack per time")
    size = _chunk_size(grid)
    return [row for i in range(0, len(ts), size)
            for row in _ledger_rows(grid, ts[i:i + size], fulls[i:i + size], limits[i:i + size], p, l, mass0)]


def _ledger_rows(grid: Grid, ts, fulls: np.ndarray, limits: np.ndarray, p: Params, l: float,
                 mass0: float) -> list[EnergyLedger]:
    """The rows of one chunk of snapshots."""
    _check_ledger_densities(ts, fulls[:, 0], limits[:, 0])
    mass = _integrals(grid, fulls[:, 0])
    x = fulls.copy()  # the error stacks
    x[:, :4] -= limits
    x[:, 4:7] *= p.kappa
    N, n0 = x[:, 0], limits[:, 0]
    rho = N + n0
    weight = p.pressure.denthalpy(rho) / rho
    enthalpy = _integrals(grid, p.pressure.relative_enthalpy(N, n0))
    div_scale = 1.0 + _sup_norms(x[:, 7:10]) + _sup_norms(x[:, 10:13])
    hat = array_rfft(grid, x)
    norms = _field_norms(grid, hat, l)
    diss_u, diss_j = _dissipation(grid, p, hat[:, 1:4]), _dissipation(grid, p, hat[:, 4:7])
    # div E and div B lead the first group of the derivative rows
    groups = _derivative_groups(grid, hat[:, 0].copy(), int(l), half_divergence(
        grid, hat[:, 7:].reshape((len(ts), 2, 3) + hat.shape[2:])).swapaxes(0, 1))
    # not held through the inverse transforms
    del x, N, n0, rho, hat
    sq, div = np.zeros((len(ts),) + grid.shape), None  # sum_a |d^a N|^2, row by row
    for group in groups:
        d = array_irfft(grid, group, overwrite=True)
        del group
        if div is None:
            div, d = np.abs(d[:2]).max(axis=_SPACE) / div_scale, d[2:]
        for row in d:
            sq += row * row
        d = row = None
    weighted = _integrals(grid, weight * sq)
    div_e, div_b = div
    columns = zip(ts, norms, *(a.tolist() for a in (enthalpy, weighted, diss_u, diss_j,
                                                    div_e, div_b, mass)))
    return [
        EnergyLedger(t, sum(v * v for v in nrm), *nrm, h, w, du, dj, de, db,
                     abs(m - mass0) / abs(mass0))
        for t, nrm, h, w, du, dj, de, db, m in columns
    ]


# ---------------------------------------------------------------------------
# zero-order energy identity audit
#
# Along solutions of the error system, multiplying the velocity-error
# equation by (N+n0)U and integrating gives
#
#   d/dt (1/2) int (N+n0)|U|^2 dx + mu |grad U|^2 + (mu+lam) |div U|^2
#     = T1 + T2 + T3 + T4 + T5 + T6
#
# with the six right-hand terms listed below.  The audit evaluates both
# sides on stored snapshots, the time derivative by centered differences,
# and reports the normalized defect, which should shrink at second order
# when the snapshot spacing halves.  drop_term deliberately deletes one
# right-hand term to confirm the audit would catch a modeling error.


@dataclass(frozen=True)
class AuditReport:
    times: tuple
    residuals: tuple
    terms: dict
    max_residual: float
    mean_residual: float


def _audit_chunk(ts, fulls, limits, p: Params) -> dict:
    """The audit terms of a chunk of snapshots, one (S,) array per term; a
    vacuum names the time in ``ts`` of the first bad one."""
    grid = fulls[0].grid
    eps = p.epsilon
    law = p.pressure
    x, x0 = _chunk_stack(fulls), _chunk_stack(limits)
    n_tot, n0 = x[:, 0], x0[:, 0]  # N + n0 and n0
    m_tot, m0 = n_tot.min(axis=_SPACE), n0.min(axis=_SPACE)
    _first_vacuum(ts, [("density", np.where(m0 < m_tot, m0, m_tot))])
    u_full, u0, jt, B = x[:, 1:4], x0[:, 1:4], x[:, 4:7], x[:, 10:13]
    U = u_full - u0
    nt = n_tot[:, None]

    # one forward transform of (n U, n u, U, u0, j~), one inverse of
    # div(n U), div(n u), the gradients (i, j) -> d_j v_i of U, u0 and j~,
    # and the viscous term of u0
    V = array_rfft(grid, np.stack([nt * U, nt * u_full, U, u0, jt], axis=1))
    grads = 1j * V[:, 2:, :, None] * grid.half_wavenumbers
    d = array_irfft(grid, np.concatenate([
        half_divergence(grid, V[:, :2]),
        grads.reshape((len(fulls), 27) + V.shape[3:]),
        _visc_hat(_visc_multipliers(grid.half_wavenumbers, grid.half_k_squared, p), V[:, 3]),
    ], axis=1), overwrite=True)
    div_nU, div_nu = d[:, 0], d[:, 1]
    grad_U, grad_u0, grad_jt = d[:, 2:29].reshape((len(fulls), 3, 3, 3) + grid.shape).swapaxes(0, 1)
    visc0 = d[:, 29:]

    h_diff = law.enthalpy(n_tot) - law.enthalpy(n0)
    t1 = ((1.0 + eps) * p.eta / p.tau) * _integrals(grid, h_diff * div_nU)

    # d_t(N+n0) from the combined continuity equation
    dt_n = -div_nu / (1.0 + eps)
    t2 = 0.5 * _integrals(grid, dt_n * (U * U).sum(axis=1))

    adv = np.einsum("sj...,sij...->si...", u_full, grad_U)
    adv = adv + np.einsum("sj...,sij...->si...", U, grad_u0)
    t3 = -_integrals(grid, (adv * nt * U).sum(axis=1)) / (1.0 + eps)

    jdotj = np.einsum("sj...,sij...->si...", jt, grad_jt)
    t4 = (
        -(eps / (1.0 + eps))
        * p.kappa**2
        * _integrals(grid, (jdotj * nt * U).sum(axis=1))
    )

    lorentz = _cross(jt, B)
    t5 = (p.kappa**2 / p.tau) * _integrals(grid, (lorentz * nt * U).sum(axis=1))

    t6 = _integrals(
        grid, ((1.0 / n_tot - 1.0 / n0)[:, None] * visc0 * nt * U).sum(axis=1)
    )

    diss = _dissipation(grid, p, V[:, 2])

    energy = 0.5 * _integrals(grid, n_tot * (U * U).sum(axis=1))
    return {
        "energy": energy, "dissipation": diss,
        "T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5, "T6": t6,
    }


def energy_identity_audit(
    snapshots, p: Params, drop_term: int | None = None
) -> AuditReport:
    """Audit the zero-order energy balance on >= 3 uniformly spaced
    snapshots of (t, full_state, limit_state), a chunk at a time."""
    snaps = list(snapshots)
    if len(snaps) < 3:
        raise ValueError("need at least 3 snapshots")
    times = np.array([t for t, _, _ in snaps])
    spacings = np.diff(times)
    if spacings.min() <= 0 or (
        np.abs(spacings - spacings[0]).max() > 1e-9 * spacings[0]
    ):
        raise SnapshotSpacingError("nonuniform snapshot spacing")
    dt = float(spacings[0])
    if drop_term is not None and drop_term not in range(1, 7):
        raise ValueError("drop_term must be in 1..6")

    per_snap = []
    for chunk in _chunks(snaps[0][1].grid, snaps):
        terms = _audit_chunk(*chunk, p)
        per_snap += [dict(zip(terms, v)) for v in zip(*(a.tolist() for a in terms.values()))]
    residuals = []
    mid_terms = None
    for i in range(1, len(snaps) - 1):
        ddt = (per_snap[i + 1]["energy"] - per_snap[i - 1]["energy"]) / (2.0 * dt)
        terms = per_snap[i]
        lhs = ddt + terms["dissipation"]
        keys = [f"T{j}" for j in range(1, 7) if j != drop_term]
        rhs = sum(terms[k] for k in keys)
        scale = max(
            abs(ddt), terms["dissipation"], *(abs(terms[f"T{j}"]) for j in range(1, 7)),
            1e-300,
        )
        residuals.append(abs(lhs - rhs) / scale)
        if mid_terms is None or i == (len(snaps) - 1) // 2:
            mid_terms = dict(terms, ddt=ddt)
    res = np.array(residuals)
    return AuditReport(
        times=tuple(times[1:-1]),
        residuals=tuple(res),
        terms=mid_terms,
        max_residual=float(res.max()),
        mean_residual=float(res.mean()),
    )


# ---------------------------------------------------------------------------
# uniform bound monitor


@dataclass(frozen=True)
class BoundReport:
    """sup_t Gamma/kappa^2 plus the fitted envelope Gamma <= C kappa^2 e^{c t}."""

    sup_ratio: float
    c_envelope: float
    growth_rate: float
    trivial: bool


def bound_monitor(times, gammas, c0: float, kappa: float) -> BoundReport:
    """Fit log(Gamma/kappa^2) = log(C) + c*t over the recorded samples."""
    t = np.asarray(times, dtype=float)
    g = np.asarray(gammas, dtype=float)
    if t.size == 0:
        raise ValueError("empty record")
    ratio = g / kappa**2
    mask = g > 0.0
    if not mask.any():
        return BoundReport(sup_ratio=0.0, c_envelope=0.0, growth_rate=0.0, trivial=True)
    tm = t[mask]
    y = np.log(ratio[mask])
    if tm.size == 1 or np.ptp(tm) == 0.0:
        return BoundReport(
            sup_ratio=float(ratio.max()),
            c_envelope=float(np.exp(y[0])),
            growth_rate=0.0,
            trivial=True,
        )
    A = np.stack([np.ones_like(tm), tm], axis=1)
    coeff, *_ = np.linalg.lstsq(A, y, rcond=None)
    return BoundReport(
        sup_ratio=float(ratio.max()),
        c_envelope=float(math.exp(coeff[0])),
        growth_rate=float(coeff[1]),
        trivial=False,
    )
