"""Energy ledger rows, identity audits and the uniform bound monitor.

The error between a full and a limit state is one stacked array
(``_error_stack``): the rows N = n - n0, U = u - u0, J = kappa j~, E, B,
(13, *shape).  Its squared H^l size Gamma = |N|_l^2 + |U|_l^2 + |J|_l^2 +
|E|_l^2 + |B|_l^2 is the quantity the convergence estimate bounds by
O(kappa^2).  A ledger row (``make_energy_ledger``) records it with the
relative-enthalpy functional integral_x integral_0^N [h(s+n0) - h(n0)] ds dx,
the density-weighted high-order norm
sum_{1<=|a|<=l} integral h'(N+n0)/(N+n0) |d^a N|^2 dx and the viscous
dissipation of U and J; the audit checks the zero-order kinetic-energy
balance term by term.

Each ledger row and each audit snapshot makes one real transform of a
stacked array each way.  A row takes ``array_rfft`` of the error stack;
the five H^l norms and the two dissipation rates are sums
over those coefficients by the discrete Parseval identity
(``Grid.half_parseval_weight``: interior modes of the last active axis
count twice, its 0 and n/2 planes once), with the full |k|^2 in the norms
and the Nyquist-zeroed derivative wavenumbers in the dissipation.  One
``array_irfft`` then brings every d^a N with 1 <= |a| <= l, div E and
div B to the grid, for the pointwise weight and the constraint residuals.
An audit snapshot transforms (n U, n u, U, u0, j~) once and brings
div(n U), div(n u), the gradients of U, u0 and j~ and the viscous term of
u0 back in one call; its dissipation is again a Parseval sum.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SnapshotSpacingError, VacuumError
from .model import FullState, LimitState, Params, PressureLaw, _cross, _stacked, _visc_hat
from .spectral import (
    Grid,
    _mode_sums,
    _partials_hat,
    _require_same_grid,
    _sobolev_weight,
    array_irfft,
    array_rfft,
    grid_integral,
    half_divergence,
    sup_norm,
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


def _check_density(what: str, *rho: np.ndarray) -> None:
    n_min = min(float(r.min()) for r in rho)
    if n_min <= 0.0:
        raise VacuumError(f"vacuum state: {what} nonpositive (min n = {n_min:.6g})")


@contextmanager
def _at_time(t: float):
    """Name the time in a VacuumError raised inside the block."""
    try:
        yield
    except VacuumError as exc:
        raise VacuumError(f"{exc} at t={t:g}") from None


def _error_stack(full: FullState, limit: LimitState, kappa: float) -> np.ndarray:
    """The error rows (N, U, J, E, B) = (n - n0, u - u0, kappa j~, E, B) of a
    full state against a limit state on the same grid, (13, *shape)."""
    _require_same_grid(full.grid, limit.grid)
    x = _stacked(full)
    x[:4] -= _stacked(limit)
    x[4:7] *= kappa
    return x


# ---------------------------------------------------------------------------
# half-spectrum kernels


_FIELD_STARTS = (0, 1, 4, 7, 10)  # rows of N, U, J, E, B in ``_error_stack``


def _field_norms(grid: Grid, hat: np.ndarray, l: float) -> list[float]:
    """H^l norms of (N, U, J, E, B) from the coefficients of an error stack."""
    sq = _mode_sums(grid, hat, _sobolev_weight(grid, l))
    return np.sqrt(np.add.reduceat(sq, _FIELD_STARTS)).tolist()


def _dissipation(grid: Grid, p: Params, v_hat: np.ndarray) -> float:
    """mu |grad v|^2 + (mu+lam) |div v|^2 from the (3, *half) coefficients of v."""
    k = grid.half_wavenumbers
    grad_sq = _mode_sums(grid, v_hat, (k * k).sum(axis=0)).sum()
    div_sq = _mode_sums(grid, half_divergence(grid, v_hat), 1.0)
    return float(p.mu * grad_sq + (p.mu + p.lam) * div_sq)


def _high_weight(N: np.ndarray, n0: np.ndarray, law: PressureLaw) -> np.ndarray:
    """h'(N+n0)/(N+n0), the pointwise weight of the high-order norm."""
    rho = N + n0
    _check_density("total density", rho)
    return law.denthalpy(rho) / rho


def _weighted_sum(grid: Grid, weight: np.ndarray, d: np.ndarray) -> float:
    """sum_a integral weight |d_a|^2 dx over the leading rows of d."""
    return grid_integral(grid, weight * np.einsum("a...,a...->...", d, d))


@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def _inner_enthalpy_integral(
    N: np.ndarray, n0: np.ndarray, law: PressureLaw, tol: float = 1e-10
) -> np.ndarray:
    """Pointwise integral_0^N [h(s+n0) - h(n0)] ds by Gauss-Legendre,
    doubling the node count until the relative change drops below tol."""
    _check_density("density in the inner integral range", n0 + np.minimum(N, 0.0))
    h0 = law.enthalpy(n0)
    prev = None
    nodes = 8
    while True:
        xi, w = _gauss_legendre(nodes)
        s = 0.5 * N[..., None] * (xi + 1.0)
        vals = law.enthalpy(s + n0[..., None]) - h0[..., None]
        cur = 0.5 * N * (w * vals).sum(axis=-1)
        if prev is not None:
            scale = max(float(np.abs(cur).max()), 1e-300)
            if float(np.abs(cur - prev).max()) <= tol * scale:
                return cur
        if nodes >= 256:
            return cur
        prev = cur
        nodes *= 2


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


def make_energy_ledger(
    t: float,
    full: FullState,
    limit: LimitState,
    p: Params,
    l: float,
    mass0: float,
) -> EnergyLedger:
    grid = full.grid
    n0 = limit.n.values
    x = _error_stack(full, limit, p.kappa)
    with _at_time(t):
        _check_density("total density", full.n.values)
        weight = _high_weight(x[0], n0, p.pressure)
        enthalpy = grid_integral(grid, _inner_enthalpy_integral(x[0], n0, p.pressure))
    hat = array_rfft(grid, x)
    norms = _field_norms(grid, hat, l)
    diss_u, diss_j = _dissipation(grid, p, hat[1:4]), _dissipation(grid, p, hat[4:7])
    high = _partials_hat(grid, hat[0], int(l), 2)
    high[-2:] = half_divergence(grid, hat[7:].reshape((2, 3) + hat.shape[1:]))
    del x, hat  # not held through the inverse transform, the row's memory peak
    d = array_irfft(grid, high)
    div_scale = 1.0 + sup_norm(full.E) + sup_norm(full.B)
    mass = grid_integral(grid, full.n.values)
    return EnergyLedger(
        t=t,
        gamma=sum(x * x for x in norms),
        norm_N=norms[0],
        norm_U=norms[1],
        norm_J=norms[2],
        norm_E=norms[3],
        norm_B=norms[4],
        enthalpy_fn=enthalpy,
        weighted_high=_weighted_sum(grid, weight, d[:-2]),
        diss_U=diss_u,
        diss_J=diss_j,
        divE=float(np.abs(d[-2]).max()) / div_scale,
        divB=float(np.abs(d[-1]).max()) / div_scale,
        mass_err=abs(mass - mass0) / abs(mass0),
    )


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


def _audit_terms(full: FullState, limit: LimitState, p: Params) -> dict:
    grid = full.grid
    eps = p.epsilon
    law = p.pressure
    n_tot = full.n.values          # N + n0
    n0 = limit.n.values
    _check_density("density", n_tot, n0)
    U = full.u.values - limit.u.values
    u0 = limit.u.values
    u_full = full.u.values
    jt = full.jt.values
    B = full.B.values

    # one forward transform of (n U, n u, U, u0, j~), one inverse of
    # div(n U), div(n u), the gradients (i, j) -> d_j v_i of U, u0 and j~,
    # and the viscous term of u0
    V = array_rfft(grid, np.stack([n_tot * U, n_tot * u_full, U, u0, jt]))
    half = V.shape[2:]
    grads = 1j * V[2:, :, None] * grid.half_wavenumbers
    d = array_irfft(grid, np.concatenate([
        half_divergence(grid, V[:2]),
        grads.reshape((27,) + half),
        _visc_hat(grid, p, V[3]),
    ]))
    div_nU, div_nu = d[0], d[1]
    grad_U, grad_u0, grad_jt = d[2:29].reshape((3, 3, 3) + grid.shape)
    visc0 = d[29:]

    h_diff = law.enthalpy(n_tot) - law.enthalpy(n0)
    t1 = ((1.0 + eps) * p.eta / p.tau) * grid_integral(grid, h_diff * div_nU)

    # d_t(N+n0) from the combined continuity equation
    dt_n = -div_nu / (1.0 + eps)
    t2 = 0.5 * grid_integral(grid, dt_n * (U * U).sum(axis=0))

    adv = np.einsum("j...,ij...->i...", u_full, grad_U)
    adv = adv + np.einsum("j...,ij...->i...", U, grad_u0)
    t3 = -grid_integral(grid, (adv * n_tot * U).sum(axis=0)) / (1.0 + eps)

    jdotj = np.einsum("j...,ij...->i...", jt, grad_jt)
    t4 = (
        -(eps / (1.0 + eps))
        * p.kappa**2
        * grid_integral(grid, (jdotj * n_tot * U).sum(axis=0))
    )

    lorentz = _cross(jt, B)
    t5 = (p.kappa**2 / p.tau) * grid_integral(grid, (lorentz * n_tot * U).sum(axis=0))

    t6 = grid_integral(
        grid, ((1.0 / n_tot - 1.0 / n0) * visc0 * n_tot * U).sum(axis=0)
    )

    diss = _dissipation(grid, p, V[2])

    energy = 0.5 * grid_integral(grid, n_tot * (U * U).sum(axis=0))
    return {
        "energy": energy, "dissipation": diss,
        "T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5, "T6": t6,
    }


def energy_identity_audit(
    snapshots, p: Params, drop_term: int | None = None
) -> AuditReport:
    """Audit the zero-order energy balance on >= 3 uniformly spaced
    snapshots of (t, full_state, limit_state)."""
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
    for t, full, limit in snaps:
        with _at_time(t):
            per_snap.append(_audit_terms(full, limit, p))
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
