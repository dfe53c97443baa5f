"""Physics: parameters, pressure/enthalpy laws and system right-hand sides.

Three systems are evaluated here, all on the periodic torus:

* the scaled two-fluid system in the variables (n, u, j~, E, B), with
  u = u_i + eps*u_e the combined velocity and j~ = j/n the specific
  current; evolution uses the primitive pair (u, J) with J = kappa*j~,
* its one-fluid compressible Navier-Stokes limit in (n0, u0),
* the original two-fluid form in (n, u_e, u_i, E, B), kept purely so the
  variable substitution and scaling algebra between the three forms can
  be certified numerically (``reformulation_check``).

The stepping rates ``_full_rate`` and ``_limit_rate`` take the stacked
state on the real-FFT half-spectrum and return its time derivative there.
Every pointwise product of a rate is formed on the grid and all of them are
transformed in one batched call.  The 2/3 mask is linear, so the nonlinear
terms of each equation are summed first and masked once (Orszag, J. Atmos.
Sci. 28, 1971); the linear viscous and curl terms stay unmasked.  The rates
and their helpers index fields on axis -4, so a leading member axis (a
batch of states stepped together) broadcasts through them, with kappa as a
(K, 1, 1, 1, 1) column.  The certificate forms (``_two_fluid_rate``,
``_reformed_rate``) work on the same half-spectrum but term by term: each
term's product is transformed on its own and masked once, as the final
operation of the term, the terms are summed there, and one inverse
transform brings all five rates to the grid.  Intermediate sub-products
are never masked: that would break the exact pointwise identities the
reformulation check relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConstraintDriftError, GridMismatchError, VacuumError
from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    array_irfft,
    array_rfft,
    half_divergence,
    half_leray_project,
    derive_seed,
    random_smooth_field,
    random_smooth_vector,
    sup_norm,
    grid_integral,
)

__all__ = [
    "PressureLaw",
    "Params",
    "FullState",
    "LimitState",
    "TwoFluidState",
    "FullRate",
    "LimitRate",
    "TwoFluidRate",
    "pressure",
    "enthalpy_h",
    "rhs_full",
    "rhs_limit",
    "rhs_twofluid",
    "reformulation_check",
    "ReformReport",
    "random_two_fluid_state",
    "validate_full_state",
    "DIV_TOL",
]

# divergence-constraint tolerance, relative to max(1, |E|_inf, |B|_inf)
DIV_TOL = 1e-10


@dataclass(frozen=True)
class PressureLaw:
    """Gamma-law pressure P(n) = A n^gamma with P'(n) > 0 on (0, inf)."""

    amplitude: float = 1.0
    gamma: float = 5.0 / 3.0

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("pressure amplitude must be positive")
        if self.gamma < 1:
            raise ValueError("adiabatic exponent must be >= 1")

    def pressure(self, rho):
        return self.amplitude * rho**self.gamma

    def dpressure(self, rho):
        return self.amplitude * self.gamma * rho ** (self.gamma - 1.0)

    def enthalpy(self, rho):
        """h(rho) = integral_1^rho P'(s)/s ds, closed form for the gamma law."""
        if self.gamma == 1.0:
            return self.amplitude * np.log(rho)
        g = self.gamma
        return self.amplitude * g / (g - 1.0) * (rho ** (g - 1.0) - 1.0)

    def denthalpy(self, rho):
        """h'(rho) = P'(rho)/rho."""
        return self.amplitude * self.gamma * rho ** (self.gamma - 2.0)


@dataclass(frozen=True)
class Params:
    """Physical and scaling constants of the coupled system.

    kappa is the singular parameter (electron collisionality scale),
    epsilon the electron/ion mass ratio, (mu, lam) the viscosity pair with
    mu > 0 and 2 mu + 3 lam > 0, tau the ion-neutral collision time, eta
    the thermal-energy measure, kappa_ei the electron-ion collision
    strength and k_rate the collision rate constant.
    """

    kappa: float = 0.1
    epsilon: float = 0.1
    mu: float = 0.1
    lam: float = 0.0
    tau: float = 1.0
    eta: float = 1.0
    kappa_ei: float = 1.0
    k_rate: float = 1.0
    pressure: PressureLaw = field(default_factory=PressureLaw)

    def __post_init__(self):
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (0, 1]")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if 2.0 * self.mu + 3.0 * self.lam <= 0:
            raise ValueError("2*mu + 3*lam must be positive")
        for name in ("tau", "eta", "kappa_ei", "k_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class FullState:
    """Unknowns of the scaled system: density, combined velocity, specific
    current j~, and the scaled electric/magnetic fields."""

    n: ScalarField
    u: VectorField
    jt: VectorField
    E: VectorField
    B: VectorField

    @property
    def grid(self) -> Grid:
        return self.n.grid


@dataclass(frozen=True)
class LimitState:
    """Unknowns of the one-fluid compressible Navier-Stokes limit."""

    n: ScalarField
    u: VectorField

    @property
    def grid(self) -> Grid:
        return self.n.grid


@dataclass(frozen=True)
class TwoFluidState:
    """Unknowns of the original two-fluid form (pre-substitution)."""

    n: ScalarField
    u_e: VectorField
    u_i: VectorField
    E: VectorField
    B: VectorField

    @property
    def grid(self) -> Grid:
        return self.n.grid


@dataclass(frozen=True)
class FullRate:
    """Time derivatives (dn, du, dJ, dE, dB) with J = kappa*j~."""

    dn: ScalarField
    du: VectorField
    dJ: VectorField
    dE: VectorField
    dB: VectorField


@dataclass(frozen=True)
class LimitRate:
    dn: ScalarField
    du: VectorField


@dataclass(frozen=True)
class TwoFluidRate:
    """Conservative-form rates: d/dt of (n, n u_e, n u_i, E, B)."""

    dn: ScalarField
    dnu_e: VectorField
    dnu_i: VectorField
    dE: VectorField
    dB: VectorField


def _same_grid(*fields) -> Grid:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("state fields live on different grids")
    return g


def validate_full_state(s: FullState, div_tol: float = DIV_TOL) -> None:
    """Check positivity of n and the div E = div B = 0 constraints."""
    _same_grid(s.n, s.u, s.jt, s.E, s.B)
    if s.n.values.min() <= 0.0:
        raise VacuumError("vacuum state: min density <= 0")
    grid = s.grid
    scale = max(1.0, sup_norm(s.E), sup_norm(s.B))
    div = array_irfft(grid, half_divergence(grid, array_rfft(grid, np.stack([s.E.values, s.B.values]))))
    div_e, div_b = np.abs(div).max(axis=(-3, -2, -1))
    if div_e > div_tol * scale or div_b > div_tol * scale:
        raise ConstraintDriftError(
            f"constraint drift: |div E|={div_e:.3e}, |div B|={div_b:.3e}"
        )


def validate_limit_state(s: LimitState) -> None:
    _same_grid(s.n, s.u)
    if s.n.values.min() <= 0.0:
        raise VacuumError("vacuum state: min density <= 0")


# ---------------------------------------------------------------------------
# pressure / enthalpy entry points


def pressure(n: ScalarField, law: PressureLaw) -> ScalarField:
    if n.values.min() <= 0.0:
        raise VacuumError("vacuum state: pressure of nonpositive density")
    return ScalarField(n.grid, law.pressure(n.values))


def enthalpy_h(rho: float, law: PressureLaw) -> float:
    """Enthalpy h(rho) = integral_1^rho P'(s)/s ds; h(1) = 0, increasing."""
    if rho <= 0.0:
        raise VacuumError("vacuum state: enthalpy of nonpositive density")
    return float(law.enthalpy(rho))


# ---------------------------------------------------------------------------
# array-level right-hand sides
#
# All take and return plain ndarrays so the integrator can run stages
# without wrapping; the public rhs_* functions validate, transform and wrap.


class _RowIndex(dict):
    """``x[_ROWS[a, b]]`` is ``x[..., a:b, :, :, :]``, rows a:b along the
    field (or component) axis -4, and ``x[_ROWS[a]]`` is row a; a tuple of
    more than two entries picks those rows.  Each index is built once: built
    on every use it costs twice the indexing itself, which shows in the
    call-overhead-bound 1-D steps."""

    def __missing__(self, key):
        if not isinstance(key, tuple):
            row = key
        else:
            row = slice(*key) if len(key) == 2 else list(key)
        index = self[key] = (Ellipsis, row, slice(None), slice(None), slice(None))
        return index


_ROWS = _RowIndex()


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the component axis -4 of (..., 3, *shape) arrays."""
    a0, a1, a2 = a[_ROWS[0]], a[_ROWS[1]], a[_ROWS[2]]
    b0, b1, b2 = b[_ROWS[0]], b[_ROWS[1]], b[_ROWS[2]]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-4)


def _member_min(n: np.ndarray) -> np.ndarray:
    """Minimum of a density per member (the axes before the grid's), as a
    1-d array; one entry for a single state."""
    return n.reshape(n.shape[:-3] + (-1,)).min(axis=-1).ravel()


def _require_positive(n: np.ndarray, where: str, entry: np.ndarray | None = None) -> None:
    """Raise VacuumError naming ``where`` and the minimum density for the
    first member whose density n is not positive; ``member`` is 0 for a
    single state.  Given ``entry``, another density of the same members,
    only members whose entry density is positive count."""
    if n.min() > 0.0:
        return
    n_min = _member_min(n)
    bad = n_min <= 0.0
    if entry is not None:
        bad &= _member_min(entry) > 0.0
    bad = np.flatnonzero(bad)
    if bad.size:
        k = int(bad[0])
        raise VacuumError(f"vacuum state {where}: min n = {n_min[k]:.6g}", member=k)


# ---------------------------------------------------------------------------
# half-spectrum stepping rates
#
# A state is stacked as (n, u, J, E, B) or (n, u) along axis -4 (``_stack``)
# and passed as its real-FFT half-spectrum; a batch adds a leading member
# axis.  Symmetric 3x3 tensors are stored as their entries
# (00, 01, 02, 11, 12, 22).

_SYM_ROW = _ROWS[0, 0, 0, 1, 1, 2]
_SYM_COL = _ROWS[0, 1, 2, 1, 2, 2]
_SYM_DIAG = (0, 3, 5)
_SYM_FULL = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _stack(*fields: np.ndarray) -> np.ndarray:
    """Stack a scalar (*shape) and vectors (3, *shape) along one leading axis."""
    return np.concatenate([f.reshape((-1,) + f.shape[-3:]) for f in fields])


def _split(x: np.ndarray) -> tuple:
    """Views (n, u, ...) of a stack built by ``_stack``, along axis -4."""
    return (x[_ROWS[0]],) + tuple(x[_ROWS[i, i + 3]] for i in range(1, x.shape[-4], 3))


def _stacked(state) -> np.ndarray:
    """The fields of a state, e.g. a FullState's (n, u, j~, E, B), as one stack."""
    return _stack(*(f.values for f in vars(state).values()))


def _state_view(grid: Grid, x: np.ndarray):
    """The FullState (13 rows) or LimitState (4 rows) viewing the stack x."""
    n, *vectors = _split(x)
    cls = FullState if len(vectors) == 4 else LimitState
    return cls(ScalarField(grid, n), *(VectorField(grid, v) for v in vectors))


def _div_sym(grid: Grid, t: np.ndarray) -> np.ndarray:
    """ik . t for symmetric tensors (..., 6, *half) -> (..., 3, *half)."""
    k = grid.half_wavenumbers
    out = k[0] * np.take(t, _SYM_FULL[:, 0], axis=-4)
    for j in range(1, grid.dims_active):
        out += k[j] * np.take(t, _SYM_FULL[:, j], axis=-4)
    out *= 1j
    return out


def _visc_hat(grid: Grid, p: Params, v: np.ndarray) -> np.ndarray:
    """mu lap v + (mu+lam) grad div v for half-spectrum vectors (..., 3, *half)."""
    k = grid.half_wavenumbers
    kv = (k * v).sum(axis=-4, keepdims=True)
    return -p.mu * grid.k_squared[grid.half_cut] * v - (p.mu + p.lam) * k * kv


def _curl_hat(grid: Grid, v: np.ndarray) -> np.ndarray:
    return 1j * _cross(grid.half_wavenumbers, v)


def _fluid_products(p: Params, n: np.ndarray, u: np.ndarray, extra: int) -> np.ndarray:
    """Grid products of the fluid part, then ``extra`` rows left for the caller:
    n u and the momentum flux n u u^T/(1+eps) + (1+eps) eta/tau P(n) I.
    ``n`` is (..., 1, *shape), so it broadcasts over the components of u."""
    prod = np.empty(u.shape[:-4] + (9 + extra,) + u.shape[-3:])
    nu, flux = prod[_ROWS[0, 3]], prod[_ROWS[3, 9]]
    np.multiply(n, u, out=nu)
    np.multiply(nu[_SYM_ROW], u[_SYM_COL] / (1.0 + p.epsilon), out=flux)
    pressure = ((1.0 + p.epsilon) * p.eta / p.tau) * p.pressure.pressure(n)
    for diag in _SYM_DIAG:  # row by row: a fancy-indexed += costs twice as much
        flux[_ROWS[diag, diag + 1]] += pressure
    return prod


def _continuity(grid: Grid, p: Params, nu_hat: np.ndarray) -> np.ndarray:
    """dn = -div(n u)/(1+eps), masked, from the transformed n u."""
    div = 1j * (grid.half_wavenumbers * nu_hat).sum(axis=-4)
    return (-1.0 / (1.0 + p.epsilon)) * grid.half_dealias_mask * div


def _to_primitive(grid: Grid, out: np.ndarray, state: np.ndarray, rows: int) -> None:
    """Turn d_t n (row 0 of ``out``) and the conservative rates d_t(n v)
    (rows 1:rows) into d_t v = (d_t(n v) - v d_t n)/n, masked, in place."""
    cons = array_irfft(grid, out[_ROWS[0, rows]])
    n, dn = state[_ROWS[0, 1]], cons[_ROWS[0, 1]]
    quot = (cons[_ROWS[1, rows]] - state[_ROWS[1, rows]] * dn) / n
    out[_ROWS[1, rows]] = grid.half_dealias_mask * array_rfft(grid, quot)


def _full_products(p: Params, kap, n, u, J, E, B) -> np.ndarray:
    """Grid products of ``_full_rate``: n u, the fluxes F and C, the sources
    of d(nu) and d(nJ), and n J.  ``kap`` is a float or a member column."""
    eps = p.epsilon
    inv = 1.0 / (1.0 + eps)
    a_coef = (1.0 + eps) / (p.tau * eps)
    prod = _fluid_products(p, n, u, 15)
    nu, flux = prod[_ROWS[0, 3]], prod[_ROWS[3, 9]]
    cur_flux, src = prod[_ROWS[9, 15]], prod[_ROWS[18, 21]]
    nJ = np.multiply(n, J, out=prod[_ROWS[21, 24]])
    nJJ = nJ[_SYM_ROW] * J[_SYM_COL]
    flux += (inv * eps) * nJJ
    np.multiply(nu[_SYM_ROW], J[_SYM_COL], out=cur_flux)
    cur_flux += nJ[_SYM_ROW] * u[_SYM_COL]
    cur_flux += (eps - 1.0) * nJJ
    cur_flux *= inv
    nJxB = _cross(nJ, B)
    np.multiply(kap / p.tau, nJxB, out=prod[_ROWS[15, 18]])
    np.multiply(a_coef * n, E, out=src)
    src += (kap / (p.tau * eps)) * _cross(nu, B)
    src += ((eps - 1.0) * kap / (p.tau * eps)) * nJxB
    # kap * kap, not kap**2: a float's ** (libm pow) and an array's ** (a
    # square) round differently in about 1e-3 of cases
    src -= (a_coef * p.kappa_ei * p.k_rate * (kap * kap)) * n * nJ
    return prod


def _full_rate(grid: Grid, p: Params, x: np.ndarray, kappa=None, guard=None) -> np.ndarray:
    """Primitive rates of the scaled system in the variables (n, u, J, E, B).

    ``x`` is the stacked state with J = kappa j~ on the half-spectrum, of
    shape (13, *half) or (K, 13, *half) for a batch; the result is its time
    derivative in the same layout.  ``kappa`` replaces ``p.kappa``, e.g. by
    a (K, 1, 1, 1, 1) column.  ``guard``, the arguments after n of
    ``_require_positive``, makes a density that is not positive on the grid
    raise VacuumError before the pressure law sees it.

    dn      = -1/(1+eps) div(n u)
    d(nu)   = -div F + mu lap u + (mu+lam) grad div u + kappa/tau n J x B
    d(nJ)   = -div C + mu lap J + (mu+lam) grad div J + S
    dE      = curl B/kappa - P(n J),    dB = -curl E/kappa

    with the fluxes F = (n u u^T + eps n J J^T)/(1+eps) + (1+eps) eta/tau P(n) I,
    C = ((eps-1) n J J^T + n (u J^T + J u^T))/(1+eps), the source
    S = a n E + kappa/(tau eps) n u x B + (eps-1) kappa/(tau eps) n J x B
    - a kappa_ei k_rate kappa^2 n^2 J with a = (1+eps)/(tau eps), and P the
    Leray projector.  The momentum equations are converted to primitive form
    via d_t u = (d_t(nu) - u d_t n)/n, and likewise for J.
    """
    kap = p.kappa if kappa is None else kappa
    state = array_irfft(grid, x)
    n = state[_ROWS[0, 1]]
    if guard is not None:
        _require_positive(n, *guard)
    hat = array_rfft(grid, _full_products(p, kap, n, *_split(state)[1:]))
    lead, half = hat.shape[:-4], hat.shape[-3:]
    mask = grid.half_dealias_mask
    out = np.empty_like(x)
    out[_ROWS[0]] = _continuity(grid, p, hat[_ROWS[0, 3]])
    flux = hat[_ROWS[15, 21]].reshape(lead + (2, 3) + half) - _div_sym(
        grid, hat[_ROWS[3, 15]].reshape(lead + (2, 6) + half))
    out[_ROWS[1, 7]] = (mask * flux + _visc_hat(grid, p, x[_ROWS[1, 7]].reshape(lead + (2, 3) + half))
                        ).reshape(lead + (6,) + half)
    out[_ROWS[7, 10]] = (_curl_hat(grid, x[_ROWS[10, 13]]) / kap
                         - half_leray_project(grid, mask * hat[_ROWS[21, 24]]))
    out[_ROWS[10, 13]] = _curl_hat(grid, x[_ROWS[7, 10]]) / -kap
    _to_primitive(grid, out, state, 7)
    return out


def _limit_rate(grid: Grid, p: Params, x: np.ndarray, guard=None) -> np.ndarray:
    """Primitive rates of the limit system for the stacked half-spectrum (n, u):
    dn = -1/(1+eps) div(n u) and d(nu) = -div F + mu lap u + (mu+lam) grad div u
    with the fluid flux F of ``_full_rate`` at J = 0; ``x`` and ``guard`` as
    there."""
    state = array_irfft(grid, x)
    n = state[_ROWS[0, 1]]
    if guard is not None:
        _require_positive(n, *guard)
    hat = array_rfft(grid, _fluid_products(p, n, state[_ROWS[1, 4]], 0))
    mask = grid.half_dealias_mask
    out = np.empty_like(x)
    out[_ROWS[0]] = _continuity(grid, p, hat[_ROWS[0, 3]])
    out[_ROWS[1, 4]] = mask * -_div_sym(grid, hat[_ROWS[3, 9]]) + _visc_hat(grid, p, x[_ROWS[1, 4]])
    _to_primitive(grid, out, state, 4)
    return out


# Certificate-form helpers: each takes physical arrays and returns the
# half-spectrum coefficients of one term, masked as its final operation.


def _masked(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """2/3-masked coefficients of a (nonlinear-product) field."""
    return grid.half_dealias_mask * array_rfft(grid, arr)


def _masked_div(grid: Grid, t: np.ndarray) -> np.ndarray:
    """Masked divergence of a product vector (3, *shape) or tensor
    (3, 3, *shape), contracting its last component axis."""
    return grid.half_dealias_mask * half_divergence(grid, array_rfft(grid, t))


def _div_outer(grid: Grid, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Masked divergence of the tensor w * (a x b): out_i = sum_j d_j(w a_i b_j)."""
    return _masked_div(grid, w * a[:, None] * b[None, :])


def _grad_nl(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Masked gradient of a (nonlinear) scalar field."""
    return grid.half_dealias_mask * (1j * grid.half_wavenumbers * array_rfft(grid, a))


def _two_fluid_rate(grid: Grid, p: Params, n, u_e, u_i, E, B, alpha, beta):
    """Conservative rates of the original two-fluid form.

    The electron/ion pressures are P_e = eps*P and P_i = P; alpha is the
    squared reciprocal light speed and beta the induced-field strength.
    """
    eps = p.epsilon
    D = lambda arr: _masked(grid, arr)
    visc = lambda v: _visc_hat(grid, p, array_rfft(grid, v))
    curl = lambda v: _curl_hat(grid, array_rfft(grid, v))
    grad_p = _grad_nl(grid, p.pressure.pressure(n))
    fric = p.kappa_ei * beta / p.kappa**2 * p.k_rate

    dn = -_masked_div(grid, n * u_i)
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
    dE = (curl(B) - beta * current) / alpha
    dB = -curl(E)
    return _split(array_irfft(grid, _stack(dn, dnu_e, dnu_i, dE, dB)))


def _reformed_rate(grid: Grid, p: Params, n, u, jt, E, B, alpha, beta):
    """Conservative rates of the substituted system in (n, u, j~, E, B).

    Returns (dn, d(nu), kappa d(n j~), dE, dB); the Maxwell pair keeps the
    unscaled fields, so alpha and beta appear explicitly.
    """
    eps = p.epsilon
    inv = 1.0 / (1.0 + eps)
    kap = p.kappa
    D = lambda arr: _masked(grid, arr)
    visc = lambda v: _visc_hat(grid, p, array_rfft(grid, v))
    curl = lambda v: _curl_hat(grid, array_rfft(grid, v))

    dn = -inv * _masked_div(grid, n * u)
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
    dE = (curl(B) - beta * D(n * jt)) / alpha
    dB = -curl(E)
    return _split(array_irfft(grid, _stack(dn, dnu, dnj, dE, dB)))


# ---------------------------------------------------------------------------
# public right-hand sides


def rhs_full(s: FullState, p: Params) -> FullRate:
    """Time derivative of the scaled system; dJ is d(kappa j~)/dt."""
    validate_full_state(s)
    grid = s.grid
    x = _stack(s.n.values, s.u.values, p.kappa * s.jt.values, s.E.values, s.B.values)
    dn, du, dJ, dE, dB = _split(array_irfft(grid, _full_rate(grid, p, array_rfft(grid, x))))
    return FullRate(
        ScalarField(grid, dn),
        VectorField(grid, du),
        VectorField(grid, dJ),
        VectorField(grid, dE),
        VectorField(grid, dB),
    )


def rhs_limit(s: LimitState, p: Params) -> LimitRate:
    """Time derivative of the one-fluid compressible limit system."""
    validate_limit_state(s)
    grid = s.grid
    x = array_rfft(grid, _stacked(s))
    dn, du = _split(array_irfft(grid, _limit_rate(grid, p, x)))
    return LimitRate(ScalarField(grid, dn), VectorField(grid, du))


def rhs_twofluid(
    s: TwoFluidState, p: Params, alpha: float | None = None, beta: float | None = None
) -> TwoFluidRate:
    """Conservative time derivative of the original two-fluid form.

    Defaults fold in the scaling assumptions alpha = kappa^2, beta = alpha^2.
    """
    _same_grid(s.n, s.u_e, s.u_i, s.E, s.B)
    if s.n.values.min() <= 0.0:
        raise VacuumError("vacuum state: min density <= 0")
    alpha = p.kappa**2 if alpha is None else alpha
    beta = p.kappa**4 if beta is None else beta
    grid = s.grid
    dn, dnu_e, dnu_i, dE, dB = _two_fluid_rate(
        grid, p, s.n.values, s.u_e.values, s.u_i.values, s.E.values, s.B.values,
        alpha, beta,
    )
    return TwoFluidRate(
        ScalarField(grid, dn),
        VectorField(grid, dnu_e),
        VectorField(grid, dnu_i),
        VectorField(grid, dE),
        VectorField(grid, dB),
    )


# ---------------------------------------------------------------------------
# reformulation certificate


def _rel_discrepancy(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    num = math.sqrt(grid_integral(grid, (a - b) ** 2 if a.ndim == 3 else ((a - b) ** 2).sum(axis=0)))
    sa = math.sqrt(grid_integral(grid, a**2 if a.ndim == 3 else (a**2).sum(axis=0)))
    sb = math.sqrt(grid_integral(grid, b**2 if b.ndim == 3 else (b**2).sum(axis=0)))
    scale = max(sa, sb)
    if scale == 0.0:
        return 0.0
    return num / scale


@dataclass(frozen=True)
class ReformReport:
    """Relative residuals certifying the substitution and scaling algebra.

    ``recast``  compares linear combinations of the two-fluid momentum
    rates against a direct evaluation of the substituted system;
    ``scaling`` compares the substituted system, after inserting
    beta = alpha^2, alpha = kappa^2 and rescaling (E, B), against the
    production right-hand side of the scaled system.  The continuity and
    E-equation entries vanish only for states whose current n(u_i - u_e)
    is solenoidal, as it is along solutions.
    """

    recast: dict[str, float]
    scaling: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(*self.recast.values(), *self.scaling.values())


def reformulation_check(s: TwoFluidState, p: Params) -> ReformReport:
    """Numerically certify the two-fluid -> combined -> scaled derivation."""
    grid = s.grid
    alpha = p.kappa**2
    beta = p.kappa**4
    eps = p.epsilon
    kap = p.kappa

    n = s.n.values
    u_e = s.u_e.values
    u_i = s.u_i.values
    E = s.E.values
    B = s.B.values

    # combined variables: u = u_i + eps u_e, j~ = (u_i - u_e)/kappa
    u = u_i + eps * u_e
    jt = (u_i - u_e) / kap

    tf = _two_fluid_rate(grid, p, n, u_e, u_i, E, B, alpha, beta)
    rf = _reformed_rate(grid, p, n, u, jt, E, B, alpha, beta)

    recast = {
        "n": _rel_discrepancy(grid, tf[0], rf[0]),
        # (1/tau)(electron eq) + (1/tau)(ion eq): d_t(n u)
        "nu": _rel_discrepancy(grid, eps * tf[1] + tf[2], rf[1]),
        # -(1/(tau eps))(electron eq) + (1/tau)(ion eq): kappa d_t(n j~)
        "njt": _rel_discrepancy(grid, tf[2] - tf[1], rf[2]),
        "E": _rel_discrepancy(grid, tf[3], rf[3]),
        "B": _rel_discrepancy(grid, tf[4], rf[4]),
    }

    # scaling step: E -> kappa E', B -> kappa^2 B' turns the substituted
    # system into the scaled production system
    E_s = E / kap
    B_s = B / kap**2
    J = kap * jt
    fn, fu, fJ, fE, fB = _split(
        array_irfft(grid, _full_rate(grid, p, array_rfft(grid, _stack(n, u, J, E_s, B_s))))
    )
    # compare in primitive variables, converting the substituted rates the
    # same way the production side does (same dealias placement)
    du_rf, dJ_rf = array_irfft(grid, _masked(grid, np.stack([(rf[1] - u * rf[0]) / n,
                                                             (rf[2] - J * rf[0]) / n])))
    scaling = {
        "n": _rel_discrepancy(grid, rf[0], fn),
        "u": _rel_discrepancy(grid, du_rf, fu),
        "J": _rel_discrepancy(grid, dJ_rf, fJ),
        "E": _rel_discrepancy(grid, rf[3], kap * fE),
        "B": _rel_discrepancy(grid, rf[4], kap**2 * fB),
    }
    return ReformReport(recast=recast, scaling=scaling)


def random_two_fluid_state(
    grid: Grid,
    p: Params,
    seed: int,
    *,
    max_wavenumber: float = 4.0,
    amplitude: float = 0.1,
) -> TwoFluidState:
    """Band-limited random state with solenoidal current n(u_i - u_e).

    The velocity difference is w/n for a divergence-free w, so div j = 0
    holds as it does along solutions; E and B are projected too.
    """
    def scalar(tag):
        f = random_smooth_field(
            grid, derive_seed(seed, tag), 0.5,
            max_wavenumber=max_wavenumber, zero_mean=True,
        )
        return f.values / max(sup_norm(f), 1e-300)

    def vector(tag):
        v = random_smooth_vector(
            grid, derive_seed(seed, tag), 0.5,
            max_wavenumber=max_wavenumber, zero_mean=True,
        )
        return v.values / max(sup_norm(v), 1e-300)

    n = 1.0 + amplitude * scalar(1)
    u_i = amplitude * vector(2)
    solenoidal = np.stack([vector(3), vector(4), vector(5)])
    w, E, B = amplitude * array_irfft(grid, half_leray_project(grid, array_rfft(grid, solenoidal)))
    u_e = u_i - w / n
    return TwoFluidState(
        ScalarField(grid, n),
        VectorField(grid, u_e),
        VectorField(grid, u_i),
        VectorField(grid, E),
        VectorField(grid, B),
    )
