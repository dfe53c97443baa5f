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
transformed in one batched call.  The products are laid out so that paired
work is one numpy call (``_full_products``): n u and n J are adjacent, so
one multiply forms both and one cross product with B gives n u x B and
n J x B, and the symmetric tensors are stored diagonal first, so the
pressure is one slice add.  In the call-overhead-bound 1-D steps the number
of numpy calls, not the arithmetic, sets the time; every regrouping keeps
each element's floating-point operations and their order, so the rates
give the same bits as the row-by-row forms (``tests/support.py``).  The
2/3 mask is linear, so the nonlinear terms of each equation are summed
first and masked once (Orszag, J. Atmos. Sci. 28, 1971); the linear
viscous and curl terms stay unmasked.  The rates
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
from functools import lru_cache

import numpy as np

from .errors import VacuumError
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
    "reformulation_check",
    "ReformReport",
    "random_two_fluid_state",
]


@dataclass(frozen=True)
class PressureLaw:
    """Gamma-law pressure P(n) = A n^gamma with P'(n) > 0 on (0, inf)."""

    amplitude: float = 1.0
    gamma: float = 5.0 / 3.0

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("pressure amplitude must be positive")
        if not self.gamma >= 1:
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

    def relative_enthalpy(self, N, rho0):
        """integral_0^N [h(s+rho0) - h(rho0)] ds for rho0 + min(N, 0) > 0, in
        closed form through x = N/rho0.  Both terms of the gamma-law bracket
        carry the factor gamma - 1, so it keeps its relative accuracy as
        gamma -> 1 and up to vacuum (x -> -1); as x -> 0 it loses it like
        eps/|x|, as h(rho0 + N) - h(rho0) does."""
        x = N / rho0
        y = np.log1p(x)
        if self.gamma == 1.0:
            return self.amplitude * rho0 * ((1.0 + x) * y - x)
        g1 = self.gamma - 1.0
        return self.amplitude * rho0**self.gamma * ((1.0 + x) * np.expm1(g1 * y) - g1 * x) / g1


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
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not 2.0 * self.mu + 3.0 * self.lam > 0:
            raise ValueError("2*mu + 3*lam must be positive")
        for name in ("tau", "eta", "kappa_ei", "k_rate"):
            if not getattr(self, name) > 0:
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


# ---------------------------------------------------------------------------
# array-level helpers


class _RowIndex(dict):
    """``x[_ROWS[a, b]]`` is ``x[..., a:b, :, :, :]``, rows a:b along the
    field (or component) axis -4, and ``x[_ROWS[a]]`` is row a.  Each index
    is built once: built on every use it costs twice the indexing itself,
    which shows in the call-overhead-bound 1-D steps."""

    def __missing__(self, key):
        row = slice(*key) if isinstance(key, tuple) else key
        index = self[key] = (Ellipsis, row, slice(None), slice(None), slice(None))
        return index


_ROWS = _RowIndex()


def _fields(f) -> tuple:
    """``x[_fields(f)]`` is ``x[..., f, :, :, :, :]``: entry or entries f
    along axis -5, the field axis of (..., fields, 3, *shape) stacks."""
    return (Ellipsis, f) + (slice(None),) * 4


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the component axis -4 of (..., 3, *shape) arrays, as
    a[1, 2, 0] b[2, 0, 1] - a[2, 0, 1] b[1, 2, 0]."""
    out = a.take(_NEXT, axis=-4) * b.take(_PREV, axis=-4)
    out -= a.take(_PREV, axis=-4) * b.take(_NEXT, axis=-4)
    return out


# Row gathers go through ``ndarray.take``: it costs a third of the same
# fancy index, which shows in the call-overhead-bound 1-D steps.
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


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
# axis.  Symmetric 3x3 tensors are stored diagonal first, as their entries
# (00, 11, 22, 01, 02, 12), so a multiple of I is added to rows 0:3.  The
# symmetric product of vectors a, b multiplies a gathered by _SYM_ROW with
# b gathered by _SYM_COL.

_SYM_ROW = np.array([0, 1, 2, 0, 0, 1])
_SYM_COL = np.array([0, 1, 2, 1, 2, 2])
_SYM_FULL = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])  # storage row of entry (i, j)
# the first and second of a pair of vectors, (..., 2, 3, *shape)
_FIRST, _SECOND = _fields(0), _fields(1)


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
    out = k[0] * t.take(_SYM_FULL[0], axis=-4)
    for j in range(1, grid.dims_active):
        out += k[j] * t.take(_SYM_FULL[j], axis=-4)
    out *= 1j
    return out


@lru_cache(maxsize=8)
def _rate_multipliers(grid: Grid, p: Params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The half-spectrum multipliers of the rates that depend only on the
    grid and the Params, made once per (grid, Params): -mu |k|^2 and
    (mu+lam) k of ``_visc_hat``, and -mask/(1+eps) of ``_continuity``."""
    out = (-p.mu * grid.half_k_squared, (p.mu + p.lam) * grid.half_wavenumbers,
           (-1.0 / (1.0 + p.epsilon)) * grid.half_dealias_mask)
    for a in out:
        a.flags.writeable = False
    return out


def _visc_hat(grid: Grid, p: Params, v: np.ndarray) -> np.ndarray:
    """mu lap v + (mu+lam) grad div v for half-spectrum vectors (..., 3, *half)."""
    lap, grad_div, _ = _rate_multipliers(grid, p)
    kv = (grid.half_wavenumbers * v).sum(axis=-4, keepdims=True)
    out = lap * v
    out -= grad_div * kv
    return out


def _curl_hat(grid: Grid, v: np.ndarray) -> np.ndarray:
    return 1j * _cross(grid.half_wavenumbers, v)


def _momentum_flux(p: Params, n: np.ndarray, nu_row: np.ndarray, u_col: np.ndarray,
                   out: np.ndarray) -> None:
    """The fluid flux n u u^T/(1+eps) + (1+eps) eta/tau P(n) I into ``out``
    (..., 6, *shape), from n u and u gathered by _SYM_ROW and _SYM_COL.
    ``n`` is (..., 1, *shape), so it broadcasts over the components."""
    np.multiply(nu_row, u_col / (1.0 + p.epsilon), out=out)
    diagonal = out[_ROWS[0, 3]]
    diagonal += ((1.0 + p.epsilon) * p.eta / p.tau) * p.pressure.pressure(n)


def _continuity(grid: Grid, p: Params, nu_hat: np.ndarray, out: np.ndarray) -> None:
    """dn = -div(n u)/(1+eps), masked, from the transformed n u, into ``out``."""
    div = (grid.half_wavenumbers * nu_hat).sum(axis=-4)
    np.multiply(1j, div, out=div)
    np.multiply(_rate_multipliers(grid, p)[2], div, out=out)


def _to_primitive(grid: Grid, out: np.ndarray, state: np.ndarray, rows: int) -> None:
    """Turn d_t n (row 0 of ``out``) and the conservative rates d_t(n v)
    (rows 1:rows) into d_t v = (d_t(n v) - v d_t n)/n, masked, in place."""
    cons = array_irfft(grid, out[_ROWS[0, rows]])
    quot = state[_ROWS[1, rows]] * cons[_ROWS[0, 1]]
    np.subtract(cons[_ROWS[1, rows]], quot, out=quot)
    quot /= state[_ROWS[0, 1]]
    np.multiply(grid.half_dealias_mask, array_rfft(grid, quot), out=out[_ROWS[1, rows]])


def _fluid_products(p: Params, n: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Grid products of ``_limit_rate``, (..., 9, *shape): n u (rows 0:3)
    and the fluid flux F (3:9)."""
    prod = np.empty(n.shape[:-4] + (9,) + n.shape[-3:])
    nu = np.multiply(n, u, out=prod[_ROWS[0, 3]])
    _momentum_flux(p, n, nu.take(_SYM_ROW, axis=-4), u.take(_SYM_COL, axis=-4), prod[_ROWS[3, 9]])
    return prod


def _symmetric_fluxes(p: Params, n: np.ndarray, nuJ: np.ndarray, uJ: np.ndarray,
                      flux: np.ndarray, cur_flux: np.ndarray) -> None:
    """The fluxes F and C of ``_full_rate`` into ``flux`` and ``cur_flux``
    (..., 6, *shape), from the pairs (n u, n J) and (u, J), (..., 2, 3,
    *shape).  Its two gathers, (..., 2, 6, *shape) each, are freed on
    return, before the cross products with B: held on, they would raise the
    peak memory of a 3-D step."""
    eps = p.epsilon
    inv = 1.0 / (1.0 + eps)
    row, col = nuJ.take(_SYM_ROW, axis=-4), uJ.take(_SYM_COL, axis=-4)
    nu_row, nJ_row, u_col, J_col = row[_FIRST], row[_SECOND], col[_FIRST], col[_SECOND]
    _momentum_flux(p, n, nu_row, u_col, flux)
    nJJ = nJ_row * J_col
    tmp = np.multiply(inv * eps, nJJ)
    flux += tmp
    np.multiply(nu_row, J_col, out=cur_flux)
    cur_flux += np.multiply(nJ_row, u_col, out=tmp)
    cur_flux += np.multiply(eps - 1.0, nJJ, out=tmp)
    cur_flux *= inv


def _full_products(p: Params, kap, n, uJ, E, B) -> np.ndarray:
    """Grid products of ``_full_rate``, (..., 24, *shape): n u and n J (rows
    0:6), the symmetric fluxes F and C (6:18), and the sources of d(nu) and
    d(nJ) (18:24).  ``uJ`` is the state's (u, J) rows; ``kap`` is a float or
    a member column."""
    eps = p.epsilon
    a_coef = (1.0 + eps) / (p.tau * eps)
    lead, shape = n.shape[:-4], n.shape[-3:]
    pairs = lead + (2, 3) + shape
    prod = np.empty(lead + (24,) + shape)
    nuJ = np.multiply(n, uJ, out=prod[_ROWS[0, 6]]).reshape(pairs)
    nJ, src = prod[_ROWS[3, 6]], prod[_ROWS[21, 24]]
    _symmetric_fluxes(p, n, nuJ, uJ.reshape(pairs), prod[_ROWS[6, 12]], prod[_ROWS[12, 18]])
    xB = _cross(nuJ, B[_fields(None)])
    nuxB, nJxB = xB[_FIRST], xB[_SECOND]
    np.multiply(kap / p.tau, nJxB, out=prod[_ROWS[18, 21]])
    np.multiply(a_coef * n, E, out=src)
    src += np.multiply(kap / (p.tau * eps), nuxB, out=nuxB)
    src += np.multiply((eps - 1.0) * kap / (p.tau * eps), nJxB, out=nJxB)
    # kap * kap, not kap**2: a float's ** (libm pow) and an array's ** (a
    # square) round differently in about 1e-3 of cases
    src -= np.multiply((a_coef * p.kappa_ei * p.k_rate * (kap * kap)) * n, nJ, out=nuxB)
    return prod


def _full_rate(grid: Grid, p: Params, x: np.ndarray, kappa=None, guard=None, n_mean=None) -> np.ndarray:
    """Primitive rates of the scaled system in the variables (n, u, J, E, B).

    ``x`` is the stacked state with J = kappa j~ on the half-spectrum, of
    shape (13, *half) or (K, 13, *half) for a batch; the result is its time
    derivative in the same layout.  ``kappa`` replaces ``p.kappa``, e.g. by
    a (K, 1, 1, 1, 1) column.  ``guard``, the arguments after n of
    ``_require_positive``, makes a density that is not positive on the grid
    raise VacuumError before the pressure law sees it.

    Given a StiffLinearOperator's frozen mean density ``n_mean``, it returns
    the Strang remainder N(y) - L y: u and J lose their viscous term over
    n_mean, J also a n_mean E, dE is P(n_mean J - n J) and dB zero; the
    1/kappa curl terms, shared by N and L, are never formed.

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
    hat = array_rfft(grid, _full_products(p, kap, n, state[_ROWS[1, 7]], state[_ROWS[7, 10]],
                                          state[_ROWS[10, 13]]))
    lead, half = hat.shape[:-4], hat.shape[-3:]
    mask = grid.half_dealias_mask
    out = np.empty_like(x)
    _continuity(grid, p, hat[_ROWS[0, 3]], out[_ROWS[0]])
    flux = _div_sym(grid, hat[_ROWS[6, 18]].reshape(lead + (2, 6) + half))
    np.subtract(hat[_ROWS[18, 24]].reshape(lead + (2, 3) + half), flux, out=flux)
    np.multiply(mask, flux, out=flux)
    visc = _visc_hat(grid, p, x[_ROWS[1, 7]].reshape(lead + (2, 3) + half)).reshape(lead + (6,) + half)
    np.add(flux.reshape(visc.shape), visc, out=out[_ROWS[1, 7]])
    nJ = mask * hat[_ROWS[3, 6]]
    if n_mean is None:
        out[_ROWS[7, 10]] = _curl_hat(grid, x[_ROWS[10, 13]]) / kap - half_leray_project(grid, nJ)
        out[_ROWS[10, 13]] = _curl_hat(grid, x[_ROWS[7, 10]]) / -kap
    else:
        half_leray_project(grid, n_mean * x[_ROWS[4, 7]] - nJ, out=out[_ROWS[7, 10]])
        out[_ROWS[10, 13]] = 0.0
    _to_primitive(grid, out, state, 7)
    if n_mean is not None:
        du = out[_ROWS[1, 7]]
        du -= visc / n_mean
        dJ = out[_ROWS[4, 7]]
        dJ -= ((1.0 + p.epsilon) / (p.tau * p.epsilon) * n_mean) * x[_ROWS[7, 10]]
    return out


def _limit_rate(grid: Grid, p: Params, x: np.ndarray, guard=None, n_mean=None) -> np.ndarray:
    """Primitive rates of the limit system for the stacked half-spectrum (n, u):
    dn = -1/(1+eps) div(n u) and d(nu) = -div F + mu lap u + (mu+lam) grad div u
    with the fluid flux F of ``_full_rate`` at J = 0; ``x``, ``guard`` and
    ``n_mean`` as there: given n_mean, u loses its viscous term divided by it."""
    state = array_irfft(grid, x)
    n = state[_ROWS[0, 1]]
    if guard is not None:
        _require_positive(n, *guard)
    hat = array_rfft(grid, _fluid_products(p, n, state[_ROWS[1, 4]]))
    out = np.empty_like(x)
    _continuity(grid, p, hat[_ROWS[0, 3]], out[_ROWS[0]])
    flux = _div_sym(grid, hat[_ROWS[3, 9]])
    np.negative(flux, out=flux)
    np.multiply(grid.half_dealias_mask, flux, out=flux)
    visc = _visc_hat(grid, p, x[_ROWS[1, 4]])
    np.add(flux, visc, out=out[_ROWS[1, 4]])
    _to_primitive(grid, out, state, 4)
    if n_mean is not None:
        du = out[_ROWS[1, 4]]
        du -= visc / n_mean
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
# reformulation certificate


def _rel_discrepancy(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    norm = lambda f: math.sqrt(grid_integral(grid, f**2 if f.ndim == 3 else (f**2).sum(axis=0)))
    scale = max(norm(a), norm(b))
    return 0.0 if scale == 0.0 else norm(a - b) / scale


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
