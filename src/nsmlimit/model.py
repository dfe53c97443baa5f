"""Physics: parameters, pressure/enthalpy laws and system right-hand sides.

Three systems are evaluated here, all on the periodic torus:

* the scaled two-fluid system in the variables (n, u, j~, E, B), with
  u = u_i + eps*u_e the combined velocity and j~ = j/n the specific
  current; evolution uses the primitive pair (u, J) with J = kappa*j~,
* its one-fluid compressible Navier-Stokes limit in (n0, u0),
* the original two-fluid form in (n, u_e, u_i, E, B), kept purely so the
  variable substitution and scaling algebra between the three forms can
  be certified numerically (``reformulation_check``).

Every nonlinear product is formed pointwise on the grid and dealiased
once, as the final operation of the term it enters.  Intermediate
sub-products are never dealiased: that would break the exact pointwise
identities the reformulation check relies on.
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
    array_curl,
    array_dealias,
    array_divergence,
    array_leray_project,
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
    div_e = np.abs(array_divergence(grid, s.E.values)).max()
    div_b = np.abs(array_divergence(grid, s.B.values)).max()
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
# without wrapping; the public rhs_* functions validate and wrap.


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


# Fused hat-space helpers for the stepping hot path: each takes physical
# arrays, applies the derivative and the 2/3 mask in a single transform
# round trip, and returns physical arrays.  Equivalent to composing the
# spectral-module primitives, just fewer FFT calls.


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


def _fluid_rate(grid: Grid, p: Params, n: np.ndarray, u: np.ndarray):
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


def _full_rate(grid: Grid, p: Params, n, u, J, E, B):
    """Primitive rates of the scaled system in the variables (n, u, J, E, B).

    The momentum equations are converted from conservative form via
    d_t u = (d_t(nu) - u d_t n)/n, and likewise for J = kappa j~.  The
    current source of the E equation is solenoidally projected.
    """
    eps = p.epsilon
    inv = 1.0 / (1.0 + eps)
    a_coef = (1.0 + eps) / (p.tau * eps)
    D = lambda arr: array_dealias(grid, arr)

    dn, mom = _fluid_rate(grid, p, n, u)
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


def _limit_rate(grid: Grid, p: Params, n, u):
    dn, mom = _fluid_rate(grid, p, n, u)
    du = array_dealias(grid, (mom - u * dn) / n)
    return dn, du


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


# ---------------------------------------------------------------------------
# public right-hand sides


def rhs_full(s: FullState, p: Params) -> FullRate:
    """Time derivative of the scaled system; dJ is d(kappa j~)/dt."""
    validate_full_state(s)
    grid = s.grid
    J = p.kappa * s.jt.values
    dn, du, dJ, dE, dB = _full_rate(
        grid, p, s.n.values, s.u.values, J, s.E.values, s.B.values
    )
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
    dn, du = _limit_rate(grid, p, s.n.values, s.u.values)
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
    fn, fu, fJ, fE, fB = _full_rate(grid, p, n, u, J, E_s, B_s)
    # compare in primitive variables, converting the substituted rates the
    # same way the production side does (same dealias placement)
    D = lambda arr: array_dealias(grid, arr)
    du_rf = D((rf[1] - u * rf[0]) / n)
    dJ_rf = D((rf[2] - J * rf[0]) / n)
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
    w = amplitude * array_leray_project(grid, vector(3))
    u_e = u_i - w / n
    E = amplitude * array_leray_project(grid, vector(4))
    B = amplitude * array_leray_project(grid, vector(5))
    return TwoFluidState(
        ScalarField(grid, n),
        VectorField(grid, u_e),
        VectorField(grid, u_i),
        VectorField(grid, E),
        VectorField(grid, B),
    )
