"""Construction of well-prepared initial data.

Well-prepared means the full-system data sits within O(kappa) of the
limit-system data in H^l: perturbations of the density, velocity and the
electromagnetic fields are scaled by kappa, and the specific current is
O(1) so that kappa*j~ is O(kappa).  Each perturbation is band-limited
(default modes |k| <= 4) so H^4 norms are grid-converged already at 64
points per axis, and is normalized so the five contributions share the
hypothesis budget c0*kappa equally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import ErrorState, _error_hat, _field_norms, gamma_norm
from .errors import VacuumError
from .model import FullState, LimitState
from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    array_irfft,
    derive_seed,
    half_divergence,
    leray_project,
    random_smooth_field,
    random_smooth_vector,
    sobolev_norm,
    sup_norm,
)

__all__ = [
    "WellPreparedSpec",
    "make_limit_data",
    "make_well_prepared",
    "hypothesis_norm",
    "hypothesis_certificate",
]

# keep the certified norm strictly inside the c0*kappa budget
_BUDGET_SAFETY = 0.999
_DECAY = 0.5


@dataclass(frozen=True)
class WellPreparedSpec:
    """Recipe for full-system initial data near a limit-system base.

    seeds are the five independent perturbation streams for
    (density, velocity, current, E, B); c0 is the hypothesis constant;
    with well_prepared=False the perturbations are not scaled by kappa
    (exploratory regime, no convergence claims attach).
    """

    base: LimitState
    seeds: tuple[int, int, int, int, int]
    c0: float
    kappa: float
    l: float = 4.0
    max_wavenumber: float = 4.0
    well_prepared: bool = True

    def __post_init__(self):
        if self.base.n.values.min() <= 0:
            raise VacuumError("vacuum state: base density must be positive")
        if self.c0 < 0:
            raise ValueError("c0 must be nonnegative (0 switches perturbations off)")
        if not (0 < self.kappa <= 1):
            raise ValueError("kappa must lie in (0, 1]")

    @classmethod
    def from_seed(
        cls,
        base: LimitState,
        seed: int,
        c0: float,
        kappa: float,
        l: float = 4.0,
        max_wavenumber: float = 4.0,
        well_prepared: bool = True,
    ) -> "WellPreparedSpec":
        seeds = tuple(derive_seed(seed, 11 + i) for i in range(5))
        return cls(base, seeds, c0, kappa, l, max_wavenumber, well_prepared)


def make_limit_data(
    grid: Grid,
    seed: int,
    amplitude: float,
    velocity_amplitude: float | None = None,
    max_wavenumber: float = 4.0,
) -> LimitState:
    """Smooth limit-system data n0 = 1 + amplitude * (zero-mean field).

    The density perturbation is sup-normalized, so min n0 >= 1 - amplitude.
    """
    if amplitude >= 1.0:
        raise VacuumError("vacuum risk: amplitude must be < 1")
    if velocity_amplitude is None:
        velocity_amplitude = amplitude
    n = np.ones(grid.shape)
    if amplitude > 0.0:
        f = random_smooth_field(
            grid, derive_seed(seed, 1), _DECAY,
            max_wavenumber=max_wavenumber, zero_mean=True,
        )
        n = n + amplitude * f.values / max(sup_norm(f), 1e-300)
    u = np.zeros((3,) + grid.shape)
    if velocity_amplitude > 0.0:
        v = random_smooth_vector(
            grid, derive_seed(seed, 2), _DECAY,
            max_wavenumber=max_wavenumber, zero_mean=True,
        )
        u = velocity_amplitude * v.values / max(sup_norm(v), 1e-300)
    return LimitState(ScalarField(grid, n), VectorField(grid, u))


def _unit_scalar(grid, seed, kmax, l) -> ScalarField:
    f = random_smooth_field(grid, seed, _DECAY, max_wavenumber=kmax, zero_mean=True)
    return f * (1.0 / sobolev_norm(f, l))

def _unit_vector(grid, seed, kmax, l, solenoidal=False) -> VectorField:
    v = random_smooth_vector(grid, seed, _DECAY, max_wavenumber=kmax, zero_mean=True)
    if solenoidal:
        v = leray_project(v)
    return v * (1.0 / sobolev_norm(v, l))


def make_well_prepared(spec: WellPreparedSpec) -> FullState:
    """Full-system initial data satisfying the O(kappa) hypothesis.

    n = n0 + kappa dn, u = u0 + kappa du, j~ = dj, E = kappa dE, B = kappa dB
    with each unit perturbation carrying H^l norm c0/sqrt(5) (dE, dB
    Leray-projected before they are normalized), so the combined hypothesis
    norm is c0*kappa up to roundoff and scales exactly linearly in kappa.
    """
    grid = spec.base.grid
    l = spec.l
    share = _BUDGET_SAFETY * spec.c0 / math.sqrt(5.0)
    scale = spec.kappa if spec.well_prepared else 1.0

    dn = _unit_scalar(grid, spec.seeds[0], spec.max_wavenumber, l) * share
    du = _unit_vector(grid, spec.seeds[1], spec.max_wavenumber, l) * share
    dj = _unit_vector(grid, spec.seeds[2], spec.max_wavenumber, l) * share
    de = _unit_vector(grid, spec.seeds[3], spec.max_wavenumber, l, solenoidal=True) * share
    db = _unit_vector(grid, spec.seeds[4], spec.max_wavenumber, l, solenoidal=True) * share

    n = spec.base.n + scale * dn
    if n.values.min() <= 0.0:
        raise VacuumError("vacuum state: perturbed density nonpositive")
    state = FullState(
        n=n,
        u=spec.base.u + scale * du,
        jt=dj if spec.well_prepared else (1.0 / spec.kappa) * dj,
        E=scale * de,
        B=scale * db,
    )
    if spec.well_prepared:
        norm = hypothesis_norm(state, spec.base, spec.kappa, l)
        if norm > spec.c0 * spec.kappa * (1.0 + 1e-9):
            raise AssertionError(
                f"hypothesis norm {norm} exceeds budget {spec.c0 * spec.kappa}"
            )
    return state


def _hypothesis_error(full: FullState, base: LimitState, kappa: float) -> ErrorState:
    """(n - n0, u - u0, kappa j~, E, B) without the ledger's vacuum check."""
    return ErrorState(full.n - base.n, full.u - base.u, kappa * full.jt, full.E, full.B)


def hypothesis_norm(full: FullState, base: LimitState, kappa: float, l: float) -> float:
    """H^l norm of (n - n0, u - u0, kappa j~, E, B)."""
    return math.sqrt(gamma_norm(_hypothesis_error(full, base, kappa), l))


def hypothesis_certificate(
    full: FullState, base: LimitState, kappa: float, c0: float, l: float
) -> dict:
    """Recompute and record the data hypothesis and constraint residuals."""
    grid = full.grid
    hat = _error_hat(_hypothesis_error(full, base, kappa))
    norm = math.sqrt(sum(x * x for x in _field_norms(grid, hat, l)))
    div_e, div_b = array_irfft(grid, half_divergence(grid, hat[7:].reshape((2, 3) + hat.shape[1:])))
    return {
        "hypothesis_norm": norm,
        "budget": c0 * kappa,
        "satisfied": bool(norm <= c0 * kappa * (1.0 + 1e-9)),
        "div_E0": float(np.abs(div_e).max()),
        "div_B0": float(np.abs(div_b).max()),
    }
