"""Construction of well-prepared initial data.

Well-prepared means the full-system data sits within O(kappa) of the
limit-system data in H^l: perturbations of the density, velocity and the
electromagnetic fields are scaled by kappa, and the specific current is
O(1) so that kappa*j~ is O(kappa).  Each perturbation is band-limited
(default modes |k| <= 4) so H^4 norms are grid-converged already at 64
points per axis, and is normalized so the five contributions share the
hypothesis budget c0*kappa equally.

The data are composed as one stacked array of the rows (n, u, j~, E, B),
and the hypothesis norm and certificate are taken of the error stack
(n - n0, u - u0, kappa j~, E, B) (``diagnostics._error_stack``), the rows
whose H^l norms the energy ledger records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import _error_stack, _field_norms
from .errors import VacuumError
from .model import FullState, LimitState, _stacked, _state_view
from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    _smooth_hat,
    _smooth_vector_hat,
    array_irfft,
    array_rfft,
    derive_seed,
    half_divergence,
    half_leray_project,
    random_smooth_field,
    random_smooth_vector,
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


def _perturbations(spec: WellPreparedSpec) -> np.ndarray:
    """The unit perturbation rows (dn, du, dj, dE, dB) of
    ``make_well_prepared`` on the grid, (13, *shape), each field with H^l
    norm share = 0.999 c0/sqrt(5) before the kappa factors.  They depend on
    the spec's seeds, c0, l, max_wavenumber and grid, not on its kappa, so a
    batch of kappas draws them once."""
    grid = spec.base.grid
    share = _BUDGET_SAFETY * spec.c0 / math.sqrt(5.0)
    # the 13 half-spectrum rows of (dn, du, dj, dE, dB), normalized by their
    # H^l norms (Parseval sums) and brought to the grid in one transform
    sample = dict(max_wavenumber=spec.max_wavenumber, zero_mean=True)
    seeds = spec.seeds
    vec = np.stack([_smooth_vector_hat(grid, s, _DECAY, **sample) for s in seeds[1:]])
    vec[2:] = half_leray_project(grid, vec[2:])
    hat = np.concatenate([_smooth_hat(grid, seeds[0], _DECAY, **sample)[None],
                          vec.reshape((12,) + vec.shape[2:])])
    # per row: 1/norm of its field
    inv_norms = np.repeat([1.0 / norm for norm in _field_norms(grid, hat, spec.l)], (1, 3, 3, 3, 3))
    return array_irfft(grid, hat, overwrite=True) * inv_norms[:, None, None, None] * share


def make_well_prepared(spec: WellPreparedSpec, perturbations: np.ndarray | None = None) -> FullState:
    """Full-system initial data satisfying the O(kappa) hypothesis.

    n = n0 + kappa dn, u = u0 + kappa du, j~ = dj, E = kappa dE, B = kappa dB
    with each unit perturbation carrying H^l norm c0/sqrt(5) (dE, dB
    Leray-projected before they are normalized), so the combined hypothesis
    norm is c0*kappa up to roundoff and scales exactly linearly in kappa.
    ``perturbations`` are the spec's unit perturbations
    (``_perturbations``), drawn here if not given; a batch passes the
    ones it drew for a spec differing from this one in kappa alone.
    """
    grid = spec.base.grid
    scale = spec.kappa if spec.well_prepared else 1.0
    jt_factor = 1.0 if spec.well_prepared else 1.0 / spec.kappa
    factors = np.repeat([scale, jt_factor, scale], (4, 3, 6))  # per row of (n, u, j~, E, B)
    if perturbations is None:
        perturbations = _perturbations(spec)
    x = perturbations * factors[:, None, None, None]
    x[:4] += _stacked(spec.base)
    if x[0].min() <= 0.0:
        raise VacuumError(f"vacuum state: perturbed density nonpositive (min n = {x[0].min():.6g})")
    state = _state_view(grid, x)
    if spec.well_prepared:
        norm = hypothesis_norm(state, spec.base, spec.kappa, spec.l)
        if norm > spec.c0 * spec.kappa * (1.0 + 1e-9):
            raise AssertionError(
                f"hypothesis norm {norm} exceeds budget {spec.c0 * spec.kappa}"
            )
    return state


def _error_norm(grid: Grid, hat: np.ndarray, l: float) -> float:
    """H^l norm of an error stack from its ``array_rfft`` coefficients."""
    return math.sqrt(sum(x * x for x in _field_norms(grid, hat, l)))


def hypothesis_norm(full: FullState, base: LimitState, kappa: float, l: float) -> float:
    """H^l norm of (n - n0, u - u0, kappa j~, E, B)."""
    return _error_norm(full.grid, array_rfft(full.grid, _error_stack(full, base, kappa)), l)


def hypothesis_certificate(
    full: FullState, base: LimitState, kappa: float, c0: float, l: float
) -> dict:
    """Recompute and record the data hypothesis and constraint residuals."""
    grid = full.grid
    hat = array_rfft(grid, _error_stack(full, base, kappa))
    norm = _error_norm(grid, hat, l)
    div_e, div_b = array_irfft(grid, half_divergence(grid, hat[7:].reshape((2, 3) + hat.shape[1:])),
                               overwrite=True)
    return {
        "hypothesis_norm": norm,
        "budget": c0 * kappa,
        "satisfied": bool(norm <= c0 * kappa * (1.0 + 1e-9)),
        "div_E0": float(np.abs(div_e).max()),
        "div_B0": float(np.abs(div_b).max()),
    }
