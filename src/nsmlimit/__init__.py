"""Pseudo-spectral two-fluid Navier-Stokes-Maxwell solver, its one-fluid
compressible limit, and diagnostics for the O(kappa) convergence between
them on a periodic torus."""

from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    random_smooth_field,
    random_smooth_vector,
    sobolev_norm,
)
from .model import (
    FullState,
    LimitState,
    Params,
    PressureLaw,
    TwoFluidState,
    reformulation_check,
)
from .integrator import StepControl, build_stiff_operator, evolve, step_full
from .initdata import WellPreparedSpec, make_limit_data, make_well_prepared
from .diagnostics import EnergyLedger, bound_monitor, energy_identity_audit
from .harness import RunConfig, RunRecord, fit_rate, parse_config, run_single, run_sweep

__version__ = "0.1.0"
