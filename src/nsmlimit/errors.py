"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all solver-level failures."""


class VacuumError(SimulationError):
    """Density reached zero or became negative.

    ``member`` is the index of the failing state within a batch of states
    stepped together (0 for a single state; None where no step is involved).
    """

    def __init__(self, message: str = "", member: int | None = None):
        self.member = member
        super().__init__(message)


class ConstraintDriftError(SimulationError):
    """A divergence constraint (div E = 0 or div B = 0) drifted beyond tolerance."""


class BlowUpError(SimulationError):
    """NaN/Inf detected during time stepping; ``member`` as for VacuumError."""

    def __init__(self, time: float, message: str | None = None, member: int | None = None):
        self.time = time
        self.member = member
        super().__init__(message or f"blow-up detected at t={time:g}")


class GridMismatchError(SimulationError):
    """Fields defined on different grids were combined."""


class InactiveAxisError(SimulationError):
    """A differential operator was requested along a collapsed grid axis."""


class SnapshotSpacingError(SimulationError):
    """Snapshots handed to a time-centered audit are not uniformly spaced."""


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""
