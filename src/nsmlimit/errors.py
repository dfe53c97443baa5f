"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all solver-level failures."""


class VacuumError(SimulationError):
    """Density reached zero or became negative.

    ``member`` is the index of the failing state within a batch of states
    stepped together (0 for a single state; None where no step is involved).
    ``time`` is the time the message names, as for BlowUpError (None where
    it names none).  ``status`` is the run status the error ends a run with.
    """

    status = "vacuum"

    def __init__(self, message: str = "", member: int | None = None, time: float | None = None):
        self.member = member
        self.time = time
        super().__init__(message)


class BlowUpError(SimulationError):
    """NaN/Inf detected during time stepping; ``member`` and ``status`` as
    for VacuumError."""

    status = "blowup"

    def __init__(self, time: float, message: str | None = None, member: int | None = None):
        self.time = time
        self.member = member
        super().__init__(message or f"blow-up detected at t={time:g}")


class GridMismatchError(SimulationError):
    """Fields defined on different grids were combined."""


class SnapshotSpacingError(SimulationError):
    """Snapshots handed to a time-centered audit are not uniformly spaced."""


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""
