"""Exception types shared across the package."""

__all__ = [
    "SatcyclesError",
    "CenterRegimeError",
    "CountUnstableError",
    "NoConvergenceError",
    "OrderViolatedError",
    "BracketFailedError",
    "BadRegimeError",
    "AtBifurcationError",
    "ZoneSwitchLimitError",
    "InvariantViolatedError",
    "UsageError",
]


class SatcyclesError(Exception):
    """Base class for all package-specific errors."""


class CenterRegimeError(SatcyclesError):
    """Cycle search refused: the equation has a continuum of periodic solutions."""


class CountUnstableError(SatcyclesError):
    """A root count cannot be certified: a cell of the root scan stays
    undecided down to adjacent doubles, a refined root fails its check, or
    the count at lam = 0 is even."""


class NoConvergenceError(SatcyclesError):
    """An iterative solver did not reach its residual target."""


class OrderViolatedError(SatcyclesError):
    """No damping factor keeps the crossing times strictly ordered."""


class BracketFailedError(SatcyclesError):
    """A sign-change bracket could not be established within the allowed bound."""


class BadRegimeError(SatcyclesError):
    """Operation requires a*b < 0 (the only regime with bifurcations)."""


class AtBifurcationError(SatcyclesError):
    """The forcing amplitude sits on a bifurcation value; zero counting is undefined."""


class ZoneSwitchLimitError(SatcyclesError):
    """The zone-switch safety cap was hit; signals a tolerance pathology."""


class InvariantViolatedError(SatcyclesError):
    """A computed result fails one of its own consistency checks."""


class UsageError(SatcyclesError):
    """Command-line input is missing or out of range."""
