"""Exception types shared across the package."""


class ChaoskitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ChaoskitError, ValueError):
    """One or more parameter constraints were violated.

    Carries the full list of violations in ``messages`` so callers can
    report every problem at once instead of the first one found.  It is
    also a ValueError, so callers catching bad arguments by that type see it.
    """

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class SingularTime(ChaoskitError):
    """Evaluation was requested at a time where a 1/t^q term is singular."""


class NonFinite(ChaoskitError):
    """An evaluation produced NaN or an overflowing value."""


class InvalidAxis(ChaoskitError):
    """A sweep axis does not name a scalar system parameter."""


class SectionMismatch(ChaoskitError):
    """The requested section type is incompatible with the system."""


class NoBracket(ChaoskitError):
    """The exponent has the same sign at both ends of the search interval."""


class Indeterminate(ChaoskitError):
    """An endpoint exponent sits inside the noise floor; its sign is unreliable."""


class DegenerateSeparation(ChaoskitError):
    """The companion trajectory collapsed onto the reference exactly."""


class DivergedTrajectory(ChaoskitError):
    """A trajectory left the admissible region before the run finished."""

    def __init__(self, at_time):
        self.at_time = float(at_time)
        super().__init__(f"trajectory diverged at t = {self.at_time:.6g}")
