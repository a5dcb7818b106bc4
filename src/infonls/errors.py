"""Exception types shared across the package."""


class InfonlsError(Exception):
    """Base class for all package errors."""


class ZeroNormError(InfonlsError):
    """Wavefunction norm too small to normalize."""


class StepTooLargeError(InfonlsError):
    """Requested density shift exceeds the grid size."""


class IncommensurateShiftError(InfonlsError):
    """A shift distance is not an integer number of grid steps."""


class UnstableStepError(InfonlsError):
    """Time step exceeds the explicit-scheme stability bound."""


class NonFiniteError(InfonlsError):
    """A non-finite value appeared where finite data is required."""


class NonFiniteEvolutionError(NonFiniteError):
    """Evolution produced non-finite amplitudes; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConvergenceFailureError(InfonlsError):
    """Eigensolver failed to converge."""


class NodeDetectedError(InfonlsError):
    """Density has a (near-)node where a strictly positive profile is required."""


class NonFiniteObjectiveError(InfonlsError):
    """Objective returned a non-finite value during minimization."""


class ParameterDomainError(InfonlsError):
    """Parameter outside its mathematical domain."""


class DomainTooShortError(InfonlsError):
    """Spatial domain too short for the requested decaying state."""


class AllPointsExcludedError(InfonlsError):
    """Every grid point fell into an exclusion zone; nothing to verify."""


class ConfigParseError(InfonlsError):
    """Config text could not be parsed; message carries the line number."""


class ConfigValidationError(InfonlsError):
    """Config parsed but failed validation; message carries the line number."""


class UnregularizedEtaWarning(UserWarning):
    """eta = 1 evaluates the unregularized, singular limit of the theory."""
