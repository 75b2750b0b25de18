"""Exception hierarchy shared across the package.

Each class maps to one CLI exit code (see the except clauses of
cli.main); library users catch them directly.
"""


class MwwdrError(Exception):
    """Base class for all package errors."""


class ValidationError(MwwdrError):
    """Invalid argument, configuration field, or input schema."""


class IngestionError(ValidationError):
    """CSV parsing failure; carries the offending row when known."""

    def __init__(self, message, row=None):
        self.row = row
        if row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)


class EstimabilityError(MwwdrError):
    """The requested estimand cannot be computed from this dataset
    (single-arm data, no discordant pairs, degenerate response)."""


class SingularDesignError(MwwdrError):
    """Rank-deficient design matrix."""


class SeparationError(MwwdrError):
    """Detected (quasi-)separation while fitting a binary-response model."""


class DerivativeCheckError(MwwdrError):
    """A fit's finite-difference check of its bread's delta row failed: the
    reported standard errors would rest on a wrong derivative."""


class ConvergenceError(MwwdrError):
    """Iterative solver failed to converge; carries last iterate and residual."""

    def __init__(self, message, last_iterate=None, residual=None, iterations=None):
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations
        super().__init__(message)
