"""Exception types shared across the package."""


class SnapspecError(Exception):
    """Base class for all snapspec errors."""


class FormatError(SnapspecError):
    """A file or stream does not conform to its container format."""


class ValidationError(SnapspecError):
    """Input data violates a documented invariant (NaN, negative response, ...)."""


class UnknownNameError(ValidationError):
    """A strategy name (denoiser, initializer) is not a registered one."""


class DimensionError(SnapspecError):
    """Array shapes are inconsistent with each other or with an operator."""


class ParameterError(SnapspecError):
    """A numeric parameter is outside its admissible range."""


class DivergenceError(ParameterError):
    """An iteration left the finite range: a rate or weight is too large for it."""


class SingularPivotError(SnapspecError):
    """A pivot in the block inversion fell below the representable floor."""


class DegenerateMetricError(SnapspecError):
    """A metric is undefined for the given inputs (e.g. all-zero spectra)."""
