"""Exception types shared across the package, the numeric Domain, and the two
input gates: ``as_3d`` for every 3-D array and ``check_params`` for declared
spec keys."""

import math
import numbers
from dataclasses import dataclass

import numpy as np


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


class ParameterError(ValidationError):
    """A numeric parameter is outside its admissible range."""


class DivergenceError(ParameterError):
    """An iteration left the finite range: a rate or weight is too large for it."""


class SingularPivotError(SnapspecError):
    """A pivot in the block inversion fell below the representable floor."""


class DegenerateMetricError(SnapspecError):
    """A metric is undefined for the given inputs (e.g. all-zero spectra)."""


@dataclass(frozen=True)
class Domain:
    """A numeric range [lo, hi], or (lo, hi] with ``lo_open``; hi None is unbounded, and
    ``off`` is one value accepted outside it.  inf and nan lie outside every domain."""

    lo: float
    hi: float | None = None
    lo_open: bool = False
    off: float | None = None

    def __str__(self) -> str:
        interval = "%s%s, %s" % ("(" if self.lo_open else "[", self.lo,
                                 "inf)" if self.hi is None else "%s]" % self.hi)
        return interval if self.off is None else "%s or %s" % (self.off, interval)

    def check(self, value, where: str) -> None:
        """Raise ParameterError naming ``where`` unless ``value`` lies inside.
        Only comparisons: an int of any size is compared exactly.  A bool,
        Python's or numpy's, is refused rather than read as 0 or 1."""
        if isinstance(value, (bool, np.bool_)):
            raise ParameterError("%s: must be a number, not a bool, got %r" % (where, value))
        above = value == math.inf if self.hi is None else not value <= self.hi
        below = not (self.lo < value if self.lo_open else self.lo <= value)
        if (above or below) and value != self.off:
            raise ParameterError("%s: must be in %s, got %r" % (where, self, value))

    def check_count(self, value, where: str) -> None:
        """check() for a count: ``value`` must also be an integer, not a bool."""
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ParameterError("%s: must be an integer, got %r" % (where, value))
        self.check(value, where)


SEED = Domain(0)  # an RNG seed: numpy's generators take any integer >= 0
# an anchor weight gamma: the solve divides by it, and every normal positive
# float64 has a finite reciprocal
GAMMA = Domain(float(np.finfo(np.float64).tiny))


def as_3d(array, depth: int | None = None) -> np.ndarray:
    """``array`` as float64: the gate of every cube, PSF stack and coded image.  DimensionError
    unless it has rank 3, no extent of 0 and, if ``depth`` is given, that many channels."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 3 or 0 in array.shape or depth not in (None, array.shape[2]):
        raise DimensionError("expected a 3-D tensor%s%s, got shape %r" % (
            "" if depth is None else " of depth %d" % depth,
            " with no empty extent" if 0 in array.shape else "", array.shape))
    return array


def check_params(owner, where: str, **args) -> None:
    """Check arguments against the domains that ``owner.params`` declares, key -> (argument,
    type, Domain), an int key as a count; a breach names ``where`` and the key."""
    for key, (arg, kind, domain) in owner.params.items():
        (domain.check_count if kind is int else domain.check)(args[arg], "%s: %s" % (where, key))
