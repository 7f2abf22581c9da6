"""Exception types raised by the library, and the integer and real checks its
arguments share."""

import numbers
import operator


class WlmfError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(WlmfError, ValueError):
    """Operand shapes are incompatible."""


class EmptyInputError(WlmfError, ValueError):
    """An input that must be nonempty was empty."""


class NonFiniteInputError(WlmfError, ValueError):
    """A matrix held a NaN or infinite entry."""


class NotHermitianError(WlmfError, ValueError):
    """A matrix required to be Hermitian was not."""


class NotSymmetricError(WlmfError, ValueError):
    """A matrix required to be complex symmetric was not."""


class NotPositiveDefiniteError(WlmfError, ValueError):
    """A matrix required to be positive definite was not."""


class InvalidImproprietyError(WlmfError, ValueError):
    """A correlation coefficient left the admissible range."""


class InvalidParameterError(WlmfError, ValueError):
    """A configuration value left its admissible range."""


class InsufficientSamplesError(WlmfError, ValueError):
    """Too few samples for the requested estimate or window length."""


class SingularAtOneError(WlmfError, ValueError):
    """A circularity quotient reached one, where the gain expression blows up."""


class DegenerateWindowError(WlmfError, ValueError):
    """A signal window produced a gain too small to normalize against."""


class DivergenceDetectedError(WlmfError, ArithmeticError):
    """Training produced a non-finite loss."""


class NumericalConsistencyError(WlmfError, ArithmeticError):
    """A numerical self-check failed: a residual or backward error exceeded its bound."""


def _as_int(name: str, value, minimum: int | None) -> int:
    """``value`` as a plain int (numpy integers included); a bool, a value
    that is not an integer or one below ``minimum`` (unless None) raises
    ``InvalidParameterError``."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or (minimum is not None and number < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidParameterError(f"{name} must be an integer{bound}, got {value!r}")
    return number


def _as_float(name: str, value) -> float:
    """``value`` as a plain float (numpy reals included); a bool, a string,
    None or any other value that is not a real number raises
    ``InvalidParameterError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    return float(value)
