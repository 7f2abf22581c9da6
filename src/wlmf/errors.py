"""Exception types raised by the library, and the integer, real and array
checks its arguments share. The array rule: a ragged nesting, an array of
strings (numeric ones included), booleans or objects, or a list with a bool
anywhere in it, raises ``InvalidParameterError``; integer and real arrays,
and complex ones where complex values are taken, are converted. A
dimension count the argument cannot have then raises
``DimensionMismatchError``, and a NaN or infinite entry
``NonFiniteInputError``."""

import numbers
import operator

import numpy as np


class WlmfError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(WlmfError, ValueError):
    """Operand shapes are incompatible."""


class EmptyInputError(WlmfError, ValueError):
    """An input that must be nonempty was empty."""


class NonFiniteInputError(WlmfError, ValueError):
    """An input held a NaN or infinite entry."""


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


def _as_array(name: str, value, ndim, finite: bool = True, dtype=complex) -> np.ndarray:
    """``value`` as an array of ``dtype`` under the array rule, with a
    dimension count in ``ndim`` (any when None), finite unless ``finite`` is
    False. The dtype is checked first: the conversion reads ``"1"`` as 1."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise InvalidParameterError(f"{name} must be a rectangular array") from None
    if array.dtype.kind not in ("iufc" if np.dtype(dtype).kind == "c" else "iuf"):
        raise InvalidParameterError(f"{name} must hold numbers, got dtype {array.dtype}")
    if not isinstance(value, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat
    ):
        raise InvalidParameterError(f"{name} must hold numbers, got a bool entry")
    array = array.astype(dtype, copy=False)
    if ndim is not None and array.ndim not in ndim:
        raise DimensionMismatchError(f"{name} must have ndim in {ndim}, got shape {array.shape}")
    if finite and not np.isfinite(array).all():
        raise NonFiniteInputError(f"{name} contains non-finite entries")
    return array
