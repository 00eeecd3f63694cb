"""Exception types, and the JSON value rules, shared across the package."""

from numbers import Integral, Real
from sys import float_info


def is_int(value) -> bool:
    """A JSON integer: an ``Integral`` that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON number that fits a float: a ``Real``, not a bool, inf, NaN or a huge integer."""
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= float_info.max


class ReuselabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ReuselabError, ValueError):
    """A caller-supplied argument violates a documented precondition."""


class DataFormatError(ReuselabError):
    """A data file exists but cannot be parsed as expected."""


class SingleClassDataError(ReuselabError):
    """A loaded dataset maps every row to the same label."""


class UnknownCategoryError(ReuselabError):
    """A categorical value falls outside the declared level set."""


class MissingClassError(ReuselabError):
    """A training set contains samples from only one class."""


class SingularDataError(ReuselabError):
    """A fit requires inverting a (numerically) singular matrix."""


class ConvergenceError(ReuselabError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    Carries the remaining duality gap so callers can judge how far off the
    solution is.
    """

    def __init__(self, message, duality_gap=None):
        super().__init__(message)
        self.duality_gap = duality_gap


class DegenerateGridError(ReuselabError):
    """No hypothesis in the grid disagrees on the candidate example."""


class TraceFormatError(ReuselabError):
    """A selection trace file is missing its header or has corrupt rows."""


class ConfigError(ReuselabError):
    """An experiment configuration is malformed or contains unknown keys."""
