"""Exception types shared across the package, and the config field parsers
that raise them."""

import math


class ArchsmithError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(ArchsmithError):
    """Raised when inputs violate a documented precondition or invariant."""


class FormatError(ValidationError):
    """Raised when a serialized document is malformed or has the wrong tag."""


def integer(value) -> int:
    """``value`` as an int: an int or an integral float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def number(value) -> float:
    """``value`` as a finite float: an int or a float, never a bool, NaN or
    infinity (Python's JSON reader accepts ``NaN`` and ``Infinity``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if not math.isfinite(value):
        raise ValueError(value)
    return float(value)


def boolean(value) -> bool:
    """``value`` itself, if it is a JSON boolean."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def parse_field(obj: dict, name: str, parse, what: str):
    """``parse(obj[name])``, or a FormatError naming the field of ``what``
    whose value ``parse`` rejects.  A missing field raises ``KeyError``."""
    value = obj[name]
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"bad {what}: field {name!r} is {value!r}, "
                          f"not a valid {parse.__name__}") from None
