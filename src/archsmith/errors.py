"""Exception types shared across the package, and the config field parsers
that raise them."""

import math
from dataclasses import fields


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


def seed(value) -> int:
    """``value`` as an int that numpy's seed sequences accept: one >= 0."""
    value = integer(value)
    if value < 0:
        raise ValueError(value)
    return value


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


def string(value) -> str:
    """``value`` itself, if it is a JSON string."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def vocabulary(value) -> tuple[str, ...]:
    """``value`` as a tuple, if it is a JSON list of strings."""
    if not isinstance(value, list):
        raise TypeError(value)
    return tuple(map(string, value))


def parse_value(value, parse, what: str):
    """``parse(value)``, or a FormatError naming ``what`` if ``parse``
    rejects it."""
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"bad {what} is {value!r}, not a valid "
                          f"{parse.__name__}") from None


def known_keys(obj, cls, what: str) -> dict:
    """``obj``, which must be a JSON object whose keys all name fields of
    dataclass ``cls``; ``what`` names it in errors."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {what} key(s): {', '.join(unknown)}")
    return obj


def parse_field(obj: dict, name: str, parse, what: str):
    """``parse(obj[name])``, or a FormatError naming the field of ``what``
    whose value ``parse`` rejects.  A missing field raises ``KeyError``."""
    return parse_value(obj[name], parse, f"{what}: field {name!r}")
