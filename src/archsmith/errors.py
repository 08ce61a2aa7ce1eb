"""Exception types shared across the package, and the config field parser
that raises them."""


class ArchsmithError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(ArchsmithError):
    """Raised when inputs violate a documented precondition or invariant."""


class FormatError(ValidationError):
    """Raised when a serialized document is malformed or has the wrong tag."""


def parse_field(obj: dict, name: str, parse, what: str):
    """``parse(obj[name])``, or a FormatError naming the field of ``what``
    whose value ``parse`` rejects.  A missing field raises ``KeyError``."""
    value = obj[name]
    try:
        return parse(value)
    except (TypeError, ValueError):
        raise FormatError(f"bad {what}: field {name!r} is {value!r}, "
                          f"not a valid {parse.__name__}") from None
