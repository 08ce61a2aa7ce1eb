"""Exception types shared across the package, the value parsers that raise
them, and the one reader and writer of configs and JSON input files."""

import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from typing import get_args, get_type_hints

import numpy as np


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


def integers(values: np.ndarray, place) -> np.ndarray:
    """2-D ``values`` as int64, each float read as ``integer`` reads one;
    the first non-integer, in row order, raises naming ``place(column)``."""
    if values.dtype.kind == "f":
        wrong = ~np.isfinite(values) | (np.trunc(values) != values)
        if wrong.any():
            row, column = np.argwhere(wrong)[0]
            raise ValidationError(f"value {values[row, column]} of "
                                  f"{place(column)} is not an integer")
        values = np.clip(values, -1, 2.0 ** 62)  # a huge one stays too big
    return values.astype(np.int64, copy=False)


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


def seeds(value) -> tuple[int, ...]:
    """Seeds from a JSON list of seeds or an inclusive "lo..hi" string."""
    if isinstance(value, list):
        try:
            return tuple(map(seed, value))
        except (TypeError, ValueError):
            pass
    elif isinstance(value, str):
        parts = value.split("..")
        if len(parts) != 2:
            raise ValidationError(f"bad seed range {value!r}, want 'lo..hi'")
        try:
            lo, hi = seed(int(parts[0])), seed(int(parts[1]))
        except ValueError as exc:
            raise ValidationError(f"bad seed range {value!r}") from exc
        if hi < lo:
            raise ValidationError(f"empty seed range {value!r}")
        return tuple(range(lo, hi + 1))
    raise ValidationError(f"bad seed list {value!r}")


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
    unknown = sorted(obj.keys() - cls.__dataclass_fields__.keys())
    if unknown:
        raise ValidationError(f"unknown {what} key(s): {', '.join(unknown)}")
    return obj


def parse_field(obj: dict, name: str, parse, what: str):
    """``parse(obj[name])``, or a FormatError naming the field of ``what``
    whose value ``parse`` rejects.  A missing field raises ``KeyError``."""
    value = obj[name]
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError):  # parse again, to name it
        return parse_value(value, parse, f"{what}: field {name!r}")


# The parser of a config field by its type; a string is passed through to
# the config's own checks, and a nested config is read as a section.
_PARSERS = {int: integer, float: number, bool: boolean,
            str: lambda value: value, tuple[str, ...]: vocabulary,
            tuple[int, ...]: seeds}


@cache
def _readers(cls) -> tuple:
    """Per field of config class ``cls``, resolved once: its name, its
    parser (``seed`` for an int named ``seed`` or ``*_seed``), whether it
    may be null, and whether it is a nested config."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = hints[f.name]
        optional = type(None) in get_args(kind)
        if optional:
            kind = next(a for a in get_args(kind) if a is not type(None))
        nested = is_dataclass(kind)
        parse = (kind if nested else seed if kind is int
                 and f.name.endswith("seed") else _PARSERS[kind])
        out.append((f.name, parse, optional, nested))
    return tuple(out)


def read_config(cls, obj, base: dict | None = None, what: str | None = None):
    """A ``cls`` config from JSON object ``obj``, each field read by the
    parser its type names; a key that names no field is rejected.  A
    missing field takes its value from dict ``base``, or else is an error;
    a nested config is read as a section onto the base's value for it.
    ``what`` names the config in errors, by default after its class."""
    what = what or cls.__name__.removesuffix("Config").lower() + " config"
    known_keys(obj, cls, what)
    kwargs = {}
    for name, parse, optional, nested in _readers(cls):
        if name not in obj:
            if base is None or name not in base:
                raise FormatError(f"bad {what}: missing key {name!r}")
            kwargs[name] = base[name]
        elif optional and obj[name] is None:
            kwargs[name] = None
        elif nested:
            inner = base and base.get(name)
            kwargs[name] = read_config(parse, obj[name], inner and vars(inner))
        else:
            kwargs[name] = parse_field(obj, name, parse, what)
    return cls(**kwargs)


def config_to_json(config) -> dict:
    """The JSON object of a config, which ``read_config`` reads back: one
    key per field, tuples as lists and nested configs as objects.  Only
    fields are read, so a value an instance caches (a hash) is not."""
    return {f.name: value if isinstance(value, (str, int, float, type(None)))
            else list(value) if isinstance(value, tuple)
            else config_to_json(value)
            for f in fields(config) for value in (getattr(config, f.name),)}


def field_defaults(cls) -> dict:
    """The default of each field of dataclass ``cls`` that has one."""
    return {f.name: f.default if f.default_factory is MISSING
            else f.default_factory() for f in fields(cls)
            if f.default is not MISSING or f.default_factory is not MISSING}


@contextmanager
def open_text(path, newline=None):
    """``path`` opened to read as UTF-8 text; a byte that is not UTF-8
    raises a FormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_json(path, read):
    """``read`` of the JSON document in file ``path``.  A file that is not
    UTF-8 text or not JSON raises a FormatError naming it, and an error
    ``read`` raises on the document is raised again, naming the file."""
    with open_text(path) as handle:
        try:
            doc = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from None
    try:
        return read(doc)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_json_line(line: str):
    """The JSON value on one line of a JSON Lines file; a line that is not
    JSON, or is nested too deeply to read, raises a FormatError."""
    try:
        return json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise FormatError(f"not valid JSON ({reason})") from None
