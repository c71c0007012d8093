"""Exception hierarchy shared across the package, and the field-type check
every config class runs on construction.

The CLI maps every AtreeError to exit code 2; the package raises only
ValidationError and its subclasses.
"""

from dataclasses import fields


class AtreeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AtreeError):
    """Invalid argument, configuration, or input data."""


class ParseError(ValidationError):
    """Malformed input file; message names the offending line."""


class SchemaError(ValidationError):
    """Model document is malformed or has an unsupported version."""


_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


def check_field_types(config):
    """Raise ValidationError naming the first field of the dataclass
    instance config whose value does not fit its annotation.

    int is a Python int (a numpy int is not: serialize cannot write one),
    float is an int or a float, and neither is a bool; str is a string; a
    nested config field holds an instance of its config class. None fits
    only an annotation ``T | None``. Annotations are read as the strings
    that ``from __future__ import annotations`` leaves.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional:
            continue
        expected = _FIELD_TYPES.get(kind)
        if expected is None:
            fits = type(value).__name__ == kind
        else:
            fits = isinstance(value, expected) and not isinstance(value, bool)
        if not fits:
            raise ValidationError(f"{type(config).__name__} field {f.name!r} must be "
                                  f"{f.type}, got {value!r}")
