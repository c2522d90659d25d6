"""Strict "p/q" parsing, formatting, and float-free coercion helpers.

Every quantity in this package is an exact rational; floats are rejected at
the boundary rather than silently converted. Integer fields take ints only
(is_int): a float, a bool or a string is rejected, never truncated.
exact_int and exact_ints raise InvalidValue naming the field; a reader with
its own error type (families.family_from_json) re-raises that message under
the field's path rather than checking the value a second time.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidValue

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with q > 0; anything else (floats included) is rejected."""
    cleaned = text.strip()
    if not _RATIONAL_RE.match(cleaned):
        raise InvalidValue(f"not a rational literal: {text!r}")
    return Fraction(cleaned)


def format_rational(value: Fraction) -> str:
    """Render reduced "p/q", or a bare "p" when the denominator is 1."""
    return str(Fraction(value))


def exact(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to Fraction. Floats raise TypeError."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_int(value) -> bool:
    """An int that is not a bool: the one integer test of every constructor."""
    return isinstance(value, int) and not isinstance(value, bool)


def exact_int(value, path: str) -> int:
    """value itself when is_int, else InvalidValue naming path."""
    if not is_int(value):
        raise InvalidValue(f"{path}: expected an integer, got {value!r}")
    return value


def exact_ints(values, path: str) -> tuple[int, ...]:
    """values as a tuple of integers, else InvalidValue naming path or the
    entry path[offset] at fault."""
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidValue(f"{path}: expected a list of integers, got {values!r}") from None
    for offset, value in enumerate(values):
        if value.__class__ is not int and not is_int(value):  # plain ints skip the call
            exact_int(value, f"{path}[{offset}]")
    return values
